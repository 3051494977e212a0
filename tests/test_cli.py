"""CLI contract: schema, determinism, exit codes, manifest reproduction."""

import io
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from dualsel import cli
from dualsel.cli import CSV_HEADER, RunManifest, _build_parser, _parse_rho_db, main, run


def run_inproc(args, manifest_path):
    argv = list(args) + ["--manifest", str(manifest_path)]
    ns = _build_parser().parse_args(argv)
    out, err = io.StringIO(), io.StringIO()
    code = run(ns, argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_subprocess(args):
    return subprocess.run(
        [sys.executable, "-m", "dualsel.cli", *args],
        capture_output=True,
        text=True,
    )


def parse_rows(csv_text):
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestRhoParsing:
    def test_singleton(self):
        assert _parse_rho_db("20") == [20.0]
        assert _parse_rho_db("-5.5") == [-5.5]

    def test_range(self):
        assert _parse_rho_db("10:50:10") == [10.0, 20.0, 30.0, 40.0, 50.0]
        assert _parse_rho_db("0:1:0.5") == [0.0, 0.5, 1.0]

    def test_bad_specs(self):
        for bad in ("1:2", "5:1:1", "1:5:0", "1:5:-1", "a:b:c", "0:inf:1", "nan:1:1"):
            with pytest.raises(ValueError):
                _parse_rho_db(bad)

    def test_range_longer_than_the_cap_is_refused_before_expansion(self):
        # counted arithmetically, so the 1e15-value range is never built
        from dualsel.cli import MAX_RHO_VALUES

        with pytest.raises(ValueError, match="1000000000000001 values"):
            _parse_rho_db("0:1e12:1e-3")
        assert len(_parse_rho_db(f"1:{MAX_RHO_VALUES}:1")) == MAX_RHO_VALUES
        with pytest.raises(ValueError, match=str(MAX_RHO_VALUES + 1)):
            _parse_rho_db(f"0:{MAX_RHO_VALUES}:1")

    @pytest.mark.parametrize(
        "text",
        # at 1e21 a step of 1 is below half the spacing of doubles, so
        # start + k * step never passes the stop; near 3000 the 6 669 values
        # of the second range hold 2 200 distinct floats
        ["1e21:1e21:1", "3000:3000:1.5e-13"],
    )
    def test_a_step_lost_in_rounding_is_refused(self, text):
        with pytest.raises(ValueError, match="step too small to advance its values"):
            _parse_rho_db(text)


def test_readme_flag_table_lists_the_parser_flags():
    # README's flag table names every flag the parser defines and no other,
    # and its --mode and --engine rows name every choice
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `(--[a-z-]+)` \| (.*) \|$", readme, re.MULTILINE))
    flags = {
        action.option_strings[-1]
        for action in _build_parser()._actions
        if action.dest != "help"
    }
    assert set(rows) == flags
    for flag, choices in (("--mode", cli._MODES), ("--engine", cli._ENGINES)):
        assert all(f"`{choice}`" in rows[flag] for choice in choices), flag


def test_negative_range_is_written_with_an_equals_sign(tmp_path):
    # "--rho-db -10:0:5" reads as a flag to argparse; "--rho-db=-10:0:5" does not
    code, out, _ = run_inproc(
        ["--mode", "sweep-rho", "--k", "4", "--served", "3", "--engine", "high-snr",
         "--rho-db=-10:0:5"],
        tmp_path / "m.txt",
    )
    assert code == 0
    assert [row[3] for row in parse_rows(out)] == ["-10", "-5", "0"]


class TestSweepN:
    def test_fig1_shape(self, tmp_path):
        code, out, _ = run_inproc(
            ["--mode", "sweep-n", "--k", "4", "--rho-db", "20", "--engine", "analytic"],
            tmp_path / "m.txt",
        )
        assert code == 0
        rows = parse_rows(out)
        assert len(rows) == 4
        assert [r[2] for r in rows] == ["1", "2", "3", "4"]
        esr = [float(r[4]) for r in rows]
        assert esr.index(max(esr)) == 2  # n = 3
        # analytic rows leave the Monte Carlo columns blank
        assert all(r[5] == "" and r[6] == "" and r[7] == "" for r in rows)

    def test_both_engines_roworder(self, tmp_path):
        code, out, _ = run_inproc(
            ["--mode", "sweep-n", "--k", "3", "--rho-db", "10:20:10", "--trials", "2000"],
            tmp_path / "m.txt",
        )
        assert code == 0
        rows = parse_rows(out)
        # rho-major: both engines' n-scans at 10 dB, then at 20 dB
        assert [(r[0], r[3]) for r in rows] == [
            (e, rho) for rho in ("10", "20") for e in ("analytic", "mc") for _ in range(3)
        ]
        mc_rows = [r for r in rows if r[0] == "mc"]
        assert all(r[6] == "2000" and r[7] == "0" for r in mc_rows)


class TestEsrMode:
    def test_tdma_engine_forces_n_equal_K(self, tmp_path):
        code, out, _ = run_inproc(
            ["--mode", "esr", "--k", "4", "--rho-db", "20", "--engine", "tdma"],
            tmp_path / "m.txt",
        )
        assert code == 0
        rows = parse_rows(out)
        assert len(rows) == 1 and rows[0][0] == "tdma" and rows[0][2] == "4"

    def test_units_bits(self, tmp_path):
        _, out_nats, _ = run_inproc(
            ["--mode", "esr", "--k", "4", "--served", "3", "--rho-db", "20",
             "--engine", "analytic"],
            tmp_path / "m1.txt",
        )
        _, out_bits, _ = run_inproc(
            ["--mode", "esr", "--k", "4", "--served", "3", "--rho-db", "20",
             "--engine", "analytic", "--units", "bits"],
            tmp_path / "m2.txt",
        )
        nats = float(parse_rows(out_nats)[0][4])
        bits = float(parse_rows(out_bits)[0][4])
        # both columns carry 12 significant digits
        assert bits == pytest.approx(nats / math.log(2.0), rel=1e-10)

    def test_high_snr_engine(self, tmp_path):
        code, out, _ = run_inproc(
            ["--mode", "esr", "--k", "4", "--served", "3", "--rho-db", "50",
             "--engine", "high-snr"],
            tmp_path / "m.txt",
        )
        assert code == 0
        assert parse_rows(out)[0][0] == "high-snr"


class TestSweepRho:
    def test_range_rows_and_agreement(self, tmp_path):
        code, out, _ = run_inproc(
            ["--mode", "sweep-rho", "--k", "8", "--served", "7",
             "--rho-db", "10:50:10", "--trials", "20000"],
            tmp_path / "m.txt",
        )
        assert code == 0
        rows = parse_rows(out)
        assert len(rows) == 10  # 5 rho points x 2 engines
        assert [r[0] for r in rows] == ["analytic"] * 5 + ["mc"] * 5  # engine-major
        analytic = {r[3]: float(r[4]) for r in rows if r[0] == "analytic"}
        for r in rows:
            if r[0] == "mc":
                se = float(r[5])
                assert abs(float(r[4]) - analytic[r[3]]) <= 3.0 * se


class TestSelectMode:
    def test_select_reports_best(self, tmp_path):
        code, out, err = run_inproc(
            ["--mode", "select", "--k", "8", "--rho-db", "20", "--engine", "analytic"],
            tmp_path / "m.txt",
        )
        assert code == 0
        rows = parse_rows(out)
        assert len(rows) == 8
        assert "best served index n = 7" in err
        manifest = (tmp_path / "m.txt").read_text()
        assert "best_n_analytic=7" in manifest


class TestCompareMode:
    def test_engines_agree_within_three_sigma(self, tmp_path):
        code, _, err = run_inproc(
            ["--mode", "compare", "--k", "4", "--served", "3", "--rho-db", "20",
             "--trials", "50000", "--seed", "0"],
            tmp_path / "m.txt",
        )
        assert code == 0
        assert err.startswith("compare[ok] ")
        manifest = dict(l.split("=", 1) for l in (tmp_path / "m.txt").read_text().splitlines())
        assert manifest["compare_flagged"] == "0"
        assert float(manifest["compare_max_sigma"]) < 3.0

    def test_compare_mode_rows_and_report(self, tmp_path):
        code, out, err = run_inproc(
            ["--mode", "compare", "--k", "4", "--served", "3", "--rho-db", "20",
             "--trials", "20000"],
            tmp_path / "m.txt",
        )
        assert code == 0
        rows = parse_rows(out)
        assert [r[0] for r in rows] == ["analytic", "mc"]
        assert "sigma" in err
        assert "compare_max_sigma=" in (tmp_path / "m.txt").read_text()

    def test_a_zero_stderr_is_flagged(self, tmp_path):
        # one trial has stderr 0, so any difference is inf sigma
        code, _, err = run_inproc(
            ["--mode", "compare", "--k", "4", "--served", "2", "--trials", "1"], tmp_path / "m.txt"
        )
        assert code == 0
        assert err.startswith("compare[FLAG] K=4 n=2 rho=20 dB: ")
        assert err.endswith(" (inf sigma)\n")
        manifest = dict(l.split("=", 1) for l in (tmp_path / "m.txt").read_text().splitlines())
        assert manifest["compare_max_sigma"] == "inf"
        assert manifest["compare_flagged"] == "1"


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        path = tmp_path / "manifest.txt"
        code, out, _ = run_inproc(
            ["--mode", "esr", "--k", "4", "--served", "3", "--rho-db", "20",
             "--engine", "mc", "--trials", "1000", "--seed", "42"],
            path,
        )
        assert code == 0
        text = path.read_text()
        assert "tool_version=" in text
        assert "seed=42" in text
        assert "rows_emitted=1" in text
        assert "--mode esr" in text

    def test_replaying_manifest_invocation_reproduces_csv(self, tmp_path):
        # the invocation is shell-quoted, so a manifest path with a space
        # replays as one argument
        args = ["--mode", "esr", "--k", "4", "--served", "3", "--rho-db", "20",
                "--engine", "mc", "--trials", "1000", "--seed", "42"]
        (tmp_path / "out dir").mkdir()
        for path in (tmp_path / "m1.txt", tmp_path / "out dir" / "m1.txt"):
            code1, out1, _ = run_inproc(args, path)
            recorded = path.read_text()
            inv = next(l for l in recorded.splitlines() if l.startswith("invocation="))
            replay_args = shlex.split(inv[len("invocation="):])
            assert replay_args == [*args, "--manifest", str(path)]
            # swap the manifest path, keep everything else exactly as recorded
            idx = replay_args.index("--manifest")
            replay_args[idx + 1] = str(path.with_name("m2.txt"))
            ns = _build_parser().parse_args(replay_args)
            out = io.StringIO()
            code2 = run(ns, replay_args, out=out, err=io.StringIO())
            assert code1 == code2 == 0
            assert out.getvalue() == out1

    def test_a_longer_file_is_replaced_by_exactly_the_new_manifest(self, tmp_path):
        manifest = RunManifest("1.0", "--manifest 'é.txt'", 7, "t0", "t1", 3, {"best_n_mc": 2})
        want = ("tool_version=1.0\ninvocation=--manifest 'é.txt'\nseed=7\nstarted=t0\n"
                "finished=t1\nrows_emitted=3\nbest_n_mc=2\n").encode("utf-8")
        for old in (b"", b"x" * 5, b"x\n" * 10_000):
            path = tmp_path / "m.txt"
            path.write_bytes(old)
            manifest.write(path)
            assert path.read_bytes() == want
        # the CLI over a longer file leaves one key=value per line
        code, _, _ = run_inproc(["--mode", "esr", "--k", "4", "--engine", "tdma"], path)
        assert code == 0
        text = path.read_text(encoding="utf-8")
        assert [line.partition("=")[0] for line in text.splitlines()] == [
            "tool_version", "invocation", "seed", "started", "finished", "rows_emitted"
        ]
        assert text.endswith("rows_emitted=1\n")

    def test_an_existing_manifest_is_never_truncated_to_zero(self, tmp_path, monkeypatch):
        # truncating a file to 0 bytes and refilling it makes ext4 flush the
        # new data at close (auto_da_alloc); the manifest is rewritten in place
        opened, cut = [], []
        real_open, real_ftruncate = cli.os.open, cli.os.ftruncate

        def spy_open(path, flags, *args, **kwargs):
            opened.append((str(path), flags))
            return real_open(path, flags, *args, **kwargs)

        def spy_ftruncate(fd, length):
            cut.append(length)
            return real_ftruncate(fd, length)

        monkeypatch.setattr(cli.os, "open", spy_open)
        monkeypatch.setattr(cli.os, "ftruncate", spy_ftruncate)
        path = tmp_path / "m.txt"
        for old in (b"", b"x" * 5, b"x\n" * 10_000):
            path.write_bytes(old)
            opened.clear()
            code, _, _ = run_inproc(["--mode", "esr", "--k", "4", "--engine", "tdma"], path)
            assert code == 0
            assert [flags & os.O_TRUNC for p, flags in opened if p == str(path)] == [0]
        assert cut and 0 not in cut

    def test_a_new_manifest_gets_the_default_file_mode(self, tmp_path):
        old = os.umask(0o027)
        try:
            RunManifest("1.0", "", 0, "").write(tmp_path / "m.txt")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "m.txt").stat().st_mode) == 0o640

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_dev_null_as_manifest_prints_the_full_csv(self, tmp_path, capsys):
        args = ["--mode", "sweep-n", "--k", "5", "--engine", "high-snr"]
        assert main([*args, "--manifest", str(tmp_path / "m.txt")]) == 0
        want = capsys.readouterr().out
        assert main([*args, "--manifest", "/dev/null"]) == 0
        assert capsys.readouterr().out == want
        assert want.startswith(CSV_HEADER) and want.count("\n") == 6

    def test_a_directory_as_manifest_is_usage_error(self, tmp_path):
        code, out, err = run_inproc(
            ["--mode", "esr", "--k", "4", "--served", "3", "--engine", "high-snr"], tmp_path
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"dualsel: cannot write manifest {tmp_path}: ")


class TestExitCodes:
    def test_missing_served_is_usage_error(self, tmp_path):
        assert main(["--mode", "esr", "--k", "4", "--rho-db", "20",
                     "--manifest", str(tmp_path / "m.txt")]) == 2

    def test_served_with_sweep_n_is_usage_error(self, tmp_path):
        assert main(["--mode", "sweep-n", "--k", "4", "--served", "2",
                     "--manifest", str(tmp_path / "m.txt")]) == 2

    def test_bad_rho_spec_is_usage_error(self, tmp_path):
        assert main(["--mode", "esr", "--k", "4", "--served", "3",
                     "--rho-db", "10:5:1", "--manifest", str(tmp_path / "m.txt")]) == 2

    @pytest.mark.parametrize(
        "db, why",
        [("3083", "3083 is too large"), ("1e400", "inf is too large"),
         ("-3300", "-3300 has no positive"), ("nan", "nan has no positive"),
         ("-3300:0:3300", "-3300 has no positive")],
        ids=["overflow", "inf", "zero", "nan", "zero-in-range"],
    )
    def test_snr_with_no_linear_value_is_usage_error(self, db, why, tmp_path, capsys):
        # every value is checked, not only the largest: -3300 dB underflows
        # to a linear SNR of 0.0, and nan has none
        assert main(["--mode", "sweep-rho", "--k", "4", "--served", "3", "--engine", "high-snr",
                     f"--rho-db={db}", "--manifest", str(tmp_path / "m.txt")]) == 2
        err = capsys.readouterr().err
        assert f"usage error: --rho-db {why}" in err, err
        assert not (tmp_path / "m.txt").exists()

    def test_capability_error(self, tmp_path):
        # the K <= 20 cap holds at n = K under every engine too
        for args in (
            ["--mode", "sweep-n", "--k", "25", "--engine", "analytic"],
            ["--mode", "esr", "--k", "21", "--served", "21", "--engine", "mc"],
            ["--mode", "esr", "--k", "21", "--served", "21", "--engine", "high-snr"],
            ["--mode", "sweep-rho", "--k", "30", "--served", "30", "--engine", "mc",
             "--rho-db", "0:10:10"],
            ["--mode", "esr", "--k", "2000", "--served", "2000", "--engine", "high-snr"],
        ):
            assert main([*args, "--trials", "10", "--manifest", str(tmp_path / "m.txt")]) == 3
        assert not (tmp_path / "m.txt").exists()

    def test_numerical_error(self, tmp_path, capsys):
        # an unreachable tolerance exhausts the quadrature budget; the
        # message names the cell
        assert main(["--mode", "esr", "--k", "2", "--served", "1", "--rho-db", "20",
                     "--engine", "analytic", "--tol", "1e-30",
                     "--manifest", str(tmp_path / "m.txt")]) == 4
        assert "numerical error: K=2, n=1, rho=100 (20 dB): quadrature budget" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("K", [2, 8])
    @pytest.mark.parametrize("engine", ["analytic", "mc", "high-snr", "tdma"])
    def test_every_accepted_snr_gives_a_value_or_names_its_cell(self, engine, K, tmp_path, capsys):
        # Each accepted (K, n, rho) prints a finite value (exit 0) or exits 4
        # naming the cell. An uncaught exception (exit 1 from the shell), a
        # usage error (exit 2) or a RuntimeWarning (an error under pytest)
        # fails. The -26 dB and lower points overflow e^(2/rho) in the
        # analytic engine. At 3082 dB rho h overflows in the Monte Carlo
        # rates, which take those trials in logs and answer. -3076 dB is
        # the least whole dB whose rho is a normal double; there K/rho
        # overflows in the TDMA engine at K = 8.
        n = K if engine == "tdma" else K - 1
        for db in ("-3076", "-3000", "-160", "-60", "-26", "-25", "0", "60", "300",
                   "3000", "3082"):
            argv = ["--mode", "esr", "--k", str(K), "--engine", engine, f"--rho-db={db}",
                    "--manifest", str(tmp_path / "m.txt")]
            argv += ["--trials", "1000"] if engine == "mc" else []
            argv += [] if engine == "tdma" else ["--served", str(n)]
            code = main(argv)
            out, err = capsys.readouterr()
            if code == 0:
                (row,) = parse_rows(out)
                assert math.isfinite(float(row[4])), (db, row)
            else:
                assert code == 4, (db, err)
                named = f"{10.0 * math.log10(10.0 ** (float(db) / 10.0)):.6g}"
                assert f"numerical error: K={K}, n={n}, rho=" in err and f"({named} dB)" in err, err

    @pytest.mark.parametrize("engine", ["analytic", "mc", "high-snr", "tdma"])
    def test_subnormal_snr_is_usage_error(self, engine, tmp_path, capsys):
        # a subnormal rho has fewer than 53 significant bits; at -3235 dB
        # only the least subnormal is left, which is -3233.06 dB
        for db, rho in (("-3080", "1e-308"), ("-3235", "4.94066e-324")):
            argv = ["--mode", "esr", "--k", "8", "--engine", engine, f"--rho-db={db}",
                    "--manifest", str(tmp_path / "m.txt")]
            argv += [] if engine == "tdma" else ["--served", "7"]
            assert main(argv) == 2
            want = f"--rho-db {db} gives the subnormal linear SNR {rho}, below 2.22507e-308"
            assert want in capsys.readouterr().err
            assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tol_is_usage_error(self, tol, tmp_path, capsys):
        # the Monte Carlo engine never reads --tol, so only the flag check refuses it
        assert main(["--mode", "esr", "--k", "4", "--served", "3", "--engine", "mc",
                     "--tol", tol, "--manifest", str(tmp_path / "m.txt")]) == 2
        assert f"--tol must be positive and finite, got {tol}" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_subnormal_tol_is_usage_error(self, tmp_path, capsys):
        # psi could not split it between its two halves
        assert main(["--mode", "esr", "--k", "2", "--served", "1", "--engine", "analytic",
                     "--tol", "5e-324", "--manifest", str(tmp_path / "m.txt")]) == 2
        want = "usage error: --tol 4.94066e-324 is subnormal, below 2.22507e-308"
        assert want in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_tol_too_small_to_split_names_its_cell(self, tmp_path, capsys):
        # exp_ce takes Psi to tol e^(-2/rho), the least subnormal here, which
        # used to reach quad_interval as a tol of 0.0 and exit 2
        assert main(["--mode", "esr", "--k", "2", "--served", "1", "--engine", "analytic",
                     "--tol", "1e-300", "--rho-db=-14.3",
                     "--manifest", str(tmp_path / "m.txt")]) == 4
        err = capsys.readouterr().err
        assert "numerical error: K=2, n=1, rho=0.0371535 (-14.3 dB): tol = 5e-324" in err, err

    def test_one_process_reuses_its_parser(self, tmp_path, capsys):
        # cli.main builds its parser once per process; no call may leave a
        # trace on it that changes a later call's CSV or exit code
        first = ["--mode", "sweep-n", "--k", "5", "--engine", "high-snr", "--rho-db", "30"]
        runs = [
            (first, 0),
            (["--mode", "sweep-rho", "--k", "4", "--engine", "tdma", "--rho-db", "0:20:10",
              "--units", "bits"], 0),
            (["--mode", "esr", "--k", "4", "--served", "2", "--engine", "mc",
              "--trials", "500", "--seed", "7"], 0),
            (["--mode", "esr", "--k", "4", "--frobnicate"], 2),
            (["--mode", "esr", "--k", "4"], 2),
            (["--mode", "select", "--k", "3", "--engine", "high-snr", "--served", "2"], 2),
            (["--k", "4"], 2),
            (first, 0),
        ]
        outs = []
        for argv, code in runs:
            assert main([*argv, "--manifest", str(tmp_path / "m.txt")]) == code
            outs.append(capsys.readouterr().out)
        assert outs[-1] == outs[0]
        assert outs[0].startswith(CSV_HEADER) and outs[0].count("\n") == 6

    def test_unknown_flag_is_usage_error(self):
        assert main(["--mode", "esr", "--k", "4", "--frobnicate"]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--mode", "esr", "--served", "1", "--engine", "analytic"],
            ["--mode", "esr", "--engine", "tdma"],
            ["--mode", "sweep-n", "--engine", "mc"],
            ["--mode", "sweep-rho", "--engine", "tdma"],
            ["--mode", "select"],
            ["--mode", "compare", "--served", "1"],
        ],
    )
    def test_fewer_than_two_users_is_usage_error(self, args, tmp_path):
        assert main([*args, "--k", "1", "--manifest", str(tmp_path / "m.txt")]) == 2
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("engine", ["high-snr", "mc", "both"])
    @pytest.mark.parametrize("mode", ["sweep-n", "select"])
    def test_too_many_users_are_refused_before_any_cell_is_built(self, mode, engine, tmp_path):
        # a scan over n = 1..K would hold K cells; the user count is checked first
        tracemalloc.start()
        try:
            code = main(["--mode", mode, "--k", "200000", "--engine", engine,
                         "--manifest", str(tmp_path / "m.txt")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 1 << 20, peak
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mode", "esr", "--served", "3", "--seed", "7\n"],
             "--seed value '7\\n' contains a line break"),
            (["--mode", "esr", "--served", "3", "--seed=-1"],
             "--seed must be an unsigned 64-bit integer"),
            (["--mode", "esr", "--served", "3", "--seed", "18446744073709551616"],
             "--seed must be an unsigned 64-bit integer"),
            (["--mode", "esr", "--served", "3", "--trials", "0"], "--trials must be >= 1"),
            (["--mode", "esr", "--served", "3", "--tol", "0"],
             "--tol must be positive and finite, got 0"),
            (["--mode", "esr"], "--served is required for --mode esr"),
            (["--mode", "sweep-rho"], "--served is required for --mode sweep-rho"),
            (["--mode", "compare"], "--served is required for --mode compare"),
            (["--mode", "esr", "--served", "0"], "--served must be in [1, 4]"),
            (["--mode", "compare", "--served", "5"], "--served must be in [1, 4]"),
            (["--mode", "sweep-n", "--served", "2"], "--served is not used by --mode sweep-n"),
            (["--mode", "select", "--served", "2"], "--served is not used by --mode select"),
            (["--mode", "esr", "--engine", "tdma", "--served", "4"],
             "--served is not used by --engine tdma; it evaluates n = K"),
            (["--mode", "esr", "--served", "3", "--rho-db", "0:10:10"],
             "--mode esr needs a single --rho-db value"),
            (["--mode", "select", "--rho-db", "0:10:10"],
             "--mode select needs a single --rho-db value"),
            (["--mode", "compare", "--served", "4"],
             "--mode compare needs a dual-selection slot (served < K)"),
            (["--mode", "compare", "--served", "3", "--engine", "mc"],
             "--mode compare always runs both engines; drop --engine"),
            (["--mode", "compare", "--engine", "high-snr", "--served", "3"],
             "--mode compare always runs both engines; drop --engine"),
            (["--mode", "sweep-n", "--engine", "tdma"],
             "--engine tdma is not meaningful for --mode sweep-n; "
             "the TDMA-like slot already appears as the n = K row"),
            (["--mode", "select", "--engine", "tdma"],
             "--engine tdma is not meaningful for --mode select; "
             "the TDMA-like slot already appears as the n = K row"),
            (["--mode", "esr", "--served", "3", "--rho-db=abc"],
             "--rho-db expects VALUE or START:STOP:STEP, got 'abc'"),
            (["--mode", "esr", "--served", "3", "--rho-db="],
             "--rho-db expects VALUE or START:STOP:STEP, got ''"),
            (["--mode", "sweep-rho", "--served", "3", "--rho-db=1:2:x"],
             "--rho-db expects VALUE or START:STOP:STEP, got '1:2:x'"),
        ],
    )
    def test_each_usage_rule_exits_2_with_its_message(self, flags, message, tmp_path, capsys):
        # one case per flag rule; the --rho-db values have tests of their own
        assert main(["--k", "4", *flags, "--manifest", str(tmp_path / "m.txt")]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"dualsel: usage error: {message}\n")
        assert not (tmp_path / "m.txt").exists()

    def test_a_usage_error_comes_before_the_user_count(self, tmp_path, capsys):
        # the user count is the last flag check, so a usage error still exits 2
        for args, message in (
            (["--mode", "sweep-n", "--trials", "0"], "--trials must be >= 1"),
            (["--mode", "sweep-n", "--engine", "tdma"], "--engine tdma is not meaningful"),
            (["--mode", "select", "--engine", "tdma"], "--engine tdma is not meaningful"),
            (["--mode", "compare", "--engine", "mc", "--served", "3"],
             "--mode compare always runs both engines"),
        ):
            assert main([*args, "--k", "21", "--manifest", str(tmp_path / "m.txt")]) == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("db",["1e21:1e21:1", "3000:3000:1.5e-13"])
    def test_a_step_that_does_not_advance_is_usage_error(self, db, tmp_path, capsys):
        assert main(["--mode", "sweep-rho", "--k", "4", "--served", "3", "--engine", "high-snr",
                     "--rho-db", db, "--manifest", str(tmp_path / "m.txt")]) == 2
        message = f"--rho-db range {db!r} has a step too small to advance its values"
        assert capsys.readouterr() == ("", f"dualsel: usage error: {message}\n")
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("mode, served", [("esr", "9"), ("sweep-rho", "4")])
    def test_served_with_tdma_engine_is_usage_error(self, mode, served, tmp_path):
        assert main(["--mode", mode, "--k", "4", "--served", served, "--engine", "tdma",
                     "--manifest", str(tmp_path / "m.txt")]) == 2

    def test_overflowing_rho_is_usage_error(self, tmp_path, capsys):
        assert main(["--mode", "esr", "--k", "4", "--served", "3", "--rho-db", "4000",
                     "--manifest", str(tmp_path / "m.txt")]) == 2
        assert "4000" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--served", "4", "--engine", "high-snr"],
            ["--served", "3", "--engine", "high-snr"],
            ["--served", "4", "--engine", "mc"],
            ["--engine", "tdma"],
        ],
    )
    def test_underflowing_rho_is_usage_error(self, args, tmp_path, capsys):
        # -4000 dB is a linear SNR of 0.0, refused for every engine at every n
        assert main(["--mode", "esr", "--k", "4", *args, "--rho-db", "-4000",
                     "--manifest", str(tmp_path / "m.txt")]) == 2
        assert "--rho-db -4000 has no positive linear SNR" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_oversized_rho_range_is_usage_error(self, tmp_path, capsys):
        assert main(["--mode", "sweep-rho", "--k", "4", "--served", "3", "--engine", "high-snr",
                     "--rho-db", "0:1e12:1e-3", "--manifest", str(tmp_path / "m.txt")]) == 2
        assert "1000000000000001 values" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--manifest", "{tmp}/a\nb.txt"], "--manifest"),
            (["--manifest={tmp}/a\rb.txt"], "--manifest"),
            (["--rho-db", "20\n"], "--rho-db"),
            (["--rho-db=20\u2028"], "--rho-db"),
            (["--seed", "7\n"], "--seed"),
            (["--tol", "1e-9\x0c"], "--tol"),
        ],
    )
    def test_a_line_break_in_a_flag_value_is_usage_error(self, flags, named, tmp_path, capsys):
        # int() and float() strip the break, but the manifest's invocation
        # line would be split in two
        flags = [f.replace("{tmp}", str(tmp_path)) for f in flags]
        argv = ["--mode", "esr", "--k", "4", "--served", "3", "--engine", "high-snr"]
        if not any(f.startswith("--manifest") for f in flags):
            argv += ["--manifest", str(tmp_path / "m.txt")]
        assert main([*argv, *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"dualsel: usage error: {named} value ")
        assert "contains a line break" in err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_manifest_is_usage_error(self, tmp_path):
        path = tmp_path / "missing" / "m.txt"
        code, out, err = run_inproc(
            ["--mode", "esr", "--k", "4", "--served", "3", "--engine", "high-snr"], path
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"dualsel: cannot write manifest {path}: ")


class TestMonteCarloPins:
    """Monte Carlo rows are bit-reproducible, so their CSV bytes are pinned:
    any change to how cells are dispatched must leave them unchanged."""

    @pytest.mark.parametrize(
        "args, mc_rows",
        [
            (["--mode", "esr", "--k", "3", "--served", "2", "--engine", "mc"],
             "mc,3,2,20,1.93562336846,0.0545529,500,11\n"),
            (["--mode", "esr", "--k", "3", "--served", "3", "--engine", "mc"],
             "mc,3,3,20,0.987372430603,0.0599113,500,11\n"),
            (["--mode", "sweep-n", "--k", "3", "--engine", "mc", "--rho-db", "0:10:10"],
             "mc,3,1,0,0,0.0128509,500,11\n"
             "mc,3,2,0,0.0357383889619,0.0149644,500,11\n"
             "mc,3,3,0,0.413948044323,0.0251478,500,11\n"
             "mc,3,1,10,0.0633874982539,0.0354495,500,11\n"
             "mc,3,2,10,0.620481918643,0.0369056,500,11\n"
             "mc,3,3,10,0.821836138363,0.0483321,500,11\n"),
            (["--mode", "sweep-rho", "--k", "3", "--served", "2", "--engine", "mc",
              "--rho-db", "0:20:10"],
             "mc,3,2,0,0.0357383889619,0.0149644,500,11\n"
             "mc,3,2,10,0.620481918643,0.0369056,500,11\n"
             "mc,3,2,20,1.93562336846,0.0545529,500,11\n"),
            (["--mode", "select", "--k", "3", "--engine", "mc"],
             "mc,3,1,20,1.2599365503,0.055354,500,11\n"
             "mc,3,2,20,1.93562336846,0.0545529,500,11\n"
             "mc,3,3,20,0.987372430603,0.0599113,500,11\n"),
            (["--mode", "compare", "--k", "3", "--served", "2", "--rho-db", "10:20:10"],
             "mc,3,2,10,0.620481918643,0.0369056,500,11\n"
             "mc,3,2,20,1.93562336846,0.0545529,500,11\n"),
        ],
    )
    def test_mc_rows_are_pinned(self, args, mc_rows, tmp_path):
        code, out, _ = run_inproc([*args, "--trials", "500", "--seed", "11"], tmp_path / "m.txt")
        assert code == 0
        assert "".join(l + "\n" for l in out.splitlines() if l.startswith("mc,")) == mc_rows


class TestVerdictPins:
    """The whole output of a select and a compare run is pinned: CSV, the
    verdict lines on stderr and the verdict keys of the manifest."""

    @pytest.mark.parametrize(
        "args, csv, verdicts, manifest_tail",
        [
            (["--mode", "select", "--k", "4", "--engine", "both"],
             "analytic,4,1,20,1.06615846183,,,\n"
             "analytic,4,2,20,1.76488164077,,,\n"
             "analytic,4,3,20,2.10866053555,,,\n"
             "analytic,4,4,20,1.10693116149,,,\n"
             "mc,4,1,20,1.16359813828,0.0526978,500,11\n"
             "mc,4,2,20,1.80496609483,0.0518581,500,11\n"
             "mc,4,3,20,2.12987386821,0.0535349,500,11\n"
             "mc,4,4,20,1.02338360242,0.0584107,500,11\n",
             "select[analytic]: best served index n = 3 (K=4, rho=20 dB)\n"
             "select[mc]: best served index n = 3 (K=4, rho=20 dB)\n",
             ["rows_emitted=8", "best_n_analytic=3", "best_n_mc=3"]),
            (["--mode", "compare", "--k", "3", "--served", "2", "--rho-db", "10:20:10"],
             "analytic,3,2,10,0.568554855864,,,\n"
             "mc,3,2,10,0.620481918643,0.0369056,500,11\n"
             "analytic,3,2,20,1.85195729787,,,\n"
             "mc,3,2,20,1.93562336846,0.0545529,500,11\n",
             "compare[ok] K=3 n=2 rho=10 dB: analytic=0.568555 mc=0.620482 "
             "|diff|=5.193e-02 (1.41 sigma)\n"
             "compare[ok] K=3 n=2 rho=20 dB: analytic=1.851957 mc=1.935623 "
             "|diff|=8.367e-02 (1.53 sigma)\n",
             ["rows_emitted=4", "compare_max_abs_diff=8.366607e-02",
              "compare_max_sigma=1.534", "compare_flagged=0"]),
        ],
        ids=["select", "compare"],
    )
    def test_output_is_pinned(self, args, csv, verdicts, manifest_tail, tmp_path):
        code, out, err = run_inproc([*args, "--trials", "500", "--seed", "11"], tmp_path / "m.txt")
        assert code == 0
        assert out == CSV_HEADER + "\n" + csv
        assert err == verdicts
        # rows_emitted and the verdict keys come after the fixed header fields
        assert (tmp_path / "m.txt").read_text().splitlines()[5:] == manifest_tail


class TestClosedFormPins:
    """The whole stdout of high-SNR and TDMA runs is pinned, so sharing
    terms across the cells of a scan cannot move a digit."""

    @pytest.mark.parametrize(
        "args, csv",
        [
            (["--mode", "sweep-n", "--k", "20", "--engine", "high-snr", "--rho-db", "20"],
             "high-snr,20,1,20,0,,,\n"
             "high-snr,20,2,20,0.363446647478,,,\n"
             "high-snr,20,3,20,0.874628356351,,,\n"
             "high-snr,20,4,20,1.21501971226,,,\n"
             "high-snr,20,5,20,1.46910900923,,,\n"
             "high-snr,20,6,20,1.67118009905,,,\n"
             "high-snr,20,7,20,1.83773927532,,,\n"
             "high-snr,20,8,20,1.97996229254,,,\n"
             "high-snr,20,9,20,2.1024063986,,,\n"
             "high-snr,20,10,20,2.21068748118,,,\n"
             "high-snr,20,11,20,2.30740027329,,,\n"
             "high-snr,20,12,20,2.39425424776,,,\n"
             "high-snr,20,13,20,2.47390514033,,,\n"
             "high-snr,20,14,20,2.54722360197,,,\n"
             "high-snr,20,15,20,2.61577929419,,,\n"
             "high-snr,20,16,20,2.68087875669,,,\n"
             "high-snr,20,17,20,2.74412669776,,,\n"
             "high-snr,20,18,20,2.80792191316,,,\n"
             "high-snr,20,19,20,2.87713119544,,,\n"
             "high-snr,20,20,20,1.80042608789,,,\n"),
            (["--mode", "sweep-rho", "--k", "12", "--served", "6", "--engine", "high-snr",
              "--rho-db", "10:60:5"],
             "high-snr,12,6,10,0.224595823668,,,\n"
             "high-snr,12,6,15,1.16464897656,,,\n"
             "high-snr,12,6,20,2.10470212962,,,\n"
             "high-snr,12,6,25,3.04475528372,,,\n"
             "high-snr,12,6,30,3.9848084364,,,\n"
             "high-snr,12,6,35,4.92486158972,,,\n"
             "high-snr,12,6,40,5.86491474277,,,\n"
             "high-snr,12,6,45,6.80496789594,,,\n"
             "high-snr,12,6,50,7.74502104918,,,\n"
             "high-snr,12,6,55,8.68507420294,,,\n"
             "high-snr,12,6,60,9.62512735585,,,\n"),
            (["--mode", "sweep-rho", "--k", "20", "--engine", "tdma", "--rho-db", "0:60:5"],
             "tdma,20,20,0,0.89469421061,,,\n"
             "tdma,20,20,5,1.27850069137,,,\n"
             "tdma,20,20,10,1.54175133767,,,\n"
             "tdma,20,20,15,1.68541108281,,,\n"
             "tdma,20,20,20,1.75297634604,,,\n"
             "tdma,20,20,25,1.78183590216,,,\n"
             "tdma,20,20,30,1.79340283499,,,\n"
             "tdma,20,20,35,1.79784187096,,,\n"
             "tdma,20,20,40,1.79949384975,,,\n"
             "tdma,20,20,45,1.80009489171,,,\n"
             "tdma,20,20,50,1.80030984274,,,\n"
             "tdma,20,20,55,1.80038568708,,,\n"
             "tdma,20,20,60,1.80041216121,,,\n"),
        ],
        ids=["high-snr-sweep-n", "high-snr-sweep-rho", "tdma-sweep-rho"],
    )
    def test_stdout_is_pinned(self, args, csv, tmp_path):
        code, out, err = run_inproc(args, tmp_path / "m.txt")
        assert (code, err) == (0, "")
        assert out == CSV_HEADER + "\n" + csv


class TestDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        args = ["--mode", "esr", "--k", "4", "--served", "3", "--rho-db", "20",
                "--engine", "mc", "--trials", "10000", "--seed", "42",
                "--manifest", str(tmp_path / "m.txt")]
        r1 = run_subprocess(args)
        r2 = run_subprocess(args)
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout
        assert r1.stdout.startswith(CSV_HEADER)
