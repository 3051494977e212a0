"""CLI contract: schema, determinism, exit codes, manifest reproduction."""

import io
import math
import subprocess
import sys

import pytest

from dualsel.cli import CSV_HEADER, _build_parser, _parse_rho_db, main, run, compare_engines
from dualsel.analytic import SystemConfig


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
        from dualsel.cli import _UsageError

        for bad in ("1:2", "5:1:1", "1:5:0", "1:5:-1", "a:b:c", "0:inf:1", "nan:1:1"):
            with pytest.raises((_UsageError, ValueError)):
                _parse_rho_db(bad)

    def test_range_longer_than_the_cap_is_refused_before_expansion(self):
        # counted arithmetically, so the 1e15-value range is never built
        from dualsel.cli import MAX_RHO_VALUES, _UsageError

        with pytest.raises(_UsageError, match="1000000000000001 values"):
            _parse_rho_db("0:1e12:1e-3")
        assert len(_parse_rho_db(f"1:{MAX_RHO_VALUES}:1")) == MAX_RHO_VALUES
        with pytest.raises(_UsageError, match=str(MAX_RHO_VALUES + 1)):
            _parse_rho_db(f"0:{MAX_RHO_VALUES}:1")


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
            ["--mode", "sweep-n", "--k", "3", "--rho-db", "10", "--trials", "2000"],
            tmp_path / "m.txt",
        )
        assert code == 0
        rows = parse_rows(out)
        assert [r[0] for r in rows] == ["analytic"] * 3 + ["mc"] * 3
        mc_rows = rows[3:]
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
    def test_compare_engines_function(self):
        cfg = SystemConfig(num_users=4, served_index=3, transmit_snr=100.0)
        entry = compare_engines(cfg, 50_000, 0)
        assert entry.sigma < 3.0 and not entry.flagged

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
        args = ["--mode", "esr", "--k", "4", "--served", "3", "--rho-db", "20",
                "--engine", "mc", "--trials", "1000", "--seed", "42"]
        code1, out1, _ = run_inproc(args, tmp_path / "m1.txt")
        recorded = (tmp_path / "m1.txt").read_text()
        inv = next(l for l in recorded.splitlines() if l.startswith("invocation="))
        replay_args = inv[len("invocation="):].split()
        # swap the manifest path, keep everything else exactly as recorded
        idx = replay_args.index("--manifest")
        replay_args[idx + 1] = str(tmp_path / "m2.txt")
        ns = _build_parser().parse_args(replay_args)
        out = io.StringIO()
        code2 = run(ns, replay_args, out=out, err=io.StringIO())
        assert code1 == code2 == 0
        assert out.getvalue() == out1


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

    def test_capability_error(self, tmp_path):
        assert main(["--mode", "sweep-n", "--k", "25", "--engine", "analytic",
                     "--manifest", str(tmp_path / "m.txt")]) == 3

    def test_numerical_error(self, tmp_path):
        # an unreachable tolerance exhausts the quadrature budget
        assert main(["--mode", "esr", "--k", "2", "--served", "1", "--rho-db", "20",
                     "--engine", "analytic", "--tol", "1e-30",
                     "--manifest", str(tmp_path / "m.txt")]) == 4

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

    @pytest.mark.parametrize("mode, served", [("esr", "9"), ("sweep-rho", "4")])
    def test_served_with_tdma_engine_is_usage_error(self, mode, served, tmp_path):
        assert main(["--mode", mode, "--k", "4", "--served", served, "--engine", "tdma",
                     "--manifest", str(tmp_path / "m.txt")]) == 2

    def test_overflowing_rho_is_usage_error(self, tmp_path, capsys):
        assert main(["--mode", "esr", "--k", "4", "--served", "3", "--rho-db", "4000",
                     "--manifest", str(tmp_path / "m.txt")]) == 2
        assert "4000" in capsys.readouterr().err

    def test_oversized_rho_range_is_usage_error(self, tmp_path, capsys):
        assert main(["--mode", "sweep-rho", "--k", "4", "--served", "3", "--engine", "high-snr",
                     "--rho-db", "0:1e12:1e-3", "--manifest", str(tmp_path / "m.txt")]) == 2
        assert "1000000000000001 values" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

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
