"""Command-line front end: single evaluations, served-user sweeps, SNR
sweeps, selection searches, and analytic-vs-Monte-Carlo comparisons.

Emits plot-ready CSV rows on standard output (fixed schema
``mode,K,n,rho_db,esr_nats,stderr,trials,seed``) and a flat key=value run
manifest. Rerunning the flag list recorded in a manifest reproduces the CSV
byte for byte.

Exit codes: 0 success, 2 usage, 3 capability (unsupported problem size),
4 numerical (a quadrature failure or a value out of double range, with the
failing cell named).
"""

import argparse
import functools
import math
import os
import shlex
import stat
import sys
from datetime import datetime, timezone

from . import __version__, analytic, selection
from .analytic import CapabilityError
from .specfun import QuadratureError

__all__ = ["main", "run", "CSV_HEADER"]

CSV_HEADER = "mode,K,n,rho_db,esr_nats,stderr,trials,seed"

#: Most SNR values one --rho-db START:STOP:STEP range may expand to.
MAX_RHO_VALUES = 10_000

_ENGINES = ("analytic", "mc", "high-snr", "tdma", "both")
_MODES = ("esr", "sweep-n", "sweep-rho", "select", "compare")
# Selection method behind each single engine; tdma is the analytic n = K cell.
_METHOD_OF = {
    "analytic": "analytic", "mc": "montecarlo", "high-snr": "high_snr", "tdma": "analytic"
}


def _write_manifest(path, fields):
    """Write one key=value line per (key, value) pair of `fields` to `path`,
    UTF-8 with \\n endings.

    An existing file is rewritten in place: opened without O_TRUNC, written
    whole, then cut to the written length. Truncating it to zero bytes
    first, as open(path, "w") does, is ext4's replace-via-truncate pattern
    (auto_da_alloc), which forces the new data to disk at close; writing to
    a temporary file and renaming it over the path triggers the same flush.
    A path that is not a regular file, such as /dev/null, is written and not
    cut. A new file gets mode 0o666 & ~umask.
    """
    data = "".join(f"{k}={v}\n" for k, v in fields).encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:  # os.write may write fewer bytes than it is given
            view = view[os.write(fd, view):]
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _parse_rho_db(text):
    try:
        values = [float(p) for p in text.split(":")]
    except ValueError:  # a part that is not a number
        values = []
    if len(values) not in (1, 3):
        raise ValueError(f"--rho-db expects VALUE or START:STOP:STEP, got {text!r}")
    if len(values) == 1:
        return values
    start, stop, step = values
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"--rho-db range needs finite values, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError(f"--rho-db range needs stop >= start and step > 0, got {text!r}")
    # start + k * step up to stop + 1e-9: floor(span) + 1 values, counted
    # before the list is built, so a huge range is refused without allocating
    # it. Rounding can move one value across the stop, so one more k is tried.
    last = stop + 1e-9
    span = (last - start) / step
    if span >= MAX_RHO_VALUES:
        raise ValueError(
            f"--rho-db range {text!r} expands to {span + 1:.0f} values, "
            f"more than the limit of {MAX_RHO_VALUES}"
        )
    values = [v for k in range(int(span) + 2) if (v := start + k * step) <= last]
    if len(set(values)) < len(values):  # the step is lost in rounding next to start
        raise ValueError(f"--rho-db range {text!r} has a step too small to advance its values")
    return values


def _rho_linear(rho_db):
    try:
        rho = 10.0 ** (rho_db / 10.0)
    except OverflowError:
        rho = math.inf
    if rho == math.inf:
        raise ValueError(f"--rho-db {rho_db:g} is too large for a linear SNR")
    if not rho > 0.0:  # underflowed to 0.0, or nan
        raise ValueError(f"--rho-db {rho_db:g} has no positive linear SNR")
    if rho < sys.float_info.min:
        # a subnormal rho has fewer than 53 significant bits: it is not the
        # SNR asked for, and its cells would be named by another dB
        raise ValueError(
            f"--rho-db {rho_db:g} gives the subnormal linear SNR {rho:.6g}, below "
            f"{sys.float_info.min:.6g} (about {10.0 * math.log10(sys.float_info.min):.2f} dB)"
        )
    return rho


@functools.cache  # one parser per process: parsing leaves it unchanged
def _build_parser():
    p = argparse.ArgumentParser(
        prog="dualsel",
        description=(
            "Ergodic secrecy rate of the dual-user-selection uplink scheme: "
            "exact analysis, high-SNR closed form, and Monte Carlo simulation."
        ),
    )
    p.add_argument("--mode", required=True, choices=_MODES)
    p.add_argument("--engine", default="both", choices=_ENGINES)
    p.add_argument("--k", type=int, required=True, help=f"number of users (2..{analytic.MAX_USERS})")
    p.add_argument("--served", type=int, help="served user index n in [1, K]")
    p.add_argument(
        "--rho-db",
        default="20",
        help=(
            "transmit SNR in dB: a single value or an inclusive range a:b:c; "
            "write a range with a negative start as --rho-db=-10:0:5"
        ),
    )
    p.add_argument("--trials", type=int, default=10_000, help="Monte Carlo trials")
    p.add_argument("--seed", type=int, default=0, help="unsigned 64-bit RNG seed")
    p.add_argument("--units", default="nats", choices=("nats", "bits"))
    p.add_argument("--manifest", default="run_manifest.txt", help="manifest output path")
    p.add_argument("--tol", type=float, default=1e-9, help="quadrature tolerance")
    return p


def _plan(ns, argv):
    """The (engine, n, rho_db, rho) cells of a run, in CSV row order:
    engine-major for sweep-rho, rho-major for every other mode; rho is the
    linear SNR of rho_db. A usage error raises ValueError. The user count is
    checked last, so a usage error exits 2 at any K, and before any cell is
    built."""
    rho_values = _parse_rho_db(ns.rho_db)
    for i, arg in enumerate(argv):
        # the manifest records the invocation on one line, and int() and
        # float() accept a value that ends in a newline
        if len((arg + ".").splitlines()) > 1:
            flag = arg.partition("=")[0] if arg.startswith("--") else argv[i - 1]
            raise ValueError(f"{flag} value {arg!r} contains a line break")
    if not (0 <= ns.seed < 1 << 64):
        raise ValueError("--seed must be an unsigned 64-bit integer")
    if ns.trials < 1:
        raise ValueError("--trials must be >= 1")
    if not (math.isfinite(ns.tol) and ns.tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {ns.tol:g}")
    if ns.tol < sys.float_info.min:  # fewer than 53 bits, and psi's halves may round to 0
        raise ValueError(f"--tol {ns.tol:g} is subnormal, below {sys.float_info.min:.6g}")
    needs_served = ns.mode in ("esr", "sweep-rho", "compare") and ns.engine != "tdma"
    if needs_served:
        if ns.served is None:
            raise ValueError(f"--served is required for --mode {ns.mode}")
        if not (1 <= ns.served <= ns.k):
            raise ValueError(f"--served must be in [1, {ns.k}]")
    if ns.mode in ("sweep-n", "select") and ns.served is not None:
        raise ValueError(f"--served is not used by --mode {ns.mode}")
    if ns.mode in ("esr", "sweep-rho") and ns.engine == "tdma" and ns.served is not None:
        raise ValueError("--served is not used by --engine tdma; it evaluates n = K")
    if ns.mode in ("esr", "select") and len(rho_values) != 1:
        raise ValueError(f"--mode {ns.mode} needs a single --rho-db value")
    if ns.mode == "compare" and ns.served == ns.k:
        raise ValueError("--mode compare needs a dual-selection slot (served < K)")
    snrs = [(rho_db, _rho_linear(rho_db)) for rho_db in rho_values]
    if ns.mode == "compare" and ns.engine != "both":
        raise ValueError("--mode compare always runs both engines; drop --engine")
    if ns.mode in ("sweep-n", "select") and ns.engine == "tdma":
        raise ValueError(
            f"--engine tdma is not meaningful for --mode {ns.mode}; "
            "the TDMA-like slot already appears as the n = K row"
        )
    analytic._check_user_count(ns.k)
    engines = ["analytic", "mc"] if ns.engine == "both" else [ns.engine]

    def served(engine):
        if ns.mode in ("sweep-n", "select"):
            return range(1, ns.k + 1)
        return [ns.k if engine == "tdma" else ns.served]

    if ns.mode == "sweep-rho":
        return [(e, n, *snr) for e in engines for snr in snrs for n in served(e)]
    return [(e, n, *snr) for snr in snrs for e in engines for n in served(e)]


def run(ns, argv, out=None, err=None):
    """Execute parsed flags: emit CSV rows to `out`, diagnostics to `err`,
    and write the manifest. Returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    started = datetime.now(timezone.utc).isoformat()
    cells = _plan(ns, argv)
    results = selection.evaluate_cells(
        ns.k, [(_METHOD_OF[e], n, rho) for e, n, _, rho in cells], ns.trials, ns.seed, ns.tol
    )
    rows = list(zip(cells, results))
    scale = 1.0 / math.log(2.0) if ns.units == "bits" else 1.0  # nats to --units

    extras = []  # the mode's (key, value) manifest lines
    if ns.mode == "select":
        rho_db = cells[0][2]
        for engine in dict.fromkeys(cell[0] for cell in cells):
            best_n = selection.best_served([(n, res) for (e, n, *_), res in rows if e == engine])
            extras.append((f"best_n_{engine.replace('-', '_')}", best_n))
            print(
                f"select[{engine}]: best served index n = {best_n} "
                f"(K={ns.k}, rho={rho_db:g} dB)",
                file=err,
            )
    elif ns.mode == "compare":
        worst_sigma = 0.0
        worst_diff = 0.0
        # rho-major cells alternate analytic, mc at each rho
        for ((_, n, rho_db, _), exact), (_, est) in zip(rows[0::2], rows[1::2]):
            diff = abs(exact.value - est.esr)
            sigma = diff / est.std_error if est.std_error > 0 else math.inf
            flagged = sigma > 3.0
            worst_sigma = max(worst_sigma, sigma)
            worst_diff = max(worst_diff, diff)
            print(
                f"compare[{'FLAG' if flagged else 'ok'}] K={ns.k} n={n} rho={rho_db:g} dB: "
                f"analytic={exact.value * scale:.6f} mc={est.esr * scale:.6f} "
                f"|diff|={diff * scale:.3e} ({sigma:.2f} sigma)",
                file=err,
            )
        extras += [
            ("compare_max_abs_diff", f"{worst_diff * scale:.6e}"),
            ("compare_max_sigma", f"{worst_sigma:.3f}"),
            ("compare_flagged", int(worst_sigma > 3.0)),
        ]

    fields = [
        ("tool_version", __version__),
        ("invocation", shlex.join(argv)),
        ("seed", ns.seed),
        ("started", started),
        ("finished", datetime.now(timezone.utc).isoformat()),
        ("rows_emitted", len(rows)),
        *extras,
    ]
    try:
        _write_manifest(ns.manifest, fields)
    except OSError as exc:
        print(f"dualsel: cannot write manifest {ns.manifest}: {exc.strerror or exc}", file=err)
        return 2
    _emit_csv(rows, ns.k, scale, out)
    return 0


def _emit_csv(rows, K, scale, out):
    """One CSV line per ((engine, n, rho_db, rho), result) pair, rates in
    nats times scale; only mc rows fill the stderr, trials and seed columns."""
    out.write(CSV_HEADER + "\n")
    for (engine, n, rho_db, _), res in rows:
        if engine == "mc":
            esr, mc_cols = res.esr, [f"{res.std_error * scale:.6g}", str(res.trials), str(res.seed)]
        else:
            esr, mc_cols = res.value, ["", "", ""]
        cols = [engine, str(K), str(n), f"{rho_db:.10g}", f"{esr * scale:.12g}", *mc_cols]
        out.write(",".join(cols) + "\n")


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return run(ns, argv)
    except CapabilityError as exc:
        print(f"dualsel: capability error: {exc}", file=sys.stderr)
        return 3
    except QuadratureError as exc:
        print(
            f"dualsel: numerical error: {exc} "
            f"(best estimate {exc.value:.12g} +/- {exc.abs_error_estimate:.3g})",
            file=sys.stderr,
        )
        return 4
    except FloatingPointError as exc:
        print(f"dualsel: numerical error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"dualsel: usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
