"""Command-line front end: single evaluations, served-user sweeps, SNR
sweeps, selection searches, and analytic-vs-Monte-Carlo comparisons.

Emits plot-ready CSV rows on standard output (fixed schema
``mode,K,n,rho_db,esr_nats,stderr,trials,seed``) and a flat key=value run
manifest. Rerunning the flag list recorded in a manifest reproduces the CSV
byte for byte.

Exit codes: 0 success, 2 usage, 3 capability (unsupported problem size),
4 numerical (quadrature failure).
"""

import argparse
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__, montecarlo, selection
from .analytic import CapabilityError, EsrValue, SystemConfig
from .specfun import QuadratureError

__all__ = ["main", "run", "compare_engines", "RunManifest", "SweepResult", "CSV_HEADER"]

CSV_HEADER = "mode,K,n,rho_db,esr_nats,stderr,trials,seed"

#: Most SNR values one --rho-db START:STOP:STEP range may expand to.
MAX_RHO_VALUES = 10_000

_ENGINES = ("analytic", "mc", "high-snr", "tdma", "both")
_MODES = ("esr", "sweep-n", "sweep-rho", "select", "compare")
# Selection method behind each single engine; tdma is the analytic n = K cell.
_METHOD_OF = {
    "analytic": "analytic", "mc": "montecarlo", "high-snr": "high_snr", "tdma": "analytic"
}


class _UsageError(Exception):
    pass


@dataclass
class RunManifest:
    """Everything needed to reproduce a run's CSV: version, flags, seed."""

    tool_version: str
    invocation: str
    seed: int
    started: str
    finished: str = ""
    rows_emitted: int = 0
    extras: dict = field(default_factory=dict)

    def write(self, path):
        lines = [
            f"tool_version={self.tool_version}",
            f"invocation={self.invocation}",
            f"seed={self.seed}",
            f"started={self.started}",
            f"finished={self.finished}",
            f"rows_emitted={self.rows_emitted}",
        ]
        lines += [f"{k}={v}" for k, v in self.extras.items()]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass
class SweepResult:
    """Ordered CSV rows: (mode, K, n, rho_db, esr_nats, stderr, trials, seed)
    with None in the trailing columns where not applicable."""

    rows: list = field(default_factory=list)

    def add(self, label, K, n, rho_db, res):
        """Append one row from an analytic EsrValue or a Monte Carlo EsrEstimate."""
        if isinstance(res, montecarlo.EsrEstimate):
            self.rows.append((label, K, n, rho_db, res.esr, res.std_error, res.trials, res.seed))
        else:
            self.rows.append((label, K, n, rho_db, res.value, None, None, None))


@dataclass(frozen=True)
class CompareEntry:
    """Agreement of the two engines at one operating point."""

    K: int
    n: int
    rho_db: float
    exact: EsrValue
    estimate: montecarlo.EsrEstimate
    abs_diff: float
    sigma: float
    flagged: bool


def compare_engines(cfg, trials, seed, tol=1e-9):
    """Evaluate the exact and Monte Carlo ESR for one configuration and
    report their gap in standard-error units; flagged when above 3."""
    K, n, rho = cfg.num_users, cfg.served_index, cfg.transmit_snr
    exact = selection.evaluate("analytic", K, n, rho, tol=tol)
    est = selection.evaluate("montecarlo", K, n, rho, trials, seed)
    diff = abs(exact.value - est.esr)
    sigma = diff / est.std_error if est.std_error > 0 else math.inf
    return CompareEntry(
        K=K,
        n=n,
        rho_db=10.0 * math.log10(rho),
        exact=exact,
        estimate=est,
        abs_diff=diff,
        sigma=sigma,
        flagged=sigma > 3.0,
    )


def _parse_rho_db(text):
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise _UsageError(f"--rho-db expects VALUE or START:STOP:STEP, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise _UsageError(f"--rho-db range needs finite values, got {text!r}")
    if step <= 0 or stop < start:
        raise _UsageError(f"--rho-db range needs stop >= start and step > 0, got {text!r}")
    # The loop below yields floor(span) + 1 values; count them before
    # building the list, so a huge range is refused without allocating it.
    span = (stop + 1e-9 - start) / step
    if span >= MAX_RHO_VALUES:
        raise _UsageError(
            f"--rho-db range {text!r} expands to {span + 1:.0f} values, "
            f"more than the limit of {MAX_RHO_VALUES}"
        )
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9:
            break
        values.append(v)
        k += 1
    return values


def _rho_linear(rho_db):
    try:
        return 10.0 ** (rho_db / 10.0)
    except OverflowError:
        raise _UsageError(f"--rho-db {rho_db:g} is too large for a linear SNR") from None


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
    p.add_argument("--k", type=int, required=True, help="number of users (2..20)")
    p.add_argument("--served", type=int, help="served user index n in [1, K]")
    p.add_argument(
        "--rho-db",
        default="20",
        help="transmit SNR in dB: a single value or an inclusive range a:b:c",
    )
    p.add_argument("--trials", type=int, default=10_000, help="Monte Carlo trials")
    p.add_argument("--seed", type=int, default=0, help="unsigned 64-bit RNG seed")
    p.add_argument("--units", default="nats", choices=("nats", "bits"))
    p.add_argument("--manifest", default="run_manifest.txt", help="manifest output path")
    p.add_argument("--tol", type=float, default=1e-9, help="quadrature tolerance")
    return p


def _engines_for(mode, engine):
    if mode == "compare":
        if engine != "both":
            raise _UsageError("--mode compare always runs both engines; drop --engine")
        return ["analytic", "mc"]
    if engine == "both":
        return ["analytic", "mc"]
    if mode in ("sweep-n", "select") and engine == "tdma":
        raise _UsageError(
            f"--engine tdma is not meaningful for --mode {mode}; "
            "the TDMA-like slot already appears as the n = K row"
        )
    return [engine]


def _check_flags(ns, rho_values):
    if ns.k < 2:
        raise _UsageError(f"--k must be at least 2, got {ns.k}")
    if not (0 <= ns.seed < 1 << 64):
        raise _UsageError("--seed must be an unsigned 64-bit integer")
    if ns.trials < 1:
        raise _UsageError("--trials must be >= 1")
    if ns.tol <= 0:
        raise _UsageError("--tol must be > 0")
    needs_served = ns.mode in ("esr", "sweep-rho", "compare") and ns.engine != "tdma"
    if needs_served:
        if ns.served is None:
            raise _UsageError(f"--served is required for --mode {ns.mode}")
        if not (1 <= ns.served <= ns.k):
            raise _UsageError(f"--served must be in [1, {ns.k}]")
    if ns.mode in ("sweep-n", "select") and ns.served is not None:
        raise _UsageError(f"--served is not used by --mode {ns.mode}")
    if ns.mode in ("esr", "sweep-rho") and ns.engine == "tdma" and ns.served is not None:
        raise _UsageError("--served is not used by --engine tdma; it evaluates n = K")
    if ns.mode in ("esr", "select") and len(rho_values) != 1:
        raise _UsageError(f"--mode {ns.mode} needs a single --rho-db value")
    if ns.mode == "compare" and ns.served == ns.k:
        raise _UsageError("--mode compare needs a dual-selection slot (served < K)")
    _rho_linear(max(rho_values))  # the largest value is the one that can overflow


def run(ns, argv, out=None, err=None):
    """Execute parsed flags: emit CSV rows to `out`, diagnostics to `err`,
    and write the manifest. Returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    manifest = RunManifest(
        tool_version=__version__,
        invocation=" ".join(argv),
        seed=ns.seed,
        started=datetime.now(timezone.utc).isoformat(),
    )
    rho_values = _parse_rho_db(ns.rho_db)
    _check_flags(ns, rho_values)
    engines = _engines_for(ns.mode, ns.engine)
    rows = SweepResult()

    if ns.mode in ("esr", "sweep-n", "sweep-rho"):
        if ns.mode == "sweep-n":  # rho-major
            cells = [(e, n, r) for r in rho_values for e in engines for n in range(1, ns.k + 1)]
        else:  # engine-major; esr has a single rho
            cells = [
                (e, ns.k if e == "tdma" else ns.served, r) for e in engines for r in rho_values
            ]
        for engine, n, rho_db in cells:
            res = selection.evaluate(
                _METHOD_OF[engine], ns.k, n, _rho_linear(rho_db), ns.trials, ns.seed, ns.tol
            )
            rows.add(engine, ns.k, n, rho_db, res)
    elif ns.mode == "select":
        rho_db = rho_values[0]
        rho = _rho_linear(rho_db)
        for engine in engines:
            result = selection.select_served(
                ns.k, rho, method=_METHOD_OF[engine], trials=ns.trials, seed=ns.seed, tol=ns.tol
            )
            for n, res in result.esr_by_n:
                rows.add(engine, ns.k, n, rho_db, res)
            manifest.extras[f"best_n_{engine.replace('-', '_')}"] = result.best_n
            print(
                f"select[{engine}]: best served index n = {result.best_n} "
                f"(K={ns.k}, rho={rho_db:g} dB)",
                file=err,
            )
    elif ns.mode == "compare":
        worst_sigma = 0.0
        worst_diff = 0.0
        any_flagged = False
        for rho_db in rho_values:
            rho = _rho_linear(rho_db)
            cfg = SystemConfig(num_users=ns.k, served_index=ns.served, transmit_snr=rho)
            entry = compare_engines(cfg, ns.trials, ns.seed, tol=ns.tol)
            rows.add("analytic", ns.k, ns.served, rho_db, entry.exact)
            rows.add("mc", ns.k, ns.served, rho_db, entry.estimate)
            worst_sigma = max(worst_sigma, entry.sigma)
            worst_diff = max(worst_diff, entry.abs_diff)
            any_flagged = any_flagged or entry.flagged
            tag = "FLAG" if entry.flagged else "ok"
            print(
                f"compare[{tag}] K={ns.k} n={ns.served} rho={rho_db:g} dB: "
                f"analytic={entry.exact.value:.6f} mc={entry.estimate.esr:.6f} "
                f"|diff|={entry.abs_diff:.3e} ({entry.sigma:.2f} sigma)",
                file=err,
            )
        manifest.extras["compare_max_abs_diff"] = f"{worst_diff:.6e}"
        manifest.extras["compare_max_sigma"] = f"{worst_sigma:.3f}"
        manifest.extras["compare_flagged"] = int(any_flagged)

    manifest.rows_emitted = len(rows.rows)
    manifest.finished = datetime.now(timezone.utc).isoformat()
    try:
        manifest.write(ns.manifest)
    except OSError as exc:
        print(f"dualsel: cannot write manifest {ns.manifest}: {exc.strerror or exc}", file=err)
        return 2
    _emit_csv(rows, ns.units, out)
    return 0


def _emit_csv(rows, units, out):
    scale = 1.0 / math.log(2.0) if units == "bits" else 1.0
    out.write(CSV_HEADER + "\n")
    for label, K, n, rho_db, esr, stderr, trials, seed in rows.rows:
        cols = [
            label,
            str(K),
            str(n),
            f"{rho_db:.10g}",
            f"{esr * scale:.12g}",
            "" if stderr is None else f"{stderr * scale:.6g}",
            "" if trials is None else str(trials),
            "" if seed is None else str(seed),
        ]
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
    except _UsageError as exc:
        print(f"dualsel: usage error: {exc}", file=sys.stderr)
        return 2
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
    except ValueError as exc:
        print(f"dualsel: usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
