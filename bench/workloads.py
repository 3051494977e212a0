"""The benchmark's three closed-loop query workloads and their output checks.

A query is one user question: a callable that answers it through dualsel's
public functions and a check that compares the answer with the pinned
reference tables in ``reference.json``. Each workload draws its queries from
a fixed grid. A pass is one stratified draw: the grid is cut into strata of
similar cost and the pass takes one point from each stratum, so the work in a
pass barely depends on the seed. The exact-points and mc-select strata are of
equal size, which makes every grid point equally likely; cli-closed-form asks
each (form, K) once per pass. Queries look up the package functions at call
time (``analytic.esr_exact``, not a bound name), so the traced run sees them
when it rebinds those names.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

from dualsel import analytic, cli, selection
from dualsel.analytic import SystemConfig

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: Seed whose first mc-select pass has a pinned bit-level digest.
DEFAULT_SEED = 0

RHO_DB = tuple(range(0, 45, 5))
EXACT_K = range(2, 13)
MC_K = range(2, 21)
CLI_K = range(2, 21)
MC_TRIALS = 10_000
# Monte Carlo per-n values are checked against the exact tables only where
# those tables exist: esr_exact is certified up to K = 12 (ROADMAP item 3).
MC_CHECK_MAX_K = 12
MC_SIGMAS = 5.0
EXACT_ABS_TOL = 1e-8
CLI_REL_TOL = 1e-10
# Grid points per exact-points stratum: 594 points / 22 = 27 queries a pass.
EXACT_STRATUM = 22

CLI_FORMS = ("sweep-n", "select", "sweep-rho", "tdma")
CLI_SWEEP_RHO_DB = tuple(range(10, 65, 5))
CLI_TDMA_RHO_DB = tuple(range(0, 65, 5))


def rho_of(db):
    """Linear SNR of a dB grid value, computed exactly as the CLI does."""
    return 10.0 ** (db / 10.0)


def key(*parts):
    return "/".join(str(p) for p in parts)


def load_reference(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Query:
    """One question: ``run`` answers it, ``check`` returns an error message
    for a wrong answer and None for a right one."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _ok_abs(value, ref, tol):
    return abs(value - ref) <= tol


# -- exact-points --------------------------------------------------------


def _exact_query(params, ref, tmpdir):
    K, n, db = params

    def run():
        return analytic.esr_exact(SystemConfig(K, n, rho_of(db)))

    def check(out):
        want = ref["esr_exact"][key(K, n, db)]
        if not _ok_abs(out.value, want, EXACT_ABS_TOL):
            return f"esr_exact {out.value!r} differs from reference {want!r}"
        return None

    return Query(f"esr_exact K={K} n={n} {db} dB", run, check)


def _exact_strata(ref):
    # The reference lists the grid by the cost each point had when the
    # tables were generated; consecutive runs of that order are the strata.
    order = [tuple(p) for p in ref["exact_cost_order"]]
    return [order[i : i + EXACT_STRATUM] for i in range(0, len(order), EXACT_STRATUM)]


def exact_grid():
    return [(K, n, db) for K in EXACT_K for n in range(1, K) for db in RHO_DB]


# -- mc-select -----------------------------------------------------------


def _mc_query(params, ref, tmpdir):
    K, db, mc_seed = params

    def run():
        return selection.select_served(
            K, rho_of(db), method="montecarlo", trials=MC_TRIALS, seed=mc_seed
        )

    def check(out):
        return check_selection(out, K, db, mc_seed, ref)

    return Query(f"select_served K={K} {db} dB seed={mc_seed}", run, check)


def check_selection(out, K, db, mc_seed, ref):
    """Argmax with ties to the smallest n; for K <= 12 every per-n estimate
    within 5 standard errors of the exact (n < K) or TDMA (n = K) value."""
    ns = [n for n, _ in out.esr_by_n]
    if ns != list(range(1, K + 1)):
        return f"candidates {ns} are not 1..{K}"
    best_n, best = 1, out.esr_by_n[0][1].esr
    for n, est in out.esr_by_n:
        if est.esr > best:
            best_n, best = n, est.esr
    if out.best_n != best_n:
        return f"best_n {out.best_n} is not the argmax {best_n}"
    for n, est in out.esr_by_n:
        if est.trials != MC_TRIALS or est.seed != mc_seed:
            return f"n={n}: estimate ran {est.trials} trials at seed {est.seed}"
        if K > MC_CHECK_MAX_K:
            continue
        if n < K:
            want = ref["esr_exact"][key(K, n, db)]
        else:
            want = ref["esr_tdma_exact"][key(K, db)]
        if not _ok_abs(est.esr, want, MC_SIGMAS * est.std_error):
            return (
                f"n={n}: estimate {est.esr!r} is more than {MC_SIGMAS:g} standard "
                f"errors ({est.std_error!r}) from {want!r}"
            )
    return None


def mc_digest(outputs):
    """SHA-256 over the bits of every per-n (esr, mean_cb, mean_ce,
    std_error) of a list of selection results, in order."""
    h = hashlib.sha256()
    for out in outputs:
        for n, est in out.esr_by_n:
            fields = (est.esr, est.mean_cb, est.mean_ce, est.std_error)
            h.update((f"{n}:" + ",".join(float(x).hex() for x in fields) + ";").encode())
    return h.hexdigest()


# -- cli-closed-form -----------------------------------------------------


def cli_argv(form, K, n, manifest):
    argv = ["--k", str(K)]
    if form == "sweep-n":
        argv += ["--mode", "sweep-n", "--engine", "high-snr"]
    elif form == "select":
        argv += ["--mode", "select", "--engine", "high-snr"]
    elif form == "sweep-rho":
        argv += ["--mode", "sweep-rho", "--engine", "high-snr", "--served", str(n)]
        argv += ["--rho-db", "10:60:5"]
    else:
        argv += ["--mode", "sweep-rho", "--engine", "tdma", "--rho-db", "0:60:5"]
    return argv + ["--manifest", manifest]


def cli_expected_rows(form, K, n, ref):
    """(label, K, n, rho_db, esr_nats) of every row the invocation must emit."""

    def high_snr(m, db):
        if m < K:
            return ref["esr_high_snr"][key(K, m, db)]
        return ref["esr_tdma_high_snr"][key(K)]

    if form in ("sweep-n", "select"):
        return [("high-snr", K, m, 20, high_snr(m, 20)) for m in range(1, K + 1)]
    if form == "sweep-rho":
        return [("high-snr", K, n, db, high_snr(n, db)) for db in CLI_SWEEP_RHO_DB]
    return [("tdma", K, K, db, ref["esr_tdma_exact"][key(K, db)]) for db in CLI_TDMA_RHO_DB]


def check_cli(out, form, K, n, ref):
    code, text = out
    if code != 0:
        return f"exit code {code}"
    lines = text.splitlines()
    if not lines or lines[0] != cli.CSV_HEADER:
        return f"CSV header {lines[:1]!r} is not {cli.CSV_HEADER!r}"
    want = cli_expected_rows(form, K, n, ref)
    rows = lines[1:]
    if len(rows) != len(want):
        return f"{len(rows)} CSV rows, expected {len(want)}"
    for line, (label, k, m, db, value) in zip(rows, want):
        cols = line.split(",")
        if cols[:3] != [label, str(k), str(m)] or float(cols[3]) != db or cols[5:] != ["", "", ""]:
            return f"row {line!r} does not describe {label} K={k} n={m} at {db} dB"
        if not _ok_abs(float(cols[4]), value, CLI_REL_TOL * abs(value)):
            return f"row {line!r}: esr differs from reference {value!r}"
    return None


def _cli_query(params, ref, tmpdir):
    form, K, n = params
    argv = cli_argv(form, K, n, os.path.join(tmpdir, "manifest.txt"))

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(out):
        return check_cli(out, form, K, n, ref)

    return Query("dualsel " + " ".join(argv[:-2]), run, check)


def _cli_strata():
    strata = []
    for form in CLI_FORMS:
        for K in CLI_K:
            ns = range(1, K + 1) if form == "sweep-rho" else [None]
            strata.append([(form, K, n) for n in ns])
    return strata


# -- workloads -----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    strata: Callable  # ref -> list of lists of grid points
    make_query: Callable  # (params, ref, tmpdir) -> Query
    warm_up_params: tuple
    seeded: bool = False  # each query also draws a Monte Carlo seed
    digest: Optional[Callable] = None  # outputs -> pinned bit-level digest

    def make_pass(self, ref, seed, index, tmpdir):
        """The index-th stratified pass of the query list for `seed`."""
        rng = random.Random(f"{self.name}/{seed}/{index}")
        picks = [rng.choice(stratum) for stratum in self.strata(ref)]
        rng.shuffle(picks)
        if self.seeded:
            picks = [p + (rng.getrandbits(63),) for p in picks]
        return [self.make_query(p, ref, tmpdir) for p in picks]

    def warm_up(self, ref, tmpdir):
        """A fixed query answered before timing starts."""
        return self.make_query(self.warm_up_params, ref, tmpdir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-points", _exact_strata, _exact_query, (6, 3, 20)),
        Workload(
            "mc-select",
            lambda ref: [[(K, db) for db in RHO_DB] for K in MC_K],
            _mc_query,
            (8, 20, DEFAULT_SEED),
            seeded=True,
            digest=mc_digest,
        ),
        Workload("cli-closed-form", lambda ref: _cli_strata(), _cli_query, ("sweep-n", 8, None)),
    )
}

