"""Regenerate ``reference.json``, the tables the benchmark checks answers
against. Run once from the repository root, at a commit whose outputs are
trusted (the tier-1 suite checks them against independent oracles):

    python3 bench/gen_reference.py

The tables hold, keyed by "K/n/rho_db" (or "K/rho_db", "K"):
  esr_exact          every exact-points grid point (K 2..12, n < K, 0..40 dB)
  esr_tdma_exact     K 2..20 at 0..60 dB, which covers the mc-select check
                     (K <= 12, 0..40 dB) and the tdma CLI sweep
  esr_high_snr       K 2..20, n < K, 10..60 dB, for the high-SNR CLI forms
  esr_tdma_high_snr  K 2..20
  digests            Monte Carlo digests of the mc-select warm-up query and
                     of the first pass at the default seed
  exact_cost_order   the exact-points grid sorted by cost: the median over
                     COST_SWEEPS sweeps of each point's time, divided by the
                     calibration loop's time around it so host drift cancels;
                     the benchmark cuts it into cost strata

The run takes about five minutes, most of it in esr_exact.
"""

import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src")]

import run  # noqa: E402  (needs the source path above)
import workloads  # noqa: E402
from dualsel import analytic  # noqa: E402
from dualsel.analytic import SystemConfig  # noqa: E402

key, rho_of = workloads.key, workloads.rho_of

COST_SWEEPS = 3


def exact_point(K, n, db):
    """The point's esr_exact value and its time in calibration-loop units."""
    before = run.calibrate()
    t0 = time.perf_counter()
    value = analytic.esr_exact(SystemConfig(K, n, rho_of(db))).value
    elapsed = time.perf_counter() - t0
    return value, 2.0 * elapsed / (before + run.calibrate())


def main():
    ref = {
        "esr_exact": {},
        "esr_tdma_exact": {},
        "esr_high_snr": {},
        "esr_tdma_high_snr": {},
    }
    costs = {p: [] for p in workloads.exact_grid()}
    analytic.esr_exact(SystemConfig(2, 1, 1.0))
    for _ in range(COST_SWEEPS):
        for K, n, db in costs:
            value, cost = exact_point(K, n, db)
            ref["esr_exact"][key(K, n, db)] = value
            costs[(K, n, db)].append(cost)
    cost = {p: statistics.median(c) for p, c in costs.items()}
    ref["exact_cost_order"] = [list(p) for p in sorted(cost, key=cost.get)]

    for K in workloads.CLI_K:
        ref["esr_tdma_high_snr"][key(K)] = analytic.esr_tdma_high_snr(K).value
        for db in workloads.CLI_TDMA_RHO_DB:
            ref["esr_tdma_exact"][key(K, db)] = analytic.esr_tdma_exact(K, rho_of(db)).value
        for n in range(1, K):
            for db in workloads.CLI_SWEEP_RHO_DB:
                cfg = SystemConfig(K, n, rho_of(db))
                ref["esr_high_snr"][key(K, n, db)] = analytic.esr_high_snr(cfg).value

    mc = workloads.WORKLOADS["mc-select"]
    warm = mc.warm_up(ref, None).run()
    first = [q.run() for q in mc.make_pass(ref, workloads.DEFAULT_SEED, 0, None)]
    ref["digests"] = {
        "mc-select/warm-up": workloads.mc_digest([warm]),
        "mc-select/first-pass": workloads.mc_digest(first),
    }
    sha = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    ref["generated_at_commit"] = sha or None
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
