"""Envelope sweep of the exact engines: analytic.esr_exact and
analytic.esr_tdma_exact against their positive-form oracles, each over 400
seeded cells of the documented envelope; and of analytic.esr_high_snr
against its own closed form at 30 mpmath digits, over 400 more.

Run from the repository root (pytest does not collect it; it takes minutes):

    PYTHONPATH=src python tests/envelope_sweep.py

The esr_exact cells come from random.Random(2026): K uniform in 2..20, n in
1..K-1 and rho uniform in -30..70 dB, rounded to 0.01 dB. The TDMA-like
cells (n = K) come from random.Random(2027): K uniform in 1..20 and rho as
before. The esr_high_snr cells come from random.Random(2028), drawn as the
esr_exact cells are. Each cell is one of:

    within      the engine returns within 1e-9 of the oracle's 32-node value
    miss        the engine returns, more than 1e-9 off: a silent miss
    quadrature  the engine raises QuadratureError
    overflow    the engine raises FloatingPointError
    unresolved  the oracle's 24- and 32-node values differ by more than
                1e-11, so it cannot judge the cell

Prints each engine's counts, every silent miss of the exact engines, and
esr_high_snr's worst distance per K, and exits 1 if esr_exact has a silent
miss.
"""

import random
import sys
import time

from oracles import esr_exact_positive, esr_high_snr_mp, esr_tdma_positive

from dualsel.analytic import SystemConfig, esr_exact, esr_high_snr, esr_tdma_exact
from dualsel.specfun import QuadratureError

CELLS = 400
SEED = 2026
TDMA_SEED = 2027
HIGH_SNR_SEED = 2028
TOL = 1e-9
RESOLVED = 1e-11


def draw_cells(seed=SEED):
    rng = random.Random(seed)
    cells = []
    for _ in range(CELLS):
        K = rng.randint(2, 20)
        cells.append((K, rng.randint(1, K - 1), round(rng.uniform(-30.0, 70.0), 2)))
    return cells


def draw_tdma_cells():
    rng = random.Random(TDMA_SEED)
    cells = []
    for _ in range(CELLS):
        K = rng.randint(1, 20)
        cells.append((K, K, round(rng.uniform(-30.0, 70.0), 2)))
    return cells


def judge(K, n, rho_db):
    """The cell's outcome and, for a returned value, its distance from the
    oracle; n = K judges the TDMA-like slot."""
    rho = 10.0 ** (rho_db / 10.0)
    tdma = n == K
    try:
        got = (esr_tdma_exact(K, rho) if tdma else esr_exact(SystemConfig(K, n, rho))).unclamped
    except QuadratureError:
        return "quadrature", None
    except FloatingPointError:
        return "overflow", None
    coarse, fine = (
        esr_tdma_positive(K, rho, nodes) if tdma else esr_exact_positive(K, n, rho, nodes)
        for nodes in (24, 32)
    )
    if abs(coarse - fine) > RESOLVED:
        return "unresolved", None
    off = abs(got - fine)
    return ("within" if off <= TOL else "miss"), off


def judge_high_snr(K, n, rho_db):
    """The cell's outcome and, for a returned value, its distance from the
    30-digit evaluation of the same closed form."""
    rho = 10.0 ** (rho_db / 10.0)
    try:
        got = esr_high_snr(SystemConfig(K, n, rho)).unclamped
    except FloatingPointError:
        return "overflow", None
    off = abs(got - esr_high_snr_mp(K, n, rho))
    return ("within" if off <= TOL else "miss"), off


def sweep(name, cells, judge_cell=judge):
    """Judge every cell with judge_cell, print the counts, and return the
    (K, n, rho_db, distance) of every cell it could judge."""
    start = time.perf_counter()
    counts = dict.fromkeys(("within", "miss", "quadrature", "overflow", "unresolved"), 0)
    judged = []
    for K, n, rho_db in cells:
        outcome, off = judge_cell(K, n, rho_db)
        counts[outcome] += 1
        if off is not None:
            judged.append((K, n, rho_db, off))
    print(f"{name}:", " ".join(f"{k}={v}" for k, v in counts.items()),
          f"({len(cells)} cells in {time.perf_counter() - start:.0f} s)")
    return judged


def print_misses(name, judged):
    """Print every silent miss among the judged cells; return their number."""
    misses = [cell for cell in judged if cell[3] > TOL]
    for K, n, rho_db, off in misses:
        print(f"silent miss: K={K}, n={n}, rho={rho_db:g} dB: |{name} - oracle| = {off:.3e}")
    return len(misses)


def print_worst_per_k(name, judged):
    """Print the judged cell farthest from the oracle at each K."""
    worst = {}
    for cell in judged:
        if cell[3] >= worst.get(cell[0], cell)[3]:
            worst[cell[0]] = cell
    for K, n, rho_db, off in sorted(worst.values()):
        print(f"worst at K={K}: n={n}, rho={rho_db:g} dB: |{name} - oracle| = {off:.3e}")


def main():
    misses = print_misses("esr_exact", sweep("esr_exact", draw_cells()))
    print_misses("esr_tdma_exact", sweep("esr_tdma_exact", draw_tdma_cells()))
    high_snr = sweep("esr_high_snr", draw_cells(HIGH_SNR_SEED), judge_high_snr)
    print_worst_per_k("esr_high_snr", high_snr)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
