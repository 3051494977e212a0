"""Envelope sweep of the exact engine: analytic.esr_exact against the
positive-form oracle over 400 seeded cells of the documented envelope.

Run from the repository root (pytest does not collect it; it takes minutes):

    PYTHONPATH=src python tests/envelope_sweep.py

The cells come from random.Random(2026): K uniform in 2..20, n in 1..K-1
and rho uniform in -30..70 dB, rounded to 0.01 dB. Each cell is one of:

    within      esr_exact returns within 1e-9 of the oracle's 32-node value
    miss        esr_exact returns, more than 1e-9 off: a silent miss
    quadrature  esr_exact raises QuadratureError
    overflow    esr_exact raises FloatingPointError
    unresolved  the oracle's 24- and 32-node values differ by more than
                1e-11, so it cannot judge the cell

Prints the counts and every silent miss, and exits 1 if there is one.
"""

import random
import sys
import time

from oracles import esr_exact_positive

from dualsel.analytic import SystemConfig, esr_exact
from dualsel.specfun import QuadratureError

CELLS = 400
SEED = 2026
TOL = 1e-9
RESOLVED = 1e-11


def draw_cells():
    rng = random.Random(SEED)
    cells = []
    for _ in range(CELLS):
        K = rng.randint(2, 20)
        cells.append((K, rng.randint(1, K - 1), round(rng.uniform(-30.0, 70.0), 2)))
    return cells


def judge(K, n, rho_db):
    """The cell's outcome and, for a returned value, its distance from the
    oracle."""
    rho = 10.0 ** (rho_db / 10.0)
    try:
        got = esr_exact(SystemConfig(K, n, rho)).unclamped
    except QuadratureError:
        return "quadrature", None
    except FloatingPointError:
        return "overflow", None
    coarse, fine = (esr_exact_positive(K, n, rho, nodes) for nodes in (24, 32))
    if abs(coarse - fine) > RESOLVED:
        return "unresolved", None
    off = abs(got - fine)
    return ("within" if off <= TOL else "miss"), off


def main():
    start = time.perf_counter()
    counts = dict.fromkeys(("within", "miss", "quadrature", "overflow", "unresolved"), 0)
    misses = []
    for K, n, rho_db in draw_cells():
        outcome, off = judge(K, n, rho_db)
        counts[outcome] += 1
        if outcome == "miss":
            misses.append((K, n, rho_db, off))
    print(" ".join(f"{k}={v}" for k, v in counts.items()),
          f"({CELLS} cells in {time.perf_counter() - start:.0f} s)")
    for K, n, rho_db, off in misses:
        print(f"silent miss: K={K}, n={n}, rho={rho_db:g} dB: |esr_exact - oracle| = {off:.3e}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
