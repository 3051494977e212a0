"""Served-user selection: exhaustive one-dimensional ESR search over n.

The jammer is pinned to the strongest user, so picking the served user is a
scan over n = 1..K-1 (dual-selection slots) plus n = K, the degenerate
TDMA-like slot where the strongest user transmits alone at full power.
`evaluate` answers one such cell with any method; it is the only place that
maps a method and a cell to an engine function. `evaluate_cells` answers an
iterable of cells (a scan: every CLI mode and `select_served`); it is the
only loop over cells and the only place that opens a scan scope, on the
cells that the two work-sharing engines declare; then the high-SNR cells at K
are answered by one pass over their terms (one li2 call for every xi they
meet), and the Monte Carlo cells that share (seed, trials, K) by one walk
over the trials, at any trial count. The memo is a context variable, so
it belongs to one scan in one thread and goes with it.
"""

import math
from dataclasses import dataclass

from . import analytic, montecarlo
from .analytic import SystemConfig
from .specfun import QuadratureError, _check_positive_real, _scan_scope

__all__ = ["SelectionResult", "best_served", "evaluate", "evaluate_cells", "select_served"]

_METHODS = ("analytic", "montecarlo", "high_snr")


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the search: the winning served index and the
    per-candidate rates, (n, result) pairs in increasing n over [1, K],
    each result an analytic EsrValue or a Monte Carlo EsrEstimate."""

    best_n: int
    esr_by_n: tuple

    def esr_of(self, n):
        for cand, result in self.esr_by_n:
            if cand == n:
                return result
        raise KeyError(n)


def _esr_scalar(result):
    return result.esr if isinstance(result, montecarlo.EsrEstimate) else result.value


def evaluate(method, K, n, rho, trials=10_000, seed=0, tol=1e-9):
    """ESR of one cell (K users, served index n, linear SNR rho) under one
    method; n == K is the TDMA-like slot.

    Returns what the engine returns: an analytic EsrValue, or for
    "montecarlo" an EsrEstimate from `trials` trials at `seed`. The engine
    functions are looked up on their modules at call time, so rebinding
    them there (tracing, test doubles) reaches every caller. K outside
    [2, MAX_USERS] raises, K > MAX_USERS as a CapabilityError; a rho that
    is not positive and finite raises ValueError at every n. A numerical
    failure (QuadratureError, FloatingPointError) names the cell.
    """
    analytic._check_user_count(K)  # for every n: the TDMA functions accept K = 1
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    try:
        if n == K:
            _check_positive_real(rho, "rho")  # esr_tdma_high_snr takes no rho
            if method == "analytic":
                return analytic.esr_tdma_exact(K, rho)
            if method == "high_snr":
                return analytic.esr_tdma_high_snr(K, variant="corrected")
            return montecarlo.estimate_esr_tdma(K, rho, trials, seed)
        cfg = SystemConfig(num_users=K, served_index=n, transmit_snr=rho)
        if method == "analytic":
            return analytic.esr_exact(cfg, tol=tol)
        if method == "high_snr":
            return analytic.esr_high_snr(cfg)
        return montecarlo.estimate_esr(cfg, trials, seed)
    except (QuadratureError, FloatingPointError) as exc:
        exc.args = (f"K={K}, n={n}, rho={rho:.6g} ({10.0 * math.log10(rho):.6g} dB): {exc}",)
        raise


def evaluate_cells(K, cells, trials=10_000, seed=0, tol=1e-9):
    """The result of `evaluate` for each (method, n, rho) cell of the
    iterable `cells` at K users, as a list in cell order.

    K outside [2, MAX_USERS] raises as `evaluate` does, before `cells` is
    read, so a refused scan builds none of its cells. `cells` is read once.
    Cells are answered one by one through `evaluate`, and each result is
    the one a lone call returns. The high-SNR and Monte Carlo cells are
    declared first, in one step, and share work during this call only.
    The first high-SNR cell answers every high-SNR cell in one pass over
    their terms. The first Monte Carlo cell reduces every Monte Carlo cell
    in one walk over the trials, each trial drawn once at any count of
    cells and trials. Each later cell reads its value, and each raises its
    own errors at its own call.
    """
    analytic._check_user_count(K)
    cells = list(cells)
    mc = [(n, rho) for method, n, rho in cells if method == "montecarlo"]
    high_snr = [(n, rho) for method, n, rho in cells if method == "high_snr"]
    pending = montecarlo._scan_cells(K, mc, trials, seed) + analytic._scan_cells(K, high_snr)
    with _scan_scope(pending):
        return [evaluate(method, K, n, rho, trials, seed, tol) for method, n, rho in cells]


def best_served(esr_by_n):
    """The served index n with the largest ESR among (n, result) pairs,
    where each result is an analytic EsrValue or a Monte Carlo EsrEstimate.
    Ties break toward the earliest pair, so toward the smallest n when the
    pairs are in increasing n."""
    return max(esr_by_n, key=lambda pair: _esr_scalar(pair[1]))[0]


def select_served(K, rho, method="analytic", trials=10_000, seed=0, tol=1e-9):
    """Scan every candidate served index and return the ESR-maximizing one.

    method: "analytic" (exact closed forms + quadrature), "high_snr"
    (closed-form approximation), or "montecarlo" (trials/seed control the
    estimator; every candidate reuses the same seed, so candidates are
    compared on common random numbers). Ties break toward the smallest n.
    """
    served = range(1, K + 1)
    values = evaluate_cells(K, ((method, n, rho) for n in served), trials, seed, tol)
    results = tuple(zip(served, values))
    return SelectionResult(best_n=best_served(results), esr_by_n=results)
