"""Served-user selection: exhaustive one-dimensional ESR search over n.

The jammer is pinned to the strongest user, so picking the served user is a
scan over n = 1..K-1 (dual-selection slots) plus n = K, the degenerate
TDMA-like slot where the strongest user transmits alone at full power.
`evaluate` answers one such cell with any method; it is the only place that
maps a method and a cell to an engine function.
"""

from dataclasses import dataclass

from . import analytic, montecarlo
from .analytic import SystemConfig

__all__ = ["SelectionResult", "evaluate", "select_served"]

_METHODS = ("analytic", "montecarlo", "high_snr")


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the search: the winning served index, the per-candidate
    rates (analytic EsrValue or Monte Carlo EsrEstimate, one per n in
    [1, K]), and the evaluation method."""

    best_n: int
    esr_by_n: tuple
    method: str

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
    them there (tracing, test doubles) reaches every caller.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if n == K:
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


def select_served(K, rho, method="analytic", trials=10_000, seed=0, tol=1e-9):
    """Scan every candidate served index and return the ESR-maximizing one.

    method: "analytic" (exact closed forms + quadrature), "high_snr"
    (closed-form approximation), or "montecarlo" (trials/seed control the
    estimator; every candidate reuses the same seed, so candidates are
    compared on common random numbers). Ties break toward the smallest n.
    """
    analytic._check_user_count(K)
    results = [(n, evaluate(method, K, n, rho, trials, seed, tol)) for n in range(1, K + 1)]
    best_n, best = results[0]
    for n, res in results[1:]:
        if _esr_scalar(res) > _esr_scalar(best):
            best_n, best = n, res
    return SelectionResult(best_n=best_n, esr_by_n=tuple(results), method=method)
