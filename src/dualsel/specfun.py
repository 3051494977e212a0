"""Special-function kernels: exponential integral E1, real dilogarithm, and
adaptive Gauss-Kronrod quadrature on finite and semi-infinite intervals.

E1 and the dilogarithm are scalar. The quadrature integrand contract is
"array of nodes in, array of values out": each Gauss-Kronrod panel calls
the integrand once, on a 1-D float array of its 15 nodes, and expects an
array of the same shape back.

Everything downstream (rate formulas, CDFs, the high-SNR corollary) reduces to
these three primitives, so they are kept self-contained and individually
testable against independent oracles.
"""

import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "QuadratureError",
    "QuadratureResult",
    "e1",
    "e1_scaled",
    "li2",
    "quad_interval",
    "quad_semi_infinite",
]

EULER_GAMMA = 0.5772156649015329

_PI2_6 = math.pi ** 2 / 6.0
_LOG2 = math.log(2.0)


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature exhausts its evaluation budget.

    Carries the best estimate and its error bound so callers can decide
    whether the partial result is still usable.
    """

    def __init__(self, message, value, abs_error_estimate, evaluations):
        super().__init__(message)
        self.value = value
        self.abs_error_estimate = abs_error_estimate
        self.evaluations = evaluations


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive quadrature: value, error bound, work done."""

    value: float
    abs_error_estimate: float
    evaluations: int


def _check_positive(x, name):
    if math.isnan(x) or math.isinf(x) or x <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")


def _e1_series(x):
    # E1(x) = -gamma - log(x) + sum_{k>=1} (-1)^(k+1) x^k / (k * k!), x <= 1.
    # On (0, 1] the total never drops below E1(1) ~ 0.2194, so a relative
    # stopping rule is safe.
    total = -EULER_GAMMA - math.log(x)
    pk = 1.0  # x^k / k!
    for k in range(1, 80):
        pk *= x / k
        total += pk / k if k % 2 == 1 else -pk / k
        if pk / k < 1e-17 * total:
            break
    return total


def _e1_cf_scaled(x):
    # Modified Lentz evaluation of the continued fraction
    #   e^x E1(x) = 1 / (x + 1 - 1^2 / (x + 3 - 2^2 / (x + 5 - ...))),
    # which stays O(1/x) for large x and so never overflows.
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        a = -float(i) * float(i)
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise RuntimeError(f"continued fraction for E1 did not converge at x={x!r}")


def e1(x):
    """Exponential integral E1(x) = int_x^inf e^(-t)/t dt for x > 0.

    Power series below x = 1, modified Lentz continued fraction above.
    Relative error <= 1e-12 on [1e-8, 700]; returns exactly 0.0 once the
    true value underflows double precision.
    """
    _check_positive(x, "x")
    if x <= 1.0:
        return _e1_series(x)
    return math.exp(-x) * _e1_cf_scaled(x)


def e1_scaled(x):
    """e^x * E1(x), stable on the whole positive axis.

    The plain product overflows for x beyond ~709 even though the result is
    ~1/x; rate kernels that need e^x E1(x) at large x must go through here.
    """
    _check_positive(x, "x")
    if x <= 1.0:
        return math.exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


def _li2_series(x):
    # sum_{k>=1} x^k / k^2 for |x| <= 1/2.
    total = 0.0
    p = 1.0
    for k in range(1, 200):
        p *= x
        term = p / (k * k)
        total += term
        if abs(term) < 1e-17 * abs(total) + 1e-300:
            break
    return total


def li2(x):
    """Real dilogarithm Li2(x) = -int_0^x log(1-t)/t dt for x <= 1.

    Arguments are reduced to |x| <= 1/2 with the reflection, Landen and
    inversion identities, then summed by series. Absolute error <= 1e-12.
    """
    if math.isnan(x) or math.isinf(x) or x > 1.0:
        raise ValueError(f"li2 requires a finite argument <= 1, got {x!r}")
    if x == 1.0:
        return _PI2_6
    if x > 0.5:
        # Li2(x) + Li2(1-x) = pi^2/6 - log(x) log(1-x)
        return _PI2_6 - math.log(x) * math.log1p(-x) - li2(1.0 - x)
    if x >= -0.5:
        return _li2_series(x)
    if x >= -1.0:
        # Landen: Li2(x) = -Li2(x/(x-1)) - log^2(1-x)/2; x/(x-1) in [1/3, 1/2]
        return -_li2_series(x / (x - 1.0)) - 0.5 * math.log1p(-x) ** 2
    # Inversion: Li2(x) = -pi^2/6 - log^2(-x)/2 - Li2(1/x); 1/x in (-1, 0)
    return -_PI2_6 - 0.5 * math.log(-x) ** 2 - li2(1.0 / x)


# 15-point Kronrod nodes with the embedded 7-point Gauss rule (QUADPACK dqk15).
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)
# Panel node offsets in units of the half-width: the centre, then the seven
# left nodes, then the seven right nodes. mid + half * (-x) is bit-identical
# to mid - half * x, so every node is the same double as a node-by-node loop.
_NODES = np.array([0.0] + [-x for x in _XGK[:7]] + list(_XGK[:7]))

# Bound on the relative rounding of one running-total update (three
# additions), with room to spare.
_RUNNING_ROUNDING = 4.0 * sys.float_info.epsilon


def _gk15(f, a, b):
    # One Gauss-Kronrod panel; returns (kronrod, |kronrod - gauss|). The 15
    # nodes go to f in one call; the reduction order is fixed (centre, then
    # the symmetric pairs outward-in), so results are reproducible.
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = f(mid + half * _NODES).tolist()
    fc = fx[0]
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for i in range(7):
        s = fx[1 + i] + fx[8 + i]
        resk += _WGK[i] * s
        if i % 2 == 1:
            resg += _WG[i // 2] * s
    resk *= half
    resg *= half
    return resk, abs(resk - resg)


def _adaptive_gk(f, a, b, tol, max_evals):
    # Globally adaptive bisection: always split the interval with the largest
    # error estimate. Deterministic: ties broken by insertion order.
    #
    # The error total is kept as a running sum (as QUADPACK dqagse does),
    # with a bound `slack` on its accumulated rounding. The exact fsum over
    # the heap is taken only when the running total may have reached tol,
    # and it alone decides the stop, so every decision is the one an exact
    # sum after each split would make. A stop it refuses resynchronises the
    # running total, and so does a nan total (a panel with a nan or inf
    # error estimate has left the heap).
    val, err = _gk15(f, a, b)
    evals = 15
    counter = 0
    heap = [(-err, counter, a, b, val, err)]
    total_err, slack = err, 0.0
    while True:
        if not total_err - slack > tol:
            total_err, slack = math.fsum(item[5] for item in heap), 0.0
            if total_err <= tol:
                break
        if evals + 30 > max_evals:
            best = math.fsum(item[4] for item in heap)
            total_err = math.fsum(item[5] for item in heap)
            raise QuadratureError(
                f"quadrature budget of {max_evals} evaluations exhausted "
                f"(reached {total_err:.3e}, wanted {tol:.3e})",
                best,
                total_err,
                evals,
            )
        _, _, lo, hi, _, e_popped = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1_ = _gk15(f, lo, mid)
        v2, e2_ = _gk15(f, mid, hi)
        evals += 30
        counter += 1
        heapq.heappush(heap, (-e1_, counter, lo, mid, v1, e1_))
        counter += 1
        heapq.heappush(heap, (-e2_, counter, mid, hi, v2, e2_))
        slack += _RUNNING_ROUNDING * (total_err + e1_ + e2_)
        total_err += e1_ + e2_ - e_popped
    value = math.fsum(item[4] for item in heap)
    return QuadratureResult(value, total_err, evals)


def quad_interval(f, a, b, tol=1e-9, max_evals=200_000):
    """Adaptive Gauss-Kronrod quadrature of f over the finite interval [a, b].

    f takes a 1-D float array of nodes and returns an array of the same
    shape (write it with numpy ufuncs, e.g. ``lambda u: np.exp(-u)``); it is
    called once per 15-node panel. Endpoints are never evaluated (all
    Kronrod nodes are interior), so removable endpoint limits are fine.
    The value and error estimate are exact fsums over the final panels.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a!r}, {b!r}]")
    _check_positive(tol, "tol")
    return _adaptive_gk(f, a, b, tol, max_evals)


def quad_semi_infinite(f, a, tol=1e-9, max_evals=200_000):
    """Adaptive quadrature of f over [a, inf) to absolute tolerance tol.

    Maps the domain onto [0, 1) via u = a + v/(1-v) and subdivides until the
    accumulated Gauss-Kronrod error estimate drops below tol. The integrand
    must decay at least like 1/u^2 for the transformed integrand to stay
    integrable at v -> 1.

    f follows the same contract as in quad_interval: a 1-D float array of
    nodes u in, an array of the same shape out, once per 15-node panel.

    Returns
    -------
    QuadratureResult
        value, abs_error_estimate and the number of integrand evaluations.

    Raises
    ------
    QuadratureError
        If the evaluation budget is exhausted first; the exception carries
        the best estimate and its error bound.
    """
    if not math.isfinite(a):
        raise ValueError(f"lower limit must be finite, got {a!r}")
    _check_positive(tol, "tol")

    def g(v):
        # v is the panel's node array; the map and its Jacobian act on it whole
        w = 1.0 - v
        return f(a + v / w) / (w * w)

    return _adaptive_gk(g, 0.0, 1.0, tol, max_evals)
