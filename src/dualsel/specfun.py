"""Special-function kernels: exponential integral E1, real dilogarithm, and
adaptive Gauss-Kronrod quadrature on finite and semi-infinite intervals.

E1 (as e^x E1(x)) and the dilogarithm take a scalar or an array.
The quadrature integrand contract is "array of nodes in, array of values
out": the first call takes a 1-D float array of the 15 Gauss-Kronrod nodes
of every initial panel (one panel, or one per gap between breakpoints), and
every later split calls it once on the 30 nodes of both halves. Each call
must return an array of the same shape, or the quadrature raises ValueError.

Everything downstream (rate formulas, CDFs, the high-SNR corollary) reduces to
these three primitives, so they are kept self-contained and individually
testable against independent oracles. The private input checks and the scan
scope (`_scan_scope`) that both engines share live here too.
"""

import contextvars
import heapq
import math
import sys
from contextlib import contextmanager
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


def _is_integer(x):
    # bool subclasses int, but True is neither a count, an index nor a seed
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x):
    # a real number: not a bool, not a string
    return _is_integer(x) or isinstance(x, (float, np.floating))


def _is_finite_real(x):
    # an int beyond the float range is not finite: math.isfinite raises
    # OverflowError on it
    try:
        return _is_real(x) and math.isfinite(x)
    except OverflowError:
        return False


def _is_positive_real(x):
    return _is_finite_real(x) and x > 0


def _check_positive_real(x, name):
    if not _is_positive_real(x):
        raise ValueError(f"{name} must be positive and finite, got {x!r}")


def _positive_scalar(x, name):
    # x, or the element of a 0-d array x, checked as a positive real
    x = x[()] if isinstance(x, np.ndarray) else x
    _check_positive_real(x, name)
    return x


def _real_array(x):
    # x as a float array, or None unless it holds real numbers alone:
    # asarray(dtype=float) would parse strings and turn bools into 0 and 1
    arr = np.asarray(x)
    if arr.dtype.kind in "iuf":
        return np.asarray(arr, dtype=float)
    # a Python int outside the int64 range (alone or beside floats) gives
    # dtype object; float() takes it, and refuses one beyond the float range
    if arr.dtype.kind != "O" or not all(map(_is_real, arr.flat)):
        return None
    try:
        return np.array([float(v) for v in arr.flat]).reshape(arr.shape)
    except OverflowError:
        return None


def _as_float_array(t, name):
    arr = _real_array(t)
    if arr is None or not (arr >= 0.0).all():  # also false for nan
        raise ValueError(f"{name} must be >= 0, got {t!r}")
    return np.atleast_1d(arr)


def _as_positive_array(x, name):
    # The whole array is checked once; one bad element rejects the call.
    arr = _real_array(x)
    if arr is None or not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise ValueError(f"{name} must be positive and finite, got {x!r}")
    return np.atleast_1d(arr)


#: The work the cells of one scan share: a dict inside _scan_scope, None
#: outside. It maps each engine's key to the dict of that engine's cells
#: there: ("high_snr", K) to the high-SNR cells at K users, and a Monte
#: Carlo (seed, trials, K) triple to the Monte Carlo cells drawn under it.
_scan_terms = contextvars.ContextVar("dualsel_scan_terms", default=None)


@contextmanager
def _scan_scope():
    """Let the engine calls inside the block share work; each value is the
    one computed alone. The memo belongs to this thread and ends with the block."""
    token = _scan_terms.set({})
    try:
        yield
    finally:
        _scan_terms.reset(token)


def _scan_group(key):
    # The dict this scan keeps under key, empty when first asked for; outside
    # a scan, a fresh dict for this one call. How engines share work.
    memo = _scan_terms.get()
    return {} if memo is None else memo.setdefault(key, {})


#: The indices k of the power series of E1, as floats.
_E1_SERIES_INDICES = tuple(float(k) for k in range(1, 80))


def _e1_series(x):
    # E1(x) = -gamma - log(x) + sum_{k>=1} (-1)^(k+1) x^k / (k * k!), x <= 1.
    # On (0, 1] the total never drops below E1(1) ~ 0.2194, so a relative
    # stopping rule is safe. The signed x^k / k! is built with -x: negation
    # is exact, so each term is the unsigned one's, sign flipped.
    total = -EULER_GAMMA - math.log(x)
    pk = -1.0  # (-1)^(k+1) x^k / k!
    minus_x = -x
    for k in _E1_SERIES_INDICES:
        pk *= minus_x / k
        term = pk / k
        total += term
        if abs(term) < 1e-17 * total:
            break
    return total


#: The numerators -i^2 of the continued fraction's partial fractions, i >= 1.
_E1_CF_NUMERATORS = tuple(-float(i) * float(i) for i in range(1, 500))


def _e1_cf_scaled(x):
    # Modified Lentz evaluation of the continued fraction
    #   e^x E1(x) = 1 / (x + 1 - 1^2 / (x + 3 - 2^2 / (x + 5 - ...))),
    # which stays O(1/x) for large x and so never overflows. Lentz's guard
    # against a zero denominator is not needed: for x > 0 both D_k = b_k -
    # k^2 / D_(k-1) (D_0 = x + 1) and C_k = b_k - k^2 / C_(k-1) (C_1 = b_1)
    # stay >= x + k + 1, since k^2 / (x + k) <= k.
    b = x + 1.0
    c = math.inf  # C_0, so that C_1 = b_1
    d = 1.0 / b
    h = d
    for a in _E1_CF_NUMERATORS:
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        # |delta - 1| < 1e-16 holds for the double 1.0 alone
        if delta == 1.0:
            return h
    # Some x never reach delta == 1.0 (it settles one ulp away); there the
    # array kernel answers.
    return float(_e1_scaled_array(np.array([x]))[0])


def _e1_scaled_scalar(x):
    # e1_scaled at a positive finite float x, unchecked
    if x <= 1.0:
        return math.exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


def e1(x):
    """Exponential integral E1(x) = int_x^inf e^(-t)/t dt for x > 0, as
    e^(-x) times e1_scaled(x) at that scalar.

    Relative error <= 1e-12 on [1e-8, 700]; returns exactly 0.0 once the
    true value underflows double precision.
    """
    x = _positive_scalar(x, "x")
    return math.exp(-x) * e1_scaled(x)


# The array kernel of e1_scaled. Below x = 1 it sums the power series to a
# fixed 20 terms. Above, it takes the depth-90 convergent of the continued
# fraction e^x E1(x) = 1/(x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...)))
# (Abramowitz & Stegun 5.1.22) as a ratio of two polynomials in t = 1/x:
#   e^x E1(x) ~ t * sum_{m<D} A_m t^(D-1-m) / sum_{k<=D} B_k t^(D-k),
# whose denominator is D! L_D(-x), B_k = D! C(D, k) / k!, and whose
# numerator has A_m = sum_{k=0}^{D-1-m} (-1)^k k! B_{m+1+k}. Both are built
# in exact integers; every A_m and B_k is positive, so neither sum cancels
# and, in t <= 1, neither overflows. The A_m come from the exact two-term
# recurrence (D + 1 + m) A_m = (m + 1)^2 A_{m+1} + 2 (m + 1) B_{m+1} down
# from A_{D-1} = B_D = 1 (it follows from (k + 1)^2 B_{k+1} = (D - k) B_k),
# which costs O(D) instead of the sum's O(D^2).
_E1_DEPTH = 90
_E1_SERIES_TERMS = 20
_E1_CHUNK = 2048  # points per broadcast, which bounds its temporaries


def _e1_fraction_coefficients(D):
    # rows (numerator, denominator) of the coefficients of t^0 .. t^D
    B = [math.comb(D, k) * (math.factorial(D) // math.factorial(k)) for k in range(D + 1)]
    A = [B[D]]  # A_{D-1}, ..., A_0: the numerator's t^0, ..., t^(D-1)
    for m in range(D - 2, -1, -1):
        A.append(((m + 1) ** 2 * A[-1] + 2 * (m + 1) * B[m + 1]) // (D + 1 + m))
    return np.array([[float(a) for a in A] + [0.0], [float(b) for b in reversed(B)]])


_E1_FRACTION = _e1_fraction_coefficients(_E1_DEPTH)
_E1_FRACTION_POWERS = np.arange(_E1_DEPTH + 1, dtype=float)
_E1_SERIES_POWERS = np.arange(1, _E1_SERIES_TERMS + 1, dtype=float)
_E1_SERIES = np.array(
    [(1.0 if k % 2 else -1.0) / (k * math.factorial(k)) for k in range(1, _E1_SERIES_TERMS + 1)]
)


def _e1_scaled_array(x):
    # e^x E1(x) for an array of positive finite x, in its shape. Each node's
    # value depends on that node alone: row sums, not a matrix product, whose
    # rounding would depend on how many rows a call has.
    flat = x.ravel()
    out = np.empty_like(flat)
    for s in range(0, flat.size, _E1_CHUNK):
        xc = flat[s:s + _E1_CHUNK]
        part = out[s:s + _E1_CHUNK]
        small = xc <= 1.0
        if small.any():
            xs = xc[small]
            series = (xs[:, None] ** _E1_SERIES_POWERS * _E1_SERIES).sum(axis=1)
            part[small] = np.exp(xs) * (-EULER_GAMMA - np.log(xs) + series)
        if not small.all():
            t = 1.0 / xc[~small]
            ratio = (t[:, None, None] ** _E1_FRACTION_POWERS * _E1_FRACTION).sum(axis=2)
            part[~small] = t * ratio[:, 0] / ratio[:, 1]
    return out.reshape(x.shape)


def e1_scaled(x):
    """e^x * E1(x), stable on the whole positive axis; e1 is e^(-x) times it.

    The plain product overflows for x beyond ~709 even though the result is
    ~1/x; rate kernels that need e^x E1(x) at large x must go through here.

    A scalar goes through the power series below x = 1 and the modified
    Lentz fraction above (relative error ~1e-14) and returns a float. The
    closed forms that take many scalars check the largest once and call
    that scalar kernel, _e1_scaled_scalar, unchecked. An array goes through
    a fixed-depth kernel, a few numpy calls for the whole array (relative
    error <= 2e-15 on [1e-8, 1e12]), and returns an array of its shape; one
    bad element rejects it whole. The two paths agree to about 1e-15 but
    not bitwise: they sum different series and fractions to different
    depths. The scalar path stays because the closed forms feed e^x E1(x)
    into alternating binomial sums that amplify its last bit, and their
    printed digits are pinned; it can retire once those sums are rewritten
    without cancellation.
    """
    if np.ndim(x) == 0:
        return _e1_scaled_scalar(_positive_scalar(x, "x"))
    return _e1_scaled_array(_as_positive_array(x, "x"))


# The dilogarithm's series sum_{k>=1} x^k / k^2 for |x| <= 1/2, summed to a
# fixed depth as x^k = x * x^(k-1) and added in order of k. At |x| = 1/2 a
# term falls below 1e-17 of the total by k = 47; every later term is below
# half an ulp of the total and cannot change it, so the depth-64 total is the
# one a loop that stops there would reach.
_LI2_DEPTH = 64
_LI2_SQUARES = np.arange(1, _LI2_DEPTH + 1, dtype=float) ** 2
_LI2_CHUNK = 128  # arguments per broadcast: 64 KiB temporaries


def _li2_series(y):
    # the series at each element of a 1-D array y, |y| <= 1/2
    out = np.empty_like(y)
    for s in range(0, y.size, _LI2_CHUNK):
        powers = y[s:s + _LI2_CHUNK, None].repeat(_LI2_DEPTH, axis=1)
        terms = np.multiply.accumulate(powers, axis=1) / _LI2_SQUARES
        out[s:s + _LI2_CHUNK] = np.add.accumulate(terms, axis=1)[:, -1]
    return out


def _li2_reduce(x):
    # (y, outer, sign, inner) with Li2(x) = outer + sign * (S(y) + inner),
    # S the series and |y| <= 1/2, from the reflection, Landen and inversion
    # identities. The logs are math's, one element at a time.
    if x == 1.0:
        return 0.0, _PI2_6, 1.0, 0.0
    if x > 0.5:
        # Li2(x) + Li2(1-x) = pi^2/6 - log(x) log(1-x)
        return 1.0 - x, _PI2_6 - math.log(x) * math.log1p(-x), -1.0, 0.0
    if x >= -0.5:
        return x, 0.0, 1.0, 0.0
    if x >= -1.0:
        # Landen: Li2(x) = -Li2(x/(x-1)) - log^2(1-x)/2; x/(x-1) in [1/3, 1/2]
        return x / (x - 1.0), 0.0, -1.0, 0.5 * math.log1p(-x) ** 2
    # Inversion: Li2(x) = -pi^2/6 - log^2(-x)/2 - Li2(1/x); 1/x in (-1, 0)
    outer = -_PI2_6 - 0.5 * math.log(-x) ** 2
    y, _, sign, inner = _li2_reduce(1.0 / x)
    return y, outer, -sign, inner


def li2(x):
    """Real dilogarithm Li2(x) = -int_0^x log(1-t)/t dt for x <= 1.

    Arguments are reduced to |x| <= 1/2 with the reflection, Landen and
    inversion identities (one element at a time, with math's logs), then the
    series of every argument is summed to a fixed depth in a few numpy calls.
    Absolute error <= 1e-12. A scalar returns a float; an array returns an
    array of its shape, and one element that is not finite or is > 1
    rejects it whole. A scalar is taken as the 0-d array, by the same
    checks and the same arithmetic, so both agree to the bit.
    """
    arr = _real_array(x)
    values = [] if arr is None else arr.ravel().tolist()
    if arr is None or not all(-math.inf < v <= 1.0 for v in values):  # also false for nan
        raise ValueError(f"li2 requires finite arguments <= 1, got {x!r}")
    y, outer, sign, inner = np.array([_li2_reduce(v) for v in values]).reshape(-1, 4).T
    # + inner also turns a -0.0 series total into 0.0, as a sum from 0.0 does
    out = (outer + sign * (_li2_series(y) + inner)).reshape(arr.shape)
    return float(out) if out.ndim == 0 else out


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


def _gk15_nodes(a, b):
    # a panel's half-width and its 15 nodes
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half, mid + half * _NODES


def _gk15_reduce(fx, half):
    # One Gauss-Kronrod panel from the list fx of its 15 integrand values, in
    # _NODES order; returns (kronrod, |kronrod - gauss|). The reduction order
    # is fixed (centre, then the symmetric pairs outward-in, each sum added
    # left to right), so results are reproducible.
    c, l1, l2, l3, l4, l5, l6, l7, r1, r2, r3, r4, r5, r6, r7 = fx
    k1, k2, k3, k4, k5, k6, k7, kc = _WGK
    g2, g4, g6, gc = _WG
    s2, s4, s6 = l2 + r2, l4 + r4, l6 + r6
    resk = (
        kc * c + k1 * (l1 + r1) + k2 * s2 + k3 * (l3 + r3) + k4 * s4 + k5 * (l5 + r5)
        + k6 * s6 + k7 * (l7 + r7)
    ) * half
    resg = (gc * c + g2 * s2 + g4 * s4 + g6 * s6) * half
    return resk, abs(resk - resg)


def _first_nodes(edges):
    # The half-widths of the initial panels (edges[i], edges[i + 1]) and the
    # node array of a quadrature's first call: their 15 nodes each, in panel
    # order
    panels = [_gk15_nodes(lo, hi) for lo, hi in zip(edges, edges[1:])]
    return [half for half, _ in panels], np.concatenate([x for _, x in panels])


def _integrand_values(f, x):
    # f's values on the node array x, checked once against the contract
    fx = f(x)
    if not (isinstance(fx, np.ndarray) and fx.shape == x.shape):
        got = fx.shape if isinstance(fx, np.ndarray) else type(fx).__name__
        raise ValueError(
            f"the integrand must return an array of its nodes' shape {x.shape}, got {got}"
        )
    return fx


def _adaptive_gk(f, edges, tol, max_evals):
    # Globally adaptive bisection: always split the interval with the largest
    # error estimate. Deterministic: ties broken by insertion order.
    #
    # The error total is kept as a running sum (as QUADPACK dqagse does),
    # with a bound `slack` on its accumulated rounding. It starts at the
    # exact fsum over the initial panels. The exact fsum over the heap is
    # taken only when the running total may have reached tol, and it alone
    # decides the stop, so every decision is the one an exact sum after each
    # split would make. A stop it refuses resynchronises the running total,
    # and so does a nan total (a panel with a nan or inf error estimate has
    # left the heap).
    #
    # f is called once on the 15 nodes of every initial panel (edges[i],
    # edges[i + 1]), in panel order, then once per split on the 30 nodes of
    # both halves. The initial panels enter the heap left to right.
    halves, x = _first_nodes(edges)
    evals = x.size
    if not (_is_integer(max_evals) and max_evals >= evals):
        raise ValueError(
            f"max_evals must be an integer of at least {evals}, got {max_evals!r}"
        )
    fx = _integrand_values(f, x).tolist()
    heap = []
    for i, half in enumerate(halves):
        val, err = _gk15_reduce(fx[15 * i : 15 * i + 15], half)
        heapq.heappush(heap, (-err, i, edges[i], edges[i + 1], val, err))
    counter = len(halves) - 1
    total_err, slack = math.fsum(item[5] for item in heap), 0.0
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
        h1, x1 = _gk15_nodes(lo, mid)
        h2, x2 = _gk15_nodes(mid, hi)
        fx = _integrand_values(f, np.concatenate((x1, x2))).tolist()
        v1, e1_ = _gk15_reduce(fx[:15], h1)
        v2, e2_ = _gk15_reduce(fx[15:], h2)
        evals += 30
        counter += 1
        heapq.heappush(heap, (-e1_, counter, lo, mid, v1, e1_))
        counter += 1
        heapq.heappush(heap, (-e2_, counter, mid, hi, v2, e2_))
        slack += _RUNNING_ROUNDING * (total_err + e1_ + e2_)
        total_err += e1_ + e2_ - e_popped
    value = math.fsum(item[4] for item in heap)
    return QuadratureResult(value, total_err, evals)


def quad_interval(f, a, b, tol=1e-9, max_evals=200_000, points=()):
    """Adaptive Gauss-Kronrod quadrature of f over the finite interval [a, b].

    f takes a 1-D float array of nodes and returns an array of the same
    shape (write it with numpy ufuncs, e.g. ``lambda u: np.exp(-u)``);
    anything else raises ValueError. points are interior breakpoints,
    strictly increasing and strictly inside (a, b): the quadrature starts
    from the panels they cut [a, b] into, as QUADPACK dqagp does. f is
    called once on the 15 nodes of every initial panel, in panel order,
    then once per split on the 30 nodes of both halves, so each node's value
    must not depend on the others in its call. Endpoints and breakpoints are
    never evaluated (all Kronrod nodes are interior), so removable limits
    there are fine. max_evals must be an integer of at least 15 per initial
    panel. The value and error estimate are exact fsums over the final
    panels.
    """
    if not (_is_finite_real(a) and _is_finite_real(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a!r}, {b!r}]")
    _check_positive_real(tol, "tol")
    try:
        edges = [a, *points, b]
    except TypeError:
        edges = None
    if edges is None or not (
        all(_is_finite_real(x) for x in edges[1:-1])
        and all(lo < hi for lo, hi in zip(edges, edges[1:]))
    ):
        raise ValueError(
            f"points must be finite reals, strictly increasing inside "
            f"({a!r}, {b!r}), got {points!r}"
        )
    return _adaptive_gk(f, edges, tol, max_evals)


#: 1 - v for the largest double v below 1 (2^-53), the least 1 - v of any
#: node v < 1.
_BELOW_ONE_GAP = 1.0 - math.nextafter(1.0, 0.0)


def quad_semi_infinite(f, a, tol=1e-9, max_evals=200_000):
    """Adaptive quadrature of f over [a, inf) to absolute tolerance tol.

    Maps the domain onto [0, 1) via u = a + v/(1-v) and subdivides until the
    accumulated Gauss-Kronrod error estimate drops below tol. The integrand
    must decay at least like 1/u^2 for the transformed integrand to stay
    integrable at v -> 1. A node that rounds to v = 1 is taken at the
    largest double below 1 (u = a + 2^53), so f never sees u = inf.

    f follows the same contract as in quad_interval: a 1-D float array of
    nodes u in, an array of the same shape out; 15 nodes on the first call,
    then the 30 nodes of both halves of each split. max_evals is an integer
    of at least 15.

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
    if not _is_finite_real(a):
        raise ValueError(f"lower limit must be finite, got {a!r}")

    def g(v):
        # v is the panel's node array; the map and its Jacobian act on it
        # whole. Bisection toward v = 1 can reach a node that rounds to 1,
        # where u would be inf: it takes the w of the largest double below 1,
        # as if it had rounded down. Every other w is at least that already.
        w = np.maximum(1.0 - v, _BELOW_ONE_GAP)
        return _integrand_values(f, a + v / w) / (w * w)

    return quad_interval(g, 0.0, 1.0, tol=tol, max_evals=max_evals)
