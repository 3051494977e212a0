"""Closed-form ergodic secrecy rate machinery for the dual-selection scheme.

The scheme: out of K uplink users (channel gains to the base station sorted
ascending), the strongest user transmits a jamming signal the base station
can decode and cancel, while user n transmits the secret message, both at
half power. The quantities here are exact expectations over Rayleigh fading:
coefficient tables and the CDF of the jamming-decode SNR, the expected
legitimate and eavesdropper rates, the exact ESR, its high-SNR closed form,
and the TDMA-like single-transmitter baseline.

All rates are in nats. Linear transmit SNR throughout; dB conversions belong
to the presentation layer.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import EULER_GAMMA, _LOG2, e1_scaled, li2, quad_interval, quad_semi_infinite
from .specfun import _as_float_array, _as_positive_array, _check_positive_real, _is_integer
from .specfun import _e1_scaled_array, _e1_scaled_scalar, _first_nodes, _is_positive_real
from .specfun import _scan_group

__all__ = [
    "MAX_USERS",
    "CapabilityError",
    "SystemConfig",
    "XiTable",
    "EsrValue",
    "xi_table",
    "cdf_T",
    "cdf_T_high_snr",
    "exp_cb",
    "theta",
    "theta_corrected",
    "psi",
    "exp_ce",
    "esr_exact",
    "upsilon_from_xi",
    "esr_high_snr",
    "esr_tdma_exact",
    "esr_tdma_high_snr",
]

#: Largest supported number of users. The alternating sums in the rate
#: formulas lose roughly one decimal digit of precision per two users;
#: beyond 20 users double precision can fail silently, so we refuse.
MAX_USERS = 20


class CapabilityError(ValueError):
    """Parameters outside the numerically certified envelope (e.g. K > 20)."""


def _check_user_count(K, least=2):
    # least = 1 for the TDMA functions: the strongest of one user is a
    # legitimate question, though the dual-selection scheme needs two users
    if not _is_integer(K) or K < least:
        raise ValueError(f"K must be a positive integer >= {least}, got {K!r}")
    if K > MAX_USERS:
        raise CapabilityError(
            f"K={K} exceeds the supported maximum of {MAX_USERS} users "
            "(alternating-sum cancellation would corrupt the result)"
        )


@dataclass(frozen=True)
class SystemConfig:
    """One scenario: K users, served index n, linear transmit SNR rho.

    The jamming user is always the strongest user (index K); served_index
    may equal K, which denotes the degenerate TDMA-like slot where the best
    user transmits alone at full power and nobody jams.
    """

    num_users: int
    served_index: int
    transmit_snr: float

    def __post_init__(self):
        _check_user_count(self.num_users)
        n = self.served_index
        if not _is_integer(n) or not (1 <= n <= self.num_users):
            raise ValueError(
                f"served_index must be an integer in [1, {self.num_users}], got {n!r}"
            )
        _check_positive_real(self.transmit_snr, "transmit_snr")


@dataclass(frozen=True)
class XiTable:
    """Signed coefficients of the jamming-decode SNR CDF, indexed [i, j]
    with i in [0, K-n] and j in [0, n-1]."""

    K: int
    n: int
    coefficients: np.ndarray


@dataclass(frozen=True)
class EsrValue:
    """An ergodic secrecy rate in nats: the clamped value and the raw
    difference of expectations it was clamped from."""

    value: float
    unclamped: float


def _clamped(unclamped):
    if not math.isfinite(unclamped):  # max(0.0, nan) would read 0.0
        raise FloatingPointError(f"the ESR evaluates to {unclamped!r}")
    return EsrValue(value=max(0.0, unclamped), unclamped=unclamped)


@lru_cache(maxsize=None, typed=True)  # typed: True must not hit the entry for 1
def xi_table(K, n):
    """Coefficient table Xi[i, j] = (-1)^(i+j) n C(K,n) C(K-n,i) C(n-1,j).

    Exact in double precision for K <= 20 (all binomials are exact
    integers well below 2^53). Requires 1 <= n <= K-1: the table only
    exists for the dual-selection slot, not for the TDMA case n = K.
    """
    _check_user_count(K)
    _check_dual_slot(K, n)
    lead = n * math.comb(K, n)
    coeff = np.empty((K - n + 1, n))
    for i in range(K - n + 1):
        ci = math.comb(K - n, i)
        for j in range(n):
            sign = -1.0 if (i + j) % 2 else 1.0
            coeff[i, j] = sign * lead * ci * math.comb(n - 1, j)
    coeff.setflags(write=False)
    return XiTable(K=int(K), n=int(n), coefficients=coeff)


#: Points per cdf_T broadcast, which bounds its (points, i, j) temporaries.
_CDF_CHUNK = 2048


def _cdf_T(t, K, n, rho):
    # cdf_T at a scalar (a float back) or an array of points (an array of
    # its shape), each chunk of points in one broadcast over (point, i, j).
    # Each row i is summed over j, then the rows are added in order of i by
    # a cumsum, so every value has the bits of a loop that adds one row i at
    # a time.
    c = xi_table(K, n).coefficients
    scalar = np.ndim(t) == 0
    arr = _as_float_array(t, "t")
    b = np.arange(K - n + 1, K + 1, dtype=float)  # K - n + 1 + j
    i = np.arange(1, K - n + 1, dtype=float)[:, None]
    flat = arr.ravel()
    out = np.empty_like(flat)
    with np.errstate(over="ignore", divide="ignore"):
        for s in range(0, flat.size, _CDF_CHUNK):
            tc = flat[s:s + _CDF_CHUNK, None]
            om = 1.0 - tc
            if rho < math.inf:
                m2t = -2.0 * tc
                e = np.exp(m2t[:, None] * i / rho)
                # the tail's exponent -> -inf as t -> 1-, and is -inf from
                # t = 1 on, where 1 - t is floored at 0: the tail is 0 there
                tail = np.exp(m2t * b / (rho * np.maximum(om, 0.0)))
            else:
                # the high-SNR limit: every exponential is 1, and the tail
                # is 1 below t = 1 and 0 from t = 1 on (computed, inf * 0
                # from t = 1 on and inf / inf at t = inf give exp(nan))
                e, tail = 1.0, (tc < 1.0).astype(float)
            denom = b - i * om[:, None]  # i (t - 1) + b_j, to the bit
            row0 = (c[0] * (1.0 - tail) / b).sum(axis=1)
            terms = c[1:] * (e - tail[:, None]) / denom
            rows = np.concatenate((row0[:, None], terms.sum(axis=2)), axis=1)
            out[s:s + _CDF_CHUNK] = np.cumsum(rows, axis=1)[:, -1]
    return float(out[0]) if scalar else out.reshape(arr.shape)


def cdf_T(t, cfg):
    """CDF of T = |h_K|^2 / (|h_n|^2 + 2/rho), the base station's SNR for
    decoding the jamming signal.

    Accepts a scalar or array t >= 0. One formula covers every t:

        F_T(t) = sum_ij Xi[i, j] (e^(-2it/rho) - tail_j) / (i (t - 1) + b_j),
        b_j = K - n + 1 + j,  tail_j = e^(-2t b_j / (rho (1 - t))),

    where tail_j vanishes as t -> 1- and is 0 from t = 1 on, so the CDF is
    continuous there. Every (point, i, j) term is evaluated in one
    broadcast per fixed-size chunk of points (which bounds its
    temporaries); each row i is summed over j and the rows are added in
    order of i, so the bits are those of a loop over i.
    """
    return _cdf_T(t, cfg.num_users, cfg.served_index, cfg.transmit_snr)


def cdf_T_high_snr(t, K, n):
    """Limiting CDF of the jamming-decode SNR as rho -> inf: cdf_T's formula
    at rho = inf, where e^(-2it/rho) is 1 and tail_j is 1 below t = 1 and 0
    from t = 1 on. So it is zero below t = 1 (the strongest gain can never
    trail the n-th) and rational from t = 1 on."""
    return _cdf_T(t, K, n, math.inf)


def _check_dual_slot(K, n):
    # n names a dual-selection slot: 1 <= n <= K - 1
    if not _is_integer(n) or not (1 <= n <= K - 1):
        raise ValueError(
            f"served index must be in [1, {K - 1}], got {n!r}; n = K is the TDMA-like "
            "slot, answered by esr_tdma_exact, esr_tdma_high_snr and estimate_esr_tdma"
        )


def _check_variant(variant):
    if variant not in ("corrected", "printed"):
        raise ValueError(f"variant must be 'corrected' or 'printed', got {variant!r}")


def _order_stat_series(K, n, f):
    """E[phi(h_n)] for h_n the n-th smallest of K iid unit-mean exponential
    gains, given f(m) = E[phi(X/m)] with X ~ Exp(1): the order-statistic
    density expanded into exponentials m e^(-m x) (David & Nagaraja, Order
    Statistics, 3rd ed., sec. 2.1). f(m) = e^(am) E1(am) gives
    E[log(1 + h_n/a)]; f = log gives -(E[log h_n] + gamma). n = K is the
    TDMA slot (the strongest gain), where the second alternating sum is empty.
    f is called once for each m in 1..K, the only arguments either sum takes.
    """
    (value,) = _order_stat_sums(K, [n], np.array([f(m) for m in range(1, K + 1)]))
    return value


def _order_stat_sums(K, ns, fm):
    # _order_stat_series at each served index of the list ns, from its row
    # fm, fm[m - 1] = f(m). Each term is one rounded product of an exact
    # signed binomial weight and f(m), and each sum is an exact fsum, so the
    # order of the terms is free: every n shares the first sum, and its
    # second sum is a suffix of one row of products.
    first, second, index = _ORDER_STAT_WEIGHTS[K]
    total = math.fsum((first * fm).tolist())
    terms = (second * fm[index]).tolist()
    return [total - math.fsum(terms[n * (n + 1) // 2:]) for n in ns]  # pairs with i >= n


def _order_stat_weights(K):
    # The exact signed binomial weights of _order_stat_series at K users:
    # those of the first sum; those of the second, for every pair (i, j) with
    # 0 <= j <= i < K in order of i; and the index m - 1 of the f(m) that
    # each pair's term takes.
    first = np.array([(-1.0) ** (i + 1) * math.comb(K, i) for i in range(1, K + 1)])
    pairs = [(i, j) for i in range(K) for j in range(i + 1)]
    second = np.array([(-1.0) ** j * math.comb(K, i) * math.comb(i, j) for i, j in pairs])
    return first, second, np.array([K - 1 + j - i for i, j in pairs])


_ORDER_STAT_WEIGHTS = [None] + [_order_stat_weights(K) for K in range(1, MAX_USERS + 1)]


def _check_e1_bound(x, name):
    # x is the largest argument of e^x E1(x) that an order-statistic series
    # takes; where it is finite, no smaller one leaves the positive doubles
    if not x < math.inf:
        raise FloatingPointError(f"e^x E1(x) is taken at x = {name}, which overflows")


def exp_cb(cfg):
    """Expected legitimate rate E[log(1 + (rho/2)|h_n|^2)] in nats.

    Closed form: the order-statistic series of e^x E1(x) at x = 2m/rho
    (see _order_stat_series). Where 2K/rho overflows, raises
    FloatingPointError.
    """
    K, n, rho = cfg.num_users, cfg.served_index, cfg.transmit_snr
    _check_dual_slot(K, n)
    _check_e1_bound(2.0 * K / rho, "2K/rho")
    return _order_stat_series(K, n, lambda m: _e1_scaled_scalar(2.0 * m / rho))


def theta(u, rho):
    """Eavesdropper-rate kernel with the substituted inner integral taken
    over v in (0, inf).

    This is the weight against which the jamming-decode CDF is integrated.
    Extending the inner integral to v = 0 reaches outside the image of the
    positive-gain quadrant; theta_corrected restricts it to the exact image.
    Both are kept: this one for reference, the corrected one for results.

    Vanishes at both ends: ~ (rho - 1) u as u -> 0+, ~ -log(u)/u^2 as
    u -> inf. Where w = 2(u+1)/(rho u), the argument of e^w E1(w), exceeds
    the doubles (rho u below about 1e-308), the kernel is its w -> inf
    limit -log1p(u)/(u+1)^2, to within 2/(w (u+1)^2).

    Accepts a scalar (returns a float) or an array of positive finite u.
    """
    _check_positive_real(rho, "rho")
    scalar = np.ndim(u) == 0
    u = _as_positive_array(u, "u")
    up1 = u + 1.0
    with np.errstate(all="ignore"):  # (u+1)^2 may overflow; inf w is set below
        w = _kernel_w(u, up1, rho, 1)
        phi = _e1_scaled_array(w)
        log1p_u = np.log1p(u)
        first = (phi + 1.0 - log1p_u) / (up1 * up1)
        second = (2.0 / rho) * phi / (u * up1)
        out = first - second
    lim = w == math.inf
    out[lim] = -log1p_u[lim] / (up1[lim] * up1[lim])
    return float(out[0]) if scalar else out


def theta_corrected(u, rho):
    """Eavesdropper-rate kernel with the inner integral restricted to
    v > 2u/rho, the exact image of the positive-gain quadrant under
    (z, y) -> (u, v) = (y/(z + 2/rho), y).

    Closed form (the boundary terms cancel because 1 + (rho/2)(2u/rho)
    equals 1 + u exactly):

        e^(-2(u+1)/rho) * [ 1/(u+1)^2
                            + e^w E1(w) * (1/(u+1)^2 - 2/(rho u (u+1))) ],
        w = 2 (u+1)^2 / (rho u).

    Decays like e^(-2u/rho)/u^2 for large u, so the tail integral converges
    much faster than for the uncorrected kernel. Where w exceeds the
    doubles, the kernel (about u e^(-2(u+1)/rho)/(u+1)^3 there) is below
    3e-309 and reads 0.

    Accepts a scalar (returns a float) or an array of positive finite u.
    """
    _check_positive_real(rho, "rho")
    scalar = np.ndim(u) == 0
    u = _as_positive_array(u, "u")
    up1 = u + 1.0
    with np.errstate(all="ignore"):  # (u+1)^2 may overflow; inf w is set below
        w = _kernel_w(u, up1, rho, 2)
        phi = _e1_scaled_array(w)
        bracket = 1.0 / (up1 * up1) + phi * (1.0 / (up1 * up1) - 2.0 / (rho * u * up1))
        out = np.exp(-2.0 * up1 / rho) * bracket
    out[w == math.inf] = 0.0
    return float(out[0]) if scalar else out


def _kernel_w(u, up1, rho, power):
    # w = 2 (u+1)^power / (rho u), the argument of e^w E1(w) in the theta
    # kernels, rounded as written. Where that leaves the positive finite
    # doubles ((u+1)^2 or rho u overflowing, rho u underflowing), w is
    # rebuilt from the mantissas and exponents of u+1, rho and u, which
    # cannot overflow; a w beyond the doubles comes out as inf. Runs under
    # the caller's np.errstate(all="ignore").
    w = 2.0 * up1**power / (rho * u)
    bad = ~((w > 0.0) & (w < math.inf))  # a nan fails both
    if bad.any():
        (mp, ep), (mr, er), (mu, eu) = np.frexp(up1[bad]), np.frexp(rho), np.frexp(u[bad])
        w[bad] = np.ldexp(2.0 * mp**power / (mr * mu), power * ep - er - eu)
    return w


def psi(cfg, tol=1e-9, variant="corrected"):
    """Integral of the eavesdropper kernel against the jamming-decode CDF,
    Psi = int_0^inf kernel(u) F_T(u) du, to absolute tolerance tol.

    variant selects the kernel: "corrected" (default) integrates over the
    exact image of the positive-gain quadrant and is the one that matches
    simulation; "printed" keeps the v-from-0 kernel for comparison.

    The domain is split at u = 1, where the CDF's tail reaches 0, and each
    half gets tol/2. The lower half is one adaptive quadrature on [0, 1].
    The upper half is int_0^log(U) f(e^x) e^x dx in x = log u, where the
    corrected kernel's cut-off near u = rho/2 is one smooth step near
    x = log(rho/2) that a few panels resolve, plus the tail beyond U, which
    is dropped. U comes in closed form from a bound on int_U^inf |kernel| du
    (F_T <= 1; see _log_tail_end). The bound gets a thousandth of the upper
    half's tolerance and the quadrature the rest: a bound can be nearly
    reached, while the quadrature's error estimate is pessimistic. Where the
    bound meets its share from U = 1, the upper half is 0; where U would
    exceed the doubles, raises FloatingPointError.

    The upper half's quadrature starts from eight equal panels of
    [0, log U], with edges log(U) k / 8 rounded as written, evaluated in
    one integrand call, where bisection from one panel would take three
    levels of splits to reach them. The lower half starts from the one
    panel [0, 1]: bench/reference.json pins its values, 16 of which carry
    its boundary-layer miss next to u = 1, and a 2- or 4-panel start moves
    some of them by more than the bench's 1e-8.

    The two halves share their first integrand call: the lower half's first
    call also evaluates the upper half's 120 first nodes (when the upper
    half is kept), and the upper half's first call is served those values
    when its nodes are exactly those; otherwise it evaluates its own. Each
    node's value is independent of the rest of its call (the integrand
    contract of quad_interval), so every bit is the one two separate calls
    give. The halves stay two quad_interval calls, each with its own
    tolerance, value and evaluation count: one adaptive quadrature over both
    would split panels in another order and move the lower half's pinned
    values.
    """
    _check_dual_slot(cfg.num_users, cfg.served_index)
    _check_variant(variant)
    _check_positive_real(tol, "tol")
    kernel = theta_corrected if variant == "corrected" else theta
    rho = cfg.transmit_snr
    log_s = _log_tail_end(rho, math.log(_TAIL_SHARE * 0.5) + math.log(tol), variant)
    # log(U), U = S - 1; a U <= 1 reads 0, where the upper half is dropped whole
    log_u = log_s + math.log1p(-math.exp(-log_s)) if log_s > _LOG2 else 0.0
    if not log_u < _LOG_MAX:
        raise FloatingPointError(f"Psi's tail bound needs U = e^{log_u:.6g}, beyond the doubles")

    points = [log_u * k / _UPPER_PANELS for k in range(1, _UPPER_PANELS)] if log_u > 0.0 else ()
    # ahead holds the upper half's first nodes x until the lower half's first
    # call evaluates them too; fetched then holds x and the upper integrand
    # there until the upper half's first call
    ahead = [_first_nodes([0.0, *points, log_u])[1]] if points else []
    fetched = []

    def f(u):  # u is a panel's node array
        return kernel(u, rho) * cdf_T(u, cfg)

    def lower(u):
        if not ahead:
            return f(u)
        x = ahead.pop()
        u_ahead = np.exp(x)
        fx = f(np.concatenate((u, u_ahead)))
        fetched.append((x, fx[u.size:] * u_ahead))
        return fx[: u.size]

    def upper(x):  # u = e^x, du = e^x dx
        if fetched:
            x_ahead, values = fetched.pop()
            if np.array_equal(x, x_ahead):
                return values
        u = np.exp(x)
        return f(u) * u

    left = quad_interval(lower, 0.0, 1.0, tol=0.5 * tol)
    if log_u == 0.0:
        return left.value
    right = quad_interval(upper, 0.0, log_u, tol=(1.0 - _TAIL_SHARE) * 0.5 * tol, points=points)
    return left.value + right.value


#: The share of psi's upper-half tolerance that its dropped tail gets.
_TAIL_SHARE = 1e-3

#: The number of equal panels psi's upper half starts from.
_UPPER_PANELS = 8


_LOG_MAX = math.log(sys.float_info.max)


def _log_tail_end(rho, log_tol, variant):
    """log S, S = U + 1 >= 1, such that the tail int_U^inf |kernel| du is
    at most tol = e^log_tol. Built from logs, so it overflows at no rho or
    tol.

    With s = u + 1 and 1/(w+1) < e^w E1(w) < 1/w (A&S 5.1.19), the
    corrected kernel lies in [0, e^(-2s/rho) (1/s^2 + rho/(2 s^3))]. That
    bound integrates from S to at most (rho/2) e^(-2S/rho)/S^2, which is
    <= tol at S = (rho/2) log(rho/(2 tol)); without its e^(-2u/rho), to
    e^(-2/rho) (1/S + rho/(4 S^2)), whose two terms are each <= tol/2 from
    S = max(2 e^(-2/rho)/tol, sqrt(rho e^(-2/rho)/(2 tol))). S is the
    smaller of the two.

    The printed kernel has |theta| < (L + 2 + log s)/s^2, with
    L = log(1 + rho/2) > e^w E1(w) (A&S 5.1.20). Its tail from S is
    (L + 3 + log S)/S, which is <= tol at S = 2 m/tol,
    m = L + 2 + log(2/tol), since log S <= log(2/tol) + S tol/2 - 1.

    Both bounds fall with S, so one that is <= tol at a smaller S gives S = 1.
    """
    log_half_rho = math.log(rho) - _LOG2
    if variant == "printed":
        m = math.log1p(0.5 * rho) + 2.0 + _LOG2 - log_tol
        return max(0.0, _LOG2 + math.log(m) - log_tol) if m > 0.0 else 0.0
    a = 2.0 / rho
    without = max(_LOG2 - a - log_tol, 0.5 * (log_half_rho - a - log_tol))
    level = log_half_rho - log_tol  # log(rho/(2 tol))
    with_exp = log_half_rho + math.log(level) if level > 0.0 else 0.0
    return max(0.0, min(with_exp, without))


def exp_ce(cfg, tol=1e-9, variant="corrected"):
    """Expected eavesdropper rate E[C_e] in nats.

    Sum of the no-jamming-knowledge baseline 1 - (2/rho) e^x E1(x) at
    x = 2/rho and the decode-probability-weighted correction e^(2/rho) Psi.
    Psi is taken to tol e^(-2/rho), so that the correction meets tol. Where
    e^(2/rho) overflows (below about -25.5 dB), or tol e^(-2/rho)
    underflows, raises FloatingPointError.
    """
    _check_positive_real(tol, "tol")
    rho = cfg.transmit_snr
    a = 2.0 / rho
    re1 = 1.0 - a * e1_scaled(a)
    psi_tol = tol * math.exp(-a)
    if not (a < 709.78 and psi_tol > 0.0):  # e^a overflows from a = 709.7827
        raise FloatingPointError(
            "E[C_e] scales Psi by e^(2/rho) and takes it to tol e^(-2/rho), "
            f"which leave the doubles at 2/rho = {a:.6g}"
        )
    return re1 + math.exp(a) * psi(cfg, tol=psi_tol, variant=variant)


def esr_exact(cfg, tol=1e-9):
    """Exact ergodic secrecy rate of the dual-selection slot, in nats.

    Difference of the expected legitimate and eavesdropper rates, clamped
    at zero (the clamp applies to the difference of expectations, not per
    realization).
    """
    unclamped = exp_cb(cfg) - exp_ce(cfg, tol=tol)
    return _clamped(unclamped)


def _upsilon_lead(rho):
    # the only place rho enters Upsilon: log(rho/2) + 1 - gamma
    if not 0.5 * rho > 0.0:
        raise FloatingPointError(f"log(rho/2) is taken at rho/2 = 0.5 * {rho!r}, which underflows")
    return math.log(0.5 * rho) + 1.0 - EULER_GAMMA


#: The parts of Upsilon at xi = 1, whose closed form lead/8 + log(2)/4 - 3/8
#: is lead*a/b + c - d + mu at these values, to the bit.
_UPSILON_PARTS_AT_ONE = (1.0, 8.0, _LOG2 / 4.0, 3.0 / 8.0, 0.0)


def _upsilon_parts(xis):
    """Rows (a, b, c, d, mu) of the rho-free parts of Upsilon at each xi of
    the list xis, so that Upsilon = lead*a/b + c - d + mu. The logs are
    math's, one xi at a time; the three dilogarithms of every xi != 1 come
    from one li2 call."""
    args = [v for xi in xis if xi != 1.0 for v in ((xi - 1.0) / xi, (xi - 1.0) / (2.0 * xi), -xi)]
    dilogs = iter(li2(args).tolist() if args else [])
    rows = []
    for xi in xis:
        if xi == 1.0:
            rows.append(_UPSILON_PARTS_AT_ONE)
            continue
        om = 1.0 - xi
        if xi < 1.0:
            zeta = 2.0 * _LOG2 * math.log((xi + 1.0) / xi) - _LOG2**2
        else:
            zeta = (
                2.0 * _LOG2 * math.log((xi + 1.0) / (xi - 1.0))
                + math.log((xi - 1.0) / xi) ** 2
                - math.log((xi - 1.0) / (2.0 * xi)) ** 2
            )
        l1, l2, l3 = next(dilogs), next(dilogs), next(dilogs)
        rows.append((
            xi - 1.0 + 2.0 * math.log(2.0 / (1.0 + xi)),
            2.0 * om * om,
            1.0 / om,
            (math.pi**2 + 12.0 * _LOG2**2) / (12.0 * om * om),
            (2.0 * (l1 - l2) - l3 + zeta) / (om * om),
        ))
    return rows


def _upsilon_step(lead, parts):
    # Upsilon from parts (a, b, c, d, mu), floats or columns, summed left to
    # right as upsilon_from_xi's docstring writes it; another order would
    # change the last bits
    a, b, c, d, mu = parts
    return lead * a / b + c - d + mu


#: Within this distance of xi = 1 (but not at it), upsilon_from_xi
#: integrates instead: there the closed form's 1/(1-xi)^2 poles cancel
#: against the dilogarithms and take its digits with them.
_UPSILON_NEAR_ONE = 0.05


def _upsilon_integral(xi, lead):
    def f(u):  # u is a panel's node array
        up1 = u + 1.0
        return (lead + np.log(u / (up1 * up1))) / (up1 * up1 * (u + xi))

    return quad_semi_infinite(f, 1.0, tol=1e-13).value


def upsilon_from_xi(xi, rho):
    """High-SNR tail integral
    int_1^inf [log(rho/2) + 1 - gamma + log(u/(u+1)^2)] / ((u+1)^2 (u+xi)) du
    as a closed form in the partial-fraction parameter xi > 0.

    With lead = log(rho/2) + 1 - gamma, the xi != 1 form is
    Upsilon = lead*a/b + c - d + mu, where the rho-free parts are
    a = xi - 1 + 2 log(2/(1+xi)), b = 2(1-xi)^2, c = 1/(1-xi),
    d = (pi^2 + 12 log(2)^2)/(12(1-xi)^2), and mu, the dilogarithm
    combination over (1-xi)^2. The xi = 1 case is a separate closed form;
    the xi != 1 branches are continuous across it (the apparent 1/(1-xi)^2
    poles cancel against the dilogarithm combination). That cancellation
    costs digits as xi nears 1 (2e-2 absolute at 1 + 1e-6), so for
    0 < |xi - 1| < 0.05 the integral is taken by quadrature to 1e-13
    instead. The engine's xi are ratios of integers up to 20 minus one, so
    each is 1 or at least 1/19 away from it and always takes a closed form.
    Where rho/2 underflows, raises FloatingPointError.
    """
    _check_positive_real(xi, "xi")
    _check_positive_real(rho, "rho")
    lead = _upsilon_lead(rho)
    if 0.0 < abs(xi - 1.0) < _UPSILON_NEAR_ONE:
        return _upsilon_integral(float(xi), lead)
    (parts,) = _upsilon_parts([float(xi)])
    return _upsilon_step(lead, parts)


def esr_high_snr(cfg):
    """High-SNR closed-form ESR of the dual-selection slot, in nats.

    (log(rho/2) - 1 - gamma)/2 + varpi - sum_{i>=1, j} (Xi_ij / i) Upsilon_ij,
    clamped at zero, with varpi = -_order_stat_series(K, n, log) and
    Upsilon_ij = upsilon_from_xi(xi_ij, rho), xi_ij = (K - n + 1 + j)/i - 1
    (the i = 0 row integrates to the constant in the leading term). Grows
    like c * log(rho/2) with c = 1/2 minus the limiting decode probability
    weight carried by the Upsilon terms. Where rho/2 underflows, raises
    FloatingPointError.

    Only lead = log(rho/2) + 1 - gamma depends on rho. Within one scan
    (selection.evaluate_cells), the first call at K answers every cell
    (n, rho) the scan registered at K in one pass (see _high_snr_pass),
    and each later call reads its own value; outside one, a call is that
    pass over its one cell. Either way the value is the same to the bit,
    and a cell's errors are raised at its own call.
    """
    K, n, rho = int(cfg.num_users), int(cfg.served_index), cfg.transmit_snr
    _check_dual_slot(K, n)
    cell = (n, rho)
    group = _scan_group(("high_snr", K))  # (n, rho) -> unclamped, None until computed
    if group.get(cell) is None:
        _upsilon_lead(rho)  # a rho/2 that underflows raises here, at this cell alone
        group[cell] = None
        _high_snr_pass(K, group)
    return _clamped(group[cell])


def _scan_cells(K, cells):
    """Register a scan's high-SNR cells (n, rho) at K users, so that the
    scan's first esr_high_snr call at K answers them all. K has passed
    _check_user_count; a cell that esr_high_snr refuses is left out, and
    its own call raises."""
    group = _scan_group(("high_snr", int(K)))
    for n, rho in cells:
        if _is_integer(n) and 1 <= n < K and _is_positive_real(rho) and 0.5 * rho > 0.0:
            group.setdefault((int(n), rho), None)


def _high_snr_pass(K, group):
    """Answer, in place and in one pass, every cell (n, rho) of group (see
    esr_high_snr) whose unclamped value is None. The terms of n are the
    (i, p), p = K - n + 1 + j, with i <= K - n < p <= K, at xi = p/i - 1;
    one _upsilon_parts call (so one li2 call) takes the distinct xi of
    every (i, p) that some n among the cells takes, and varpi's row of
    log m is shared across n. Per chunk of rho, Upsilon over the (i, p)
    grid is one broadcast, each n's tails (Xi_ij / i) Upsilon_ij at those
    rho are one product, and each cell's tail is then an exact fsum. So
    every value has the bits of its cell's term-by-term evaluation."""
    ns_at = {}
    for n, rho in [cell for cell, value in group.items() if value is None]:
        ns_at.setdefault(rho, []).append(n)
    ns = list(dict.fromkeys(n for at in ns_at.values() for n in at))
    # (i, p) is a term of some n when i <= m < p for some m = K - n, that
    # is when p exceeds the least such m that is >= i
    ms = sorted({K - n for n in ns})
    place = [0] * (K * (K + 1))  # i (K + 1) + p -> its xi's place among the distinct
    distinct = {}
    k = 0
    for i in range(1, ms[-1] + 1):
        while ms[k] < i:
            k += 1
        for p in range(ms[k] + 1, K + 1):
            place[i * (K + 1) + p] = distinct.setdefault(p / i - 1.0, len(distinct))
    parts = np.array(_upsilon_parts(list(distinct)))[place].T.reshape(5, K, K + 1)
    i_col = np.arange(1, K)[:, None]
    weights = {n: xi_table(K, n).coefficients[1:] / i_col[:K - n] for n in ns}
    logs = np.array([math.log(m) for m in range(1, K + 1)])
    series = dict(zip(ns, _order_stat_sums(K, ns, logs)))
    rhos = list(ns_at)
    step = max(1, _CHUNK_VALUES // max(K * (K + 1), sum((K - n) * n for n in ns)))
    for s in range(0, len(rhos), step):
        chunk = rhos[s:s + step]
        leads = np.array([_upsilon_lead(rho) for rho in chunk])[:, None, None]
        upsilon = _upsilon_step(leads, parts)  # (rho, i, p)
        tails = {
            n: (weights[n] * upsilon[:, 1:K - n + 1, K - n + 1:]).reshape(len(chunk), -1).tolist()
            for n in ns
        }
        for r, rho in enumerate(chunk):
            lead = (math.log(0.5 * rho) - 1.0 - EULER_GAMMA) / 2.0
            for n in ns_at[rho]:
                group[n, rho] = lead - series[n] - math.fsum(tails[n][r])


#: Most (rho, i, p) Upsilon values, and most (rho, term) tails, per chunk
#: of rho, which bounds the chunk's arrays and lists.
_CHUNK_VALUES = 1 << 14


def esr_tdma_exact(K, rho):
    """Exact ESR of the TDMA-like baseline: the strongest user transmits
    alone at full power, the eavesdropper overhears through an independent
    unit-mean gain. In nats. Where K/rho overflows, raises
    FloatingPointError."""
    _check_user_count(K, least=1)
    _check_positive_real(rho, "rho")
    _check_e1_bound(K / rho, "K/rho")
    eve = e1_scaled(1.0 / rho)  # also the series' f(1)
    best = _order_stat_series(K, K, lambda m: eve if m == 1 else _e1_scaled_scalar(m / rho))
    return _clamped(best - eve)


def esr_tdma_high_snr(K, variant="corrected"):
    """High-SNR limit of the TDMA-like ESR: an alternating binomial-log sum,
    independent of transmit power.

    Two sign conventions are in circulation: one series
    s = _order_stat_series(K, K, log) with opposite signs. "corrected"
    (default) is -s = sum_i (-1)^i C(K,i) log(i), which equals
    E[log max of K exponentials] - E[log exponential] and matches
    simulation; "printed" is s, negative for every K >= 2 and so clamped.
    """
    _check_user_count(K, least=1)
    _check_variant(variant)
    s = _order_stat_series(K, K, math.log)
    # 0.0 - s rather than -s, so that K = 1 reads +0.0
    return _clamped(0.0 - s if variant == "corrected" else s)
