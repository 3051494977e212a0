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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import EULER_GAMMA, e1_scaled, li2, quad_interval, quad_semi_infinite

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
    "upsilon",
    "upsilon_from_xi",
    "esr_high_snr",
    "esr_tdma_exact",
    "esr_tdma_high_snr",
]

_LOG2 = math.log(2.0)

#: Largest supported number of users. The alternating sums in the rate
#: formulas lose roughly one decimal digit of precision per two users;
#: beyond 20 users double precision can fail silently, so we refuse.
MAX_USERS = 20


class CapabilityError(ValueError):
    """Parameters outside the numerically certified envelope (e.g. K > 20)."""


def _is_integer(x):
    # bool subclasses int, but True is neither a count nor an index
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_user_count(K):
    if not _is_integer(K):
        raise ValueError(f"number of users must be an integer, got {K!r}")
    if K < 2:
        raise ValueError(f"need at least 2 users, got {K}")
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
        rho = self.transmit_snr
        real = _is_integer(rho) or isinstance(rho, (float, np.floating))
        if not (real and math.isfinite(rho) and rho > 0):
            raise ValueError(f"transmit_snr must be positive and finite, got {rho!r}")


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
    return EsrValue(value=max(0.0, unclamped), unclamped=unclamped)


@lru_cache(maxsize=None, typed=True)  # typed: True must not hit the entry for 1
def xi_table(K, n):
    """Coefficient table Xi[i, j] = (-1)^(i+j) n C(K,n) C(K-n,i) C(n-1,j).

    Exact in double precision for K <= 20 (all binomials are exact
    integers well below 2^53). Requires 1 <= n <= K-1: the table only
    exists for the dual-selection slot, not for the TDMA case n = K.
    """
    _check_user_count(K)
    if not _is_integer(n) or not (1 <= n <= K - 1):
        raise ValueError(f"served index must be in [1, {K - 1}], got {n!r}")
    lead = n * math.comb(K, n)
    coeff = np.empty((K - n + 1, n))
    for i in range(K - n + 1):
        ci = math.comb(K - n, i)
        for j in range(n):
            sign = -1.0 if (i + j) % 2 else 1.0
            coeff[i, j] = sign * lead * ci * math.comb(n - 1, j)
    coeff.setflags(write=False)
    return XiTable(K=int(K), n=int(n), coefficients=coeff)


def _as_float_array(t, name):
    arr = np.asarray(t, dtype=float)
    if not (arr >= 0.0).all():  # also false for nan
        raise ValueError(f"{name} must be >= 0, got {t!r}")
    return arr


def _cdf_T_upper(t, table, rho):
    # Branch t >= 1, summed row by row over i with j as the column axis.
    K, n = table.K, table.n
    b = np.arange(K - n + 1, K + 1, dtype=float)  # K - n + 1 + j
    t = t[:, None]
    # the i = 0 row is written out: i*t would produce nan at t = inf
    acc = np.full(t.shape[0], (table.coefficients[0] / b).sum())
    with np.errstate(over="ignore"):
        for i in range(1, K - n + 1):
            e = np.exp(-2.0 * t * i / rho)
            acc += (table.coefficients[i] * e / (i * (t - 1.0) + b)).sum(axis=1)
    return acc


def _cdf_T_lower(t, table, rho):
    # Branch t < 1, summed row by row over i with j as the column axis.
    K, n = table.K, table.n
    b = np.arange(K - n + 1, K + 1, dtype=float)  # K - n + 1 + j
    t = t[:, None]
    with np.errstate(over="ignore"):
        # exponent -> -inf as t -> 1-, so exp() underflows to 0 exactly
        # where the branches meet
        tail = np.exp(-2.0 * t * b / (rho * (1.0 - t)))
    acc = (table.coefficients[0] * (1.0 - tail) / b).sum(axis=1)
    for i in range(1, K - n + 1):
        e = np.exp(-2.0 * t * i / rho)
        acc += (table.coefficients[i] * (e - tail) / (i * (t - 1.0) + b)).sum(axis=1)
    return acc


def cdf_T(t, cfg):
    """CDF of T = |h_K|^2 / (|h_n|^2 + 2/rho), the base station's SNR for
    decoding the jamming signal.

    Accepts a scalar or array t >= 0. The formula has two branches glued at
    t = 1; the lower branch's extra exponential vanishes as t -> 1-, so the
    CDF is continuous there. Each branch sums the Xi table one row i at a
    time, with the column index j as a broadcast axis of shape (points, n).
    """
    table = xi_table(cfg.num_users, cfg.served_index)
    rho = cfg.transmit_snr
    scalar = np.ndim(t) == 0
    arr = np.atleast_1d(_as_float_array(t, "t"))
    hi = arr >= 1.0
    out = np.empty_like(arr)
    if hi.any():
        out[hi] = _cdf_T_upper(arr[hi], table, rho)
    if not hi.all():
        out[~hi] = _cdf_T_lower(arr[~hi], table, rho)
    return float(out[0]) if scalar else out


def cdf_T_high_snr(t, K, n):
    """Limiting CDF of the jamming-decode SNR as rho -> inf: zero below
    t = 1 (the strongest gain can never trail the n-th), rational above."""
    table = xi_table(K, n)
    scalar = np.ndim(t) == 0
    arr = np.atleast_1d(_as_float_array(t, "t"))
    out = np.zeros_like(arr)
    th = arr[arr >= 1.0]
    acc = np.zeros_like(th)
    for i in range(K - n + 1):
        for j in range(n):
            b = K - n + 1 + j
            acc += table.coefficients[i, j] / (i * (th - 1.0) + b if i else b)
    out[arr >= 1.0] = acc
    return float(out[0]) if scalar else out


def _require_dual_slot(cfg):
    if cfg.served_index > cfg.num_users - 1:
        raise ValueError(
            "served_index = K is the TDMA-like slot; use esr_tdma_exact / "
            "esr_tdma_high_snr for it"
        )


def _order_stat_series(K, n, f):
    """E[phi(h_n)] for h_n the n-th smallest of K iid unit-mean exponential
    gains, given f(m) = E[phi(X/m)] with X ~ Exp(1): the order-statistic
    density expanded into exponentials m e^(-m x) (David & Nagaraja, Order
    Statistics, 3rd ed., sec. 2.1). f(m) = e^(am) E1(am) gives
    E[log(1 + h_n/a)]; f = log gives -(E[log h_n] + gamma). n = K is the
    TDMA slot (the strongest gain), where the second alternating sum is empty.
    """
    first = [(-1.0) ** (i + 1) * math.comb(K, i) * f(i) for i in range(1, K + 1)]
    second = [
        (-1.0) ** j * math.comb(K, i) * math.comb(i, j) * f(K + j - i)
        for i in range(n, K) for j in range(i + 1)
    ]
    return math.fsum(first) - math.fsum(second)


def exp_cb(cfg):
    """Expected legitimate rate E[log(1 + (rho/2)|h_n|^2)] in nats.

    Closed form: the order-statistic series of e^x E1(x) at x = 2m/rho
    (see _order_stat_series).
    """
    _require_dual_slot(cfg)
    K, n, rho = cfg.num_users, cfg.served_index, cfg.transmit_snr
    return _order_stat_series(K, n, lambda x: e1_scaled(2.0 * x / rho))


def _as_positive_array(u, name):
    # The whole array is checked once; one bad element rejects the call.
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise ValueError(f"{name} must be positive and finite, got {u!r}")
    return arr


def _e1_scaled_each(x):
    # e^x E1(x) node by node through the scalar kernel (looked up in this
    # module, so a rebinding of analytic.e1_scaled sees every node).
    return np.array([e1_scaled(v) for v in x.tolist()])


def theta(u, rho):
    """Eavesdropper-rate kernel with the substituted inner integral taken
    over v in (0, inf).

    This is the weight against which the jamming-decode CDF is integrated.
    Extending the inner integral to v = 0 reaches outside the image of the
    positive-gain quadrant; theta_corrected restricts it to the exact image.
    Both are kept: this one for reference, the corrected one for results.

    Vanishes at both ends: ~ (rho - 1) u as u -> 0+ (the e^x E1(x) factor
    decays like 1/x against the 1/u pole, so no overflow), ~ -log(u)/u^2 as
    u -> inf.

    Accepts a scalar (returns a float) or an array of positive finite u.
    """
    scalar = np.ndim(u) == 0
    u = _as_positive_array(u, "u")
    phi = _e1_scaled_each(2.0 * (u + 1.0) / (rho * u))
    first = (phi + 1.0 - np.log1p(u)) / ((u + 1.0) * (u + 1.0))
    second = (2.0 / rho) * phi / (u * (u + 1.0))
    out = first - second
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
    much faster than for the uncorrected kernel.

    Accepts a scalar (returns a float) or an array of positive finite u.
    """
    scalar = np.ndim(u) == 0
    u = _as_positive_array(u, "u")
    up1 = u + 1.0
    phi = _e1_scaled_each(2.0 * up1 * up1 / (rho * u))
    bracket = 1.0 / (up1 * up1) + phi * (1.0 / (up1 * up1) - 2.0 / (rho * u * up1))
    out = np.exp(-2.0 * up1 / rho) * bracket
    return float(out[0]) if scalar else out


def psi(cfg, tol=1e-9, variant="corrected"):
    """Integral of the eavesdropper kernel against the jamming-decode CDF,
    Psi = int_0^inf kernel(u) F_T(u) du, to absolute tolerance tol.

    variant selects the kernel: "corrected" (default) integrates over the
    exact image of the positive-gain quadrant and is the one that matches
    simulation; "printed" keeps the v-from-0 kernel for comparison. The
    domain is split at u = 1 where the CDF switches branches.
    """
    _require_dual_slot(cfg)
    kernel = _select_kernel(variant)
    rho = cfg.transmit_snr

    def f(u):  # u is a panel's node array
        return kernel(u, rho) * cdf_T(u, cfg)

    left = quad_interval(f, 0.0, 1.0, tol=0.5 * tol)
    right = quad_semi_infinite(f, 1.0, tol=0.5 * tol)
    return left.value + right.value


def _select_kernel(variant):
    if variant == "corrected":
        return theta_corrected
    if variant == "printed":
        return theta
    raise ValueError(f"variant must be 'corrected' or 'printed', got {variant!r}")


def exp_ce(cfg, tol=1e-9, variant="corrected"):
    """Expected eavesdropper rate E[C_e] in nats.

    Sum of the no-jamming-knowledge baseline 1 - (2/rho) e^x E1(x) at
    x = 2/rho and the decode-probability-weighted correction e^(2/rho) Psi.
    """
    rho = cfg.transmit_snr
    a = 2.0 / rho
    re1 = 1.0 - a * e1_scaled(a)
    return re1 + math.exp(a) * psi(cfg, tol=tol, variant=variant)


def esr_exact(cfg, tol=1e-9):
    """Exact ergodic secrecy rate of the dual-selection slot, in nats.

    Difference of the expected legitimate and eavesdropper rates, clamped
    at zero (the clamp applies to the difference of expectations, not per
    realization).
    """
    unclamped = exp_cb(cfg) - exp_ce(cfg, tol=tol)
    return _clamped(unclamped)


def upsilon_from_xi(xi, rho):
    """High-SNR tail integral
    int_1^inf [log(rho/2) + 1 - gamma + log(u/(u+1)^2)] / ((u+1)^2 (u+xi)) du
    as a closed form in the partial-fraction parameter xi > 0.

    The xi = 1 case is a separate closed form; the xi != 1 branches are
    continuous across it (the apparent 1/(1-xi)^2 poles cancel against the
    dilogarithm combination).
    """
    if not (math.isfinite(xi) and xi > 0.0):
        raise ValueError(f"xi must be positive and finite, got {xi!r}")
    lead = math.log(0.5 * rho) + 1.0 - EULER_GAMMA
    if xi == 1.0:
        return lead / 8.0 + _LOG2 / 4.0 - 3.0 / 8.0
    om = 1.0 - xi
    nu = (
        lead * (xi - 1.0 + 2.0 * math.log(2.0 / (1.0 + xi))) / (2.0 * om * om)
        + 1.0 / om
        - (math.pi**2 + 12.0 * _LOG2**2) / (12.0 * om * om)
    )
    if xi < 1.0:
        zeta = 2.0 * _LOG2 * math.log((xi + 1.0) / xi) - _LOG2**2
    else:
        zeta = (
            2.0 * _LOG2 * math.log((xi + 1.0) / (xi - 1.0))
            + math.log((xi - 1.0) / xi) ** 2
            - math.log((xi - 1.0) / (2.0 * xi)) ** 2
        )
    mu = (
        2.0 * (li2((xi - 1.0) / xi) - li2((xi - 1.0) / (2.0 * xi)))
        - li2(-xi)
        + zeta
    ) / (om * om)
    return nu + mu


def upsilon(i, j, K, n, rho):
    """Closed-form tail integral for table entry (i, j); i >= 1 only, the
    i = 0 row integrates to the constant absorbed in the leading term."""
    if not (_is_integer(i) and i >= 1):
        raise ValueError(f"i must be an integer >= 1, got {i!r}")
    if not (_is_integer(j) and 0 <= j <= n - 1):
        raise ValueError(f"j must be an integer in [0, {n - 1}], got {j!r}")
    if i > K - n:
        raise ValueError(f"i must be <= K - n = {K - n}, got {i}")
    xi = (K - n + 1 + j) / i - 1.0
    return upsilon_from_xi(xi, rho)


def esr_high_snr(cfg):
    """High-SNR closed-form ESR of the dual-selection slot, in nats.

    (log(rho/2) - 1 - gamma)/2 + varpi - sum_{i>=1, j} (Xi_ij / i) Upsilon_ij,
    clamped at zero, with varpi = -_order_stat_series(K, n, log). Grows like
    c * log(rho/2) with c = 1/2 minus the limiting decode probability weight
    carried by the Upsilon terms.
    """
    _require_dual_slot(cfg)
    table = xi_table(cfg.num_users, cfg.served_index)
    K, n, rho = table.K, table.n, cfg.transmit_snr
    tail = [
        table.coefficients[i, j] / i * upsilon(i, j, K, n, rho)
        for i in range(1, K - n + 1)
        for j in range(n)
    ]
    unclamped = (
        (math.log(0.5 * rho) - 1.0 - EULER_GAMMA) / 2.0
        - _order_stat_series(K, n, math.log)
        - math.fsum(tail)
    )
    return _clamped(unclamped)


def _check_order_stat_count(K):
    # K = 1 is a legitimate TDMA question (the strongest of one user) even
    # though the dual-selection scheme itself needs two users.
    if not _is_integer(K) or K < 1:
        raise ValueError(f"number of users must be a positive integer, got {K!r}")
    if K > MAX_USERS:
        raise CapabilityError(
            f"K={K} exceeds the supported maximum of {MAX_USERS} users"
        )


def esr_tdma_exact(K, rho):
    """Exact ESR of the TDMA-like baseline: the strongest user transmits
    alone at full power, the eavesdropper overhears through an independent
    unit-mean gain. In nats."""
    _check_order_stat_count(K)
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be positive and finite, got {rho!r}")
    best = _order_stat_series(K, K, lambda x: e1_scaled(x / rho))
    return _clamped(best - e1_scaled(1.0 / rho))


def esr_tdma_high_snr(K, variant="corrected"):
    """High-SNR limit of the TDMA-like ESR: an alternating binomial-log sum,
    independent of transmit power.

    Two sign conventions are in circulation: one series
    s = _order_stat_series(K, K, log) with opposite signs. "corrected"
    (default) is -s = sum_i (-1)^i C(K,i) log(i), which equals
    E[log max of K exponentials] - E[log exponential] and matches
    simulation; "printed" is s, negative for every K >= 2 and so clamped.
    """
    _check_order_stat_count(K)
    if variant not in ("corrected", "printed"):
        raise ValueError(f"variant must be 'corrected' or 'printed', got {variant!r}")
    s = _order_stat_series(K, K, math.log)
    # 0.0 - s rather than -s, so that K = 1 reads +0.0
    return _clamped(0.0 - s if variant == "corrected" else s)
