"""Scalar oracles that the vectorized engines are checked against.

The per-slot ones restate the model one slot at a time, with no
validation, and draw their gains from the same per-trial Philox slices as
the library. The closed-form ones are the
library's earlier one-term-at-a-time loops, kept as bit oracles: the array
code must reproduce them to the last bit. cdf_T_two_branch is the Xi-sum
CDF as it was evaluated before its two branches became one formula.
"""

import math
from dataclasses import dataclass

import numpy as np

from dualsel import analytic
from dualsel.analytic import _upsilon_lead, xi_table
from dualsel.montecarlo import _uniform_block, _walk
from dualsel.specfun import EULER_GAMMA, _LOG2, _WG, _WGK

_PI2_6 = math.pi**2 / 6.0


@dataclass(frozen=True)
class ChannelRealization:
    """One slot's gains: base-station side sorted ascending, eavesdropper
    side carried along in the same user order (user i = i-th weakest)."""

    gains_bs: np.ndarray
    gains_eve: np.ndarray


@dataclass(frozen=True)
class SlotRates:
    """Achievable rates of one slot in nats, plus whether the eavesdropper
    managed to decode (and cancel) the jamming signal."""

    rate_bs: float
    rate_eve: float
    eve_decoded_jamming: bool


def stable_sorted_gains(u, K):
    """Gains of a (trials, 2K) uniform block, as the library draws them but
    with a stable sort and a plain gather: base-station side sorted
    ascending, tied users kept in user order, eavesdropper side carried
    along with its owners."""
    h = -np.log1p(-u[:, :K])
    g = -np.log1p(-u[:, K:])
    order = np.argsort(h, axis=1, kind="stable")
    return np.take_along_axis(h, order, axis=1), np.take_along_axis(g, order, axis=1)


def walked_gains(seed, trials, K):
    """The sorted gains (h, g) of trials [0, trials) as the library's batch
    walk draws them, its halves and batches joined in trial order:
    read-only (trials, K) views of rank-major buffers."""
    halves = []  # (first trial, hT, gT), appended by either thread
    _walk(
        seed, trials, K,
        lambda h, g, start, m, lo, hi: halves.append((start + lo, h.T, g.T)),
        lambda start, m: None,
    )
    halves.sort(key=lambda half: half[0])
    joined = [np.concatenate(parts, axis=1).T for parts in list(zip(*halves))[1:]]
    for arr in joined:
        arr.setflags(write=False)
    return tuple(joined)


def draw_realization(seed, trial_index, K):
    """Channel gains of trial `trial_index`: 2K unit-mean exponentials, BS
    side sorted."""
    h, g = stable_sorted_gains(_uniform_block(seed, trial_index, 1, K), K)
    return ChannelRealization(gains_bs=h[0], gains_eve=g[0])


def slot_rates(real, n, rho):
    """Rates of one slot for served user n, the strongest user jamming at
    half power.

    The base station always cancels the jamming signal, so
    rate_bs = log(1 + (rho/2)|h_n|^2). The eavesdropper decodes the jamming
    signal iff its jamming-decode SNR is at least the base station's
    (equality counts as decoded); otherwise the jamming stays interference.
    """
    K = len(real.gains_bs)
    inv = 2.0 / rho
    hn, hK = real.gains_bs[n - 1], real.gains_bs[K - 1]
    gn, gK = real.gains_eve[n - 1], real.gains_eve[K - 1]
    decoded = bool(hK / (hn + inv) <= gK / (gn + inv))
    rate_bs = math.log1p(0.5 * rho * hn)
    if decoded:
        rate_eve = math.log1p(0.5 * rho * gn)
    else:
        rate_eve = math.log1p(gn / (gK + inv))
    return SlotRates(rate_bs=rate_bs, rate_eve=rate_eve, eve_decoded_jamming=decoded)


def cdf_order_stat(x, K, n):
    """CDF of the n-th smallest of K i.i.d. unit-mean exponential gains, at
    a scalar or an array x >= 0."""
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    q = np.exp(-arr)
    p = -np.expm1(-arr)
    out = np.zeros_like(arr)
    for i in range(n, K + 1):
        out += math.comb(K, i) * p**i * q ** (K - i)
    return float(out[0]) if scalar else out


#: Points per _cdf_T_branch broadcast.
_CDF_CHUNK = 2048


def _cdf_T_branch(t, table, rho, lower):
    # One branch of cdf_T (t < 1 if lower, else t >= 1), each chunk of
    # points in one broadcast over (point, i, j). Each row i is summed over
    # j, then the rows are added in order of i by a cumsum, so every value
    # has the bits of a loop that adds one row i at a time.
    K, n = table.K, table.n
    c = table.coefficients
    b = np.arange(K - n + 1, K + 1, dtype=float)  # K - n + 1 + j
    i = np.arange(1, K - n + 1, dtype=float)[:, None]
    out = np.empty_like(t)
    with np.errstate(over="ignore"):
        for s in range(0, t.size, _CDF_CHUNK):
            tc = t[s:s + _CDF_CHUNK, None]
            # rho = inf is the high-SNR limit, where every exponential is 1;
            # computed, it would be exp(nan) at t = inf
            e = np.exp(-2.0 * tc[:, None] * i / rho) if rho < math.inf else 1.0
            denom = i * (tc[:, None] - 1.0) + b
            if lower:
                # exponent -> -inf as t -> 1-, so exp() underflows to 0
                # exactly where the branches meet
                tail = np.exp(-2.0 * tc * b / (rho * (1.0 - tc)))
                row0 = (c[0] * (1.0 - tail) / b).sum(axis=1)
                terms = c[1:] * (e - tail[:, None]) / denom
            else:
                # the i = 0 row is written out: i*t would produce nan at t = inf
                row0 = np.full(tc.shape[0], (c[0] / b).sum())
                terms = c[1:] * e / denom
            rows = np.concatenate((row0[:, None], terms.sum(axis=2)), axis=1)
            out[s:s + _CDF_CHUNK] = np.cumsum(rows, axis=1)[:, -1]
    return out


def cdf_T_two_branch(t, K, n, rho):
    """The jamming-decode CDF at an array of t >= 0, its t < 1 and t >= 1
    points evaluated by separate branches; rho = inf gives the high-SNR
    limit, zero below t = 1."""
    table = xi_table(K, n)
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    hi = arr >= 1.0
    out = np.zeros_like(arr)
    if hi.any():
        out[hi] = _cdf_T_branch(arr[hi], table, rho, lower=False)
    if rho < math.inf and not hi.all():
        out[~hi] = _cdf_T_branch(arr[~hi], table, rho, lower=True)
    return out


def e1_cf_lentz(x):
    """specfun's modified Lentz loop for e^x E1(x), x > 1, as it was before
    its exhaustion path and before its loop was tuned (-i^2 formed at each
    step, abs() in every test): the converged value, or None where the loop
    runs out of steps (it stops only at delta == 1.0 exactly)."""
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
    return None


def e1_series_loop(x):
    """specfun's power series for E1(x), 0 < x <= 1, as it was before its
    loop was tuned: the sign of each term chosen by k % 2, x / k and pk / k
    formed from int k."""
    total = -EULER_GAMMA - math.log(x)
    pk = 1.0  # x^k / k!
    for k in range(1, 80):
        pk *= x / k
        total += pk / k if k % 2 == 1 else -pk / k
        if pk / k < 1e-17 * total:
            break
    return total


def li2_series(x):
    """sum_{k>=1} x^k / k^2 for |x| <= 1/2, one term at a time until a term
    falls below 1e-17 of the total."""
    total = 0.0
    p = 1.0
    for k in range(1, 200):
        p *= x
        term = p / (k * k)
        total += term
        if abs(term) < 1e-17 * abs(total) + 1e-300:
            break
    return total


def li2_loop(x):
    """Li2(x) for a float x <= 1 by the same identities as specfun.li2,
    with li2_series for the series."""
    if x == 1.0:
        return _PI2_6
    if x > 0.5:
        return _PI2_6 - math.log(x) * math.log1p(-x) - li2_loop(1.0 - x)
    if x >= -0.5:
        return li2_series(x)
    if x >= -1.0:
        return -li2_series(x / (x - 1.0)) - 0.5 * math.log1p(-x) ** 2
    return -_PI2_6 - 0.5 * math.log(-x) ** 2 - li2_loop(1.0 / x)


def order_stat_series_terms(K, n, f):
    """The order-statistic series of analytic._order_stat_series, f called
    once per term and each term built in Python floats."""
    first = [(-1.0) ** (i + 1) * math.comb(K, i) * f(i) for i in range(1, K + 1)]
    second = [
        (-1.0) ** j * math.comb(K, i) * math.comb(i, j) * f(K + j - i)
        for i in range(n, K) for j in range(i + 1)
    ]
    return math.fsum(first) - math.fsum(second)


def upsilon_terms(xi, rho):
    """Upsilon at one xi > 0 by the closed form, one scalar at a time, with
    li2_loop for the dilogarithms."""
    lead = _upsilon_lead(rho)
    if xi == 1.0:
        return lead / 8.0 + _LOG2 / 4.0 - 3.0 / 8.0
    om = 1.0 - xi
    if xi < 1.0:
        zeta = 2.0 * _LOG2 * math.log((xi + 1.0) / xi) - _LOG2**2
    else:
        zeta = (
            2.0 * _LOG2 * math.log((xi + 1.0) / (xi - 1.0))
            + math.log((xi - 1.0) / xi) ** 2
            - math.log((xi - 1.0) / (2.0 * xi)) ** 2
        )
    mu = (
        2.0 * (li2_loop((xi - 1.0) / xi) - li2_loop((xi - 1.0) / (2.0 * xi)))
        - li2_loop(-xi)
        + zeta
    ) / (om * om)
    a = xi - 1.0 + 2.0 * math.log(2.0 / (1.0 + xi))
    b = 2.0 * om * om
    d = (math.pi**2 + 12.0 * _LOG2**2) / (12.0 * om * om)
    return lead * a / b + 1.0 / om - d + mu


def esr_high_snr_terms(K, n, rho):
    """The unclamped high-SNR ESR of analytic.esr_high_snr, its tail built one
    (i, j) term at a time."""
    table = xi_table(K, n)
    tail = []
    for i in range(1, K - n + 1):
        for j in range(n):
            xi = (K - n + 1 + j) / i - 1.0
            tail.append(table.coefficients[i, j] / i * upsilon_terms(xi, rho))
    series = order_stat_series_terms(K, n, math.log)
    return (math.log(0.5 * rho) - 1.0 - EULER_GAMMA) / 2.0 - series - math.fsum(tail)


def psi_two_calls(cfg, tol=1e-9, variant="corrected"):
    """analytic.psi as two independent quad_interval calls, each half
    evaluating its own first nodes: [0, 1], then the upper half in
    x = log u from the same eight panels and the same tail bound."""
    analytic._check_dual_slot(cfg.num_users, cfg.served_index)
    analytic._check_variant(variant)
    kernel = analytic.theta_corrected if variant == "corrected" else analytic.theta
    rho = cfg.transmit_snr
    log_s = analytic._log_tail_end(
        rho, math.log(analytic._TAIL_SHARE * 0.5) + math.log(tol), variant
    )
    log_u = log_s + math.log1p(-math.exp(-log_s)) if log_s > _LOG2 else 0.0
    if not log_u < analytic._LOG_MAX:
        raise FloatingPointError(f"Psi's tail bound needs U = e^{log_u:.6g}, beyond the doubles")

    def f(u):
        return kernel(u, rho) * analytic.cdf_T(u, cfg)

    def upper(x):
        u = np.exp(x)
        return f(u) * u

    left = analytic.quad_interval(f, 0.0, 1.0, tol=0.5 * tol)
    if log_u == 0.0:
        return left.value
    right = analytic.quad_interval(
        upper, 0.0, log_u, tol=(1.0 - analytic._TAIL_SHARE) * 0.5 * tol,
        points=[log_u * k / analytic._UPPER_PANELS for k in range(1, analytic._UPPER_PANELS)],
    )
    return left.value + right.value


def gk15_reduce_loop(fx, half):
    """specfun._gk15_reduce as the loop it was before it was unrolled: the
    centre, then the symmetric pairs outward-in, one update at a time."""
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
