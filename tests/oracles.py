"""Scalar per-slot oracles that the vectorized engines are checked against.

They restate the model one slot at a time, with no validation, and draw
their gains from the same per-trial Philox slices as the library but
without its batch memo.
"""

import math
from dataclasses import dataclass

import numpy as np

from dualsel.montecarlo import _uniform_block


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
