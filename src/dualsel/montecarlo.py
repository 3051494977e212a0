"""Ground-truth simulation of the dual-selection slot.

Draws Rayleigh channel realizations, applies the decode-and-cancel logic at
the base station and the interception logic at the eavesdropper, and turns
per-slot rates into ergodic secrecy rate estimates and empirical CDFs.

Reproducibility contract: every trial owns a fixed slice of a counter-based
Philox stream keyed by the seed, so trial i yields bit-identical gains no
matter how trials are batched, ordered, or distributed across workers.
Reductions run in trial order with exact (fsum) accumulation across batches.
Cells that share (seed, trials, K) reuse the last drawn batch of sorted
gains instead of drawing it again; its content is determined by its key.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelRealization",
    "SlotRates",
    "EsrEstimate",
    "draw_realization",
    "slot_rates",
    "estimate_esr",
    "estimate_esr_tdma",
    "empirical_cdf_T",
    "ks_distance",
]

#: Trials per vectorized batch. Fixed by the library, never by the caller or
#: by worker topology, so batching cannot influence results.
BATCH_TRIALS = 1 << 16

_U64 = 1 << 64

#: The last drawn batch, ((seed, start_trial, n_trials, K), (h, g)), or None.
_last_batch = None


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


@dataclass(frozen=True)
class EsrEstimate:
    """Monte Carlo ESR: clamped mean difference, the two means, the standard
    error of their difference, and the (trials, seed) that reproduce it."""

    esr: float
    mean_cb: float
    mean_ce: float
    std_error: float
    trials: int
    seed: int


def _check_seed(seed):
    if not isinstance(seed, (int, np.integer)) or not (0 <= seed < _U64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


def _uniform_block(seed, start_trial, n_trials, K):
    """Uniforms for trials [start_trial, start_trial + n_trials), shape
    (n_trials, 2K).

    Each trial consumes a whole number of 4-lane Philox counter blocks
    (2K doubles padded up to a multiple of 4), so a trial's position in the
    stream depends only on its index.
    """
    counters_per_trial = (2 * K + 3) // 4
    width = 4 * counters_per_trial
    bitgen = np.random.Philox(key=seed, counter=start_trial * counters_per_trial)
    u = np.random.Generator(bitgen).random((n_trials, width))
    return u[:, : 2 * K]


def _gains_from_uniforms(u, K):
    # Inverse-CDF exponentials; first K lanes feed the BS side, the rest the
    # eavesdropper side. Users are relabelled by BS channel quality, and the
    # eavesdropper gains follow their owners through the permutation.
    h = -np.log1p(-u[:, :K])
    g = -np.log1p(-u[:, K:])
    order = np.argsort(h, axis=1, kind="stable")
    return np.take_along_axis(h, order, axis=1), np.take_along_axis(g, order, axis=1)


def _batch_gains(seed, start_trial, n_trials, K):
    """Sorted base-station gains and the matching eavesdropper gains of
    trials [start_trial, start_trial + n_trials), shape (n_trials, K) each,
    read-only.

    Philox is counter-based, so the key fixes the content and the one-slot
    memo can never be stale. The slot is read once, so concurrent callers
    never see each other's batch, and it is emptied before a draw, so a miss
    holds no more memory than drawing without the memo.
    """
    global _last_batch
    key = (seed, start_trial, n_trials, K)
    last = _last_batch
    if last is not None and last[0] == key:
        return last[1]
    last = _last_batch = None  # the local too, or the old batch outlives the draw
    h, g = _gains_from_uniforms(_uniform_block(seed, start_trial, n_trials, K), K)
    h.setflags(write=False)
    g.setflags(write=False)
    _last_batch = (key, (h, g))
    return h, g


def draw_realization(seed, trial_index, K):
    """Channel gains of one trial: 2K unit-mean exponentials, BS side sorted.

    Bit-identical for the same (seed, trial_index, K) regardless of how
    surrounding trials are evaluated.
    """
    seed = _check_seed(seed)
    if not isinstance(trial_index, (int, np.integer)) or not (0 <= trial_index < _U64):
        raise ValueError(f"trial_index must be an unsigned 64-bit integer, got {trial_index!r}")
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise ValueError(f"K must be a positive integer, got {K!r}")
    h, g = _batch_gains(seed, int(trial_index), 1, int(K))
    return ChannelRealization(gains_bs=h[0], gains_eve=g[0])


def slot_rates(real, n, rho):
    """Per-slot achievable rates for served user n with the strongest user
    jamming at half power.

    The base station always cancels the jamming signal (its rate is chosen
    to make that possible), so rate_bs = log(1 + (rho/2)|h_n|^2). The
    eavesdropper decodes the jamming signal iff its jamming-decode SNR is at
    least the base station's (equality counts as decoded); otherwise the
    jamming remains as interference.
    """
    K = len(real.gains_bs)
    if not (1 <= n <= K - 1):
        raise ValueError(f"served index must be in [1, {K - 1}], got {n!r}")
    inv = 2.0 / rho
    hn = real.gains_bs[n - 1]
    hK = real.gains_bs[K - 1]
    gn = real.gains_eve[n - 1]
    gK = real.gains_eve[K - 1]
    gamma_b = hK / (hn + inv)
    gamma_e = gK / (gn + inv)
    decoded = bool(gamma_b <= gamma_e)
    rate_bs = math.log1p(0.5 * rho * hn)
    if decoded:
        rate_eve = math.log1p(0.5 * rho * gn)
    else:
        rate_eve = math.log1p(gn / (gK + inv))
    return SlotRates(rate_bs=rate_bs, rate_eve=rate_eve, eve_decoded_jamming=decoded)


def _batch_slot_rates(h, g, K, n, rho):
    inv = 2.0 / rho
    hn, hK = h[:, n - 1], h[:, K - 1]
    gn, gK = g[:, n - 1], g[:, K - 1]
    decoded = hK / (hn + inv) <= gK / (gn + inv)
    cb = np.log1p(0.5 * rho * hn)
    ce = np.where(decoded, np.log1p(0.5 * rho * gn), np.log1p(gn / (gK + inv)))
    return cb, ce


def _reduce_rates(seed, trials, K, batch_fn):
    # Batches are cut at fixed BATCH_TRIALS boundaries; per-batch pairwise
    # sums are combined with fsum so the reduction is exact and order-fixed.
    sums_cb, sums_ce, sums_d2 = [], [], []
    start = 0
    while start < trials:
        count = min(BATCH_TRIALS, trials - start)
        cb, ce = batch_fn(*_batch_gains(seed, start, count, K))
        sums_cb.append(float(np.sum(cb)))
        sums_ce.append(float(np.sum(ce)))
        sums_d2.append(float(np.sum((cb - ce) ** 2)))
        start += count
    sum_cb = math.fsum(sums_cb)
    sum_ce = math.fsum(sums_ce)
    sum_d2 = math.fsum(sums_d2)
    mean_cb = sum_cb / trials
    mean_ce = sum_ce / trials
    diff = mean_cb - mean_ce
    if trials > 1:
        var = max(0.0, (sum_d2 - trials * diff * diff) / (trials - 1))
        std_error = math.sqrt(var / trials)
    else:
        std_error = 0.0
    return mean_cb, mean_ce, diff, std_error


def estimate_esr(cfg, trials, seed):
    """Monte Carlo ESR of the dual-selection slot over `trials` slots.

    Deterministic for fixed (cfg, trials, seed); the clamp is applied to the
    difference of the sample means, mirroring the analytic definition.
    """
    seed = _check_seed(seed)
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    K, n, rho = cfg.num_users, cfg.served_index, cfg.transmit_snr
    if n > K - 1:
        raise ValueError("served_index = K is the TDMA-like slot; use estimate_esr_tdma")
    mean_cb, mean_ce, diff, std_error = _reduce_rates(
        seed, int(trials), K, lambda h, g: _batch_slot_rates(h, g, K, n, rho)
    )
    return EsrEstimate(
        esr=max(0.0, diff),
        mean_cb=mean_cb,
        mean_ce=mean_ce,
        std_error=std_error,
        trials=int(trials),
        seed=seed,
    )


def _batch_tdma_rates(h, g, K, rho):
    cb = np.log1p(rho * h[:, K - 1])
    ce = np.log1p(rho * g[:, K - 1])
    return cb, ce


def estimate_esr_tdma(K, rho, trials, seed):
    """Monte Carlo ESR of the TDMA-like baseline: the strongest user
    transmits alone at full power, no jamming; the eavesdropper overhears
    that user's own eavesdropper-side gain."""
    seed = _check_seed(seed)
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise ValueError(f"K must be a positive integer, got {K!r}")
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be positive and finite, got {rho!r}")
    mean_cb, mean_ce, diff, std_error = _reduce_rates(
        seed, int(trials), int(K), lambda h, g: _batch_tdma_rates(h, g, int(K), rho)
    )
    return EsrEstimate(
        esr=max(0.0, diff),
        mean_cb=mean_cb,
        mean_ce=mean_ce,
        std_error=std_error,
        trials=int(trials),
        seed=seed,
    )


def empirical_cdf_T(cfg, samples, seed):
    """Sorted draws of the jamming-decode SNR T = |h_K|^2/(|h_n|^2 + 2/rho).

    Consumes the same per-trial stream slices as the rate estimators, so
    sample i comes from the same fading state as trial i.
    """
    seed = _check_seed(seed)
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    K, n, rho = cfg.num_users, cfg.served_index, cfg.transmit_snr
    if n > K - 1:
        raise ValueError(f"served index must be in [1, {K - 1}], got {n}")
    inv = 2.0 / rho
    chunks = []
    start = 0
    while start < samples:
        count = min(BATCH_TRIALS, samples - start)
        h, _ = _batch_gains(seed, start, count, K)
        chunks.append(h[:, K - 1] / (h[:, n - 1] + inv))
        start += count
    t = np.concatenate(chunks)
    t.sort()
    return t


def ks_distance(sorted_samples, cdf_values):
    """Kolmogorov-Smirnov distance between an empirical sample (sorted
    ascending) and a model CDF evaluated at those samples."""
    m = len(sorted_samples)
    if m == 0 or len(cdf_values) != m:
        raise ValueError("need equal-length, non-empty sample and CDF arrays")
    grid = np.arange(m, dtype=float)
    d_plus = np.max((grid + 1.0) / m - cdf_values)
    d_minus = np.max(cdf_values - grid / m)
    return float(max(d_plus, d_minus))
