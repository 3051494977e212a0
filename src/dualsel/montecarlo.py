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

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["EsrEstimate", "estimate_esr", "estimate_esr_tdma", "empirical_cdf_T", "ks_distance"]

#: Trials per vectorized batch. Fixed by the library, never by the caller or
#: by worker topology, so batching cannot influence results.
BATCH_TRIALS = 1 << 16

_U64 = 1 << 64

#: The last drawn batch, ((seed, start_trial, n_trials, K), (h, g)), or None.
_last_batch = None


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


def _is_integer(x):
    # bool subclasses int, but True is neither a count nor a seed
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_seed(seed):
    if not _is_integer(seed) or not (0 <= seed < _U64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


def _check_count(value, name):
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


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


def _batches(seed, trials, K):
    """Sorted gains of trials [0, trials), one fixed BATCH_TRIALS slice at a
    time, so batch boundaries never depend on the caller."""
    for start in range(0, trials, BATCH_TRIALS):
        yield _batch_gains(seed, start, min(BATCH_TRIALS, trials - start), K)


def _batch_slot_rates(h, g, K, n, rho):
    inv = 2.0 / rho
    hn, hK = h[:, n - 1], h[:, K - 1]
    gn, gK = g[:, n - 1], g[:, K - 1]
    decoded = hK / (hn + inv) <= gK / (gn + inv)
    cb = np.log1p(0.5 * rho * hn)
    ce = np.where(decoded, np.log1p(0.5 * rho * gn), np.log1p(gn / (gK + inv)))
    return cb, ce


def _estimate(seed, trials, K, batch_fn):
    # Per-batch pairwise sums are combined with fsum so the reduction is
    # exact and order-fixed. starmap drops each batch before drawing the
    # next, so a multi-batch run holds one batch at a time.
    sums_cb, sums_ce, sums_d2 = [], [], []
    for cb, ce in itertools.starmap(batch_fn, _batches(seed, trials, K)):
        sums_cb.append(float(np.sum(cb)))
        sums_ce.append(float(np.sum(ce)))
        sums_d2.append(float(np.sum((cb - ce) ** 2)))
    mean_cb = math.fsum(sums_cb) / trials
    mean_ce = math.fsum(sums_ce) / trials
    diff = mean_cb - mean_ce
    if trials > 1:
        var = max(0.0, (math.fsum(sums_d2) - trials * diff * diff) / (trials - 1))
        std_error = math.sqrt(var / trials)
    else:
        std_error = 0.0
    return EsrEstimate(
        esr=max(0.0, diff),
        mean_cb=mean_cb,
        mean_ce=mean_ce,
        std_error=std_error,
        trials=trials,
        seed=seed,
    )


def estimate_esr(cfg, trials, seed):
    """Monte Carlo ESR of the dual-selection slot over `trials` slots.

    Deterministic for fixed (cfg, trials, seed); the clamp is applied to the
    difference of the sample means, mirroring the analytic definition.
    """
    seed = _check_seed(seed)
    trials = _check_count(trials, "trials")
    K, n, rho = cfg.num_users, cfg.served_index, cfg.transmit_snr
    if n > K - 1:
        raise ValueError("served_index = K is the TDMA-like slot; use estimate_esr_tdma")
    return _estimate(seed, trials, K, lambda h, g: _batch_slot_rates(h, g, K, n, rho))


def _batch_tdma_rates(h, g, K, rho):
    cb = np.log1p(rho * h[:, K - 1])
    ce = np.log1p(rho * g[:, K - 1])
    return cb, ce


def estimate_esr_tdma(K, rho, trials, seed):
    """Monte Carlo ESR of the TDMA-like baseline: the strongest user
    transmits alone at full power, no jamming; the eavesdropper overhears
    that user's own eavesdropper-side gain."""
    seed = _check_seed(seed)
    trials = _check_count(trials, "trials")
    K = _check_count(K, "K")
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be positive and finite, got {rho!r}")
    return _estimate(seed, trials, K, lambda h, g: _batch_tdma_rates(h, g, K, rho))


def empirical_cdf_T(cfg, samples, seed):
    """Sorted draws of the jamming-decode SNR T = |h_K|^2/(|h_n|^2 + 2/rho).

    Consumes the same per-trial stream slices as the rate estimators, so
    sample i comes from the same fading state as trial i.
    """
    seed = _check_seed(seed)
    samples = _check_count(samples, "samples")
    K, n, rho = cfg.num_users, cfg.served_index, cfg.transmit_snr
    if n > K - 1:
        raise ValueError(f"served index must be in [1, {K - 1}], got {n}")
    inv = 2.0 / rho

    def decode_snr(h, g):
        return h[:, K - 1] / (h[:, n - 1] + inv)

    # starmap, as in _estimate, so one batch is held at a time
    t = np.concatenate(list(itertools.starmap(decode_snr, _batches(seed, samples, K))))
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
