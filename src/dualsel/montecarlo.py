"""Ground-truth simulation of the dual-selection slot.

Draws Rayleigh channel realizations, applies the decode-and-cancel logic at
the base station and the interception logic at the eavesdropper, and turns
per-slot rates into ergodic secrecy rate estimates and empirical CDFs.

Reproducibility contract: every trial owns a fixed slice of a counter-based
Philox stream keyed by the seed, so trial i yields bit-identical gains no
matter how trials are batched, ordered, or distributed across workers.
Reductions run in trial order with exact (fsum) accumulation across batches.
Within one scan (selection.evaluate_cells), cells that share (seed, trials,
K) share the draw of a one-batch run, which that key determines, and nothing
of a longer run. Outside a scan every call draws; no batch outlives either.

A batch's sorted gains are (trials, K) views of rank-major buffers, so the
column of each rank, the one a rate kernel reads, is contiguous. They are
ordered by numpy's unstable argsort behind an exact tie guard: a trial with
a tie sends its block of trials through a stable sort, so tied users stay in
user order with their eavesdropper gains, and no bit depends on the host's
sort implementation.

A large batch is drawn as two halves of its trials on two threads: the
calling thread draws and orders the lower half, one worker thread the upper
half, each from its own Philox counter offset, and the halves' rank-major
buffers are joined before any rate is computed. Every draw stage works trial
by trial and the reductions run on the joined batch, so no value depends on
the split.
"""

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .analytic import _check_dual_slot, _check_user_count
from .specfun import _check_positive_real, _is_integer, _scan_term

__all__ = ["EsrEstimate", "estimate_esr", "estimate_esr_tdma", "empirical_cdf_T", "ks_distance"]

#: Trials per vectorized batch. Fixed by the library, never by the caller or
#: by worker topology, so batching cannot influence results.
BATCH_TRIALS = 1 << 16

_U64 = 1 << 64

#: Fewest gains (trials * K) in a batch drawn as two halves on two threads.
#: Starting and joining the worker costs about 0.1 ms, and the threads wait
#: on each other for the interpreter lock between numpy calls. On 2 vCPUs
#: the split drew faster at every K from 2 to 20 from 24 000 gains up and
#: slower at most K below 16 000; at 20 000 (a 1 ms draw) it broke even.
_SPLIT_GAINS = 20_000


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
    """Inverse-CDF exponentials of a (trials, 2K) uniform block, users
    relabelled by base-station gain: (h, g), each of shape (trials, K).

    The first K lanes feed the base-station side, the rest the eavesdropper
    side, and each eavesdropper gain follows its owner through the
    permutation. Both arrays are (trials, K) views of rank-major buffers, so
    the column of each rank, h[:, j] or g[:, j], is contiguous.

    The sort is numpy's default (unstable) argsort. A trial whose K gains
    are distinct has only one sorting permutation, so this equals the stable
    sort bit for bit on any host and any sort implementation; if any trial
    holds a tie, the block is sorted again stably, so tied users keep their
    user order and the eavesdropper gains still pair with their owners.

    Every stage works trial by trial, so the gains of a trial do not depend
    on the other trials in u: `_batch_gains` runs this on each half of a
    large batch, one half per thread, and joins the results.
    """
    h = _exponentials(u[:, :K])
    g = _exponentials(u[:, K:])
    del u  # free the uniform block before the sort allocates
    idx = _rank_major(np.argsort(h, axis=1))
    hT = h.ravel().take(idx)
    if np.any(hT[1:] == hT[:-1]):
        idx = _rank_major(np.argsort(h, axis=1, kind="stable"))
        hT = h.ravel().take(idx)
    del h  # before the eavesdropper gather allocates
    return hT.T, g.ravel().take(idx).T


def _exponentials(u):
    # -log1p(-u) in one fresh buffer, negated and logged in place; the
    # buffer is contiguous, which numpy's SIMD log1p needs to serve it
    x = np.negative(u)
    np.log1p(x, out=x)
    return np.negative(x, out=x)


def _rank_major(order):
    # Flat indices in (rank, trial) order, built C-contiguous: fancy indexing
    # with a transposed index keeps its Fortran layout, so each gathered rank
    # would be strided again.
    idx = np.ascontiguousarray(order.T)
    idx += np.arange(order.shape[0]) * order.shape[1]
    return idx


def _batch_gains(seed, start_trial, n_trials, K):
    """Sorted base-station gains and the matching eavesdropper gains of
    trials [start_trial, start_trial + n_trials), shape (n_trials, K) each,
    read-only. Each is a view of a rank-major buffer, so h[:, j] and g[:, j]
    are contiguous; the tie-guarded sort (see `_gains_from_uniforms`) makes
    the content that of a stable sort, whatever sort the host runs.

    A batch of at least _SPLIT_GAINS gains is drawn as two halves of its
    trials, the lower one in the calling thread and the upper one in a
    worker thread, and the halves' rank-major buffers are joined. Every
    stage works trial by trial, so no value depends on the split.
    """

    def draw(lo, hi):
        return _gains_from_uniforms(_uniform_block(seed, start_trial + lo, hi - lo, K), K)

    if n_trials * K < _SPLIT_GAINS:
        h, g = draw(0, n_trials)
    else:
        mid = n_trials // 2
        lower, upper = _with_worker(lambda: draw(0, mid), lambda: draw(mid, n_trials))
        h, g = (np.concatenate((a.T, b.T), axis=1).T for a, b in zip(lower, upper))
    h.setflags(write=False)
    g.setflags(write=False)
    return h, g


def _with_worker(here, there):
    """(here(), there()), with here() run in the calling thread and there()
    in one worker thread. The worker is joined before this returns or
    raises, and an exception it raised is raised here."""
    result = {}

    def work():
        try:
            result["value"] = there()
        except BaseException as exc:  # raised again in the calling thread
            result["error"] = exc

    worker = threading.Thread(target=work)
    worker.start()
    try:
        mine = here()
    finally:
        worker.join()
    if "error" in result:
        raise result["error"]
    return mine, result["value"]


def _batches(seed, trials, K):
    """Sorted gains of trials [0, trials), one fixed BATCH_TRIALS slice at a
    time, so batch boundaries never depend on the caller. A one-batch run is
    the scan term (seed, trials, K), which fixes its content (Philox is
    counter-based); a longer run draws every batch, one at a time."""
    if trials <= BATCH_TRIALS:
        (batch,) = _scan_term([(seed, trials, K)], lambda _: [_batch_gains(seed, 0, trials, K)])
        yield batch
        return
    for start in range(0, trials, BATCH_TRIALS):
        yield _batch_gains(seed, start, min(BATCH_TRIALS, trials - start), K)


def _batch_slot_rates(h, g, K, n, rho, wide):
    inv = 2.0 / rho
    hn, hK = h[:, n - 1], h[:, K - 1]
    gn, gK = g[:, n - 1], g[:, K - 1]
    decoded = hK / (hn + inv) <= gK / (gn + inv)
    # Select before the log1p, so each trial takes one. Each log1p argument
    # is a fresh contiguous array: numpy's SIMD log1p serves only those, and
    # its strided loop may round differently.
    cb = np.log1p(0.5 * rho * hn)
    ce = np.log1p(np.where(decoded, 0.5 * rho * gn, gn / (gK + inv)))
    if wide:
        _widen(cb, 0.5 * rho, hn)
        _widen(ce, 0.5 * rho, gn, decoded)
    return cb, ce


def _widen(rate, scale, x, where=True):
    # rate = log1p(scale * x) reads inf where the product overflowed. There
    # log1p(p) = log(p) + log1p(1/p), whose second term is 0 at p = inf (the
    # true value is below 1e-308), so the rate is log(scale) + log(x).
    # Writes in place.
    over = np.isinf(rate) & where
    rate[over] = math.log(scale) + np.log(x[over])


def _estimate(seed, trials, K, batch_fn):
    # Per-batch pairwise sums are combined with fsum so the reduction is
    # exact and order-fixed. starmap drops each batch before drawing the
    # next, so a multi-batch run holds one batch at a time. batch_fn(h, g,
    # wide) returns the rates; only a batch whose sum comes out non-finite
    # is computed again with wide=True, which takes an overflowing product
    # in logs, so no finite rate moves. A rate still not finite makes a mean
    # or the variance non-finite, which raises.
    def batch_sums(h, g):
        cb, ce = batch_fn(h, g, False)
        sum_cb, sum_ce = float(np.sum(cb)), float(np.sum(ce))
        if not math.isfinite(sum_cb + sum_ce):
            cb, ce = batch_fn(h, g, True)
            sum_cb, sum_ce = float(np.sum(cb)), float(np.sum(ce))
        return sum_cb, sum_ce, float(np.sum((cb - ce) ** 2))

    with np.errstate(over="ignore", invalid="ignore"):
        sums_cb, sums_ce, sums_d2 = zip(*itertools.starmap(batch_sums, _batches(seed, trials, K)))
    mean_cb = math.fsum(sums_cb) / trials
    mean_ce = math.fsum(sums_ce) / trials
    diff = mean_cb - mean_ce
    var = (math.fsum(sums_d2) - trials * diff * diff) / (trials - 1) if trials > 1 else 0.0
    if not (math.isfinite(diff) and math.isfinite(var)):  # max(0.0, nan) would read 0.0
        raise FloatingPointError(f"the means {mean_cb!r} and {mean_ce!r} are not finite")
    std_error = math.sqrt(max(0.0, var) / trials)
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
    _check_dual_slot(K, n)
    return _estimate(seed, trials, K, lambda h, g, wide: _batch_slot_rates(h, g, K, n, rho, wide))


def _batch_tdma_rates(h, g, K, rho, wide):
    hK, gK = h[:, K - 1], g[:, K - 1]
    cb = np.log1p(rho * hK)
    ce = np.log1p(rho * gK)
    if wide:
        _widen(cb, rho, hK)
        _widen(ce, rho, gK)
    return cb, ce


def estimate_esr_tdma(K, rho, trials, seed):
    """Monte Carlo ESR of the TDMA-like baseline: the strongest user
    transmits alone at full power, no jamming; the eavesdropper overhears
    that user's own eavesdropper-side gain. K may be 1; above MAX_USERS it
    raises CapabilityError, as the analytic TDMA functions do."""
    seed = _check_seed(seed)
    trials = _check_count(trials, "trials")
    _check_user_count(K, least=1)
    _check_positive_real(rho, "rho")
    return _estimate(seed, trials, K, lambda h, g, wide: _batch_tdma_rates(h, g, K, rho, wide))


def empirical_cdf_T(cfg, samples, seed):
    """Sorted draws of the jamming-decode SNR T = |h_K|^2/(|h_n|^2 + 2/rho).

    Consumes the same per-trial stream slices as the rate estimators, so
    sample i comes from the same fading state as trial i.
    """
    seed = _check_seed(seed)
    samples = _check_count(samples, "samples")
    K, n, rho = cfg.num_users, cfg.served_index, cfg.transmit_snr
    _check_dual_slot(K, n)
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
