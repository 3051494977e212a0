"""Ground-truth simulation of the dual-selection slot.

Draws Rayleigh channel realizations, applies the decode-and-cancel logic at
the base station and the interception logic at the eavesdropper, and turns
per-slot rates into ergodic secrecy rate estimates and empirical CDFs.

Reproducibility contract: every trial owns a fixed slice of a counter-based
Philox stream keyed by the seed, so trial i yields bit-identical gains no
matter how trials are batched, ordered, or distributed across workers.
Reductions run in trial order with exact (fsum) accumulation across batches.

One walk over the fixed batches (`_walk`) draws every trial, for both of
its callers: `empirical_cdf_T` and the reducer. One reducer (`_reduce`)
answers every estimate: it walks the batches of a (seed, trials, K) key
once and computes the rates of several cells on each batch. Within one
scan (selection.evaluate_cells), the first estimate at a key reduces every
Monte Carlo cell the scan registered there, at any trial count, and the
scan's later calls read their sums; a lone call reduces its one cell. No
batch outlives the reduction that drew it.

A batch's sorted gains are (trials, K) views of rank-major buffers, so the
row of each rank, the one a rate kernel reads, is contiguous. They are
ordered by numpy's unstable argsort behind an exact tie guard: a trial with
a tie sends its block of trials through a stable sort, so tied users stay in
user order with their eavesdropper gains, and no bit depends on the host's
sort implementation.

The walk draws every batch as two halves of its trials on two threads:
the calling thread draws, orders and rates the lower half, one worker thread
the upper half, each from its own Philox counter offset, and each writes its
rates into its own columns of the batch's (cells, trials) buffers. Once
both are done, the calling thread sums each cell's full row, so no value
depends on the split. A walk keeps one worker for all its batches, fed one
half per batch, and holds one batch at a time.
"""

import math
import queue
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .analytic import _check_dual_slot, _check_user_count
from .specfun import _check_positive_real, _is_integer, _is_positive_real, _scan_group

__all__ = ["EsrEstimate", "estimate_esr", "estimate_esr_tdma", "empirical_cdf_T", "ks_distance"]

#: Trials per vectorized batch. Fixed by the library, never by the caller or
#: by worker topology, so batching cannot influence results.
BATCH_TRIALS = 1 << 16

_U64 = 1 << 64

#: Most doubles in each of a reduction's two rate buffers (16 MiB): a
#: scan's cells beyond as many rows reduce in a later pass.
_RATE_DOUBLES = 32 * BATCH_TRIALS

#: Least rho at which a rate kernel takes overflowing products in logs. No
#: drawn gain exceeds 53 ln 2 < 64 (the largest uniform is 1 - 2**-53), so
#: below this no product rho * gain overflows and there is nothing to mend.
_WIDE_RHO = sys.float_info.max / 64


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
    on the other trials in u: `_walk` runs this on each half of every
    batch, one half per thread.
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


def _walk(seed, trials, K, each_half, each_batch):
    """Draw trials [0, trials) in the fixed batches of BATCH_TRIALS, in
    order, each batch made when the walk reaches it. A batch of m trials
    from start is handed out in two halves, each_half(h, g, start, m, lo,
    hi) getting the sorted gains of trials [start + lo, start + hi); then
    each_batch(start, m) runs in the calling thread. h and g are (hi - lo,
    K) views of rank-major buffers, so h[:, j] and g[:, j] are contiguous,
    and their content is that of a stable sort (see `_gains_from_uniforms`).

    The calling thread draws and hands out the lower half [0, m // 2) of
    every batch, and the walk's one worker thread, started before the first
    batch and fed one half per batch, the upper [m // 2, m); a 1-trial
    batch has an empty lower half. The worker exits after its last half and
    is joined before the walk returns or raises; its exception is raised
    here.
    """
    tasks, done = queue.SimpleQueue(), queue.SimpleQueue()

    def half(start, m, lo, hi):
        h, g = _gains_from_uniforms(_uniform_block(seed, start + lo, hi - lo, K), K)
        each_half(h, g, start, m, lo, hi)

    def serve():
        for start, m in iter(tasks.get, None):
            try:
                half(start, m, m // 2, m)
            except BaseException as exc:  # raised again in the calling thread
                done.put(exc)
            else:
                done.put(None)

    worker = threading.Thread(target=serve)
    worker.start()
    try:
        for start in range(0, trials, BATCH_TRIALS):
            m = min(BATCH_TRIALS, trials - start)
            tasks.put((start, m))
            if start + m == trials:  # the worker's last half
                tasks.put(None)
            try:
                half(start, m, 0, m // 2)
            finally:
                error = done.get()
            if error is not None:
                raise error
            each_batch(start, m)
    finally:
        tasks.put(None)
        worker.join()


def _slot_rates(hT, gT, n, rho, cb, ce, wide):
    """Rates of the dual-selection slots n, n + 1, ..., n + len(cb) - 1 at
    one rho, written into the rows of cb and ce. hT and gT are a half
    batch's rank-major gains, shape (K, trials); each row of cb and ce is
    contiguous. wide takes overflowing products in logs (see `_widen`)."""
    K = len(hT)
    inv, scale = 2.0 / rho, 0.5 * rho
    ranks = slice(n - 1, n - 1 + len(cb))
    hn, gn = hT[ranks], gT[ranks]
    hK, gK = hT[K - 1], gT[K - 1]
    gK_inv = gK + inv  # one row for every n
    # cb and ce hold the two decode SNRs until the rates overwrite them
    np.divide(hK, np.add(hn, inv, out=cb), out=cb)
    np.divide(gK, np.add(gn, inv, out=ce), out=ce)
    decoded = cb <= ce
    # Select before the log1p, so each trial takes one; every log1p runs
    # on contiguous rows, which numpy's SIMD loop serves.
    np.log1p(np.multiply(scale, hn, out=cb), out=cb)
    np.divide(gn, gK_inv, out=ce)
    np.multiply(scale, gn, out=ce, where=decoded)
    np.log1p(ce, out=ce)
    if wide:
        _widen(cb, scale, hn)
        _widen(ce, scale, gn, decoded)


def _tdma_rates(hT, gT, n, rho, cb, ce, wide):
    """Rates of the TDMA-like slot (n = K, one row of cb and ce): the
    strongest user alone at full power, no jamming; as `_slot_rates`."""
    for rate, x in ((cb, hT[n - 1 : n]), (ce, gT[n - 1 : n])):
        np.log1p(np.multiply(rho, x, out=rate), out=rate)
        if wide:
            _widen(rate, rho, x)


def _widen(rate, scale, x, where=True):
    # rate = log1p(scale * x) reads inf where the product overflowed. There
    # log1p(p) = log(p) + log1p(1/p), whose second term is 0 at p = inf (the
    # true value is below 1e-308), so the rate is log(scale) + log(x).
    # Writes in place.
    over = np.isinf(rate) & where
    rate[over] = math.log(scale) + np.log(x[over])


def _reduce(seed, trials, K, cells):
    """(sum of C_b, sum of C_e, sum of (C_b - C_e)^2) over trials
    [0, trials) of each of the distinct cells (n, rho), in cell order; n = K
    is the TDMA-like slot. Each sum is the fsum of per-batch pairwise sums.

    One walk (see `_walk`) draws every batch once for all cells. Each half
    writes its rates into its columns of the batch's (cells, trials)
    buffers, in the thread that drew it, one kernel call per run of
    consecutive n at one rho; once both halves are in, the calling thread
    sums each full row, so a cell's batch sums are those of its rates
    alone. A reduction holds one batch and its buffers at a time.
    """
    blocks = []  # [first row, end row, first n, rho, kernel]
    for row, (n, rho) in enumerate(cells):
        last = blocks[-1] if blocks else None
        if last and last[3] == rho and n < K and n - last[2] == row - last[0]:
            last[1] = row + 1
        else:
            blocks.append([row, row + 1, n, rho, _tdma_rates if n == K else _slot_rates])
    size = len(cells) * min(trials, BATCH_TRIALS)
    buffers, lock, sums = [], threading.Lock(), []

    def batch_rows(m):
        # (C_b, C_e) rows of a batch of m trials. The first half ready to
        # write allocates the buffers, so they never sit beside two draws.
        with lock:
            if not buffers:
                buffers.extend((np.empty(size), np.empty(size)))
        return [buf[: len(cells) * m].reshape(len(cells), m) for buf in buffers]

    def rates(h, g, start, m, lo, hi):
        cb, ce = batch_rows(m)
        with np.errstate(over="ignore", invalid="ignore"):
            for first, end, n, rho, kernel in blocks:
                out = cb[first:end, lo:hi], ce[first:end, lo:hi]
                kernel(h.T, g.T, n, rho, *out, rho >= _WIDE_RHO)

    def row_sums(start, m):
        cb, ce = batch_rows(m)
        with np.errstate(over="ignore", invalid="ignore"):
            sum_cb, sum_ce = np.sum(cb, axis=1), np.sum(ce, axis=1)
            np.square(np.subtract(cb, ce, out=cb), out=cb)
            sums.append((sum_cb, sum_ce, np.sum(cb, axis=1)))

    _walk(seed, trials, K, rates, row_sums)
    sums = np.array(sums)  # (batch, which sum, cell)
    return [tuple(math.fsum(col) for col in sums[:, :, row].T) for row in range(len(cells))]


def _estimate(seed, trials, K, cell):
    # The estimate of one cell (n, rho). The scan memo holds, under (seed,
    # trials, K), the sums of the cells a scan registered there (None until
    # computed; see _scan_cells), so the first call reduces them all and the
    # later ones read theirs; outside a scan the dict is fresh, and a cell
    # nobody registered is reduced alone. A pass takes at most the cells
    # whose rates fit _RATE_DOUBLES; the rest wait for a later call. A mean
    # or the variance that is not finite raises here, at the cell's own call.
    group = _scan_group((seed, trials, K))
    if group.get(cell) is None:
        todo = [cell] + [c for c, s in group.items() if s is None and c != cell]
        del todo[max(1, _RATE_DOUBLES // min(trials, BATCH_TRIALS)) :]
        group.update(zip(todo, _reduce(seed, trials, K, todo)))
    sum_cb, sum_ce, sum_d2 = group[cell]
    mean_cb = sum_cb / trials
    mean_ce = sum_ce / trials
    diff = mean_cb - mean_ce
    var = (sum_d2 - trials * diff * diff) / (trials - 1) if trials > 1 else 0.0
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


def _scan_cells(K, cells, trials, seed):
    """Register a scan's Monte Carlo cells (n, rho) at K users, n = K the
    TDMA-like slot, so that the scan's first estimate at (seed, trials, K)
    reduces them all. K has passed _check_user_count; a cell or a key that
    no estimator accepts is left out, and its own call raises."""
    try:
        key = (_check_seed(seed), _check_count(trials, "trials"), K)
    except ValueError:
        return
    group = _scan_group(key)
    for n, rho in cells:
        if _is_integer(n) and 1 <= n <= K and _is_positive_real(rho):
            group.setdefault((n, rho), None)


def estimate_esr(cfg, trials, seed):
    """Monte Carlo ESR of the dual-selection slot over `trials` slots.

    Deterministic for fixed (cfg, trials, seed); the clamp is applied to the
    difference of the sample means, mirroring the analytic definition.
    """
    seed = _check_seed(seed)
    trials = _check_count(trials, "trials")
    K, n, rho = cfg.num_users, cfg.served_index, cfg.transmit_snr
    _check_dual_slot(K, n)
    return _estimate(seed, trials, K, (n, rho))


def estimate_esr_tdma(K, rho, trials, seed):
    """Monte Carlo ESR of the TDMA-like baseline: the strongest user
    transmits alone at full power, no jamming; the eavesdropper overhears
    that user's own eavesdropper-side gain. K may be 1; above MAX_USERS it
    raises CapabilityError, as the analytic TDMA functions do."""
    seed = _check_seed(seed)
    trials = _check_count(trials, "trials")
    _check_user_count(K, least=1)
    _check_positive_real(rho, "rho")
    return _estimate(seed, trials, K, (K, rho))


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
    t = np.empty(samples)

    def decode_snr(h, g, start, m, lo, hi):
        np.divide(h[:, K - 1], h[:, n - 1] + inv, out=t[start + lo : start + hi])

    _walk(seed, samples, K, decode_snr, lambda start, m: None)
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
