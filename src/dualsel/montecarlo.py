"""Ground-truth simulation of the dual-selection slot.

Draws Rayleigh channel realizations, applies the decode-and-cancel logic at
the base station and the interception logic at the eavesdropper, and turns
per-slot rates into ergodic secrecy rate estimates and empirical CDFs.

Reproducibility contract: every trial owns a fixed slice of a counter-based
Philox stream keyed by the seed, so trial i yields bit-identical gains no
matter how trials are split, ordered, or distributed across workers. Each
cell's three sums are numpy's np.sum over the run's full row of rates, so
a result depends only on (seed, trials, K, cell).

One walk (`_walk`) draws every trial, for both of its callers:
`empirical_cdf_T` and the reducer. One reducer (`_reduce`) answers every
estimate: it walks the trials of a (seed, trials, K) key once and computes
the rates of several cells on each leaf. Within one scan
(selection.evaluate_cells), the first estimate at a key makes the one walk
that answers every Monte Carlo cell the scan declared there, at any count
and any trial count, and the scan's later calls read their sums; a lone
call reduces its one cell. No leaf outlives the reduction that drew it.

A leaf's sorted gains are (trials, K) views of rank-major buffers, so the
row of each rank, the one a rate kernel reads, is contiguous. They are
ordered by numpy's unstable argsort behind an exact tie guard: a trial with
a tie sends its block of trials through a stable sort, so tied users stay in
user order with their eavesdropper gains, and no bit depends on the host's
sort implementation.

The walk cuts the whole run along numpy's pairwise-summation tree (see
`_walk`): the calling thread draws, orders and rates the lower part, one
worker thread the upper, each in leaves of a bounded uniform block drawn
from their own Philox counter offsets, and each leaf sums its own rates,
in parts of cells whose two rate buffers hold at most _LEAF_DOUBLES doubles.
Leaf sums are added up the tree, so every cell's sum has the bits of
numpy's sum over the run's full row, and a walk holds at most one leaf per
thread.
"""

import math
import sys
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analytic import _check_user_count
from .specfun import _check_positive_real, _is_integer, _is_positive_real, _scan_value

__all__ = ["EsrEstimate", "estimate_esr", "estimate_esr_tdma", "empirical_cdf_T", "ks_distance"]

_U64 = 1 << 64

#: Most doubles in a leaf's uniform block (1 MiB), a longer part of a run
#: cut again along the pairwise tree, and in the two rate buffers of one of
#: a leaf's parts of cells together.
_LEAF_DOUBLES = 1 << 17

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
    on the other trials in u: `_walk` runs this on each leaf, in the thread
    that drew it.
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


def _pairwise_split(m):
    # numpy sums a contiguous row of m > 128 doubles as the sum of its first
    # _pairwise_split(m) plus the sum of the rest, and a row of 128 or fewer
    # in one piece
    return m // 2 - (m // 2) % 8


class _Stopped(Exception):
    """Raised in a draw thread at its next leaf once the other has failed."""


def _walk(seed, trials, K, each_leaf):
    """Draw trials [0, trials), cut along numpy's pairwise-summation tree,
    and return the total of each_leaf's results.

    A run of m > 128 trials is cut where numpy's pairwise sum cuts a row of
    m (`_pairwise_split`): the calling thread takes the lower part and the
    walk's one worker thread the upper. A part is cut again by the same
    rule while it holds more than 128 trials and its uniform block more
    than _LEAF_DOUBLES doubles; a run of 128 or fewer is one leaf of the
    calling thread, and no thread starts. each_leaf(h, g, lo) gets the
    sorted gains of trials [lo, lo + len(h)) in the thread that drew them,
    as (trials, K) views of rank-major buffers (h[:, j] is contiguous)
    holding a stable sort's content (see `_gains_from_uniforms`), and
    returns an array; these add left + right up the tree, then lower +
    upper. So leaves that return np.sum over rows of values >= +0 total
    numpy's sums over the run's full rows, bit for bit: the bits rest on
    numpy's blocking, which a test checks. A thread that fails stops the
    other at its next leaf; the worker is joined, and the first exception
    raised in either thread is raised here.
    """
    stop = threading.Event()

    def part(lo, hi):
        if hi - lo > 128 and (hi - lo) * 2 * K > _LEAF_DOUBLES:
            mid = lo + _pairwise_split(hi - lo)
            return part(lo, mid) + part(mid, hi)
        if stop.is_set():
            raise _Stopped
        return each_leaf(*_gains_from_uniforms(_uniform_block(seed, lo, hi - lo, K), K), lo)

    if trials <= 128:
        return part(0, trials)
    mid, totals, errors = _pairwise_split(trials), {}, []

    def run(lo, hi):
        try:
            totals[lo] = part(lo, hi)
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)
            stop.set()

    worker = threading.Thread(target=run, args=(mid, trials))
    worker.start()
    try:
        run(0, mid)
        worker.join()
    finally:
        stop.set()  # a join cut short leaves the worker at most one leaf
    if errors:
        raise errors[0]
    return totals[0] + totals[mid]


def _slot_rates(hT, gT, n, rho, cb, ce, wide):
    """Rates of the dual-selection slots n, n + 1, ..., n + len(cb) - 1 at
    one rho, written into the rows of cb and ce. hT and gT are a leaf's
    rank-major gains, shape (K, trials); each row of cb and ce is
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
    is the TDMA-like slot. Each sum is numpy's np.sum over the cell's full
    row of trials' values.

    One walk (see `_walk`) draws every trial once for all cells, at any
    count. Each leaf of L trials rates the cells in parts of at most
    _LEAF_DOUBLES // (2 L) cells, in the thread that drew it: a part's two
    (part, L) buffers take one kernel call per run of consecutive n at one
    rho, and give their three row sums. The walk adds these up the run's
    pairwise tree, so a cell's sums are numpy's sums of its full rows of
    rates alone. A reduction holds at most one leaf per thread.
    """
    def blocks(part):
        runs = []  # [first row, end row, first n, rho, kernel]
        for row, (n, rho) in enumerate(part):
            last = runs[-1] if runs else None
            if last and last[3] == rho and n < K and n - last[2] == row - last[0]:
                last[1] = row + 1
            else:
                runs.append([row, row + 1, n, rho, _tdma_rates if n == K else _slot_rates])
        return runs

    def leaf_sums(h, g, lo):
        rows, sums = _LEAF_DOUBLES // (2 * len(h)), []  # rows >= K (see _walk)
        with np.errstate(over="ignore", invalid="ignore"):
            for top in range(0, len(cells), rows):
                part = cells[top : top + rows]
                cb, ce = np.empty((len(part), len(h))), np.empty((len(part), len(h)))
                for first, end, n, rho, kernel in blocks(part):
                    kernel(h.T, g.T, n, rho, cb[first:end], ce[first:end], rho >= _WIDE_RHO)
                sum_cb, sum_ce = np.sum(cb, axis=1), np.sum(ce, axis=1)
                np.square(np.subtract(cb, ce, out=cb), out=cb)
                sums.append(np.array((sum_cb, sum_ce, np.sum(cb, axis=1))))
        return np.concatenate(sums, axis=1)

    return list(zip(*_walk(seed, trials, K, leaf_sums).tolist()))


def _estimate(seed, trials, K, cell):
    # The estimate of one cell (n, rho), whose sums a scan shares through its
    # memo with the cells it declared under (seed, trials, K) (see
    # _scan_cells): one reduction answers them all, at any count. A mean or
    # the variance that is not finite raises here, at the cell's own call.
    sum_cb, sum_ce, sum_d2 = _scan_value((seed, trials, K), cell, partial(_reduce, seed, trials, K))
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
    """The (key, cells) pairs of a scan's Monte Carlo cells (n, rho) at K
    users (K checked), n = K the TDMA-like slot, keyed (seed, trials, K) as
    given: numpy integers hash and compare as the ints the estimators take.
    A cell no estimator accepts is left out, and so is every cell under a
    seed or trial count that is not an integer (it may not hash); their own
    calls raise."""
    if not (_is_integer(seed) and _is_integer(trials)):
        return []
    cells = [(n, rho) for n, rho in cells
             if _is_integer(n) and 1 <= n <= K and _is_positive_real(rho)]
    return [((seed, trials, K), cells)]


def estimate_esr(cfg, trials, seed):
    """Monte Carlo ESR of the dual-selection slot over `trials` slots.

    Deterministic for fixed (cfg, trials, seed); the clamp is applied to the
    difference of the sample means, mirroring the analytic definition.
    """
    seed = _check_seed(seed)
    trials = _check_count(trials, "trials")
    K, n, rho = cfg.num_users, cfg.served_index, cfg.transmit_snr
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
    inv = 2.0 / rho
    t = np.empty(samples)

    def decode_snr(h, g, lo):
        np.divide(h[:, K - 1], h[:, n - 1] + inv, out=t[lo : lo + len(h)])
        return 0.0  # nothing to add up

    _walk(seed, samples, K, decode_snr)
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
