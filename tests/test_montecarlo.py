"""Trial engine: reproducibility, distributional checks, estimator contracts."""

import hashlib
import contextlib
import json
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dualsel import cli, montecarlo, specfun
from dualsel.analytic import CapabilityError, SystemConfig, cdf_T, esr_exact, esr_tdma_exact, exp_cb
from dualsel.montecarlo import (
    BATCH_TRIALS,
    empirical_cdf_T,
    estimate_esr,
    estimate_esr_tdma,
    ks_distance,
    _gains_from_uniforms,
    _uniform_block,
)
from dualsel.selection import evaluate_cells, select_served
from oracles import (
    ChannelRealization,
    cdf_order_stat,
    draw_realization,
    slot_rates,
    stable_sorted_gains,
    walked_gains,
)

#: float.hex pins of Monte Carlo estimates, recorded from the stable-sort draw
PINS = json.loads(Path(__file__).with_name("montecarlo_pins.json").read_text())
PIN_SEED = 11


def cfg_of(K, n, rho):
    return SystemConfig(num_users=K, served_index=n, transmit_snr=rho)


class TestDrawRealization:
    def test_shapes_and_ordering(self):
        r = draw_realization(42, 0, 6)
        assert len(r.gains_bs) == 6 and len(r.gains_eve) == 6
        assert np.all(np.diff(r.gains_bs) >= 0.0)
        assert np.all(r.gains_bs >= 0.0) and np.all(r.gains_eve >= 0.0)
        assert np.all(np.isfinite(r.gains_bs)) and np.all(np.isfinite(r.gains_eve))

    def test_trial_stream_is_position_keyed(self):
        # a trial's gains do not depend on how the surrounding block is cut
        single = draw_realization(42, 5, 4)
        h, g = _gains_from_uniforms(_uniform_block(42, 0, 10, 4), 4)
        assert np.array_equal(h[5], single.gains_bs)
        assert np.array_equal(g[5], single.gains_eve)
        h2, g2 = _gains_from_uniforms(_uniform_block(42, 5, 3, 4), 4)
        assert np.array_equal(h2[0], single.gains_bs)
        assert np.array_equal(g2[0], single.gains_eve)

    def test_different_trials_differ(self):
        a = draw_realization(42, 0, 4)
        b = draw_realization(42, 1, 4)
        c = draw_realization(43, 0, 4)
        assert not np.array_equal(a.gains_bs, b.gains_bs)
        assert not np.array_equal(a.gains_bs, c.gains_bs)

    def test_unit_mean(self):
        u = _uniform_block(7, 0, 1_000_000, 2)
        h, g = _gains_from_uniforms(u, 2)
        pooled = np.concatenate([h.ravel(), g.ravel()])
        assert abs(pooled.mean() - 1.0) < 0.005

    def test_expected_maximum_is_harmonic_number(self):
        u = _uniform_block(11, 0, 1_000_000, 2)
        h, _ = _gains_from_uniforms(u, 2)
        assert abs(h[:, 1].mean() - 1.5) < 0.01

    def test_order_stat_distribution(self):
        cfg = cfg_of(4, 2, 10.0)
        u = _uniform_block(3, 0, 1_000_000, 4)
        h, _ = _gains_from_uniforms(u, 4)
        hn = np.sort(h[:, 1])
        assert ks_distance(hn, cdf_order_stat(hn, 4, 2)) <= 0.005


def same_bits(a, b):
    # tobytes reads in C order whatever the layout, and tells -0.0 from 0.0
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def tied_block(K, trials=2_000, seed=5):
    """A Philox block in which every trial copies one base-station uniform
    onto one to three other users' lanes; the eavesdropper lanes stay
    distinct, so a tie broken the wrong way shows in g."""
    u = _uniform_block(seed, 0, trials, K).copy()
    pick = np.random.Generator(np.random.Philox(key=seed + 1))
    for t in range(trials):
        lanes = pick.choice(K, size=min(K, 2 + t % 3), replace=False)
        u[t, lanes[1:]] = u[t, lanes[0]]
    assert np.all(np.diff(np.sort(u[:, K:], axis=1), axis=1) > 0.0)
    return u


class TestSortedGains:
    """The vectorized draw equals the stable sort plus take_along_axis bit
    for bit, ties included, and hands every rank's column out contiguous."""

    @pytest.mark.parametrize("K", range(1, 21))
    def test_equals_stable_sort(self, K):
        u = _uniform_block(2, 0, 3_000, K)
        h, g = _gains_from_uniforms(u, K)
        h_ref, g_ref = stable_sorted_gains(u, K)
        assert same_bits(h, h_ref) and same_bits(g, g_ref)

    @pytest.mark.parametrize("K", [2, 8, 20])
    def test_ties_keep_user_order(self, K):
        u = tied_block(K)
        h, g = _gains_from_uniforms(u, K)
        h_ref, g_ref = stable_sorted_gains(u, K)
        assert same_bits(h, h_ref) and same_bits(g, g_ref)

    @pytest.mark.parametrize("K", [1, 2, 8, 20])
    def test_rank_columns_are_contiguous(self, K):
        drawn = (
            walked_gains(3, 2_000, K),
            _gains_from_uniforms(tied_block(K), K),  # the stable path, for K > 1
        )
        for h, g in drawn:
            assert h.shape == g.shape == (2_000, K)
            for j in range(K):
                assert h[:, j].flags.c_contiguous and g[:, j].flags.c_contiguous


class TestSplitDraw:
    """A batch large enough to be drawn as two halves on two threads equals
    the stable sort of its whole uniform block bit for bit, with contiguous
    rank columns, and no thread outlives the call that started it."""

    @pytest.mark.parametrize("K", range(1, 21))
    def test_equals_stable_sort(self, K):
        # the walk's trials from 5 on are those of a block drawn from trial 5
        for trials in (1, 2, 3, 7, 10_000, BATCH_TRIALS):
            for start in (0, 5):
                h, g = (a[start:] for a in walked_gains(4, start + trials, K))
                h_ref, g_ref = stable_sorted_gains(_uniform_block(4, start, trials, K), K)
                assert same_bits(h, h_ref) and same_bits(g, g_ref), (trials, start)
                for j in range(K):
                    assert h[:, j].flags.c_contiguous and g[:, j].flags.c_contiguous

    @pytest.mark.parametrize("tied_half", [0, 1])
    @pytest.mark.parametrize("K", [2, 8, 20])
    def test_a_tie_in_one_half_is_sorted_stably(self, monkeypatch, K, tied_half):
        trials = 20_000
        u = _uniform_block(9, 0, trials, K).copy()
        u[tied_half * (trials - 2_000) :][:2_000] = tied_block(K)
        starts = []

        def crafted_block(seed, start, n, K):
            starts.append(start)
            return u[start : start + n]

        monkeypatch.setattr(montecarlo, "_uniform_block", crafted_block)
        h, g = walked_gains(9, trials, K)
        assert sorted(starts) == [0, trials // 2]
        h_ref, g_ref = stable_sorted_gains(u, K)
        assert same_bits(h, h_ref) and same_bits(g, g_ref)

    def test_no_thread_outlives_a_call(self):
        before = threading.active_count()
        select_served(8, 100.0, "montecarlo", 10_000, 7)
        assert threading.active_count() == before
        estimate_esr(cfg_of(8, 4, 10.0), 3 * BATCH_TRIALS + 1, 1)
        assert threading.active_count() == before

    def test_concurrent_callers_get_their_own_draws(self):
        # more calling threads than cores, each splitting its batches, with
        # the interpreter switching threads as often as it can
        calls = [(cfg_of(K, K // 2, 10.0), 10_000, seed) for K in (4, 8, 20) for seed in (1, 2)]
        want = [estimate_esr(*call) for call in calls]
        got = [None] * len(calls)

        def run(i):
            got[i] = estimate_esr(*calls[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    def test_every_worker_is_joined(self, monkeypatch):
        # a worker that has had its last half may still be running when the
        # walk returns; only the join makes it gone, on the error path too
        started, joined = [], []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

            def join(self, timeout=None):
                super().join(timeout)
                joined.append(self)

        monkeypatch.setattr(threading, "Thread", Recorded)
        estimate_esr(cfg_of(8, 4, 10.0), 2 * BATCH_TRIALS + 1, 1)
        monkeypatch.setattr(montecarlo, "_slot_rates", None)  # each half raises
        with pytest.raises(TypeError):
            estimate_esr(cfg_of(8, 4, 10.0), 10_000, 1)
        assert len(started) == 2 and joined == started

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_an_error_in_either_half_is_raised_after_the_join(self, monkeypatch, failing):
        # the worker draws the upper half, the one that starts past trial 0
        boom = RuntimeError(f"{failing} half")

        def failing_block(seed, start, n, K):
            if (start > 0) == (failing == "worker"):
                raise boom
            return _uniform_block(seed, start, n, K)

        monkeypatch.setattr(montecarlo, "_uniform_block", failing_block)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            walked_gains(3, 10_000, 8)
        assert info.value is boom
        assert threading.active_count() == before


class TestSlotRates:
    def test_hand_worked_example(self):
        real = ChannelRealization(
            gains_bs=np.array([0.5, 2.0]), gains_eve=np.array([1.0, 1.0])
        )
        sr = slot_rates(real, 1, 10.0)
        # Gamma_b = 2.0/0.7 ~ 2.857 > Gamma_e = 1.0/1.2 ~ 0.833: no decode
        assert not sr.eve_decoded_jamming
        assert sr.rate_bs == pytest.approx(math.log(3.5), rel=1e-14)
        assert sr.rate_eve == pytest.approx(math.log(11.0 / 6.0), rel=1e-14)

    def test_zero_eavesdropper_gains(self):
        real = ChannelRealization(
            gains_bs=np.array([0.5, 2.0]), gains_eve=np.array([0.0, 0.0])
        )
        sr = slot_rates(real, 1, 10.0)
        assert sr.rate_eve == 0.0
        assert sr.rate_bs == pytest.approx(math.log(3.5), rel=1e-14)

    def test_huge_jammer_gain_at_eve_forces_decode(self):
        real = ChannelRealization(
            gains_bs=np.array([0.5, 2.0]), gains_eve=np.array([1.0, 1e12])
        )
        sr = slot_rates(real, 1, 10.0)
        assert sr.eve_decoded_jamming
        assert sr.rate_eve == pytest.approx(math.log1p(5.0), rel=1e-14)

    def test_boundary_tie_counts_as_decoded(self):
        real = ChannelRealization(
            gains_bs=np.array([1.0, 2.0]), gains_eve=np.array([1.0, 2.0])
        )
        sr = slot_rates(real, 1, 10.0)
        assert sr.eve_decoded_jamming

    def test_rates_nonnegative_and_interference_only_hurts(self):
        rho = 10.0
        for trial in range(200):
            real = draw_realization(99, trial, 5)
            sr = slot_rates(real, 2, rho)
            assert sr.rate_bs >= 0.0 and sr.rate_eve >= 0.0
            if not sr.eve_decoded_jamming:
                assert sr.rate_eve <= math.log1p(0.5 * rho * real.gains_eve[1])


class TestEstimateEsr:
    def test_deterministic(self):
        cfg = cfg_of(4, 3, 100.0)
        a = estimate_esr(cfg, 50_000, 42)
        b = estimate_esr(cfg, 50_000, 42)
        assert a == b

    def test_matches_per_trial_api(self):
        cfg = cfg_of(3, 2, 10.0)
        est = estimate_esr(cfg, 400, 8)
        rates = [
            slot_rates(draw_realization(8, t, 3), 2, 10.0) for t in range(400)
        ]
        mean_cb = math.fsum(r.rate_bs for r in rates) / 400
        mean_ce = math.fsum(r.rate_eve for r in rates) / 400
        assert est.mean_cb == pytest.approx(mean_cb, rel=1e-12)
        assert est.mean_ce == pytest.approx(mean_ce, rel=1e-12)

    def test_estimator_fields(self):
        cfg = cfg_of(4, 3, 100.0)
        est = estimate_esr(cfg, 10_000, 5)
        assert est.esr == max(0.0, est.mean_cb - est.mean_ce)
        assert est.std_error > 0.0
        assert est.trials == 10_000 and est.seed == 5

    def test_agrees_with_exact_engine(self):
        cfg = cfg_of(4, 3, 100.0)
        est = estimate_esr(cfg, 10_000, 123)
        assert abs(est.esr - esr_exact(cfg).value) <= 4.0 * est.std_error

    def test_sqrt_n_law(self):
        cfg = cfg_of(4, 2, 10.0)
        se1 = estimate_esr(cfg, 40_000, 3).std_error
        se2 = estimate_esr(cfg, 160_000, 3).std_error
        assert se2 == pytest.approx(se1 / 2.0, rel=0.2)

    def test_mean_cb_matches_closed_form(self):
        for K, n, rho in ((4, 3, 100.0), (8, 7, 100.0)):
            cfg = cfg_of(K, n, rho)
            est = estimate_esr(cfg, 1_000_000, 17)
            # std error of C_b alone is below that of the difference by a
            # small factor; 3x the difference's is a safe envelope
            assert abs(est.mean_cb - exp_cb(cfg)) <= 3.0 * est.std_error

    def test_tdma_slot_rejected(self):
        with pytest.raises(ValueError):
            estimate_esr(cfg_of(4, 4, 10.0), 100, 0)
        with pytest.raises(ValueError):
            estimate_esr(cfg_of(4, 3, 10.0), 0, 0)


class TestEstimateEsrTdma:
    def test_single_user_is_symmetric(self):
        est = estimate_esr_tdma(1, 10.0, 200_000, 21)
        assert abs(est.mean_cb - est.mean_ce) <= 4.0 * est.std_error
        assert est.esr >= 0.0

    def test_two_users_high_snr_is_log2(self):
        est = estimate_esr_tdma(2, 1e6, 1_000_000, 9)
        assert est.esr == pytest.approx(math.log(2.0), abs=0.01)

    def test_below_dual_scheme_optimum(self):
        est = estimate_esr_tdma(8, 100.0, 1_000_000, 30)
        assert 0.0 < est.esr < esr_exact(cfg_of(8, 7, 100.0)).value

    def test_deterministic(self):
        assert estimate_esr_tdma(4, 100.0, 20_000, 1) == estimate_esr_tdma(4, 100.0, 20_000, 1)


class TestEmpiricalCdfT:
    def test_samples_sorted_finite(self):
        cfg = cfg_of(4, 2, 10.0)
        t = empirical_cdf_T(cfg, 10_000, 4)
        assert len(t) == 10_000
        assert np.all(np.diff(t) >= 0.0)
        assert np.all(t >= 0.0) and np.all(np.isfinite(t))

    def test_high_snr_mass_above_one(self):
        cfg = cfg_of(4, 2, 1e8)
        t = empirical_cdf_T(cfg, 100_000, 12)
        assert np.all(t >= 1.0)

    def test_ks_against_closed_form(self):
        cfg = cfg_of(4, 2, 10.0)
        t = empirical_cdf_T(cfg, 1_000_000, 99)
        assert ks_distance(t, cdf_T(t, cfg)) <= 0.005

    def test_ks_helper_validation(self):
        with pytest.raises(ValueError):
            ks_distance(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            ks_distance(np.array([1.0]), np.array([0.5, 0.6]))


@pytest.mark.parametrize("fn", [estimate_esr, empirical_cdf_T])
def test_multi_batch_run_holds_one_batch_at_a_time(fn):
    # a batch is dropped before the next is drawn, so three batches peak
    # no higher than one, up to the output; holding two would add a batch.
    # Inside a scan a multi-batch run keeps nothing in the memo.
    cfg = cfg_of(8, 4, 10.0)
    batch_bytes = 2 * BATCH_TRIALS * 8 * 8
    fn(cfg, 10, 1)  # first-call allocations of numpy
    for scope in (contextlib.nullcontext, specfun._scan_scope):
        peaks = []
        for trials in (BATCH_TRIALS, 3 * BATCH_TRIALS + 1):
            tracemalloc.start()
            try:
                with scope():
                    fn(cfg, trials, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + batch_bytes // 2, scope


def test_a_huge_run_makes_its_batches_as_it_reaches_them(monkeypatch):
    # 10**12 trials are 15 million batches: a list of them, or buffers
    # sized by the trial count, would show in the peak before the draw
    boom = RuntimeError("draw")

    def failing_block(seed, start, n, K):
        raise boom

    monkeypatch.setattr(montecarlo, "_uniform_block", failing_block)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError) as info:
            estimate_esr(cfg_of(8, 4, 10.0), 10**12, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value is boom
    assert peak < 2**20


def test_a_cold_scan_peaks_below_9_mib():
    # the uniform block and the argsort result are freed before the gathers
    # allocate; holding either one longer breaks this bound
    select_served(20, 100.0, "montecarlo", 10, 7)  # first-call allocations of numpy
    tracemalloc.start()
    try:
        select_served(20, 100.0, "montecarlo", 10_000, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


@pytest.mark.parametrize(
    "call",
    [
        lambda seed: estimate_esr(cfg_of(4, 2, 10.0), 100, seed),
        lambda seed: estimate_esr_tdma(4, 10.0, 100, seed),
        lambda seed: empirical_cdf_T(cfg_of(4, 2, 10.0), 100, seed),
    ],
    ids=["estimate_esr", "estimate_esr_tdma", "empirical_cdf_T"],
)
def test_seed_must_be_unsigned_64_bit(call):
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            call(seed)
    call((1 << 64) - 1)


def test_counts_must_be_positive_integers():
    cfg = cfg_of(4, 2, 10.0)
    for bad in (0, -3, 2.0):
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            estimate_esr(cfg, bad, 0)
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            estimate_esr_tdma(4, 10.0, bad, 0)
        with pytest.raises(ValueError, match="samples must be a positive integer"):
            empirical_cdf_T(cfg, bad, 0)
        with pytest.raises(ValueError, match="K must be a positive integer"):
            estimate_esr_tdma(bad, 10.0, 100, 0)
    with pytest.raises(ValueError, match="served index"):
        empirical_cdf_T(cfg_of(4, 4, 10.0), 100, 0)


def harmonic(k):
    return math.fsum(1.0 / i for i in range(1, k + 1))


@pytest.mark.parametrize("K", [4, 8, 20])
@pytest.mark.parametrize("rho_db", [-40, -60])
def test_low_snr_means_have_the_wideband_slope(K, rho_db):
    # log1p(x) = x + O(x^2), so (mean_cb - mean_ce)/rho tends to the slope of
    # the means: E[h_n]/2 - E[g_n]/2 = (H_K - H_(K-n) - 1)/2 for the dual
    # slot (C_e is about (rho/2) g_n whether or not the jamming is
    # decoded), and E[h_K] - E[g] = H_K - 1 for the TDMA slot. The worst
    # deviation measured 2.2 standard errors.
    rho = 10.0 ** (rho_db / 10.0)
    served = (1, K // 2, K - 1, K)
    ests = evaluate_cells(K, [("montecarlo", n, rho) for n in served], 200_000, 3)
    for n, est in zip(served, ests):
        if n < K:
            slope = (harmonic(K) - harmonic(K - n) - 1.0) / 2.0
        else:
            slope = harmonic(K) - 1.0
        got = (est.mean_cb - est.mean_ce) / rho
        assert abs(got - slope) <= 4.0 * est.std_error / rho + 10.0 * rho * abs(slope), n


def test_tdma_shares_the_analytic_user_cap():
    for K in (21, 2000):
        with pytest.raises(CapabilityError):
            estimate_esr_tdma(K, 10.0, 10, 0)
    assert estimate_esr_tdma(1, 10.0, 10, 0).trials == 10


def test_an_overflowing_rate_raises_instead_of_reading_zero(monkeypatch):
    # max(0.0, nan) used to print 0 +/- 0. A product that overflows is taken
    # in logs (see test_rates_stay_finite_at_3082_db), so this rate stays
    # inf even on the wide path.
    def rates(hT, gT, n, rho, cb, ce, wide):
        cb[:], ce[:] = math.inf, 0.0

    monkeypatch.setattr(montecarlo, "_slot_rates", rates)
    with pytest.raises(FloatingPointError, match="not finite"):
        estimate_esr(cfg_of(8, 4, 10.0), 1000, 0)


@pytest.mark.parametrize("K, n", [(8, 7), (8, 4), (2, 1)])
def test_rates_stay_finite_at_3082_db(K, n):
    # 0.5 rho h overflows before log1p here; the overflowing trials are
    # taken as log(0.5 rho) + log(h)
    rho = 10.0**308.2
    est = estimate_esr(cfg_of(K, n, rho), 1000, 0)
    assert math.isfinite(est.mean_cb) and math.isfinite(est.mean_ce)
    assert abs(est.esr - esr_exact(cfg_of(K, n, rho)).value) <= 3.0 * est.std_error
    tdma = estimate_esr_tdma(K, rho, 1000, 0)
    assert math.isfinite(tdma.mean_cb) and math.isfinite(tdma.mean_ce)
    assert abs(tdma.esr - esr_tdma_exact(K, rho).value) <= 3.0 * tdma.std_error


def test_the_wide_path_moves_only_overflowing_rates():
    rho = 10.0**308.2
    h, g = walked_gains(0, 5000, 8)

    def rates(kernel, n, wide):
        cb, ce = np.empty((1, 5000)), np.empty((1, 5000))
        with np.errstate(over="ignore"):  # as _reduce runs them
            kernel(h.T, g.T, n, rho, cb, ce, wide)
        return cb, ce

    pairs = [
        (rates(montecarlo._slot_rates, 7, False), rates(montecarlo._slot_rates, 7, True)),
        (rates(montecarlo._tdma_rates, 8, False), rates(montecarlo._tdma_rates, 8, True)),
    ]
    for narrow, wide in pairs:
        for a, b in zip(narrow, wide):
            over = np.isinf(a)
            assert over.any() and np.isfinite(b).all()
            assert np.array_equal(a[~over], b[~over])
            assert (b[over] > math.log(np.finfo(float).max)).all()


def cold_cell(K, n, rho, trials, seed):
    # a lone call, outside any scan
    if n < K:
        return estimate_esr(cfg_of(K, n, rho), trials, seed)
    return estimate_esr_tdma(K, rho, trials, seed)


class TestBatchMemo:
    """Within one scan, the cells that share (seed, trials, K) are answered
    by one reduction that draws each batch once, at any trial count; no
    result may tell a scan's cell from a lone call, and no batch outlives
    the call or the scan that drew it."""

    @pytest.mark.parametrize("K", [2, 3, 8, 20])
    def test_scan_equals_cold_cells(self, K):
        rho = 100.0
        for trials in (10_000, BATCH_TRIALS + 5, 3 * BATCH_TRIALS + 1):
            scan = select_served(K, rho, "montecarlo", trials, 7)
            for n, est in scan.esr_by_n:
                assert est == cold_cell(K, n, rho, trials, 7), (trials, n)

    @pytest.fixture
    def draws(self, monkeypatch):
        """The batches drawn, in order, as (seed, start_trial, n_trials, K).
        A batch draws its uniforms in one _uniform_block call or in one per
        half, in either order; each of its trials must be drawn exactly once,
        and no uniforms may be drawn outside a batch."""
        batches, ranges = [], []
        walk = montecarlo._walk

        def counting_block(seed, start, n, K):
            ranges.append((start, start + n))
            return _uniform_block(seed, start, n, K)

        def counting_walk(seed, trials, K, each_half, each_batch):
            def half(h, g, start, m, lo, hi):
                # this half was drawn, and nothing outside its batch
                assert (start + lo, start + hi) in ranges
                assert all(start <= a and b <= start + m for a, b in ranges)
                each_half(h, g, start, m, lo, hi)

            def batch(start, m):
                lows, highs = zip(*sorted(ranges))
                assert (*lows, start + m) == (start, *highs)
                ranges.clear()
                batches.append((seed, start, m, K))
                each_batch(start, m)

            walk(seed, trials, K, half, batch)

        monkeypatch.setattr(montecarlo, "_uniform_block", counting_block)
        monkeypatch.setattr(montecarlo, "_walk", counting_walk)
        yield batches
        assert not ranges

    def test_scan_draws_once(self, draws):
        select_served(8, 100.0, "montecarlo", 10_000, 7)
        assert draws == [(7, 0, 10_000, 8)]

    def test_lone_calls_draw_every_time(self, draws):
        cfg = cfg_of(8, 4, 100.0)
        assert estimate_esr(cfg, 10_000, 7) == estimate_esr(cfg, 10_000, 7)
        assert draws == [(7, 0, 10_000, 8)] * 2

    def test_interleaved_calls_equal_cold_calls(self):
        calls = [
            (estimate_esr, cfg_of(5, 2, 10.0), 3_000, 11),
            (estimate_esr, cfg_of(5, 2, 10.0), 3_000, 12),
            (estimate_esr, cfg_of(5, 2, 10.0), 3_000, 11),
            (estimate_esr, cfg_of(4, 3, 10.0), 3_000, 11),
            (estimate_esr, cfg_of(6, 3, 10.0), 3_000, 11),
            (estimate_esr_tdma, 4, 10.0, 3_000, 11),
            (estimate_esr_tdma, 6, 10.0, 3_000, 11),
        ]
        with specfun._scan_scope():
            warm = [fn(*args) for fn, *args in calls]
        assert warm == [fn(*args) for fn, *args in calls]

    def test_multi_batch_run_equals_cold_cells(self):
        scan = select_served(4, 10.0, "montecarlo", BATCH_TRIALS + 5, 3)
        for n, est in scan.esr_by_n:
            assert est == cold_cell(4, n, 10.0, BATCH_TRIALS + 5, 3)

    def test_multi_batch_scan_draws_each_batch_once(self, draws):
        select_served(4, 10.0, "montecarlo", BATCH_TRIALS + 5, 3)
        assert draws == [(3, 0, BATCH_TRIALS, 4), (3, BATCH_TRIALS, 5, 4)]

    def test_compare_run_draws_once(self, draws, tmp_path, capsys):
        # the analytic and mc cells alternate over the three rho values
        argv = ["--mode", "compare", "--k", "4", "--served", "2", "--rho-db", "0:20:10",
                "--trials", "10000", "--seed", "5", "--manifest", str(tmp_path / "m.txt")]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.count("\nmc,") == 3
        assert draws == [(5, 0, 10_000, 4)]

    @pytest.mark.parametrize("engine, n", [("mc", 3), ("both", 6)])
    def test_sweep_rho_run_draws_once_and_equals_cold_cells(self, draws, tmp_path, capsys, engine, n):
        # one pass over both batches answers every rho; engine "both" puts
        # the analytic cells first
        trials = BATCH_TRIALS + 5
        argv = ["--mode", "sweep-rho", "--k", "6", "--served", str(n), "--engine", engine,
                "--rho-db", "0:30:10", "--trials", str(trials), "--seed", "4",
                "--manifest", str(tmp_path / "m.txt")]
        assert cli.main(argv) == 0
        rows = [r.split(",") for r in capsys.readouterr().out.splitlines() if r.startswith("mc,")]
        assert draws == [(4, 0, BATCH_TRIALS, 6), (4, BATCH_TRIALS, 5, 6)]
        assert [row[3] for row in rows] == ["0", "10", "20", "30"]
        for row in rows:
            cold = cold_cell(6, n, 10.0 ** (float(row[3]) / 10.0), trials, 4)
            assert row[4:6] == [f"{cold.esr:.12g}", f"{cold.std_error:.6g}"]

    def test_a_multi_rho_scan_equals_cold_cells(self):
        # several runs of n at each rho, repeats, the TDMA slot and a wide rho
        rhos = (1.0, 100.0, 10.0**308.2)
        cells = [("montecarlo", n, rho) for rho in rhos for n in (6, 1, 2, 8, 4, 5, 2)]
        cells += [("analytic", 7, 100.0), ("montecarlo", 3, 1.0)]
        for trials in (3, 10_000, BATCH_TRIALS + 5):
            got = evaluate_cells(8, cells, trials, 9)
            for (method, n, rho), value in zip(cells, got):
                if method == "montecarlo":
                    assert value == cold_cell(8, n, rho, trials, 9), (trials, n, rho)

    def test_a_long_scan_reduces_in_passes_of_bounded_buffers(self, draws, monkeypatch):
        # five cells per pass: the eight cells of one rho take two passes
        monkeypatch.setattr(montecarlo, "_RATE_DOUBLES", 5 * 1_000)
        scan = select_served(8, 100.0, "montecarlo", 1_000, 2)
        assert draws == [(2, 0, 1_000, 8)] * 2
        for n, est in scan.esr_by_n:
            assert est == cold_cell(8, n, 100.0, 1_000, 2)

    def test_memo_holds_sums_not_batches(self):
        K = 4
        cfg = cfg_of(K, 2, 10.0)
        estimate_esr(cfg, 10, 5)  # first-call allocations of numpy
        tracemalloc.start()
        try:
            with specfun._scan_scope():
                before = tracemalloc.get_traced_memory()[0]
                estimate_esr(cfg, 1_000, 5)
                estimate_esr(cfg, 3 * BATCH_TRIALS + 1, 5)
                held = tracemalloc.get_traced_memory()[0] - before
                memo = dict(specfun._scan_terms.get())
        finally:
            tracemalloc.stop()
        # each (seed, trials, K) keeps its cells' three sums, no array
        assert list(memo) == [(5, 1_000, K), (5, 3 * BATCH_TRIALS + 1, K)]
        for group in memo.values():
            assert list(group) == [(2, 10.0)]
            (sums,) = group.values()
            assert len(sums) == 3 and all(type(x) is float for x in sums)
        # less than the base-station half of one full batch stays behind
        assert held < BATCH_TRIALS * K * 8

    def test_a_failing_cell_raises_at_its_own_call(self, monkeypatch, tmp_path, capsys):
        # n = 3's rates are nan: the cells before it return, and the error
        # names n = 3, though the first call reduced every cell of the scan
        real = montecarlo._slot_rates

        def poisoned(hT, gT, n, rho, cb, ce, wide):
            real(hT, gT, n, rho, cb, ce, wide)
            if n <= 3 < n + len(cb):
                cb[3 - n] = math.nan

        monkeypatch.setattr(montecarlo, "_slot_rates", poisoned)
        seen = []
        estimate = montecarlo.estimate_esr

        def spy(cfg, trials, seed):
            seen.append(cfg.served_index)
            return estimate(cfg, trials, seed)

        monkeypatch.setattr(montecarlo, "estimate_esr", spy)
        cell = r"^K=5, n=3, rho=100 \(20 dB\): the means nan and "
        with pytest.raises(FloatingPointError, match=cell):
            evaluate_cells(5, [("montecarlo", n, 100.0) for n in (1, 2, 3, 4, 5)], 2_000, 1)
        assert seen == [1, 2, 3]
        argv = ["--mode", "sweep-n", "--k", "5", "--engine", "mc", "--rho-db", "20",
                "--trials", "2000", "--seed", "1", "--manifest", str(tmp_path / "m.txt")]
        assert cli.main(argv) == 4
        err = capsys.readouterr().err
        assert "numerical error: K=5, n=3, rho=100 (20 dB): the means nan" in err

    def test_a_reduction_keeps_one_worker(self, monkeypatch):
        # one worker thread for all of a walk's batches, however few its
        # trials: three full batches and a short one, or a single trial
        started = []
        thread = threading.Thread

        class Counted(thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        estimate_esr(cfg_of(8, 4, 10.0), 3 * BATCH_TRIALS + 1, 1)
        select_served(8, 10.0, "montecarlo", 3 * BATCH_TRIALS + 1, 1)
        empirical_cdf_T(cfg_of(8, 4, 10.0), 3 * BATCH_TRIALS + 1, 1)
        estimate_esr(cfg_of(2, 1, 10.0), 1, 1)
        empirical_cdf_T(cfg_of(8, 4, 10.0), 100, 1)
        assert len(started) == 5
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize(
        "call, trials",
        [
            (lambda t: estimate_esr(cfg_of(20, 10, 100.0), t, 3), BATCH_TRIALS),
            (lambda t: select_served(20, 100.0, "montecarlo", t, 3), 10_000),
        ],
        ids=["lone_call", "scan"],
    )
    def test_no_batch_outlives_its_call(self, call, trials):
        # a full K = 20 batch is 20 MiB, the 10 000-trial one 3 MiB
        call(10)  # first-call allocations of numpy
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call(trials)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2**20


def hex_fields(est):
    return [est.esr.hex(), est.mean_cb.hex(), est.mean_ce.hex(), est.std_error.hex()]


class TestBitPins:
    """Estimates up to K = 20 are pinned to the bit, so no change to the
    draw, the rate kernels or the reduction can move a digit unseen."""

    @pytest.mark.parametrize("K", [2, 3, 8, 13, 20])
    @pytest.mark.parametrize("db", [0, 20, 40])
    def test_select_served(self, K, db):
        scan = select_served(K, 10.0 ** (db / 10.0), "montecarlo", 10_000, PIN_SEED)
        assert [n for n, _ in scan.esr_by_n] == list(range(1, K + 1))
        assert [hex_fields(est) for _, est in scan.esr_by_n] == PINS["select_served"][f"{K},{db}"]

    def test_multi_batch_estimates(self):
        trials = BATCH_TRIALS + 5
        est = estimate_esr(cfg_of(20, 10, 100.0), trials, PIN_SEED)
        assert hex_fields(est) == PINS["estimate_esr"]
        est = estimate_esr_tdma(20, 100.0, trials, PIN_SEED)
        assert hex_fields(est) == PINS["estimate_esr_tdma"]

    def test_empirical_cdf_T(self):
        t = empirical_cdf_T(cfg_of(20, 10, 10.0), 70_000, PIN_SEED)
        assert hashlib.sha256(t.tobytes()).hexdigest() == PINS["empirical_cdf_T_sha256"]
