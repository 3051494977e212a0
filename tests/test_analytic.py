"""Closed forms against their defining integrals, simulation, and each other."""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import quad

from dualsel import analytic, montecarlo, specfun
from dualsel.analytic import (
    CapabilityError,
    SystemConfig,
    cdf_T,
    cdf_T_high_snr,
    esr_exact,
    esr_high_snr,
    esr_tdma_exact,
    esr_tdma_high_snr,
    exp_cb,
    exp_ce,
    psi,
    theta,
    theta_corrected,
    upsilon_from_xi,
    xi_table,
)
from dualsel.selection import select_served
from dualsel.specfun import EULER_GAMMA, e1_scaled, li2, quad_interval, quad_semi_infinite
from oracles import (
    cdf_order_stat,
    cdf_T_two_branch,
    esr_high_snr_terms,
    order_stat_series_terms,
    psi_two_calls,
)


def cfg_of(K, n, rho):
    return SystemConfig(num_users=K, served_index=n, transmit_snr=rho)


class TestSystemConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg_of(4, 0, 10.0)
        with pytest.raises(ValueError):
            cfg_of(4, 5, 10.0)
        with pytest.raises(ValueError):
            cfg_of(1, 1, 10.0)
        with pytest.raises(ValueError):
            cfg_of(4, 2, -1.0)
        with pytest.raises(ValueError):
            cfg_of(4, 2, math.inf)
        with pytest.raises(CapabilityError):
            cfg_of(21, 2, 10.0)

    def test_n_equals_K_is_allowed(self):
        assert cfg_of(4, 4, 10.0).served_index == 4


@pytest.mark.parametrize(
    "call",
    [
        lambda: cfg_of(True, 1, 10.0),
        lambda: cfg_of(4, True, 10.0),
        lambda: cfg_of(4, 2, True),
        lambda: (xi_table(4, 1), xi_table(4, True)),  # 1 cached first
        lambda: esr_tdma_exact(True, 10.0),
        lambda: esr_tdma_high_snr(True),
        lambda: montecarlo.estimate_esr(cfg_of(4, 2, 10.0), True, 0),
        lambda: montecarlo.estimate_esr(cfg_of(4, 2, 10.0), 5, True),
        lambda: montecarlo.estimate_esr_tdma(True, 10.0, 5, 0),
        lambda: montecarlo.empirical_cdf_T(cfg_of(4, 2, 10.0), True, 0),
    ],
    ids=[
        "SystemConfig.num_users",
        "SystemConfig.served_index",
        "SystemConfig.transmit_snr",
        "xi_table.n",
        "esr_tdma_exact.K",
        "esr_tdma_high_snr.K",
        "estimate_esr.trials",
        "estimate_esr.seed",
        "estimate_esr_tdma.K",
        "empirical_cdf_T.samples",
    ],
)
def test_integer_arguments_refuse_bool(call):
    # bool subclasses int, so an isinstance(int) check alone lets True in as 1
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: cfg_of(4, 2, 10**400),
        lambda: esr_tdma_exact(4, 10**400),
        lambda: montecarlo.estimate_esr_tdma(4, 10**400, 10, 0),
        lambda: upsilon_from_xi(10**400, 10.0),
        lambda: e1_scaled(10**400),
        lambda: li2(10**400),
        lambda: li2(-(10**400)),
        lambda: quad_interval(np.exp, 0, 10**400),
        lambda: quad_semi_infinite(np.exp, 10**400),
    ],
    ids=[
        "SystemConfig.transmit_snr",
        "esr_tdma_exact.rho",
        "estimate_esr_tdma.rho",
        "upsilon_from_xi.xi",
        "e1_scaled",
        "li2",
        "li2.negative",
        "quad_interval.b",
        "quad_semi_infinite.a",
    ],
)
def test_an_int_beyond_the_float_range_is_refused(call):
    # math.isfinite raises OverflowError on such an int; it is not finite
    with pytest.raises(ValueError):
        call()


class TestXiTable:
    def test_direct_substitution_K2(self):
        t = xi_table(2, 1)
        assert t.coefficients[0, 0] == 2.0
        assert t.coefficients[1, 0] == -2.0

    def test_direct_substitution_K4(self):
        t = xi_table(4, 3)
        assert t.coefficients[0, 1] == -24.0
        assert t.coefficients[0, 0] == 3 * math.comb(4, 3)

    def test_leading_coefficient_exact(self):
        for K in range(2, 13):
            for n in range(1, K):
                assert xi_table(K, n).coefficients[0, 0] == n * math.comb(K, n)

    def test_sign_pattern(self):
        t = xi_table(6, 3)
        for i in range(4):
            for j in range(3):
                expected = (-1.0) ** (i + j)
                assert math.copysign(1.0, t.coefficients[i, j]) == expected

    def test_normalization_identity(self):
        # sum_j Xi_0j / (K - n + 1 + j) = 1, forced by F_T(inf) = 1
        for K in range(2, 13):
            for n in range(1, K):
                c = xi_table(K, n).coefficients
                s = math.fsum(c[0, j] / (K - n + 1 + j) for j in range(n))
                assert s == pytest.approx(1.0, abs=1e-9)

    def test_bounds(self):
        with pytest.raises(CapabilityError):
            xi_table(21, 3)
        with pytest.raises(ValueError):
            xi_table(4, 4)
        with pytest.raises(ValueError):
            xi_table(4, 0)


class TestCdfT:
    def test_zero_at_origin(self):
        for K, n in ((2, 1), (4, 2), (8, 5)):
            assert cdf_T(0.0, cfg_of(K, n, 10.0)) == pytest.approx(0.0, abs=1e-12)

    def test_tends_to_one(self):
        for K, n in ((2, 1), (4, 2), (8, 5)):
            cfg = cfg_of(K, n, 10.0)
            assert cdf_T(1e15, cfg) == pytest.approx(1.0, abs=1e-9)
            assert cdf_T(math.inf, cfg) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_and_bounded(self):
        grid = np.linspace(0.0, 60.0, 1000)
        for K in range(2, 13):
            for n in range(1, K):
                for rho in (1.0, 10.0, 100.0):
                    vals = cdf_T(grid, cfg_of(K, n, rho))
                    assert np.all(vals >= -1e-10)
                    assert np.all(vals <= 1.0 + 1e-10)
                    assert np.all(np.diff(vals) >= -1e-10)

    def test_branch_continuity(self):
        # the gap across t = 1 is a pure derivative effect (density <= ~1),
        # so it must shrink linearly with the window
        for K, n in ((4, 2), (8, 5)):
            for rho in (1.0, 10.0, 100.0):
                cfg = cfg_of(K, n, rho)
                for eps in (1e-6, 1e-8):
                    gap = abs(cdf_T(1.0 - eps, cfg) - cdf_T(1.0 + eps, cfg))
                    assert gap < 2.5 * eps

    def test_nodes_match_high_precision_xi_sum(self):
        # one array call on points of both branches (t < 1, t = 1, t > 1)
        # against the same double sum in 50-digit arithmetic
        t = np.array([0.0, 1e-3, 0.25, 0.5, 0.9, 0.999, 1.0, 1.001, 1.5, 3.0, 10.0, 100.0, 1e4])
        with mp.workdps(50):
            for K in (4, 8):
                for n in range(1, K):
                    c = xi_table(K, n).coefficients
                    for rho_db in (0.0, 20.0, 40.0):
                        rho = 10.0 ** (rho_db / 10.0)
                        r = mp.mpf(rho)
                        got = cdf_T(t, cfg_of(K, n, rho))
                        for tv, g in zip(t.tolist(), got.tolist()):
                            x = mp.mpf(tv)
                            ref = mp.mpf(0)
                            for i in range(K - n + 1):
                                for j in range(n):
                                    b = K - n + 1 + j
                                    e = mp.exp(-2 * x * i / r)
                                    if x < 1:
                                        e -= mp.exp(-2 * x * b / (r * (1 - x)))
                                    ref += mp.mpf(c[i, j]) * e / (i * (x - 1) + b)
                            assert abs(g - float(ref)) <= 1e-12, (K, n, rho_db, tv)

    def test_one_formula_has_the_two_branch_bits(self):
        # cdf_T's one formula against the evaluator that split t < 1 from
        # t >= 1, bit for bit, at every slot, finite SNR and rho = inf
        rng = np.random.default_rng(19)
        edges = [0.0, 1e-300, 1.0 - 2.0**-53, 1.0, 1e6, math.inf]
        t = np.concatenate([rng.uniform(0.0, 3.0, 40), 10.0 ** rng.uniform(-8, 8, 40), edges])
        for K in range(2, 21):
            for n in range(1, K):
                for rho_db in (-20.0, 0.0, 20.0, 40.0, 60.0, 300.0, 3000.0):
                    rho = 10.0 ** (rho_db / 10.0)
                    got = cdf_T(t, cfg_of(K, n, rho))
                    assert got.tobytes() == cdf_T_two_branch(t, K, n, rho).tobytes(), (K, n, rho)
                got = cdf_T_high_snr(t, K, n)
                assert got.tobytes() == cdf_T_two_branch(t, K, n, math.inf).tobytes(), (K, n)
        # several chunks of points from both sides of t = 1, interleaved
        t = np.concatenate([rng.uniform(0.0, 2.0, 5000), edges])
        rng.shuffle(t)
        for K, n in ((2, 1), (8, 5), (20, 10), (20, 19)):
            for rho in (1.0, 100.0, math.inf):
                got = cdf_T(t, cfg_of(K, n, rho)) if rho < math.inf else cdf_T_high_snr(t, K, n)
                assert got.tobytes() == cdf_T_two_branch(t, K, n, rho).tobytes(), (K, n, rho)
        # a scalar and a 2-D array take the same formula
        cfg = cfg_of(8, 5, 100.0)
        assert cdf_T(float(t[7]), cfg) == cdf_T(t[7:8], cfg)[0]
        assert cdf_T(t.reshape(-1, 2), cfg).tobytes() == cdf_T(t, cfg).tobytes()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cdf_T(-0.1, cfg_of(4, 2, 10.0))
        with pytest.raises(ValueError):
            cdf_T(np.array([0.5, -0.5]), cfg_of(4, 2, 10.0))
        # numbers only: neither strings nor bools are converted
        for bad in ("2", ["1", "2"], np.array([True, False])):
            with pytest.raises(ValueError, match="t must be >= 0"):
                cdf_T(bad, cfg_of(4, 2, 10.0))
            with pytest.raises(ValueError, match="t must be >= 0"):
                cdf_T_high_snr(bad, 4, 2)

    def test_matches_empirical(self):
        cfg = cfg_of(4, 2, 10.0)
        rng = np.random.default_rng(123)
        h = np.sort(rng.exponential(size=(1_000_000, 4)), axis=1)
        t_samples = np.sort(h[:, 3] / (h[:, 1] + 0.2))
        d = montecarlo.ks_distance(t_samples, cdf_T(t_samples, cfg))
        assert d <= 0.005

    def test_high_snr_limit(self):
        for t in (1.0, 2.0, 5.0, 10.0):
            full = cdf_T(t, cfg_of(4, 2, 1e6))
            assert abs(full - cdf_T_high_snr(t, 4, 2)) < 1e-4

    def test_high_snr_branch(self):
        assert cdf_T_high_snr(0.5, 4, 2) == 0.0
        assert cdf_T_high_snr(0.0, 8, 4) == 0.0
        assert cdf_T_high_snr(1e15, 8, 4) == pytest.approx(1.0, abs=1e-9)
        assert cdf_T_high_snr(math.inf, 8, 4) == 1.0


class TestCdfOrderStat:
    def test_endpoints(self):
        assert cdf_order_stat(0.0, 4, 2) == 0.0
        assert cdf_order_stat(math.inf, 4, 2) == pytest.approx(1.0)

    def test_single_user(self):
        for x in (0.1, 1.0, 3.0):
            assert cdf_order_stat(x, 1, 1) == pytest.approx(-math.expm1(-x), rel=1e-14)

    def test_matches_empirical(self):
        rng = np.random.default_rng(7)
        h = np.sort(rng.exponential(size=(1_000_000, 4)), axis=1)
        frac = np.mean(h[:, 1] <= 1.0)
        assert abs(frac - cdf_order_stat(1.0, 4, 2)) < 0.002

    def test_max_is_product_form(self):
        for x in (0.2, 1.0, 2.5):
            assert cdf_order_stat(x, 5, 5) == pytest.approx((-math.expm1(-x)) ** 5, rel=1e-12)


class TestExpCb:
    def test_single_user_reduction(self):
        # ergodic capacity of one Rayleigh link at SNR rho/2
        rho = 25.0
        oracle = quad_semi_infinite(
            lambda x: np.log1p(0.5 * rho * x) * np.exp(-x), 0.0, tol=1e-12
        ).value
        assert e1_scaled(2.0 / rho) == pytest.approx(oracle, abs=1e-10)

    def test_matches_defining_integral(self):
        # full grid: every K <= 8, every dual-selection n, three SNR decades
        for K in range(2, 9):
            for n in range(1, K):
                for rho in (1.0, 10.0, 100.0):
                    cfg = cfg_of(K, n, rho)
                    oracle = quad_semi_infinite(
                        lambda x: 0.5
                        * rho
                        * (1.0 - cdf_order_stat(x, K, n))
                        / (1.0 + 0.5 * rho * x),
                        0.0,
                        tol=1e-11,
                    ).value
                    assert exp_cb(cfg) == pytest.approx(oracle, abs=1e-8)

    def test_increases_with_n(self):
        vals = [exp_cb(cfg_of(8, n, 100.0)) for n in range(1, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def order_stat_density(K, n):
    # density of the n-th smallest of K unit-mean exponentials, memoized per
    # node: every quadrature of one (K, n) visits the same tanh-sinh nodes
    c = mp.factorial(K) / (mp.factorial(n - 1) * mp.factorial(K - n))
    memo = {}

    def density(x):
        if x not in memo:
            memo[x] = c * (-mp.expm1(-x)) ** (n - 1) * mp.exp(-(K - n + 1) * x)
        return memo[x]

    return density


def order_stat_expectation(density, phi):
    # E[phi(h_n)] by quadrature at the caller's mp precision
    return mp.quad(lambda x: phi(x) * density(x), [0, 1, 10, mp.inf])


class TestOrderStatSeries:
    """The series behind exp_cb, varpi and both TDMA engines, against a
    30-digit quadrature of the expectation it expands."""

    @pytest.mark.parametrize("K", [2, 5, 8, 12])
    def test_matches_order_statistic_expectation(self, K):
        series = analytic._order_stat_series
        with mp.workdps(30):
            for n in sorted({1, K // 2, K - 1, K}):
                density = order_stat_density(K, n)
                ref = -(order_stat_expectation(density, mp.log) + mp.euler)
                assert series(K, n, math.log) == pytest.approx(float(ref), abs=1e-10)
                for db in (0, 20, 40):
                    rho = 10.0 ** (db / 10)
                    a = 2 / mp.mpf(rho)
                    ref = order_stat_expectation(density, lambda x: mp.log1p(x / a))
                    got = series(K, n, lambda m: e1_scaled(2.0 * m / rho))
                    assert got == pytest.approx(float(ref), abs=1e-10)

    def test_f_is_called_once_per_argument(self):
        # and the value is the one-term-at-a-time series' to the bit
        for K in range(1, 21):
            for n in range(1, K + 1):
                for f in (math.log, lambda m: e1_scaled(2.0 * m / 100.0)):
                    seen = []

                    def counted(m):
                        seen.append(m)
                        return f(m)

                    got = analytic._order_stat_series(K, n, counted)
                    assert sorted(seen) == list(range(1, K + 1))
                    assert got == order_stat_series_terms(K, n, f)


def mc_eve_rate(K, n, rho, trials, seed):
    """Simulated E[C_e] and its standard error (independent generator)."""
    rng = np.random.default_rng(seed)
    h = np.sort(rng.exponential(size=(trials, K)), axis=1)
    g = rng.exponential(size=(trials, K))
    inv = 2.0 / rho
    decoded = h[:, K - 1] / (h[:, n - 1] + inv) <= g[:, K - 1] / (g[:, n - 1] + inv)
    ce = np.where(
        decoded,
        np.log1p(0.5 * rho * g[:, n - 1]),
        np.log1p(g[:, n - 1] / (g[:, K - 1] + inv)),
    )
    return float(ce.mean()), float(ce.std(ddof=1) / math.sqrt(trials))


class TestThetaKernels:
    def test_reference_value_via_quadrature_oracle(self):
        # Theta(1) at rho=100 from the printed composition, with e^x E1(x)
        # supplied by quadrature rather than the library path
        phi = quad_semi_infinite(lambda s: np.exp(-s) / (0.04 + s), 0.0, tol=1e-13).value
        expected = (phi + 1.0 - math.log(2.0)) / 4.0 - 0.02 * phi / 2.0
        assert theta(1.0, 100.0) == pytest.approx(expected, abs=1e-11)

    def test_vanishes_at_origin_without_overflow(self):
        # e^x E1(x) ~ 1/x beats the 1/u pole: the kernel tends to 0 like
        # u (rho - 1) + O(u^2), finite all the way down
        for rho in (1.0, 100.0):
            for u in (1e-3, 1e-5, 1e-7, 1e-9):
                val = theta(u, rho)
                assert math.isfinite(val)
                assert abs(val) <= (rho + 2.0) * u
        # positive and ~ rho*u when rho >> 1
        assert 0.0 < theta(1e-5, 100.0) < 100.0 * 1e-5

    def test_large_u_log_tail(self):
        # Theta(u) (u+1)^2 / log(u+1) -> -1, approached like 1/log(u); the
        # finite-u value must match the two-term asymptotic form
        for rho in (10.0, 100.0):
            phi = e1_scaled(2.0 / rho)
            vals = []
            for u in (1e4, 1e8, 1e12):
                r = theta(u, rho) * (u + 1.0) ** 2 / math.log(u + 1.0)
                predicted = -1.0 + (phi + 1.0) / math.log(u + 1.0) - (
                    2.0 / rho
                ) * phi * (u + 1.0) / (u * math.log(u + 1.0))
                assert r == pytest.approx(predicted, rel=1e-3)
                vals.append(r)
            assert vals[0] > vals[1] > vals[2] > -1.0  # marching down toward -1

    def test_corrected_matches_inner_integral(self):
        for rho in (10.0, 100.0):
            for u in (0.05, 0.4, 1.0, 3.0, 12.0):
                eta = (u + 1.0) / u
                oracle = quad_semi_infinite(
                    lambda v: v
                    * np.exp(-eta * v)
                    * (np.log1p(0.5 * rho * v) - math.log1p(u)),
                    2.0 * u / rho,
                    tol=1e-13,
                ).value / u**2
                assert theta_corrected(u, rho) == pytest.approx(oracle, abs=1e-11)

    def test_integral_identities(self):
        # int_0^inf Theta du has closed forms for both kernels (F_T == 1)
        for rho in (10.0, 100.0):
            a = 2.0 / rho
            phi = e1_scaled(a)
            got_printed = (
                quad_interval(lambda u: theta(u, rho), 0.0, 1.0, tol=1e-11).value
                + quad_semi_infinite(lambda u: theta(u, rho), 1.0, tol=1e-11).value
            )
            assert got_printed == pytest.approx(phi - 1.0, abs=1e-9)
            got_corr = (
                quad_interval(lambda u: theta_corrected(u, rho), 0.0, 1.0, tol=1e-11).value
                + quad_semi_infinite(lambda u: theta_corrected(u, rho), 1.0, tol=1e-11).value
            )
            assert got_corr == pytest.approx(math.exp(-a) * ((1.0 + a) * phi - 1.0), abs=1e-9)

    def test_domain(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                theta(bad, 10.0)
            with pytest.raises(ValueError):
                theta_corrected(bad, 10.0)

    def test_array_call_equals_scalar_calls_bitwise(self):
        u = np.concatenate([np.logspace(-9, 12, 40), np.linspace(0.05, 3.0, 15)])
        for kernel in (theta, theta_corrected):
            for rho in (1.0, 10.0, 100.0, 1e4):
                got = kernel(u, rho)
                assert isinstance(got, np.ndarray) and got.shape == u.shape
                assert got.tolist() == [kernel(x, rho) for x in u.tolist()]
                assert isinstance(kernel(0.5, rho), float)

    def test_one_bad_element_rejects_the_array(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            u = np.array([0.5, bad, 2.0])
            for kernel in (theta, theta_corrected):
                with pytest.raises(ValueError):
                    kernel(u, 10.0)
        # numbers only: neither strings nor bools are converted
        for u in ("1", ["1", "2"], np.array([True, True])):
            for kernel in (theta, theta_corrected):
                with pytest.raises(ValueError, match="u must be positive and finite"):
                    kernel(u, 10.0)

    def test_w_out_of_double_range(self):
        # w = 2(u+1)^k/(rho u) used to round to inf ((u+1)^2 overflowing, or
        # rho u underflowing) or to 0 (rho u overflowing at 3000 dB), and the
        # kernel then raised with the internal w named. Now w is rebuilt, and
        # where w itself exceeds the doubles the kernel takes its w -> inf limit.
        def corrected_mp(u, rho):
            u, rho = mp.mpf(u), mp.mpf(rho)
            w = 2 * (u + 1) ** 2 / (rho * u)
            bracket = 1 / (u + 1) ** 2 + mp.exp(w) * mp.e1(w) * (
                1 / (u + 1) ** 2 - 2 / (rho * u * (u + 1))
            )
            return mp.exp(-2 * (u + 1) / rho) * bracket

        with mp.workdps(50):
            for u, rho in ((1e9, 1e300), (3.0, 1.5e308), (1e200, 1e200)):
                want = float(corrected_mp(u, rho))
                assert theta_corrected(u, rho) == pytest.approx(want, rel=1e-14, abs=1e-300)
        assert theta_corrected(1e-310, 100.0) == 0.0  # w past the doubles
        assert theta_corrected(1e155, 100.0) == 0.0  # e^(-2e153) underflows
        assert theta(1e155, 100.0) == pytest.approx(0.0, abs=1e-300)
        # the printed kernel's w -> inf limit is -log1p(u)/(u+1)^2, not 0
        assert theta(1.0, 1e-308) == pytest.approx(-math.log(2.0) / 4.0, rel=1e-15)
        assert theta(1e-310, 100.0) == pytest.approx(0.0, abs=1e-300)
        u = np.array([1e-310, 0.5, 1e9, 1e155])
        for kernel in (theta, theta_corrected):
            for rho in (100.0, 1e300):
                assert kernel(u, rho).tolist() == [kernel(x, rho) for x in u.tolist()]

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf, True, "10"])
    @pytest.mark.parametrize("kernel", [theta, theta_corrected])
    def test_rho_must_be_a_positive_real(self, kernel, rho):
        # 0 used to divide by zero, and True ran at rho = 1
        for u in (1.0, np.array([0.5, 2.0])):
            with pytest.raises(ValueError, match="rho must be positive and finite, got"):
                kernel(u, rho)


def traced_peak_mib(call):
    # peak of the memory allocated during call(), in MiB
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """The broadcast kernels walk their points in fixed chunks, so a long
    array costs a bounded amount of scratch memory beyond its own size."""

    def test_cdf_T_on_a_million_points(self):
        t = np.linspace(0.0, 5.0, 1_000_000)  # both branches
        cfg = cfg_of(20, 10, 100.0)
        assert traced_peak_mib(lambda: cdf_T(t, cfg)) < 100.0

    def test_theta_corrected_on_two_hundred_thousand_points(self):
        u = np.logspace(-6, 6, 200_000)  # both e1_scaled kernels
        assert traced_peak_mib(lambda: theta_corrected(u, 100.0)) < 15.0


class TestPsiAndExpCe:
    def test_psi_nonnegative(self):
        # the corrected kernel is pointwise nonnegative (its inner integrand
        # log((1+rho v/2)/(1+u)) >= 0 on v > 2u/rho), so Psi >= 0 always
        for K in (2, 4, 8):
            for n in (1, K - 1):
                for rho in (1.0, 10.0, 100.0):
                    assert psi(cfg_of(K, n, rho)) >= 0.0

    def test_psi_printed_can_go_negative(self):
        # the v-from-0 kernel has no such guarantee at low SNR
        assert psi(cfg_of(2, 1, 1.0), variant="printed") < 0.0

    def test_psi_matches_conditional_rate_term(self):
        # e^(2/rho) Psi must equal E[F_T(y/(z+2/rho)) log((1+rho z/2)(y+2/rho)/(z+y+2/rho))]
        K, n, rho = 4, 3, 100.0
        cfg = cfg_of(K, n, rho)
        rng = np.random.default_rng(2024)
        trials = 1_000_000
        z = rng.exponential(size=trials)  # |g_n|^2
        y = rng.exponential(size=trials)  # |g_K|^2
        inv = 2.0 / rho
        term = cdf_T(y / (z + inv), cfg) * np.log(
            (1.0 + 0.5 * rho * z) * (y + inv) / (z + y + inv)
        )
        mc = float(term.mean())
        se = float(term.std(ddof=1) / math.sqrt(trials))
        assert math.exp(inv) * psi(cfg) == pytest.approx(mc, abs=3.0 * se)

    def test_exp_ce_matches_simulation(self):
        for K, n, rho in ((4, 2, 10.0), (4, 3, 100.0), (8, 7, 100.0)):
            mc, se = mc_eve_rate(K, n, rho, 1_000_000, seed=K * 1000 + n)
            assert exp_ce(cfg_of(K, n, rho)) == pytest.approx(mc, abs=3.0 * se)

    def test_printed_variant_understates_eavesdropper(self):
        # the v-from-0 kernel misses positive mass of the conditional term
        for K, n, rho in ((4, 2, 10.0), (8, 7, 100.0)):
            cfg = cfg_of(K, n, rho)
            assert exp_ce(cfg, variant="printed") < exp_ce(cfg)

    @pytest.mark.parametrize("rho_db", [-10, -20, -25])
    def test_low_snr_correction_meets_tol(self, rho_db):
        # exp_ce scales Psi by e^(2/rho), so Psi is taken to tol e^(-2/rho);
        # with Psi to tol alone the correction was 4e-7 to 4e-6 off here.
        # The oracle integrates e^(2/rho) theta_corrected F_T with scipy,
        # its e^(-2(u+1)/rho) written as e^(-2u/rho).
        rho = 10.0 ** (rho_db / 10.0)
        cfg = cfg_of(4, 3, rho)
        a = 2.0 / rho

        def f(u):
            up1 = u + 1.0
            phi = e1_scaled(2.0 * up1 * up1 / (rho * u))
            bracket = (1.0 + phi * (1.0 - 2.0 * up1 / (rho * u))) / (up1 * up1)
            return math.exp(-2.0 * u / rho) * bracket * cdf_T(u, cfg)

        want = sum(
            quad(f, lo, hi, epsabs=1e-16, epsrel=1e-13, limit=500)[0]
            for lo, hi in ((0.0, 1.0), (1.0, math.inf))
        )
        got = exp_ce(cfg) - (1.0 - a * e1_scaled(a))
        assert got == pytest.approx(want, abs=1e-12)

    def test_exp_ce_raises_where_the_scale_overflows(self):
        # e^(2/rho) overflows below about -25.5 dB; math.exp used to raise
        # OverflowError there
        with pytest.raises(FloatingPointError, match="2/rho = 796.214"):
            exp_ce(cfg_of(4, 3, 10.0 ** -2.6))

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            psi(cfg_of(4, 2, 10.0), variant="bogus")

    @pytest.mark.parametrize(
        "call",
        [
            lambda tol: psi(cfg_of(4, 2, 10.0), tol=tol),
            lambda tol: exp_ce(cfg_of(4, 2, 10.0), tol=tol),
            lambda tol: esr_exact(cfg_of(4, 2, 10.0), tol=tol),
            lambda tol: select_served(4, 100.0, tol=tol),
        ],
        ids=["psi", "exp_ce", "esr_exact", "select_served"],
    )
    @pytest.mark.parametrize("tol", [0, -1, math.nan, math.inf, True, "1e-9"])
    def test_tol_must_be_positive_and_finite(self, call, tol):
        # 0, -1 and nan used to raise FloatingPointError (psi at -1 a math
        # domain error), True ran at tol 1 and "1e-9" raised TypeError
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            call(tol)

    def test_tdma_slot_rejected(self):
        with pytest.raises(ValueError):
            psi(cfg_of(4, 4, 10.0))
        with pytest.raises(ValueError):
            exp_cb(cfg_of(4, 4, 10.0))


def kernel_of(variant):
    return theta_corrected if variant == "corrected" else theta


def scipy_upper_half(cfg, variant):
    """Psi's integral over [1, inf) by scipy, in x = log u on pieces of
    [0, 60]; beyond u = e^60 either kernel's tail is below 1e-24."""
    kernel, rho = kernel_of(variant), cfg.transmit_snr

    def f(x):
        u = math.exp(x)
        return kernel(u, rho) * cdf_T(u, cfg) * u

    edges = (0.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0)
    return math.fsum(
        quad(f, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
        for lo, hi in zip(edges, edges[1:])
    )


def psi_halves(monkeypatch, cfg, tol, variant):
    # the values of the quad_interval calls psi makes: [0, 1], then the
    # upper half in x = log u
    values = []

    def recording(*args, **kwargs):
        result = quad_interval(*args, **kwargs)
        values.append(result.value)
        return result

    monkeypatch.setattr(analytic, "quad_interval", recording)
    psi(cfg, tol=tol, variant=variant)
    return values


class TestPsiUpperHalf:
    """Psi's upper half is a quadrature in x = log u up to a closed-form U,
    whose dropped tail beyond U is bounded."""

    @pytest.mark.parametrize("variant", ["corrected", "printed"])
    @pytest.mark.parametrize("rho_db", [0, 20, 40, 60])
    def test_matches_scipy(self, monkeypatch, variant, rho_db):
        tol = 1e-9
        for K in (2, 8, 12):
            for n in sorted({1, K // 2, K - 1}):
                cfg = cfg_of(K, n, 10.0 ** (rho_db / 10.0))
                _, upper = psi_halves(monkeypatch, cfg, tol, variant)
                want = scipy_upper_half(cfg, variant)
                assert abs(upper - want) <= 0.5 * tol, (K, n)

    @pytest.mark.parametrize("variant", ["corrected", "printed"])
    @pytest.mark.parametrize("rho_db", [-25, 20, 60, 300, 3082])
    def test_tail_bound_covers_the_tail(self, variant, rho_db):
        # int_U^inf |kernel| du, which bounds the dropped part of Psi since
        # 0 <= F_T <= 1, by scipy in u = U + S expm1(y), S = U + 1, on
        # pieces of y in [0, 50]; beyond, the tail is below 1e-20
        kernel, rho = kernel_of(variant), 10.0 ** (rho_db / 10.0)
        for tol in (5e-13, 5e-16):
            s = math.exp(analytic._log_tail_end(rho, math.log(tol), variant))

            def f(y):
                grow = s * math.expm1(y)
                return abs(kernel((s - 1.0) + grow, rho)) * (s + grow)

            edges = (0.0, 1.0, 3.0, 10.0, 50.0)
            tail = math.fsum(
                quad(f, lo, hi, epsabs=0.0, epsrel=1e-8, limit=200)[0]
                for lo, hi in zip(edges, edges[1:])
            )
            assert tail <= tol, (tol, s, tail)

    @pytest.mark.parametrize("variant", ["corrected", "printed"])
    @pytest.mark.parametrize("rho_db", [-25, 300, 3000, 3082])
    def test_answers_without_a_warning(self, variant, rho_db):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 7):
                assert math.isfinite(psi(cfg_of(8, n, 10.0 ** (rho_db / 10.0)), variant=variant))

    def test_a_bound_beyond_the_doubles_raises(self):
        # at 3082 dB and tol 1e-310 the tail bound asks for U = e^716
        with pytest.raises(FloatingPointError, match="beyond the doubles"):
            psi(cfg_of(8, 7, 10.0**308.2), tol=1e-310)

    def test_upper_panels_are_increasing_inside_every_accepted_interval(self, monkeypatch):
        # psi's breakpoints log(U) k / 8 must be strictly increasing inside
        # (0, log U), which quad_interval checks, at every log U it accepts:
        # from 2^-52 (the least above 0, at the double just above log S =
        # log 2) to the double below log of the largest double
        log_s = [math.log(2.0)]
        for _ in range(64):
            log_s.append(math.nextafter(log_s[-1], math.inf))
        targets = [*np.geomspace(2.0**-50, analytic._LOG_MAX, 400)[:-1].tolist(),
                   math.nextafter(analytic._LOG_MAX, 0.0)]
        log_s += [t + math.log1p(math.exp(-t)) for t in targets]
        uppers = []

        def recording(f, a, b, **kwargs):
            points = kwargs.get("points", ())
            if points:
                uppers.append((a, b, points))
            return quad_interval(np.zeros_like, a, b, **kwargs)  # checks the points

        monkeypatch.setattr(analytic, "quad_interval", recording)
        cfg = cfg_of(8, 3, 100.0)
        for value in log_s:
            monkeypatch.setattr(analytic, "_log_tail_end", lambda *args, v=value: v)
            psi(cfg)
        assert len(uppers) == len(log_s) - 1  # log S = log 2 drops the upper half
        assert min(b for _, b, _ in uppers) == 2.0**-52
        assert max(b for _, b, _ in uppers) == math.nextafter(analytic._LOG_MAX, 0.0)
        for a, b, points in uppers:
            edges = [a, *points, b]
            assert len(edges) == 9 and a == 0.0
            assert all(lo < hi for lo, hi in zip(edges, edges[1:])), edges


class TestPsiLowerHalf:
    @pytest.mark.xfail(
        strict=True,
        reason="the lower half stops after one panel on [0, 1]: F_T is about 0 at "
        "all 15 of its nodes, and the boundary layer next to u = 1 is missed",
    )
    def test_lower_half_meets_tol_where_n_is_K_minus_1(self):
        # (K=12, n=11, 30 dB) is the worst exact-points grid point: 1.42e-6
        # off. The reference takes the lower half on [0, .9, .99, .999, 1].
        cfg = cfg_of(12, 11, 1000.0)
        kernel, rho = kernel_of("corrected"), cfg.transmit_snr
        edges = (0.0, 0.9, 0.99, 0.999, 1.0)
        lower = math.fsum(
            quad_interval(lambda u: kernel(u, rho) * cdf_T(u, cfg), lo, hi, tol=1e-12).value
            for lo, hi in zip(edges, edges[1:])
        )
        want = lower + scipy_upper_half(cfg, "corrected")
        assert abs(psi(cfg) - want) <= 1e-9

    def test_lower_half_starts_from_one_panel(self, monkeypatch):
        # bench/reference.json pins the lower half's values, its boundary-
        # layer miss included, so [0, 1] keeps its one-panel start; the
        # upper half starts from eight panels
        calls = []

        def recording(f, a, b, **kwargs):
            calls.append((a, b, kwargs.get("points", ())))
            return quad_interval(f, a, b, **kwargs)

        monkeypatch.setattr(analytic, "quad_interval", recording)
        psi(cfg_of(12, 11, 1000.0))
        (a0, b0, lower), (a1, _, upper) = calls
        assert (a0, b0, lower) == (0.0, 1.0, ())
        assert a1 == 0.0 and len(upper) == 7


def outcome(fn, *args, **kwargs):
    # fn's value as its bits, or the type and message of what it raised
    try:
        return fn(*args, **kwargs).hex()
    except Exception as err:
        return type(err), str(err)


def counting_cdf_T(monkeypatch):
    # the sizes of the node arrays analytic.cdf_T is called on, one per call
    sizes = []

    def counted(t, cfg):
        sizes.append(np.size(t))
        return cdf_T(t, cfg)

    monkeypatch.setattr(analytic, "cdf_T", counted)
    return sizes


class TestPsiSharedCall:
    """The lower half's first integrand call also evaluates the upper half's
    first nodes; the upper half's first call is served those values."""

    def test_matches_two_independent_calls(self, monkeypatch):
        # Every value bit for bit, and every failure with its type and
        # message. The budget is capped at 20 000 evaluations so the sweep
        # stays fast; the 26 cells that raise under it are the ones that
        # raise under the default 200 000.
        capped = functools.partial(quad_interval, max_evals=20_000)
        monkeypatch.setattr(analytic, "quad_interval", capped)
        raised = 0
        for K in (2, 8, 12):
            for n in sorted({1, K // 2, K - 1}):
                for rho_db in (-25, -10, 0, 10, 20, 30, 60, 300, 3000, 3082):
                    cfg = cfg_of(K, n, 10.0 ** (rho_db / 10.0))
                    for variant in ("corrected", "printed"):
                        for tol in (1e-9, 1e-12):
                            got = outcome(psi, cfg, tol=tol, variant=variant)
                            want = outcome(psi_two_calls, cfg, tol=tol, variant=variant)
                            assert got == want, (K, n, rho_db, variant, tol)
                            raised += not isinstance(got, str)
        assert raised == 26

    @pytest.mark.parametrize(
        "move", [lambda x: np.nextafter(x, math.inf), lambda x: 0.5 * x], ids=["ulp", "halved"]
    )
    def test_upper_nodes_that_differ_get_the_kernels_own_values(self, monkeypatch, move):
        # nodes fetched ahead that are not the upper half's first nodes, by
        # an ulp or by far, are not served: the upper half evaluates its
        # own, and psi keeps its bits
        cfg = cfg_of(8, 7, 100.0)
        want = psi(cfg)

        def shifted(edges):
            halves, x = specfun._first_nodes(edges)
            return halves, move(x)

        monkeypatch.setattr(analytic, "_first_nodes", shifted)
        sizes = counting_cdf_T(monkeypatch)
        assert psi(cfg) == want
        assert sizes[0] == 135 and sizes.count(120) == 1


class TestEsrExact:
    @pytest.mark.parametrize("rho_db, evaluations", [(0.0, 165), (20.0, 345), (60.0, 165)])
    def test_quadrature_evaluation_counts_are_pinned(self, monkeypatch, rho_db, evaluations):
        # the integrand-evaluation total of both halves of psi: [0, 1], and
        # the upper half in x = log u. Both are adaptive decisions, so a
        # change to the panel evaluation or to the tail bound shows here.
        seen = []

        def counting(quad):
            def wrapped(*args, **kwargs):
                result = quad(*args, **kwargs)
                seen.append(result.evaluations)
                return result

            return wrapped

        monkeypatch.setattr(analytic, "quad_interval", counting(analytic.quad_interval))
        monkeypatch.setattr(analytic, "quad_semi_infinite", counting(analytic.quad_semi_infinite))
        esr_exact(cfg_of(8, 7, 10.0 ** (rho_db / 10.0)))
        assert len(seen) == 2
        assert sum(seen) == evaluations

    @pytest.mark.parametrize("rho_db, calls", [(0.0, 2), (20.0, 8), (60.0, 2)])
    def test_cdf_T_calls_are_pinned(self, monkeypatch, rho_db, calls):
        # the lower half's first call also takes the upper half's 120 first
        # nodes, so the upper half's first call makes none: one call fewer
        # than the two halves' 1 + 1 + (evaluations - 135) / 30
        sizes = counting_cdf_T(monkeypatch)
        esr_exact(cfg_of(8, 7, 10.0 ** (rho_db / 10.0)))
        assert len(sizes) == calls
        assert sizes[0] == 135

    def test_against_simulation_quick(self):
        cfg = cfg_of(4, 3, 100.0)
        est = montecarlo.estimate_esr(cfg, 10_000, seed=5)
        assert abs(esr_exact(cfg).value - est.esr) <= 4.0 * est.std_error

    def test_a_non_finite_difference_raises(self, monkeypatch):
        # max(0.0, nan) is 0.0, so a nan used to read as ESR 0
        monkeypatch.setattr(analytic, "exp_cb", lambda cfg: math.nan)
        with pytest.raises(FloatingPointError, match="nan"):
            esr_exact(cfg_of(4, 3, 100.0))

    def test_clamp_contract(self):
        for K, n, rho in ((2, 1, 0.5), (4, 3, 100.0), (8, 4, 10.0)):
            res = esr_exact(cfg_of(K, n, rho))
            assert res.value == max(0.0, res.unclamped)
            assert res.value >= 0.0

    def test_db_roundtrip_stability(self):
        rho = 10.0 ** (23.0 / 10.0)
        rho_rt = 10.0 ** (10.0 * math.log10(rho) / 10.0)
        a = esr_exact(cfg_of(4, 3, rho)).value
        b = esr_exact(cfg_of(4, 3, rho_rt)).value
        assert a == pytest.approx(b, abs=1e-9)


class TestUpsilon:
    def test_xi_one_closed_form(self):
        rho = 100.0
        expected = (math.log(rho / 2.0) + 1.0 - EULER_GAMMA) / 8.0 + math.log(2.0) / 4.0 - 3.0 / 8.0
        assert upsilon_from_xi(1.0, rho) == expected

    def test_continuity_across_one(self):
        for rho in (10.0, 100.0, 1e4):
            mid = upsilon_from_xi(1.0, rho)
            assert abs(upsilon_from_xi(1.0 + 1e-4, rho) - mid) <= 1e-3
            assert abs(upsilon_from_xi(1.0 - 1e-4, rho) - mid) <= 1e-3

    def test_matches_defining_integral(self):
        rho = 100.0
        lead = math.log(rho / 2.0) + 1.0 - EULER_GAMMA
        for xi in (0.25, 0.5, 1.0, 1.75, 3.0, 7.0):
            oracle = quad_semi_infinite(
                lambda u: (lead + np.log(u / (u + 1.0) ** 2)) / ((u + 1.0) ** 2 * (u + xi)),
                1.0,
                tol=1e-11,
            ).value
            assert upsilon_from_xi(xi, rho) == pytest.approx(oracle, abs=1e-7)

    @pytest.mark.parametrize("rho", [10.0, 100.0, 1e6])
    def test_near_one_matches_a_40_digit_integral(self, rho):
        # the closed form's poles at xi = 1 cancel and took its digits with
        # them (2e-2 absolute at 1 + 1e-6); near 1 it integrates instead
        xis = [1 - 1e-12, 1 + 1e-12, 1 - 1e-6, 1 + 1e-6, 1 - 1e-4, 1 + 1e-4, 0.99, 1.01]
        with mp.workdps(40):
            lead = mp.log(mp.mpf(rho) / 2) + 1 - mp.euler
            for xi in xis:
                x = mp.mpf(xi)
                ref = mp.quad(
                    lambda u: (lead + mp.log(u / (u + 1) ** 2)) / ((u + 1) ** 2 * (u + x)),
                    [1, 2, 10, mp.inf],
                )
                assert upsilon_from_xi(xi, rho) == pytest.approx(float(ref), abs=1e-11)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            upsilon_from_xi(-1.0, 10.0)

    @pytest.mark.parametrize(
        "xi, rho, name",
        [
            (True, 10.0, "xi"),
            ("2", 10.0, "xi"),
            (math.inf, 10.0, "xi"),
            (2.0, math.nan, "rho"),
            (2.0, math.inf, "rho"),
            (2.0, -1.0, "rho"),
            (2.0, 0.0, "rho"),
            (2.0, True, "rho"),
            (2.0, "10", "rho"),
        ],
    )
    def test_bad_xi_or_rho_is_named(self, xi, rho, name):
        # nan and inf used to come back as values, -1 as a math domain
        # error, and True was taken as xi = 1
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            upsilon_from_xi(xi, rho)


class TestEsrHighSnr:
    def test_tail_equals_the_term_by_term_loop(self):
        # the tail is one array expression over (i, j); its value must be
        # the one-term-at-a-time loop's to the last bit
        for K in range(2, 21):
            for n in range(1, K):
                for db in (10, 20, 40, 60):
                    rho = 10.0 ** (db / 10.0)
                    got = esr_high_snr(cfg_of(K, n, rho)).unclamped
                    assert got == esr_high_snr_terms(K, n, rho), (K, n, db)

    def test_affine_log_slope(self):
        # the closed form is affine in log(rho/2); its slope must match the
        # finite difference of the exact rate at high SNR
        for K, n in ((4, 3), (8, 7)):
            cfg4 = cfg_of(K, n, 1e4)
            fd_hi = esr_high_snr(cfg_of(K, n, 1e4 * math.e)).unclamped - esr_high_snr(cfg4).unclamped
            fd_hi2 = (
                esr_high_snr(cfg_of(K, n, 1e5 * math.e)).unclamped
                - esr_high_snr(cfg_of(K, n, 1e5)).unclamped
            )
            assert fd_hi == pytest.approx(fd_hi2, abs=1e-12)  # affinity
            fd_exact = (
                esr_exact(cfg_of(K, n, 1e5)).value - esr_exact(cfg_of(K, n, 1e4)).value
            ) / math.log(10.0)
            assert fd_hi == pytest.approx(fd_exact, rel=1e-3)
            assert 0.0 < fd_hi < 1.0

    def test_gap_shrinks_with_snr(self):
        for K, n in ((4, 3), (8, 7)):
            gaps = []
            for rho in (1e3, 1e4, 1e5):
                ex = esr_exact(cfg_of(K, n, rho)).value
                hi = esr_high_snr(cfg_of(K, n, rho)).value
                gaps.append(abs(hi - ex) / ex)
            assert gaps[0] > gaps[1] > gaps[2]

    def test_one_percent_at_50db(self):
        for K, n in ((4, 3), (8, 7)):
            ex = esr_exact(cfg_of(K, n, 1e5)).value
            hi = esr_high_snr(cfg_of(K, n, 1e5)).value
            assert abs(hi - ex) / ex <= 0.01


class TestTdma:
    def test_exact_reduces_to_zero_for_single_user(self):
        assert esr_tdma_exact(1, 100.0).value == pytest.approx(0.0, abs=1e-12)

    def test_high_snr_variants(self):
        assert esr_tdma_high_snr(1).value == 0.0
        assert esr_tdma_high_snr(1, "printed").value == 0.0
        assert esr_tdma_high_snr(2).value == pytest.approx(math.log(2.0), rel=1e-14)
        assert esr_tdma_high_snr(2, "printed").value == 0.0
        assert esr_tdma_high_snr(2, "printed").unclamped == pytest.approx(-math.log(2.0), rel=1e-14)
        with pytest.raises(ValueError):
            esr_tdma_high_snr(2, "bogus")

    def test_high_snr_refuses_more_than_max_users(self):
        # past K = 20 the alternating binomial-log sum cancels: it read 0.229
        # at K = 60, and math.comb overflowed the float at K = 2000
        for K in (21, 2000):
            with pytest.raises(CapabilityError):
                esr_tdma_high_snr(K)

    def test_printed_variant_clamps_for_all_supported_K(self):
        for K in range(2, 21):
            assert esr_tdma_high_snr(K, "printed").unclamped < 0.0
            assert esr_tdma_high_snr(K, "printed").value == 0.0
            assert esr_tdma_high_snr(K, "corrected").unclamped > 0.0

    def test_exact_approaches_high_snr_limit(self):
        for K in (2, 4, 8):
            lim = esr_tdma_high_snr(K).value
            assert esr_tdma_exact(K, 1e8).value == pytest.approx(lim, rel=1e-4)

    @pytest.mark.parametrize("rho_db", [-40, -60])
    def test_exact_has_the_wideband_slope(self, rho_db):
        # E[log1p(rho h_K)] - E[log1p(rho g)] = rho (H_K - 1) + O(rho^2); the
        # gap measured 1.5 to 2.4 rho relative
        rho = 10.0 ** (rho_db / 10.0)
        for K in range(2, 21):
            slope = math.fsum(1.0 / i for i in range(2, K + 1))  # H_K - 1
            assert esr_tdma_exact(K, rho).value / rho == pytest.approx(slope, rel=10.0 * rho)
