"""Special-function kernels against frozen values and independent oracles."""

import heapq
import math

import numpy as np
import pytest
import scipy.special

from dualsel.specfun import (
    EULER_GAMMA,
    QuadratureError,
    e1,
    e1_scaled,
    li2,
    quad_interval,
    quad_semi_infinite,
)
from dualsel.specfun import _WG, _WGK, _XGK


def e1_oracle_scaled(x, tol=1e-13):
    """Quadrature-only evaluation of e^x E1(x), sharing no code path with
    the series/continued-fraction implementation.

    For x <= 1 uses E1(x) = -gamma - log(x) + int_0^x (1 - e^-t)/t dt with a
    smooth integrand; above 1 uses e^x E1(x) = int_0^inf e^-s/(x+s) ds.
    """
    if x <= 1.0:
        smooth = quad_interval(lambda t: -np.expm1(-t) / t, 0.0, x, tol=tol)
        return math.exp(x) * (-EULER_GAMMA - math.log(x) + smooth.value)
    return quad_semi_infinite(lambda s: np.exp(-s) / (x + s), 0.0, tol=tol).value


class TestE1:
    def test_frozen_reference_value(self):
        assert e1(1.0) == pytest.approx(0.21938393439552026, rel=1e-14)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                e1(bad)
            with pytest.raises(ValueError):
                e1_scaled(bad)

    def test_underflow_returns_zero(self):
        assert e1(800.0) == 0.0
        # the scaled form survives out there
        assert e1_scaled(800.0) == pytest.approx(1.0 / 800.0, rel=1e-2)

    def test_strictly_decreasing(self):
        xs = np.logspace(-8, 2.8, 120)
        vals = [e1(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bracketing_bounds(self):
        # 0.5 e^-x log(1 + 2/x) <= E1(x) <= e^-x log(1 + 1/x)
        for x in np.logspace(-6, 2.5, 60):
            x = float(x)
            v = e1(x)
            assert 0.5 * math.exp(-x) * math.log1p(2.0 / x) <= v
            assert v <= math.exp(-x) * math.log1p(1.0 / x)

    def test_asymptotic_tail(self):
        # x e^x E1(x) -> 1 from below
        assert 0.999 < 1e4 * e1_scaled(1e4) < 1.0

    def test_x_e1_scaled_limits(self):
        # x e^x E1(x): -> 0 as x -> 0 and -> 1 as x -> inf (these drive the
        # eavesdropper baseline rate 1 - a e^a E1(a) between its endpoints)
        assert 1e-7 * e1_scaled(1e-7) < 2e-6
        assert abs(1e8 * e1_scaled(1e8) - 1.0) < 1e-7

    def test_log_minus_gamma_limit(self):
        # e^(1/x) E1(1/x) ~ log x - gamma for large x; the leading correction
        # is (1 - gamma + log x)/x, which the measured gap must match
        for x in (1e6, 1e8):
            gap = e1_scaled(1.0 / x) - (math.log(x) - EULER_GAMMA)
            assert gap == pytest.approx((1.0 - EULER_GAMMA + math.log(x)) / x, rel=1e-3)
        assert abs(e1_scaled(1e-8) - (math.log(1e8) - EULER_GAMMA)) < 2e-6

    def test_against_scipy(self):
        for x in np.logspace(-8, 2.84, 80):
            assert e1(float(x)) == pytest.approx(float(scipy.special.exp1(x)), rel=1e-12)

    def test_against_quadrature_oracle(self):
        for x in np.logspace(-6, math.log10(500.0), 25):
            x = float(x)
            assert e1_scaled(x) == pytest.approx(e1_oracle_scaled(x), rel=1e-10)

    def test_scaled_consistency(self):
        for x in (1e-6, 0.03, 0.9, 1.5, 30.0, 600.0):
            assert e1_scaled(x) == pytest.approx(math.exp(x) * e1(x), rel=1e-12)


class TestLi2:
    def test_endpoints(self):
        assert li2(0.0) == 0.0
        assert li2(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-15)
        assert li2(-1.0) == pytest.approx(-0.8224670334241132, abs=1e-14)

    def test_domain_errors(self):
        for bad in (1.0000001, 2.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                li2(bad)

    def test_reflection_identity(self):
        # Li2(x) + Li2(1-x) = pi^2/6 - log(x) log(1-x) on (0, 1)
        for x in np.linspace(0.005, 0.995, 100):
            x = float(x)
            lhs = li2(x) + li2(1.0 - x)
            rhs = math.pi**2 / 6.0 - math.log(x) * math.log1p(-x)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_against_scipy(self):
        for x in np.concatenate([np.linspace(-30.0, 1.0, 121), [-0.5, 0.5, 0.999]]):
            x = float(x)
            assert li2(x) == pytest.approx(float(scipy.special.spence(1.0 - x)), abs=1e-13)

    def test_alternating_series_oracle(self):
        # brute-force alternating series at x = -1
        ref = sum((-1.0) ** k / k**2 for k in range(1, 200000))
        assert li2(-1.0) == pytest.approx(ref, abs=1e-9)


def node_by_node_quad(f, a, b, tol, max_evals):
    """Reference adaptive GK15: one integrand call per node and an exact
    fsum of the error estimates after every split. Returns (value, error,
    evaluations), or the same triple of the exhausted budget's estimate."""

    def panel(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fc = float(f(mid))
        resk, resg = _WGK[7] * fc, _WG[3] * fc
        for i in range(7):
            dx = half * _XGK[i]
            s = float(f(mid - dx)) + float(f(mid + dx))
            resk += _WGK[i] * s
            if i % 2 == 1:
                resg += _WG[i // 2] * s
        return resk * half, abs(resk * half - resg * half)

    val, err = panel(a, b)
    heap, evals, counter = [(-err, 0, a, b, val, err)], 15, 0
    while not math.fsum(item[5] for item in heap) <= tol and evals + 30 <= max_evals:
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for x0, x1 in ((lo, mid), (mid, hi)):
            counter += 1
            v, e = panel(x0, x1)
            heapq.heappush(heap, (-e, counter, x0, x1, v, e))
        evals += 30
    return (
        math.fsum(item[4] for item in heap),
        math.fsum(item[5] for item in heap),
        evals,
    )


class TestQuadrature:
    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13, 1e-30])
    def test_matches_node_by_node_reference(self, tol):
        # one array call per panel plus a running error total must make the
        # same splits and the same stop as the node-by-node exact-sum rule.
        # The integrands use + - * / only, which round the same way on an
        # array as on one float, so any difference is the quadrature's.
        budget = 6_000
        cases = [
            (lambda u: 1.0 / (1.0 + u * u), 0.0, 3.0),
            (lambda u: u * (1.0 - u) / (0.01 + (u - 0.3) * (u - 0.3)), 0.0, 1.0),
            (lambda u: (u - 0.5) * (u - 0.5) * (u - 0.5) / (1e-4 + (u - 0.5) * (u - 0.5)), 0.0, 2.0),
            # inf at the first panel's centre gives that panel a nan error
            # estimate; once it is split the remaining estimates are finite
            (lambda u: np.where(u == 1.5, np.inf, 1.0 / (1.0 + u * u)), 0.0, 3.0),
        ]
        for f, a, b in cases:
            try:
                r = quad_interval(f, a, b, tol=tol, max_evals=budget)
                got = (r.value, r.abs_error_estimate, r.evaluations)
            except QuadratureError as err:
                got = (err.value, err.abs_error_estimate, err.evaluations)
            assert got == node_by_node_quad(f, a, b, tol, budget)

    def test_exponential(self):
        r = quad_semi_infinite(lambda u: np.exp(-u), 0.0, tol=1e-10)
        assert r.value == pytest.approx(1.0, abs=1e-10)
        assert r.abs_error_estimate >= 0.0
        assert r.evaluations > 0

    def test_rational(self):
        r = quad_semi_infinite(lambda u: 1.0 / (1.0 + u) ** 2, 0.0, tol=1e-10)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_log_kernel(self):
        r = quad_semi_infinite(lambda u: np.log(u) / (1.0 + u) ** 2, 1.0, tol=1e-10)
        assert r.value == pytest.approx(math.log(2.0), abs=1e-10)

    def test_split_invariance(self):
        f = lambda u: np.log1p(u) / (1.0 + u) ** 3
        tol = 1e-10
        whole = quad_semi_infinite(f, 0.0, tol=tol).value
        for split in (0.3, 1.0, 7.5):
            parts = (
                quad_interval(f, 0.0, split, tol=tol).value
                + quad_semi_infinite(f, split, tol=tol).value
            )
            assert abs(whole - parts) <= 2.0 * tol

    def test_deterministic(self):
        f = lambda u: np.exp(-u) * np.cos(u)
        a = quad_semi_infinite(f, 0.0, tol=1e-11)
        b = quad_semi_infinite(f, 0.0, tol=1e-11)
        assert (a.value, a.abs_error_estimate, a.evaluations) == (
            b.value,
            b.abs_error_estimate,
            b.evaluations,
        )

    def test_budget_exhaustion_carries_best_estimate(self):
        with pytest.raises(QuadratureError) as info:
            quad_semi_infinite(lambda u: np.exp(-u), 0.0, tol=1e-30, max_evals=200)
        err = info.value
        assert err.value == pytest.approx(1.0, abs=1e-6)
        assert err.abs_error_estimate >= 0.0
        assert err.evaluations <= 200

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            quad_semi_infinite(np.exp, math.inf, tol=1e-9)
        with pytest.raises(ValueError):
            quad_semi_infinite(np.exp, 0.0, tol=-1.0)
        with pytest.raises(ValueError):
            quad_interval(np.exp, 1.0, 0.0, tol=1e-9)
