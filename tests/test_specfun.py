"""Special-function kernels against frozen values and independent oracles."""

import heapq
import math
import warnings

import numpy as np
import pytest
import scipy.special
from mpmath import mp

from dualsel.specfun import (
    EULER_GAMMA,
    QuadratureError,
    e1,
    e1_scaled,
    li2,
    quad_interval,
    quad_semi_infinite,
)
from dualsel.specfun import _E1_CHUNK, _WG, _WGK, _XGK, _e1_fraction_coefficients
from dualsel.specfun import _e1_cf_scaled, _e1_series, _gk15_reduce
from oracles import e1_cf_lentz, e1_series_loop, gk15_reduce_loop, li2_loop


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
        for bad in (0.0, -1.0, math.nan, math.inf, True, "1"):
            with pytest.raises(ValueError):
                e1(bad)
            with pytest.raises(ValueError):
                e1_scaled(bad)

    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_numpy_scalars_take_the_scalar_path(self, x):
        for fn in (e1, e1_scaled):
            for arg in (np.float64(x), np.array(x)):
                assert fn(arg) == fn(x)

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

    def test_continued_fraction_never_raises_and_keeps_its_bits(self):
        # The Lentz loop stops only at delta == 1.0 exactly, which some x
        # never reach (delta settles one ulp away): 710487372823.1483,
        # 1/10**-300 and about 13 % of x above 1.9e16 used to raise
        # RuntimeError. Those x take the array kernel; every x the loop
        # converges at keeps its bits.
        rng = np.random.default_rng(15)
        xs = 10.0 ** np.concatenate([rng.uniform(0.0, 300.0, 2000), rng.uniform(16, 18, 500)])
        xs = xs.tolist() + [710487372823.1483, 1 / 10.0**-300, 2 / 10.0**-300, 1e300, 1.7e308]
        stalled = []
        for x in xs:
            lentz = e1_cf_lentz(x)
            if lentz is None:
                stalled.append(x)
                assert e1_scaled(x) == e1_scaled(np.array([x]))[0]
            else:
                assert e1_scaled(x) == lentz
        assert {710487372823.1483, 1 / 10.0**-300} <= set(stalled) and len(stalled) > 50
        with mp.workdps(40):
            for x in stalled[:40]:
                want = float(mp.e1(x) * mp.exp(x))
                assert e1_scaled(x) == pytest.approx(want, rel=1e-15)
        assert e1(710487372823.1483) == 0.0

    def test_tuned_loops_keep_their_bits(self):
        # the scalar kernels' loops against their untuned forms, bit for bit
        rng = np.random.default_rng(23)
        above = 10.0 ** rng.uniform(0.0, 12.0, 3000)
        near = 1.0 + 10.0 ** rng.uniform(-15.0, -1.0, 500)
        for x in above.tolist() + near.tolist() + [1.0000001, 710487372823.1483, 1e12]:
            lentz = e1_cf_lentz(x)
            want = e1_scaled(np.array([x]))[0] if lentz is None else lentz
            assert _e1_cf_scaled(x) == want, x
        below = 10.0 ** rng.uniform(-300.0, 0.0, 3000)
        for x in below.tolist() + rng.uniform(0.0, 1.0, 1000).tolist() + [1.0, 5e-324]:
            if x > 0.0:
                assert _e1_series(x) == e1_series_loop(x), x


class TestE1Array:
    def test_matches_fifty_digit_reference(self):
        x = np.concatenate(
            [np.logspace(-8, 12, 400), [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]]
        )
        got = e1_scaled(x)
        with mp.workdps(50):
            for xv, g in zip(x.tolist(), got.tolist()):
                ref = mp.exp(mp.mpf(xv)) * mp.e1(mp.mpf(xv))
                assert abs(g - ref) <= 2e-15 * ref, xv

    def test_each_value_is_the_same_alone_as_in_a_long_array(self):
        # longer than two chunks, with both kernels' ranges in every chunk
        x = np.random.default_rng(7).permutation(np.logspace(-8, 12, 2 * _E1_CHUNK + 1))
        got = e1_scaled(x)
        assert got.tolist() == [float(e1_scaled(np.array([v]))[0]) for v in x.tolist()]

    def test_shape_and_agreement_with_the_scalar_path(self):
        x = np.array([[1e-6, 0.5, 1.0], [1.0001, 2.0, 1e6]])
        got = e1_scaled(x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        for xv, g in zip(x.ravel().tolist(), got.ravel().tolist()):
            assert g == pytest.approx(e1_scaled(xv), rel=2e-14)

    def test_one_bad_element_rejects_the_array(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                e1_scaled(np.array([0.5, bad, 2.0]))
        # numbers only: neither strings nor bools are converted
        for bad in (["1", "2"], [0.5, "2"], np.array([True, False])):
            with pytest.raises(ValueError, match="x must be positive and finite"):
                e1_scaled(bad)

    def test_scalar_path_is_pinned(self):
        # the series/Lentz path feeds alternating sums whose printed digits
        # are pinned, so its bits must not move
        pins = {
            1e-6: "0x1.a7a03a78b1a08p+3",
            0.5: "0x1.d887be0f4bedap-1",
            1.0: "0x1.3154710477cc6p-1",
            1.0001: "0x1.314f26af1a725p-1",
            2.0: "0x1.7200210293478p-2",
            30.0: "0x1.08847d7eeb232p-5",
            1e6: "0x1.0c6f6873c7a5fp-20",
        }
        for x, bits in pins.items():
            assert e1_scaled(x).hex() == bits

    def test_fraction_coefficients(self):
        # the table (coefficients of t = 1/x, numerator padded with a zero)
        # against the convergents built by the fraction's own recurrence
        for D in range(1, 91):
            p, q = convergent_polynomials(D)
            num, den = _e1_fraction_coefficients(D)
            assert num.tolist() == [float(c) for c in reversed(p)] + [0.0]
            assert den.tolist() == [float(c) for c in reversed(q)]
        # and against the closed forms B_k = D! C(D, k) / k! and
        # A_m = sum_k (-1)^k k! B_{m+1+k}, all positive
        B = [math.comb(D, k) * math.factorial(D) // math.factorial(k) for k in range(D + 1)]
        A = [sum((-1) ** k * math.factorial(k) * B[m + 1 + k] for k in range(D - m)) for m in range(D)]
        assert (p, q) == (A, B)
        assert min(A) > 0 and min(B) > 0


def convergent_polynomials(depth):
    """Numerator and denominator of the depth-th convergent of
    1/(x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...))) as exact integer coefficient
    lists in x (constant first), by the three-term recurrence
    y_j = (x + 2j + 1) y_(j-1) - j^2 y_(j-2)."""

    def step(cur, prev, j):
        out = [(2 * j + 1) * c for c in cur] + [0]
        for m, c in enumerate(cur):
            out[m + 1] += c
        for m, c in enumerate(prev):
            out[m] -= j * j * c
        return out

    p_prev, p, q_prev, q = [0], [1], [1], [1, 1]
    for j in range(1, depth):
        p_prev, p = p, step(p, p_prev, j)
        q_prev, q = q, step(q, q_prev, j)
    return p, q


class TestLi2:
    def test_endpoints(self):
        assert li2(0.0) == 0.0
        assert li2(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-15)
        assert li2(-1.0) == pytest.approx(-0.8224670334241132, abs=1e-14)

    def test_domain_errors(self):
        # True used to return pi^2/6 and "1" to escape as a TypeError
        for bad in (1.0000001, 2.0, math.nan, math.inf, -math.inf, True, False, "1", None):
            with pytest.raises(ValueError, match="li2 requires a finite argument <= 1"):
                li2(bad)

    def test_array_input(self):
        x = np.array([[-3.0, 0.25], [0.75, 1.0]])
        got = li2(x)
        assert got.shape == (2, 2)
        assert got.tolist() == [[li2(float(v)) for v in row] for row in x]
        assert li2(np.array(0.5)) == li2(0.5)
        assert isinstance(li2(np.array(0.5)), float)
        assert li2([-1, 0]).tolist() == [li2(-1.0), 0.0]
        assert li2(np.array([])).shape == (0,)

    @pytest.mark.parametrize(
        "bad",
        [
            [0.5, 1.5],
            [0.5, math.nan],
            [-math.inf, 0.5],
            np.array([True, False]),
            ["0.5", "0.25"],
            np.array([0.5 + 0j]),
            [[0.5], [2.0]],
        ],
        ids=["above-one", "nan", "-inf", "bool", "str", "complex", "nested"],
    )
    def test_one_bad_element_rejects_the_array(self, bad):
        with pytest.raises(ValueError, match="li2 requires finite arguments <= 1"):
            li2(bad)

    def test_matches_the_series_loop_to_the_bit(self):
        # li2 sums every series to a fixed depth; its value must be the
        # term-by-term loop's to the last bit, as a scalar and in an array
        rng = np.random.default_rng(20161018)
        x = np.concatenate([rng.uniform(-50.0, 1.0, 10_000), rng.uniform(-1.0, 1.0, 2_000)])
        edges = [0.0, -0.0, -1.0, 1.0, 1e-300, -1e-300, -1e6, -1e300, 2.0**-1074]
        for v in (0.5, -0.5):
            edges += [v, np.nextafter(v, 2.0), np.nextafter(v, -2.0)]
        x = np.concatenate([x, edges])
        want = [li2_loop(float(v)) for v in x]
        assert li2(x).tolist() == want
        assert [li2(float(v)) for v in x] == want

    def test_zero_keeps_a_plus_sign(self):
        for v in (0.0, -0.0):
            assert math.copysign(1.0, li2(v)) == 1.0
            assert math.copysign(1.0, li2(np.array([v]))[0]) == 1.0

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


def node_by_node_quad(f, a, b, tol, max_evals, points=()):
    """Reference adaptive GK15: one integrand call per node and an exact
    fsum of the error estimates after every split. The initial panels, cut
    from [a, b] at points, enter the heap left to right. Returns (value,
    error, evaluations), or the same triple of the exhausted budget's
    estimate."""

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

    edges = [a, *points, b]
    heap = []
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        val, err = panel(lo, hi)
        heapq.heappush(heap, (-err, i, lo, hi, val, err))
    evals, counter = 15 * len(heap), len(heap) - 1
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

    def test_panel_reduction_matches_its_loop_bitwise(self):
        # the unrolled reduction rounds as the loop does, in the same order:
        # the same bits for every panel, signed zeros and nan included
        rng = np.random.default_rng(24)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, math.inf, -math.inf, math.nan]

        def draw():
            r = rng.random()
            if r < 0.2:
                return special[rng.integers(len(special))]
            if r < 0.6:
                return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320.0, 308.0))
            return float(rng.normal())

        def bits(x):
            return "nan" if math.isnan(x) else x.hex()

        for _ in range(5_000):
            fx = [draw() for _ in range(15)]
            half = abs(draw()) if rng.random() < 0.3 else float(10.0 ** rng.uniform(-320.0, 300.0))
            got = [bits(v) for v in _gk15_reduce(fx, half)]
            assert got == [bits(v) for v in gk15_reduce_loop(fx, half)], (fx, half)

    def test_one_call_on_the_first_panel_then_one_per_split(self):
        # 15 nodes on the first call, then the 30 nodes of both halves of
        # each split, so 1 + (evaluations - 15) / 30 calls in all
        for quad, args in (
            (quad_interval, (0.0, 3.0)),
            (quad_semi_infinite, (1.0,)),
        ):
            sizes = []

            def f(u):
                sizes.append(u.shape)
                return np.log1p(u) / (1.0 + u) ** 3

            r = quad(f, *args, tol=1e-12)
            splits = (r.evaluations - 15) // 30
            assert splits > 0
            assert sizes == [(15,)] + [(30,)] * splits

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13, 1e-30])
    def test_matches_node_by_node_reference_from_breakpoints(self, tol):
        # the initial panels in one call, pushed left to right, and a running
        # total started at their exact sum make the reference's decisions
        budget = 6_000
        cases = [
            (lambda u: 1.0 / (1.0 + u * u), 0.0, 3.0, [0.375, 0.75, 1.5]),
            (lambda u: u * (1.0 - u) / (0.01 + (u - 0.3) * (u - 0.3)), 0.0, 1.0, [0.3]),
            (lambda u: (u - 0.5) * (u - 0.5) * (u - 0.5) / (1e-4 + (u - 0.5) * (u - 0.5)), 0.0, 2.0, [0.25, 0.5, 1.0, 1.75]),
            # inf at a centre gives that initial panel a nan error estimate
            (lambda u: np.where(u == 1.5, np.inf, 1.0 / (1.0 + u * u)), 0.0, 3.0, [1.0, 2.0]),
        ]
        for f, a, b, points in cases:
            try:
                r = quad_interval(f, a, b, tol=tol, max_evals=budget, points=points)
                got = (r.value, r.abs_error_estimate, r.evaluations)
            except QuadratureError as err:
                got = (err.value, err.abs_error_estimate, err.evaluations)
            assert got == node_by_node_quad(f, a, b, tol, budget, points)

    def test_a_breakpoint_at_the_first_split_saves_its_panel(self):
        # the first panel of [0, 3] is split, so starting from its two
        # halves makes the same panels: the same bits, 15 evaluations fewer
        sizes = []

        def f(u):
            sizes.append(u.shape)
            return np.log1p(u) / (1.0 + u) ** 3

        whole = quad_interval(f, 0.0, 3.0, tol=1e-12)
        assert whole.evaluations > 15
        sizes.clear()
        halves = quad_interval(f, 0.0, 3.0, tol=1e-12, points=[0.5 * (0.0 + 3.0)])
        assert sizes[0] == (30,)
        assert (halves.value, halves.abs_error_estimate) == (whole.value, whole.abs_error_estimate)
        assert halves.evaluations == whole.evaluations - 15

    @pytest.mark.parametrize("points", [[1.5], [0.25, 1.0, 2.0]])
    def test_one_call_on_the_initial_panels_then_one_per_split(self, points):
        sizes = []

        def f(u):
            sizes.append(u.shape)
            return np.log1p(u) / (1.0 + u) ** 3

        r = quad_interval(f, 0.0, 3.0, tol=1e-12, points=points)
        first = 15 * (len(points) + 1)
        splits = (r.evaluations - first) // 30
        assert splits > 0
        assert sizes == [(first,)] + [(30,)] * splits

    def test_initial_panels_are_evaluated_and_queued_in_panel_order(self):
        calls = []

        def f(u):
            calls.append(u.copy())
            return 1.0 / (1.0 + u * u)

        quad_interval(f, -3.0, 3.0, tol=1.0, points=(-1.0, 1.0))
        assert len(calls) == 1
        panels = calls[0].reshape(3, 15)
        for (lo, hi), nodes in zip(((-3.0, -1.0), (-1.0, 1.0), (1.0, 3.0)), panels):
            assert ((lo < nodes) & (nodes < hi)).all()
        # f is even, so the two panels of [-3, 3] at 0 have the same error
        # estimate to the bit; the tie goes to the left one, pushed first
        calls.clear()
        quad_interval(f, -3.0, 3.0, tol=1e-9, points=(0.0,))
        assert len(calls) > 1 and (calls[1] < 0.0).all()

    @pytest.mark.parametrize(
        "points",
        [
            [math.nan],
            [math.inf],
            ["0.5"],
            [True],
            [None],
            [0.6, 0.5],
            [0.5, 0.5],
            [0.0],
            [1.0],
            [-0.5],
            [2.0],
            0.5,
            "0.5",
            [[0.5]],
        ],
    )
    def test_bad_points(self, points):
        with pytest.raises(ValueError, match="points must be"):
            quad_interval(np.exp, 0.0, 1.0, points=points)

    def test_points_may_be_any_finite_reals_in_order(self):
        want = math.e - 1.0
        for points in ((0.5,), [0.25, np.float64(0.5)], np.array([0.1, 0.9])):
            r = quad_interval(np.exp, 0.0, 1.0, tol=1e-12, points=points)
            assert r.value == pytest.approx(want, abs=1e-12)
        assert quad_interval(np.exp, 0, 3, points=[1, 2]).value == pytest.approx(
            math.exp(3) - 1.0, abs=1e-9
        )

    @pytest.mark.parametrize("max_evals", [0, -5, True, 1.5, math.nan, 14, "200", None])
    def test_max_evals_must_cover_the_initial_panels(self, max_evals):
        # it used to go unchecked: the first panel's 15 evaluations were
        # spent whatever the budget
        with pytest.raises(ValueError, match="max_evals must be an integer of at least 15"):
            quad_interval(np.exp, 0.0, 1.0, max_evals=max_evals)
        with pytest.raises(ValueError, match="max_evals must be an integer of at least 15"):
            quad_semi_infinite(lambda u: np.exp(-u), 0.0, max_evals=max_evals)

    def test_max_evals_counts_every_initial_panel(self):
        with pytest.raises(ValueError, match="at least 45"):
            quad_interval(np.exp, 0.0, 1.0, max_evals=44, points=[0.25, 0.5])
        r = quad_interval(np.exp, 0.0, 1.0, max_evals=np.int64(45), points=[0.25, 0.5])
        assert r.evaluations == 45
        assert quad_interval(np.exp, 0.0, 1.0, max_evals=15).evaluations == 15

    @pytest.mark.parametrize(
        "integrand",
        [
            lambda u: 1.0,
            lambda u: np.float64(1.0),
            lambda u: np.exp(u)[:-1],
            lambda u: np.exp(u)[:, None],
            lambda u: np.exp(u).tolist(),
            lambda u: None,
        ],
        ids=["float", "numpy-scalar", "short", "2-D", "list", "None"],
    )
    def test_an_integrand_that_breaks_the_contract_is_refused(self, integrand):
        # these used to escape as AttributeError, IndexError or TypeError, or,
        # on [a, inf), to broadcast a scalar against the map's Jacobian
        match = "integrand must return an array of its nodes' shape"
        with pytest.raises(ValueError, match=match):
            quad_interval(integrand, 0.0, 1.0)
        with pytest.raises(ValueError, match=match):
            quad_interval(integrand, 0.0, 1.0, points=[0.5])
        with pytest.raises(ValueError, match=match):
            quad_semi_infinite(integrand, 0.0)

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

    @pytest.mark.parametrize("tol, raises", [(1e-16, False), (1e-18, True)])
    def test_a_node_that_rounds_to_one_stays_finite(self, tol, raises):
        # log(1+u)/(1+u)^2 is log-singular at v = 1, so bisection reaches
        # nodes that round to v = 1.0, where u = a + v/(1-v) would be inf.
        # The run must end in a value or a QuadratureError, with no warning
        # and finite nodes only.
        nodes_finite = []

        def f(u):
            nodes_finite.append(bool(np.isfinite(u).all()))
            return np.log1p(u) / (1.0 + u) ** 2

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if raises:
                with pytest.raises(QuadratureError):
                    quad_semi_infinite(f, 1.0, tol=tol, max_evals=20_000)
            else:
                r = quad_semi_infinite(f, 1.0, tol=tol, max_evals=20_000)
                assert r.value == pytest.approx((1.0 + math.log(2.0)) / 2.0, abs=1e-15)
        assert all(nodes_finite)

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_finite_nodes_keep_their_bits(self, tol):
        # the plain map u = a + v/(1-v), Jacobian 1/(1-v)^2, on [0, 1]: where
        # no node rounds to 1 the driver must give its bits
        cases = [
            (lambda u: np.exp(-u), 0.0),
            (lambda u: 1.0 / (1.0 + u) ** 2, 0.0),
            (lambda u: np.log(u) / (1.0 + u) ** 2, 1.0),
            (lambda u: np.log1p(u) / (1.0 + u) ** 2, 1.0),
            (lambda u: np.exp(-u) * np.cos(u), 0.0),
        ]
        for f, a in cases:

            def g(v):
                w = 1.0 - v
                return f(a + v / w) / (w * w)

            got, want = quad_semi_infinite(f, a, tol=tol), quad_interval(g, 0.0, 1.0, tol=tol)
            assert (got.value, got.abs_error_estimate, got.evaluations) == (
                want.value,
                want.abs_error_estimate,
                want.evaluations,
            )

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
        for tol in (-1.0, True, "1"):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                quad_semi_infinite(np.exp, 0.0, tol=tol)
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                quad_interval(np.exp, 0.0, 1.0, tol=tol)
        with pytest.raises(ValueError):
            quad_interval(np.exp, 1.0, 0.0, tol=1e-9)
        # False, True used to integrate over [0, 1], and "0" to escape as a
        # TypeError
        for a, b in (("0", 1.0), (0.0, "1"), (False, True), (0.0, True), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="need finite a < b"):
                quad_interval(np.exp, a, b)
        for a in ("0", False, None, -math.inf):
            with pytest.raises(ValueError, match="lower limit must be finite"):
                quad_semi_infinite(np.exp, a)
