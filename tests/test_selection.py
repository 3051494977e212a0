"""Served-user search: argmax reproduction, cross-engine agreement, tie rules."""

import math

import pytest

from dualsel import analytic, montecarlo
from dualsel.analytic import CapabilityError, EsrValue, SystemConfig
from dualsel.selection import SelectionResult, evaluate, select_served


def scalar(res):
    return res.esr if isinstance(res, montecarlo.EsrEstimate) else res.value


class TestSearch:
    def test_optimal_index_K4(self):
        assert select_served(4, 100.0, method="analytic").best_n == 3

    def test_optimal_index_K8(self):
        assert select_served(8, 100.0, method="analytic").best_n == 7

    def test_high_snr_engine_agrees_at_20db(self):
        assert select_served(4, 100.0, method="high_snr").best_n == 3
        assert select_served(8, 100.0, method="high_snr").best_n == 7

    def test_monte_carlo_engine(self):
        assert select_served(4, 100.0, method="montecarlo", trials=100_000, seed=2).best_n == 3
        assert select_served(8, 100.0, method="montecarlo", trials=100_000, seed=2).best_n == 7

    def test_covers_every_candidate_once(self):
        res = select_served(5, 10.0, method="analytic")
        assert [n for n, _ in res.esr_by_n] == [1, 2, 3, 4, 5]
        assert res.method == "analytic"
        # n = K evaluated as the TDMA-like slot
        tdma = analytic.esr_tdma_exact(5, 10.0)
        assert res.esr_of(5).value == tdma.value

    def test_cross_engine_agreement_K2(self):
        a = select_served(2, 100.0, method="analytic")
        m = select_served(2, 100.0, method="montecarlo", trials=1_000_000, seed=6)
        assert a.best_n == m.best_n

    def test_agreement_when_gap_dominates_noise(self):
        a = select_served(4, 100.0, method="analytic")
        m = select_served(4, 100.0, method="montecarlo", trials=100_000, seed=77)
        ranked = sorted((scalar(r) for _, r in a.esr_by_n), reverse=True)
        gap = ranked[0] - ranked[1]
        worst_se = max(
            r.std_error for _, r in m.esr_by_n if isinstance(r, montecarlo.EsrEstimate)
        )
        assert gap > 5.0 * worst_se
        assert a.best_n == m.best_n

    def test_single_peaked_at_20db_operating_points(self):
        for K in (4, 8):
            res = select_served(K, 100.0, method="analytic")
            vals = [scalar(r) for _, r in res.esr_by_n]
            peak = vals.index(max(vals))
            assert all(vals[i] < vals[i + 1] for i in range(peak))
            assert all(vals[i] > vals[i + 1] for i in range(peak, K - 1))

    def test_argmax_invariant_under_scaling(self):
        res = select_served(8, 100.0, method="analytic")
        nats = [(n, scalar(r)) for n, r in res.esr_by_n]
        bits = [(n, v / math.log(2.0)) for n, v in nats]
        assert max(bits, key=lambda p: p[1])[0] == res.best_n

    def test_tie_breaks_toward_smallest_n(self, monkeypatch):
        same = EsrValue(value=1.0, unclamped=1.0)
        monkeypatch.setattr(analytic, "esr_exact", lambda cfg, tol=1e-9: same)
        monkeypatch.setattr(analytic, "esr_tdma_exact", lambda K, rho: same)
        res = select_served(4, 100.0, method="analytic")
        assert res.best_n == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            select_served(4, 100.0, method="bogus")
        with pytest.raises(CapabilityError):
            select_served(25, 100.0)
        with pytest.raises(ValueError):
            select_served(1, 100.0)

    def test_esr_of_unknown_index(self):
        res = select_served(3, 10.0)
        with pytest.raises(KeyError):
            res.esr_of(9)

    def test_result_is_deterministic(self):
        a = select_served(4, 100.0, method="montecarlo", trials=5_000, seed=3)
        b = select_served(4, 100.0, method="montecarlo", trials=5_000, seed=3)
        assert a == b
        assert isinstance(a, SelectionResult)


CELL = SystemConfig(num_users=4, served_index=2, transmit_snr=10.0)


@pytest.mark.parametrize(
    "method, n, direct",
    [
        ("analytic", 2, lambda: analytic.esr_exact(CELL, tol=1e-9)),
        ("analytic", 4, lambda: analytic.esr_tdma_exact(4, 10.0)),
        ("high_snr", 2, lambda: analytic.esr_high_snr(CELL)),
        ("high_snr", 4, lambda: analytic.esr_tdma_high_snr(4, variant="corrected")),
        ("montecarlo", 2, lambda: montecarlo.estimate_esr(CELL, 3_000, 5)),
        ("montecarlo", 4, lambda: montecarlo.estimate_esr_tdma(4, 10.0, 3_000, 5)),
    ],
)
def test_evaluate_equals_the_direct_engine_call(method, n, direct):
    # n = K is the TDMA-like slot, answered by each engine's TDMA function
    assert evaluate(method, 4, n, 10.0, trials=3_000, seed=5, tol=1e-9) == direct()


@pytest.mark.parametrize("method", ["analytic", "high_snr", "montecarlo"])
@pytest.mark.parametrize("rho", [-1.0, 0.0, math.nan])
def test_tdma_cell_checks_rho_under_every_method(method, rho):
    # esr_tdma_high_snr takes no rho, so evaluate checks it for every engine
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        evaluate(method, 4, 4, rho, trials=100)
