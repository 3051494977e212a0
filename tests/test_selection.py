"""Served-user search: argmax reproduction, cross-engine agreement, tie rules."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from dualsel import analytic, cli, montecarlo, specfun
from dualsel.analytic import CapabilityError, EsrValue, SystemConfig
from dualsel.selection import SelectionResult, evaluate, evaluate_cells, select_served


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
@pytest.mark.parametrize("rho", [-1.0, 0.0, math.nan, True, "10"])
def test_tdma_cell_checks_rho_under_every_method(method, rho):
    # esr_tdma_high_snr takes no rho, so evaluate checks it for every engine
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        evaluate(method, 4, 4, rho, trials=100)


@pytest.mark.parametrize("rho", [True, "10", math.nan, 0, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda rho: analytic.esr_tdma_exact(4, rho),
        lambda rho: montecarlo.estimate_esr_tdma(4, rho, 10, 0),
    ],
    ids=["esr_tdma_exact", "estimate_esr_tdma"],
)
def test_tdma_engines_refuse_a_rho_that_is_not_a_positive_real(call, rho):
    # True would run at rho = 1, and "10" used to escape as a TypeError;
    # evaluate's own check is covered by the test above
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        call(rho)


def test_a_numerical_failure_names_the_cell(monkeypatch):
    # the message gives (K, n, rho) and rho in dB; the CLI prints it on exit 4
    with pytest.raises(FloatingPointError, match=r"^K=4, n=3, rho=0.00251189 \(-26 dB\): "):
        evaluate("analytic", 4, 3, 10.0**-2.6)

    def stalled(*args, **kwargs):
        raise specfun.QuadratureError("quadrature budget exhausted", 0.5, 1e-3, 200_000)

    monkeypatch.setattr(analytic, "quad_interval", stalled)
    cell = r"^K=4, n=2, rho=100 \(20 dB\): quadrature"
    with pytest.raises(specfun.QuadratureError, match=cell) as exc:
        evaluate("analytic", 4, 2, 100.0)
    assert (exc.value.value, exc.value.abs_error_estimate, exc.value.evaluations) == (
        0.5, 1e-3, 200_000
    )


def cfg_of(K, n, rho):
    return SystemConfig(num_users=K, served_index=n, transmit_snr=rho)


def cold_high_snr(K, n, rho):
    # a lone call, outside any scan, so it computes every term afresh
    assert specfun._scan_terms.get() is None
    return analytic.esr_high_snr(cfg_of(K, n, rho))


@pytest.fixture
def li2_calls(monkeypatch):
    """[arguments, calls] of analytic.li2: an array call counts each element."""
    counts = [0, 0]
    real = analytic.li2

    def counted(x):
        counts[0] += np.size(x)
        counts[1] += 1
        return real(x)

    monkeypatch.setattr(analytic, "li2", counted)
    return counts


@pytest.fixture
def high_snr_calls(monkeypatch):
    """(cfg, result, inside a scan) of every esr_high_snr call."""
    seen = []
    real = analytic.esr_high_snr

    def spy(cfg):
        res = real(cfg)
        seen.append((cfg, res, specfun._scan_terms.get() is not None))
        return res

    monkeypatch.setattr(analytic, "esr_high_snr", spy)
    return seen


def distinct_xi_not_one(K):
    return {
        (K - n + 1 + j) / i - 1.0
        for n in range(1, K) for i in range(1, K - n + 1) for j in range(n)
    } - {1.0}


class TestScanSharing:
    """A high-SNR scan computes each xi's dilogarithm parts and each (K, n)'s
    varpi once, and a Monte Carlo scan draws each trial once. Its values are
    those of lone calls, bit for bit, and the shared work lasts exactly as
    long as the scan."""

    @pytest.mark.parametrize("K", range(2, 21))
    def test_select_served_cells_equal_cold_calls(self, K, high_snr_calls):
        res = select_served(K, 100.0, method="high_snr")
        assert len(high_snr_calls) == K - 1
        assert all(inside for _, _, inside in high_snr_calls)
        for n, value in res.esr_by_n[:-1]:
            assert value == cold_high_snr(K, n, 100.0)

    @pytest.mark.parametrize("K", [3, 12, 20])
    def test_cli_sweep_rho_cells_equal_cold_calls(self, K, high_snr_calls, tmp_path, capsys):
        n = K // 2
        argv = ["--mode", "sweep-rho", "--k", str(K), "--served", str(n),
                "--engine", "high-snr", "--rho-db", "10:60:5",
                "--manifest", str(tmp_path / "m.txt")]
        assert cli.main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(high_snr_calls) == len(rows) == 11
        for (cfg, value, inside), row in zip(high_snr_calls, rows):
            assert inside
            cold = cold_high_snr(K, n, cfg.transmit_snr)
            assert value == cold
            assert row.split(",")[4] == f"{cold.value:.12g}"

    def test_li2_runs_three_times_per_distinct_xi(self, li2_calls, tmp_path, capsys):
        argv = ["--mode", "sweep-n", "--k", "20", "--engine", "high-snr", "--rho-db", "20",
                "--manifest", str(tmp_path / "m.txt")]
        counts = []
        for _ in range(2):
            li2_calls[:] = [0, 0]
            assert cli.main(argv) == 0
            assert specfun._scan_terms.get() is None
            counts.append(li2_calls[0])
            # the scan's first call takes the xi of every registered cell at once
            assert li2_calls[1] == 1
        # the second scan recomputes everything: nothing outlived the first
        assert counts[0] == counts[1] == 3 * len(distinct_xi_not_one(20)) <= 378
        capsys.readouterr()

    def test_tdma_sweep_takes_one_public_e1_call_per_cell(self, monkeypatch, tmp_path, capsys):
        calls = []
        real = analytic.e1_scaled

        def counted(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(analytic, "e1_scaled", counted)
        argv = ["--mode", "sweep-rho", "--k", "20", "--engine", "tdma", "--rho-db", "0:60:5",
                "--manifest", str(tmp_path / "m.txt")]
        assert cli.main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == len(calls) == 13

    def test_mixed_scan_values_equal_lone_calls(self, high_snr_calls):
        # high-SNR cells at several n and rho, a duplicate, a Monte Carlo
        # cell and the TDMA-like slot: each value is its lone call's
        K, trials, seed = 9, 500, 3
        cells = [
            ("high_snr", 3, 100.0), ("high_snr", 7, 1e4), ("montecarlo", 4, 100.0),
            ("high_snr", 3, 100.0), ("high_snr", 1, 10.0), ("high_snr", 9, 100.0),
            ("high_snr", 7, 100.0),
        ]
        values = evaluate_cells(K, cells, trials, seed)
        assert specfun._scan_terms.get() is None
        for (method, n, rho), value in zip(cells, values):
            assert value == evaluate(method, K, n, rho, trials, seed)
        # an invalid n raises at its own turn, after the cells before it
        high_snr_calls.clear()
        with pytest.raises(ValueError, match="served index must be"):
            evaluate_cells(K, cells[:3] + [("high_snr", 0, 100.0)] + cells[3:], trials, seed)
        assert [(cfg.served_index, cfg.transmit_snr) for cfg, _, _ in high_snr_calls] == [
            (3, 100.0), (7, 1e4)
        ]
        assert specfun._scan_terms.get() is None

    def test_a_cell_that_cannot_be_evaluated_raises_at_its_own_call(self, high_snr_calls):
        # rho/2 underflows at the least subnormal rho: that cell, and no
        # other, raises, naming itself
        cells = [("high_snr", 2, 100.0), ("high_snr", 2, 5e-324), ("high_snr", 5, 100.0)]
        with pytest.raises(FloatingPointError, match=r"^K=9, n=2, rho=4.94066e-324 .*rho/2"):
            evaluate_cells(9, cells)
        assert [value for _, value, _ in high_snr_calls] == [cold_high_snr(9, 2, 100.0)]
        assert evaluate_cells(9, cells[::2]) == [cold_high_snr(9, n, 100.0) for n in (2, 5)]

    def test_one_shot_iterables_give_the_results_of_a_list(self):
        # high-SNR cells at two rho, Monte Carlo cells with n = K among them,
        # and an analytic cell, read once from a generator or an iterator
        K, trials, seed = 9, 500, 3
        cells = [
            ("high_snr", 3, 100.0), ("montecarlo", 4, 100.0), ("high_snr", 7, 1e4),
            ("montecarlo", 9, 100.0), ("analytic", 5, 100.0), ("high_snr", 1, 1e4),
            ("montecarlo", 2, 1e4),
        ]
        want = [repr(value) for value in evaluate_cells(K, cells, trials, seed)]
        assert len(want) == len(cells)
        for once in ((cell for cell in cells), iter(cells)):
            got = evaluate_cells(K, once, trials, seed)
            assert [repr(value) for value in got] == want  # repr keeps every bit

    def test_a_scan_past_one_broadcast_equals_cold_calls(self):
        # more rho than two chunks take at K = 20, at two n
        per_chunk = analytic._CHUNK_VALUES // (20 * 21)
        rhos = [10.0 ** (db / 10.0) for db in np.linspace(0.0, 80.0, 2 * per_chunk + 3)]
        cells = [("high_snr", n, rho) for rho in rhos for n in (1, 12)]
        values = evaluate_cells(20, cells)
        assert values == [cold_high_snr(20, n, rho) for _, n, rho in cells]

    def test_lone_calls_share_nothing(self, li2_calls):
        cold_high_snr(20, 10, 100.0)
        once = li2_calls[0]
        cold_high_snr(20, 10, 100.0)
        assert li2_calls[0] == 2 * once > 0

    def test_memo_is_dropped_when_a_scan_fails(self):
        with pytest.raises(ValueError):
            evaluate_cells(4, [("high_snr", 1, 100.0), ("bogus", 2, 100.0)])
        assert specfun._scan_terms.get() is None

    @pytest.mark.parametrize(
        "trials, seed, message",
        [(0, 3, "trials must be a positive integer, got 0"),
         (500, -1, "seed must be an unsigned 64-bit integer, got -1")],
        ids=["trials", "seed"],
    )
    def test_a_refused_monte_carlo_key_raises_at_its_own_cell(
        self, trials, seed, message, high_snr_calls
    ):
        # the scan registers no Monte Carlo cell under a key no estimator
        # takes; the estimator's own check raises at the Monte Carlo cell's
        # turn, after the high-SNR cell before it has run
        cells = [("high_snr", 3, 100.0), ("montecarlo", 4, 100.0)]
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate_cells(9, cells, trials, seed)
        assert [(cfg.served_index, res) for cfg, res, _ in high_snr_calls] == [
            (3, cold_high_snr(9, 3, 100.0))
        ]
        assert specfun._scan_terms.get() is None

    def test_a_seed_that_does_not_hash_is_refused_only_where_it_is_used(self):
        # the Monte Carlo scan key is built from the seed and trials as
        # given; one that cannot be a dict key must not break a scan that
        # ignores it, nor turn the estimator's refusal into a TypeError
        assert select_served(4, 10.0, method="high_snr", seed=[1]) == select_served(4, 10.0, "high_snr")
        with pytest.raises(ValueError, match=r"^seed must be an unsigned 64-bit integer, got \[1\]$"):
            select_served(4, 10.0, method="montecarlo", trials=50, seed=[1])
        with pytest.raises(ValueError, match=r"^trials must be a positive integer, got \{\}$"):
            select_served(4, 10.0, method="montecarlo", trials={}, seed=1)

    @pytest.mark.parametrize("method", ["high_snr", "montecarlo"])
    def test_threads_scan_independently(self, method):
        # more threads than cores, switching often, each scanning at its own
        # rho and (for Monte Carlo) its own seed, so no two share a draw
        rhos = (10.0, 100.0, 1e4, 1e6)

        def select(k):
            return select_served(12, rhos[k], method=method, trials=2_000, seed=k)

        serial = [select(k) for k in range(len(rhos))]
        threaded = [None] * len(rhos)
        start = threading.Barrier(len(rhos))

        def scan(k):
            start.wait(timeout=30)
            threaded[k] = select(k)

        workers = [threading.Thread(target=scan, args=(k,)) for k in range(len(rhos))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert threaded == serial


class TestUserCountFirst:
    """A scan checks K once, before it reads or builds any cell, so a refused
    K costs neither time nor memory in K."""

    @pytest.mark.parametrize("method", ["analytic", "montecarlo", "high_snr"])
    def test_select_served_refuses_before_building_cells(self, method):
        tracemalloc.start()
        try:
            with pytest.raises(CapabilityError):
                select_served(200_000, 100.0, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("K, error", [(21, CapabilityError), (1, ValueError), (4.0, ValueError)])
    def test_evaluate_cells_checks_K_before_reading_cells(self, K, error):
        def cells():
            raise AssertionError("the cells were read")
            yield

        with pytest.raises(error):
            evaluate_cells(K, cells())
        assert specfun._scan_terms.get() is None
