"""Self-tests of the benchmark harness. Run from the repository root:

    python3 -m pytest -q bench
"""

import dataclasses
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import tracing  # noqa: E402  (needs the source path set up above)
import workloads  # noqa: E402
from dualsel.analytic import EsrValue  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return workloads.load_reference()


def labels(wl, ref, seed, index, tmp_path):
    return [q.label for q in wl.make_pass(ref, seed, index, str(tmp_path))]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_query_list_is_a_function_of_the_seed(name, ref, tmp_path):
    wl = workloads.WORKLOADS[name]
    first = labels(wl, ref, 5, 0, tmp_path)
    assert first == labels(wl, ref, 5, 0, tmp_path)
    assert first != labels(wl, ref, 6, 0, tmp_path)
    assert first != labels(wl, ref, 5, 1, tmp_path)


def test_exact_strata_cover_the_grid_once(ref):
    strata = workloads._exact_strata(ref)
    points = [p for stratum in strata for p in stratum]
    assert sorted(points) == sorted(workloads.exact_grid())
    assert {len(s) for s in strata} == {workloads.EXACT_STRATUM}


def small_queries(ref, tmpdir):
    """One cheap query per workload, so a traced pass crosses every layer."""
    w = workloads.WORKLOADS
    return [
        w["exact-points"].make_query((2, 1, 0), ref, tmpdir),
        w["mc-select"].make_query((3, 10, 7), ref, tmpdir),
        w["cli-closed-form"].make_query(("select", 3, None), ref, tmpdir),
        w["cli-closed-form"].make_query(("tdma", 3, None), ref, tmpdir),
    ]


def test_traced_run_restores_every_rebound_function(ref, tmp_path):
    before = [getattr(module, attr) for module, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    queries = small_queries(ref, str(tmp_path))
    with tracer.installed():
        assert all(
            getattr(module, attr) is not fn
            for (module, attr, _, _), fn in zip(tracing.TARGETS, before)
        )
        outputs, latencies, scales = run.run_pass(queries, tracer)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("a failing traced run")
    after = [getattr(module, attr) for module, attr, _, _ in tracing.TARGETS]
    assert all(a is b for a, b in zip(after, before))

    tally = run.Tally()
    tally.add(queries, outputs, latencies, scales)
    assert tally.failed == 0, tally.errors
    metrics = tracing.per_layer(tracer, 1, 1.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["specfun.quad.evals"] > 0
    assert metrics["montecarlo.trials"] == 3 * workloads.MC_TRIALS
    assert metrics["montecarlo.uniforms"] == 3 * workloads.MC_TRIALS * 8
    assert metrics["cli.rows"] == 3 + 13
    for name, (calls, total, own) in tracer.times().items():
        assert calls > 0 and 0 <= own <= total, name


def corrupt(query, change):
    return dataclasses.replace(query, run=lambda: change(query.run()))


def test_failures_are_counted_without_aborting(ref, tmp_path):
    good = small_queries(ref, str(tmp_path))
    exact, mc, cli_select, cli_tdma = good

    def boom():
        raise ValueError("query raised")

    def bump_csv(out):
        code, text = out
        lines = text.splitlines()
        cols = lines[1].split(",")
        cols[4] = repr(float(cols[4]) * (1 + 1e-8))
        return code, "\n".join([lines[0], ",".join(cols)] + lines[2:]) + "\n"

    bad = [
        workloads.Query("raises", boom, exact.check),
        corrupt(exact, lambda out: EsrValue(out.value + 1e-7, out.unclamped)),
        corrupt(mc, lambda out: dataclasses.replace(out, best_n=out.best_n % 3 + 1)),
        corrupt(cli_select, bump_csv),
        corrupt(cli_tdma, lambda out: (4, out[1])),
    ]
    queries = bad + good
    outputs, latencies, scales = run.run_pass(queries)
    assert len(outputs) == len(queries)
    tally = run.Tally()
    tally.add(queries, outputs, latencies, scales)
    assert (tally.attempted, tally.failed) == (len(queries), len(bad))
    assert len(tally.latencies) == len(good)


def test_monte_carlo_digest_catches_a_changed_bit(ref, tmp_path):
    wl = workloads.WORKLOADS["mc-select"]
    out = wl.warm_up(ref, str(tmp_path)).run()
    want = ref["digests"]["mc-select/warm-up"]
    tally = run.Tally()
    tally.check_digest(wl.digest, [out], want, "warm-up")
    assert tally.failed == 0
    n, est = out.esr_by_n[0]
    moved = dataclasses.replace(est, mean_cb=est.mean_cb + 2**-40)
    changed = dataclasses.replace(out, esr_by_n=((n, moved),) + out.esr_by_n[1:])
    tally.check_digest(wl.digest, [changed], want, "warm-up")
    assert tally.failed == 1


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    argv = [sys.executable, "bench/run.py", "--workload", "cli-closed-form", "--seconds", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
