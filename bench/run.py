"""dualsel benchmark: closed-loop query workloads, checked answers, metrics.

Run from the repository root:

    python3 bench/run.py --workload exact-points --seed 1 --seconds 30 --trace 0
    python3 bench/run.py            # every workload, default seed and length

Each workload is one client in one process asking seeded queries one after
another (a closed loop). The run answers whole passes of the query list until
``--seconds`` have elapsed and at least 100 queries were asked, checks every
answer against the pinned tables in ``reference.json``, and prints one line
per metric, a provenance line, and, last, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with timings scaled to a
reference host speed (see CAL_REF_S) and the values as measured printed next
to them. ``--trace 1`` is the separate traced run: it answers the first pass
alternately without and with spans around dualsel's public functions,
reports the per-layer metrics per pass, and writes the spans to
``bench/out/``. Only the standard library and numpy are needed; the package
is imported from ``src/`` of the same checkout. See NOTES.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOAD_NAMES = ("exact-points", "mc-select", "cli-closed-form")
END_TO_END_UNITS = {
    "solve_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
MIN_QUERIES = 100
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170

# The machine the benchmark was tuned on (2 vCPUs of an Intel Xeon on a
# shared host) runs the same code up to 1.8x slower for seconds to minutes at
# a time. So the client times a fixed calibration loop (interpreted
# arithmetic plus small numpy calls, like the package's own mix) before every
# query. Each latency is scaled by CAL_REF_S / the median of the CAL_WINDOW
# samples on either side of it: the time the query would have taken at the
# speed where the loop takes CAL_REF_S, its median on that machine. Both the
# scaled and the measured values are printed.
CAL_ITERS = 20_000
CAL_NUMPY_CALLS = 300
CAL_WINDOW = 2
CAL_REF_S = 3.5e-3
CAL_REPEATS = 9


def import_package():
    """Import dualsel from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "dualsel", "__init__.py")):
        sys.exit(f"bench: no dualsel sources in {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import dualsel

    where = os.path.dirname(os.path.dirname(os.path.abspath(dualsel.__file__)))
    if where != SRC:
        sys.exit(f"bench: imported dualsel from {where}, not from {SRC}")


class Tally:
    """Attempted and failed queries, and the latencies of answered ones,
    both as measured and scaled to the reference speed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.raw_latencies = []
        self.errors = []

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def add(self, queries, outputs, latencies, scales=None):
        """Check every answer. Latencies are kept only when the pass was
        timed, which the factors scaling them to the reference speed mark."""
        for i, (q, out, latency) in enumerate(zip(queries, outputs, latencies)):
            self.attempted += 1
            if isinstance(out, Exception):
                self.fail(f"{q.label}: raised {type(out).__name__}: {out}")
                continue
            try:
                error = q.check(out)
            except Exception as exc:  # a malformed answer fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                self.fail(f"{q.label}: {error}")
            elif scales is not None:
                self.latencies.append(latency * scales[i])
                self.raw_latencies.append(latency)

    def check_digest(self, digest_fn, outputs, want, what):
        try:
            got = digest_fn(outputs)
        except Exception as exc:  # an output that cannot be digested fails
            got = f"{type(exc).__name__}: {exc}"
        if got != want:
            self.fail(f"{what}: Monte Carlo digest {got} is not the pinned {want}")


def calibrate():
    """Seconds for the fixed calibration loop: the host's current speed."""
    import numpy as np  # not at module level: setup_s times numpy's import

    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_ITERS):
        s += i * i
    x = np.linspace(0.1, 2.0, 16)
    total = 0.0
    for i in range(CAL_NUMPY_CALLS):
        total += float(np.exp(-x * i).sum())
    return time.perf_counter() - t0


def run_pass(queries, tracer=None):
    """Answer the queries one after another, timing the calibration loop
    before each. A query that raises is recorded as its exception and never
    retried. Returns the outputs, the latencies as measured, and for each
    latency the factor that scales it to the reference speed."""
    outputs, latencies, cal = [], [], []
    for q in queries:
        cal.append(calibrate())
        t0 = time.perf_counter()
        try:
            out = tracer.query(q.run) if tracer else q.run()
        except Exception as exc:  # counted as a failure by Tally.add
            out = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    w = CAL_WINDOW
    scales = [
        CAL_REF_S / statistics.median(cal[max(0, i - w) : i + w + 1]) for i in range(len(cal))
    ]
    return outputs, latencies, scales


def scaled_sum(latencies, scales):
    return sum(x * f for x, f in zip(latencies, scales))


def warm_up(wl, ref, tmpdir, tally):
    """Answer and check the workload's fixed warm-up query; not timed."""
    query = wl.warm_up(ref, tmpdir)
    outputs, latencies, _ = run_pass([query])
    tally.add([query], outputs, latencies)
    if wl.digest:
        tally.check_digest(wl.digest, outputs, ref["digests"][f"{wl.name}/warm-up"], "warm-up")


def measure(wl, ref, seed, seconds, tmpdir, tally):
    """Untraced passes until the time is up and enough queries were asked.
    Returns every pass's time to answer, scaled and as measured."""
    import workloads

    scaled, raw = [], []
    issued = 0
    start = time.perf_counter()
    while not raw or time.perf_counter() - start < seconds or issued < MIN_QUERIES:
        queries = wl.make_pass(ref, seed, len(raw), tmpdir)
        outputs, latencies, scales = run_pass(queries)
        tally.add(queries, outputs, latencies, scales)
        if wl.digest and not raw and seed == workloads.DEFAULT_SEED:
            want = ref["digests"][f"{wl.name}/first-pass"]
            tally.check_digest(wl.digest, outputs, want, "first pass")
        raw.append(sum(latencies))
        scaled.append(scaled_sum(latencies, scales))
        issued += len(queries)
    return scaled, raw, len(queries)


def measure_traced(wl, ref, seed, seconds, tmpdir, tally, spans_path):
    """Answer the first pass untraced, then traced, until the time is up.
    Every traced pass answers the same list, so counts repeat exactly."""
    import tracing

    queries = wl.make_pass(ref, seed, 0, tmpdir)
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        outputs, latencies, scales = run_pass(queries)
        tally.add(queries, outputs, latencies, scales)
        plain.append(scaled_sum(latencies, scales))
        with tracer.installed():
            outputs, latencies, scales = run_pass(queries, tracer)
        tally.add(queries, outputs, latencies, scales)
        traced.append(scaled_sum(latencies, scales))
    ratio = statistics.median(traced) / statistics.median(plain)
    metrics = tracing.per_layer(tracer, len(traced), ratio)
    tracer.write(spans_path)
    return metrics, len(traced), len(queries)


def measure_setup(name, tmpdir):
    """Median over fresh interpreters of the seconds to import dualsel
    (through the benchmark's query module) and answer the warm-up query,
    scaled and as measured. Each child times the calibration loop after."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{SRC!r}, {BENCH!r}]\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{name!r}].warm_up(None, {tmpdir!r}).run()\n"
        "elapsed = time.perf_counter() - t0\n"
        "import run, statistics\n"
        f"cal = statistics.median(run.calibrate() for _ in range({CAL_REPEATS}))\n"
        "print(repr(elapsed), repr(cal))\n"
    )
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        seconds, cal = (float(x) for x in done.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * CAL_REF_S / cal)
    return statistics.median(scaled), statistics.median(raw)


def _git(*args):
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_sha256():
    h = hashlib.sha256()
    for top, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            path = os.path.join(top, f)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed, queries):
    import numpy

    sha = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no", "--", "src")
    return {
        "git_sha": sha,
        "git_dirty": None if dirty is None else bool(dirty),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "queries": queries,
    }


def deciles(values):
    """(p50, p90); zeros when nothing was answered, which fails the run."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    d = statistics.quantiles(values, n=10, method="inclusive")
    return d[4], d[8]


def run_workload(name, seed, seconds, trace):
    """Measure one workload; print its metric lines, provenance and result."""
    import_package()
    import workloads

    wl = workloads.WORKLOADS[name]
    ref = workloads.load_reference()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    tally = Tally()
    lines = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        if trace:
            import tracing

            warm_up(wl, ref, tmpdir, tally)
            spans_path = os.path.join(OUT, f"spans-{tag}.csv.gz")
            metrics, passes, per_pass = measure_traced(
                wl, ref, seed, seconds, tmpdir, tally, spans_path
            )
            units = {m: unit for m, (unit, _) in tracing.PER_LAYER.items()}
            queries = {"per_pass": per_pass, "traced_passes": passes, "answered": tally.attempted}
            lines.append(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        else:
            setup_s, setup_raw = measure_setup(name, tmpdir)
            warm_up(wl, ref, tmpdir, tally)
            passes, passes_raw, per_pass = measure(wl, ref, seed, seconds, tmpdir, tally)
            p50, p90 = deciles(tally.latencies)
            raw50, raw90 = deciles(tally.raw_latencies)
            metrics = {
                "solve_s": statistics.median(passes),
                "query_ms_p50": 1e3 * p50,
                "query_ms_p90": 1e3 * p90,
                "setup_s": setup_s,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            timed = len(tally.latencies)
            queries = {"per_pass": per_pass, "passes": len(passes), "timed": timed}
            beyond = sum(1 for x in tally.latencies if x > p90)
            lines += [
                f"solve_s is the median over {len(passes)} passes of {per_pass} queries",
                f"query_ms_p50 and query_ms_p90 are over {timed} answered queries; "
                f"{beyond} lie beyond p90",
                f"setup_s is the median over {SETUP_REPEATS} fresh interpreters",
                f"timings are scaled to the reference speed; as measured: "
                f"solve_s {statistics.median(passes_raw):.6f} s, "
                f"query_ms_p50 {1e3 * raw50:.6f} ms, query_ms_p90 {1e3 * raw90:.6f} ms, "
                f"setup_s {setup_raw:.6f} s",
            ]
    fail_ratio = tally.failed / tally.attempted
    for metric, value in metrics.items():
        print(f"{metric:<36} {value:>16.6f} {units[metric]}")
    counts = f"({tally.failed} of {tally.attempted} queries)"
    print(f"{'fail_ratio':<36} {fail_ratio:>16.6f} 1  {counts}")
    for line in lines:
        print(f"# {line}")
    for error in tally.errors:
        print(f"bench: failed: {error}", file=sys.stderr)
    prov = provenance(name, seed, queries)
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        record = {"result": result, "fail_ratio": fail_ratio, "notes": lines, "provenance": prov}
        json.dump(record, fh, indent=1)
    print(json.dumps(result))


def run_all(seed, seconds, trace):
    """Run every workload in its own interpreter and combine the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name]
        argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.exit(f"bench: workload {name} exited with code {done.returncode}")
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
