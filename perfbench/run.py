#!/usr/bin/env python3
"""distgeo benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 15 --trace 0

Run from the root of a distgeo checkout; distgeo is imported from ./src.
A run makes its inputs from --seed, then repeats whole passes over them
(at least one pass of >= 100 queries) while another pass still fits in
--seconds of timed work.  Every answer is checked against an oracle built
from how its input was made.  The last stdout line is the result object;
the line before it is a detail record (environment, sample counts, failures).

--trace 0 reports the end-to-end metrics.  --trace 1 installs span-recording
wrappers on distgeo's public functions, runs one pass, and reports the
per-layer metrics listed in BENCHMARK.json; spans go to .perfbench_out/.
"""

import os

# The single-threaded baseline: pin BLAS and OpenMP before numpy loads; the
# CLI children inherit these variables.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
import speed
import tracing
import workloads as wls

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("spectral", "subsets", "sphere", "cli")
SETUP_REPEATS = 5
CLI_SETUP_REPEATS = 3
TWIN_EVERY = 4
TWIN_LOG10_RANGE = (-6.0, 6.0)
EIG_SIZES = (4, 8, 16, 32, 64, 128, 200)
CM_SIZES = (3, 4, 5, 6, 7, 8)
MENGER_CHECKED = ("base_checked", "flat2_checked", "flat3_checked", "flat3_anchored_checked")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --- environment ---------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# --- shared loop -----------------------------------------------------------------


def fresh_import():
    """Import distgeo from ./src as a first import would (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "distgeo" or m.startswith("distgeo.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    dg = importlib.import_module("distgeo")
    if not Path(dg.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"distgeo imported from {dg.__file__}, not from {SRC}")
    return dg


class Tally:
    """Latencies (raw and at reference speed) and per-key failure counts of
    the executed queries."""

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.runs = Counter()
        self.fails = Counter()
        self.reasons: dict = {}

    def add(self, key, dt: float, scaled: float, errs: list[str]) -> None:
        self.latencies.append(dt)
        self.scaled.append(scaled)
        self.runs[key] += 1
        if errs:
            self.fails[key] += 1
            self.reasons.setdefault(key, errs)

    def failed(self, twin_failed=()) -> int:
        """Executions that failed a check, counting every execution of an
        input whose scale twin failed."""
        return sum(self.runs[k] if k in twin_failed else self.fails[k] for k in self.runs)


def closed_loop(items, step, seconds: float, probe: speed.SpeedProbe):
    """Whole passes over items while another pass fits in the time budget.

    step(item) -> (key, seconds, failure reasons).  Time spent on checks
    and speed samples between queries is not counted.
    """
    tally = Tally()
    passes = 0
    probe.sample()
    while True:
        for item in items:
            key, dt, errs = step(item)
            tally.add(key, dt, probe.scaled(dt), errs)
        passes += 1
        timed = sum(tally.latencies)
        if timed + timed / passes > seconds:
            return tally, passes


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of all order statistics weighted by the Beta((n+1)p, (n+1)(1-p))
    mass over ((i-1)/n, i/n]; on this host it spreads about half as much
    between runs as the one or two order statistics of the sample quantile.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, max(20_000, 50 * n) + 1)
    inner = t[1:-1]
    log_pdf = (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def end_to_end(lat: list[float], failed: int, setup_times: list[float], peak_rss_kb: int) -> dict:
    attempted = len(lat)
    return {
        "queries_per_s": {"value": attempted / sum(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * hd_quantile(lat, 0.5), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * hd_quantile(lat, 0.9), "unit": "ms"},
        "ok_rate": {"value": 1.0 - failed / attempted, "unit": "frac"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
    }


def failure_list(tally: Tally, queries) -> list:
    return [{"query": k, "kind": queries[k].kind, "reasons": r} for k, r in sorted(tally.reasons.items())]


# --- in-process workloads ----------------------------------------------------------


def in_process_step(wl, dg, answers: dict):
    """The timed query; keeps the first answer of every twinned query."""

    def step(q):
        t0 = perf_counter()
        try:
            ans = wl.run(dg, q)
        except Exception as exc:  # a raising query is a failed query, not a failed run
            return q.qid, perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]
        dt = perf_counter() - t0
        if q.qid % TWIN_EVERY == TWIN_EVERY - 1:
            answers.setdefault(q.qid, ans)
        return q.qid, dt, wl.check(q, ans)

    return step


def setup_in_process(wl, warm, probe: speed.SpeedProbe):
    """Returns distgeo, raw and scaled setup times, and warm-up failures."""
    times, scaled = [], []
    probe.sample()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        dg = fresh_import()
        answers = [wl.run(dg, q) for q in warm]
        times.append(perf_counter() - t0)
        scaled.append(probe.scaled(times[-1]))
    errs = [e for q, a in zip(warm, answers) for e in wl.check(q, a)]
    return dg, (times, scaled), errs


def scale_twins(wl, dg, queries, answers, factors: dict) -> dict:
    """Ask every fourth query again at input x factor; untimed.  A query
    whose own answer raised has no twin (it failed already)."""
    failed = {}
    for qid in sorted(answers):
        f = factors[qid]
        tq = wl.scaled(queries[qid], f)
        try:
            ta = wl.run(dg, tq)
            errs = wl.check(tq, ta) + wl.agree(answers[qid], ta)
        except Exception as exc:  # the twin's failure is recorded, not raised
            errs = [f"raised {type(exc).__name__}: {exc}"]
        if errs:
            failed[qid] = {"query": qid, "kind": queries[qid].kind, "factor": f, "reasons": errs}
    return failed


def run_in_process(args, rng, detail, probe: speed.SpeedProbe) -> dict:
    wl = wls.IN_PROCESS[args.workload]
    t0 = perf_counter()
    queries, warm = wl.inputs(rng)
    twin_ids = [q.qid for q in queries if q.qid % TWIN_EVERY == TWIN_EVERY - 1]
    lo, hi = TWIN_LOG10_RANGE
    factors = {i: float(10.0 ** (lo + (hi - lo) * u)) for i, u in zip(twin_ids, wls.stratified(rng, len(twin_ids)))}
    detail["generation_s"] = perf_counter() - t0
    detail["queries_per_pass"] = len(queries)
    detail["kinds"] = dict(Counter(q.kind for q in queries))

    dg, (setup_times, setup_scaled), warm_errs = setup_in_process(wl, warm, probe)
    detail["setup_s_samples"] = setup_times
    detail["warmup_failures"] = warm_errs
    if args.trace:
        return traced_in_process(args, wl, dg, queries, rng, detail, warm_errs, probe)

    answers: dict = {}
    tally, passes = closed_loop(queries, in_process_step(wl, dg, answers), args.seconds, probe)
    twin_failed = scale_twins(wl, dg, queries, answers, factors)
    failed = tally.failed(twin_failed)
    detail.update(
        passes=passes,
        latency_samples=len(tally.latencies),
        timed_s=sum(tally.latencies),
        error_rate=failed / len(tally.latencies),
        timed_failures=failure_list(tally, queries),
        scale_twins_checked=len(answers),
        scale_twin_failures=list(twin_failed.values()),
    )
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    detail["raw_metrics"] = end_to_end(tally.latencies, failed, setup_times, rss)
    metrics = end_to_end(tally.scaled, failed, setup_scaled, rss)
    correct = not tally.fails and not warm_errs
    return {"correct": correct, "attempted": len(tally.latencies), "failed": failed, "metrics": metrics}


# --- cli workload ------------------------------------------------------------------


def run_cli(args, rng, detail, probe: speed.SpeedProbe) -> dict:
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = perf_counter()
        cmds, warm = wls.cli_inputs(rng, workdir)
        detail["generation_s"] = perf_counter() - t0
        detail["commands_per_pass"] = 2 * len(cmds)
        detail["kinds"] = dict(Counter(q.kind for q in cmds))
        env = child_env()
        setup_times, setup_scaled = [], []
        probe.sample()
        for _ in range(CLI_SETUP_REPEATS):
            t0 = perf_counter()
            warm_codes = [wls.cli_subprocess(argv, env, ROOT)[0] for argv in warm]
            setup_times.append(perf_counter() - t0)
            setup_scaled.append(probe.scaled(setup_times[-1]))
        warm_errs = [f"warm-up {argv} exited {c}" for argv, c in zip(warm, warm_codes) if c != 0]
        detail["setup_s_samples"] = setup_times
        detail["warmup_failures"] = warm_errs
        if args.trace:
            return traced_cli(args, cmds, env, detail, warm_errs, probe)

        previous = {}

        def step(item):
            q, rep = item
            t0 = perf_counter()
            result = wls.cli_subprocess(q.truth["argv"], env, ROOT)
            dt = perf_counter() - t0
            errs = wls.cli_check(q, result)
            if rep:
                errs += oracles.rerun(previous[q.qid], result)
            previous[q.qid] = result
            return (q.qid, rep), dt, errs

        items = [(q, rep) for q in cmds for rep in (0, 1)]
        tally, passes = closed_loop(items, step, args.seconds, probe)
        failed = tally.failed()
        detail.update(
            passes=passes,
            latency_samples=len(tally.latencies),
            timed_s=sum(tally.latencies),
            error_rate=failed / len(tally.latencies),
            timed_failures=[
                {"query": k[0], "run": k[1], "argv": cmds[k[0]].truth["argv"], "reasons": r}
                for k, r in sorted(tally.reasons.items())
            ],
        )
        # RUSAGE_CHILDREN reports the largest single child, not a sum.
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        detail["raw_metrics"] = end_to_end(tally.latencies, failed, setup_times, rss)
        metrics = end_to_end(tally.scaled, failed, setup_scaled, rss)
        correct = not tally.fails and not warm_errs
        return {"correct": correct, "attempted": len(tally.latencies), "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# --- traced runs ---------------------------------------------------------------------


def traced_pass(tracer: tracing.Tracer, queries, run_one, check, probe: speed.SpeedProbe):
    """One pass with a span around every query; returns per-query seconds
    at reference speed, failure reasons and answers."""
    times, failures, answers = {}, {}, {}
    probe.sample()
    for q in queries:
        tracer.query = q.qid
        sid = tracer.begin(tracing.QUERY_SPAN)
        t0 = perf_counter()
        try:
            ans = run_one(q)
            errs = None
        except Exception as exc:  # recorded as a failed query
            ans, errs = None, [f"raised {type(exc).__name__}: {exc}"]
        finally:
            dt = perf_counter() - t0
            tracer.end(sid)
        times[q.qid] = probe.scaled(dt)
        errs = errs if errs is not None else check(q, ans)
        if errs:
            failures[q.qid] = errs
        answers[q.qid] = ans
    return times, failures, answers


def untraced_times(queries, run_one, probe: speed.SpeedProbe) -> dict:
    """Per-query seconds at reference speed, without wrappers."""
    out = {}
    probe.sample()
    for q in queries:
        t0 = perf_counter()
        run_one(q)
        out[q.qid] = probe.scaled(perf_counter() - t0)
    return out


def layer_metrics(summary: dict) -> dict:
    calls, self_s, total, inside = summary["calls"], summary["self"], summary["total"], summary["inside"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for mod in tracing.LAYER_MODULES:
        put(f"{mod}.self_s", sum((v for k, v in self_s.items() if k.startswith(mod + ".")), 0.0), "s")
    for fn in (
        "matrices.symmetric_eigendecomposition",
        "matrices.double_center",
        "matrices.DistanceMatrix.restrict",
        "simplex.cayley_menger_determinant",
        "embedding.classify_edm",
        "sphere.inverse_circumradius",
    ):
        put(f"{fn}.calls", calls.get(fn, 0), "count")
        put(f"{fn}.self_s", self_s.get(fn, 0.0), "s")
    for fn in (
        "matrices.validate_distance_matrix",
        "matrices.realization_from_gram",
        "simplex.is_flat",
        "embedding.classical_mds",
        "semimetric.congruently_embeddable",
        "semimetric.verify_menger_criterion",
        "sphere.circumradius",
        "sphere.embed_on_sphere",
    ):
        put(f"{fn}.self_s", self_s.get(fn, 0.0), "s")
    put("sphere.chord_length.calls", calls.get("sphere.chord_length", 0), "count")
    ce, cls = "semimetric.congruently_embeddable", "embedding.classify_edm"
    # The first classify_edm of each congruently_embeddable call is the
    # global PSD test; the rest come from the witness search.
    put("semimetric.witness_classify_calls", max(0, inside.get((cls, ce), 0) - calls.get(ce, 0)), "count")
    return m


def menger_metrics(summary: dict, reports: list) -> dict:
    """Subset counts from the MengerReports of the pass (exact per seed)."""
    vm, cls = "semimetric.verify_menger_criterion", "embedding.classify_edm"
    checked = sum(getattr(r, f, 0) for r in reports for f in MENGER_CHECKED)
    base = sum(r.base_checked for r in reports)
    vm_total = summary["total"].get(vm, 0.0)
    base_classify = summary["inside"].get((cls, vm), 0)
    return {
        "semimetric.subsets_checked": {"value": checked, "unit": "count"},
        "semimetric.subsets_per_s": {"value": checked / vm_total if vm_total else 0.0, "unit": "1/s"},
        "semimetric.classify_per_base_subset": {"value": base_classify / base if base else 0.0, "unit": "ratio"},
    }


def sweeps(dg, rng, workload: str, detail) -> dict:
    """Layer sweeps of the workload's own layer, with numpy on the same
    inputs as context in the detail record."""
    m, context = {}, {}
    if workload == "spectral":
        for n in EIG_SIZES:
            b = rng.standard_normal((n, n))
            a = 0.5 * (b + b.T)
            t = tracing.median_time(lambda: dg.symmetric_eigendecomposition(a), 0.5, 15)
            m[f"matrices.eig_n{n}_ms"] = {"value": 1e3 * t, "unit": "ms"}
            context[f"numpy.eigh_n{n}_ms"] = 1e3 * tracing.median_time(lambda: np.linalg.eigh(a), 0.05, 200)
    if workload == "subsets":
        for k in CM_SIZES:
            d = oracles.edm(rng.standard_normal((k, k - 1)))
            sides = dg.SimplexSides(dg.validate_distance_matrix(d))
            bordered = np.ones((k + 1, k + 1))
            bordered[:k, :k] = d**2
            bordered[k, k] = 0.0
            t = tracing.median_time(lambda: dg.cayley_menger_determinant(sides), 0.3, 5000)
            m[f"simplex.cm_det_m{k}_us"] = {"value": 1e6 * t, "unit": "us"}
            context[f"numpy.det_m{k}_us"] = 1e6 * tracing.median_time(lambda: np.linalg.det(bordered), 0.05, 5000)
    detail["sweep_context"] = context
    return m


def traced(args, queries, run_one, check, sample, detail, probe):
    """One traced pass over queries, between two untraced halves of sample.

    Returns the span summary, the pass's answers and failures, the untraced
    times, and the traced-over-untraced overhead on sample.  Timing half of
    the sample on each side of the pass evens out a drift of host speed.
    """
    reference = untraced_times(sample[::2], run_one, probe)
    tracer = tracing.Tracer()
    detail["patched_names"] = tracer.install()
    try:
        t0 = perf_counter()
        times, failures, answers = traced_pass(tracer, queries, run_one, check, probe)
        wall_s = perf_counter() - t0
    finally:
        tracer.uninstall()
    reference.update(untraced_times(sample[1::2], run_one, probe))
    summary = tracing.summarize(tracer)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    self_sum = sum(summary["self"].values())
    bench_self = summary["self"].get(tracing.QUERY_SPAN, 0.0)
    detail["trace"] = {
        "spans": len(tracer),
        "spans_file": str(path.relative_to(ROOT)),
        "wall_s": wall_s,
        "self_sum_s": self_sum,
        "bench_self_s": bench_self,
        "distgeo_self_s": self_sum - bench_self,
        "outside_spans_s": wall_s - self_sum,
        "self_sum_over_wall": self_sum / wall_s,
    }
    detail["timed_failures"] = [{"query": k, "reasons": r} for k, r in sorted(failures.items())]
    overhead = sum(times[q.qid] for q in sample) / sum(reference.values()) - 1.0
    return summary, answers, failures, reference, overhead


def traced_result(metrics: dict, scaled: dict, queries, failures, warm_errs, probe, detail) -> dict:
    """Every per-layer metric of BENCHMARK.json; a layer the workload does
    not exercise reads 0.  Times in metrics are scaled to the run's median
    reference speed; those in scaled are per-query scaled already."""
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        if m["name"] not in scaled:
            metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})
    detail["raw_metrics"] = metrics
    metrics = {**speed.at_reference_speed(metrics, probe.scale()), **scaled}
    return {
        "correct": not failures and not warm_errs,
        "attempted": len(queries),
        "failed": len(failures),
        "metrics": dict(sorted(metrics.items())),
    }


def traced_in_process(args, wl, dg, queries, rng, detail, warm_errs, probe) -> dict:
    run_one = lambda q: wl.run(dg, q)  # noqa: E731
    summary, answers, failures, _, overhead = traced(
        args, queries, run_one, wl.check, queries[::TWIN_EVERY], detail, probe
    )
    metrics = layer_metrics(summary)
    reports = []
    if args.workload == "subsets":
        reports = [a[1] for a in answers.values() if a is not None and a[1] is not None]
    metrics.update(menger_metrics(summary, reports))
    metrics.update(sweeps(dg, rng, args.workload, detail))
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
    return traced_result(metrics, {}, queries, failures, warm_errs, probe, detail)


def startup_ms(code: str, env: dict, repeats: int = 5) -> float:
    """Median wall milliseconds of a python -c child."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def traced_cli(args, cmds, env, detail, warm_errs, probe) -> dict:
    interpreter = startup_ms("pass", env)
    with_numpy = startup_ms("import numpy", env)
    with_distgeo = startup_ms("import distgeo.cli", env)
    fresh_import()
    cli_module = importlib.import_module("distgeo.cli")
    run_one = lambda q: wls.cli_in_process(cli_module, q.truth["argv"])  # noqa: E731
    summary, _, failures, untraced, overhead = traced(args, cmds, run_one, wls.cli_check, cmds, detail, probe)
    metrics = layer_metrics(summary)
    metrics["cli.interpreter_ms"] = {"value": interpreter, "unit": "ms"}
    metrics["cli.numpy_import_ms"] = {"value": with_numpy - interpreter, "unit": "ms"}
    metrics["cli.import_ms"] = {"value": with_distgeo - with_numpy, "unit": "ms"}
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
    main_ms = {"cli.main_ms": {"value": 1e3 * statistics.mean(untraced.values()), "unit": "ms"}}
    return traced_result(metrics, main_ms, cmds, failures, warm_errs, probe, detail)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "distgeo" / "__init__.py").is_file():
        print(f"perfbench: no distgeo sources at {SRC}; run from a distgeo checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    detail = environment(args)
    detail["oracle_self_tests"] = oracles.self_test()
    rng = np.random.default_rng(args.seed)
    probe = speed.SpeedProbe()
    run = run_cli if args.workload == "cli" else run_in_process
    result = run(args, rng, detail, probe)
    detail["reference_loop_ms"] = 1e3 * statistics.median(probe.samples)
    detail["reference_samples"] = len(probe.samples)
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
