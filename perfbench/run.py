"""Benchmark of bandgraph: band-sweep, certify-grid and lattice-count.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload band-sweep --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of that checkout.  One process runs
one workload in a closed loop on one thread: it draws the instances from
the seed, then repeats full passes over them until ``--seconds`` have
passed (at least three passes), checking every output against
``golden.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the
median pass time, the median time of the largest instance, the time
exponent along the n-ladders, this process's peak RSS and the set-up
time (median of fresh processes, started between the passes, that import
bandgraph and draw the inputs).  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics: self times of the spans in tracer.py, exact
counts, and tracemalloc peaks from a replay of the workload's largest
instances.

The last line of standard output is the JSON result; the lines before it
print every metric with its unit.  The full result, with provenance and
each instance's sizes, goes to ``perfbench/out/``, with the spans of a
traced run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 3
SETUP_PROBES = 9
MB = 2**20
# The self times of a traced pass must add up to its wall time within this share.
SELF_TIME_TOLERANCE = 0.01

# Runs in a fresh interpreter: import bandgraph and draw the inputs.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import bandgraph
import workloads
workloads.make_inputs(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""

# Per-layer time metrics and the span whose self times they sum.
LAYER_TIMES = {
    "core_graph.enumerate_s": "core_graph.enumerate",
    "numbering.build_s": "numbering.build",
    "numbering.validate_s": "numbering.validate",
    "numbering.evaluate_s": "numbering.evaluate",
    "bounds.eval_s": "bounds.eval",
    "solver.certify_s": "solver.certify",
    "solver.graph_s": "solver.graph",
    "solver.exact_s": "solver.exact",
    "geometry.count_s": "geometry.count",
    "geometry.measure_s": "geometry.measure",
}
# Per-layer peaks and the span they are taken over.
LAYER_PEAKS = {
    "numbering.build_peak_mb": "numbering.build",
    "numbering.evaluate_peak_mb": "numbering.evaluate",
    "geometry.count_peak_mb": "geometry.count",
}


@dataclasses.dataclass
class Pass:
    wall: float
    times: list  # seconds per instance, None where refused
    failures: list[str]
    spans: list = dataclasses.field(default_factory=list)
    checks: int = 0  # output checks attempted; failures lists the failed ones


def run_pass(workloads, instances, golden, tracer=None) -> Pass:
    """One closed-loop pass; a traced pass opens a root span around it."""
    times: list = [None] * len(instances)
    failures: list[str] = []
    t0 = time.perf_counter()
    if tracer is None:
        _loop(workloads, instances, golden, times, failures, None)
    else:
        with tracer.span("pass"):
            _loop(workloads, instances, golden, times, failures, tracer)
    wall = time.perf_counter() - t0
    return Pass(wall, times, failures, tracer.spans if tracer else [], len(instances))


def _loop(workloads, instances, golden, times, failures, tracer) -> None:
    for i, inst in enumerate(instances):
        reason = inst.refusal()
        if reason:
            failures.append(f"{inst.key}: refused, {reason}")
            continue
        if tracer is not None:
            tracer.instance = i
        t0 = time.perf_counter()
        try:
            out = workloads.run(inst)
        except Exception as e:  # a raising call is a failed check; the pass goes on
            out = f"raised {type(e).__name__}: {e}"
        times[i] = time.perf_counter() - t0
        if tracer is not None:
            tracer.instance = None
        if not workloads.check(inst, out, golden):
            failures.append(f"{inst.key}: got {out!r}, expected {golden.get(inst.key)!r}")


def median_times(passes: list[Pass]) -> list:
    out = []
    for per_pass in zip(*(p.times for p in passes)):
        done = [t for t in per_pass if t is not None]
        out.append(statistics.median(done) if done else None)
    return out


def time_exponent(instances, times) -> float:
    """Least-squares slope of log(time) on log(n) per ladder, averaged over
    the ladders of each k, then over k."""
    ladders = defaultdict(list)
    for inst, t in zip(instances, times):
        if inst.ladder and t:
            ladders[(inst.k, inst.ladder)].append((math.log(inst.n), math.log(t)))
    per_k = defaultdict(list)
    for (k, _), pts in ladders.items():
        if len({x for x, _ in pts}) < 2:
            continue
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        slope = sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)
        per_k[k].append(slope)
    if not per_k:
        raise ValueError("no ladder has two timed rungs")
    return statistics.fmean(statistics.fmean(s) for s in per_k.values())


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def provenance(workloads, seed: int) -> dict:
    import numpy

    return {
        "git_rev": _git_rev(),
        "src_sha256": workloads.source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def _git_rev() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(workloads, instances, golden, args) -> tuple[dict, dict, list[Pass]]:
    setup, passes = [], []
    start = time.perf_counter()
    # The set-up probes are spread over the run, between passes, so that they
    # meet the machine's slow drifts in speed as the passes do.
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        if time.perf_counter() - start >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(setup_seconds(args.workload, args.seed))
        passes.append(run_pass(workloads, instances, golden))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(args.workload, args.seed))
    times = median_times(passes)
    walls = [p.wall for p in passes]
    top = next(i for i, inst in enumerate(instances) if inst.top)
    q1, _, q3 = statistics.quantiles(walls, n=4)
    metrics = {
        "wall_s": statistics.median(walls),
        "top_rung_s": times[top],
        "time_exponent": time_exponent(instances, times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
        "setup_s": statistics.median(setup),
    }
    detail = {
        "pass_walls": walls,
        "wall_s_iqr": q3 - q1,
        "top_rung_times": [p.times[top] for p in passes],
        "setup_samples": setup,
        "instance_median_s": times,
    }
    return metrics, detail, passes


def per_layer(workloads, instances, golden, args) -> tuple[dict, dict, list[Pass]]:
    from tracer import BUILD, ENUMERATE, REPLAYS, VALIDATE, Tracer, self_times

    # tracemalloc replay of the instances that set the peaks: the most
    # vertices (the numbering build) and the largest (n+1)^2 lattice (the
    # evaluator tables, the lattice scan).
    by_vertices = max(range(len(instances)), key=lambda i: instances[i].vertices)
    by_cells = max(range(len(instances)), key=lambda i: instances[i].cells)
    measured = {by_vertices: frozenset(LAYER_PEAKS.values())}
    measured.setdefault(by_cells, frozenset(LAYER_PEAKS.values()) - {BUILD})
    memory = []
    for i, layers in measured.items():
        tracer = Tracer(peak_layers=layers)
        with tracer.installed():
            memory.append(run_pass(workloads, [instances[i]], golden, tracer))

    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(run_pass(workloads, instances, golden))
        tracer = Tracer()
        with tracer.installed():
            traced.append(run_pass(workloads, instances, golden, tracer))

    layer_totals = []
    traced_walls = []
    for p in traced:
        totals = defaultdict(float)
        selfs = self_times(p.spans)
        for s, t in zip(p.spans, selfs):
            totals[s.name] += t
        p.checks += 1
        if abs(sum(selfs) - p.wall) > SELF_TIME_TOLERANCE * p.wall:
            p.failures.append(f"self times add up to {sum(selfs):.6f} s, pass took {p.wall:.6f} s")
        layer_totals.append(totals)
        traced_walls.append(p.wall - sum(s.end - s.start for s in p.spans if s.name in REPLAYS))

    metrics = {
        metric: statistics.median(t[span] for t in layer_totals)
        for metric, span in LAYER_TIMES.items()
    }
    metrics["numbering.keys_s"] = statistics.median(
        t[BUILD] - t[VALIDATE] - t[ENUMERATE]
        for t in layer_totals
    )
    spans = traced[0].spans
    metrics["core_graph.vertices"] = sum(s.counts.get("vertices", 0) for s in spans)
    metrics["core_graph.classes"] = sum(s.counts.get("classes", 0) for s in spans)
    metrics["numbering.calls"] = sum(s.name == BUILD for s in spans)
    metrics["solver.exact_calls"] = sum(s.name == "solver.exact" for s in spans)
    for metric, span in LAYER_PEAKS.items():
        peaks = [s.peak_bytes for p in memory for s in p.spans if s.name == span and s.peak_bytes is not None]
        metrics[metric] = max(peaks, default=0) / MB
    # Each traced pass runs right after an untraced one; pairing them cancels
    # the machine's slow drifts in speed.
    metrics["trace.overhead_frac"] = statistics.median(
        (t - u.wall) / u.wall for t, u in zip(traced_walls, untraced)
    )

    detail = {
        "pass_counts": {"memory_replay": len(memory), "untraced": len(untraced), "traced": len(traced)},
        "untraced_walls": [p.wall for p in untraced],
        "traced_walls_without_replays": traced_walls,
        "memory_replay_instances": [instances[i].key for i in measured],
    }
    _write_json(
        OUT / f"spans-{args.workload}-seed{args.seed}.json",
        [
            {"pass": label, "spans": [vars(s) for s in p.spans]}
            for label, p in [(f"memory-{j}", p) for j, p in enumerate(memory)]
            + [(f"traced-{j}", p) for j, p in enumerate(traced)]
        ],
        indent=None,
    )
    return metrics, detail, memory + untraced + traced


def _write_json(path: Path, data, indent: int | None = 1) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(data, indent=indent))
    os.replace(tmp, path)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("band-sweep", "certify-grid", "lattice-count"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bandgraph" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a checkout of bandgraph (needs src/bandgraph and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bandgraph

    if Path(bandgraph.__file__).resolve().parent != SRC / "bandgraph":
        print(f"error: imported bandgraph from {bandgraph.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads(spec_path.read_text())
    instances = workloads.make_inputs(args.workload, args.seed)
    golden = workloads.load_golden()
    measure = per_layer if args.trace else end_to_end
    metrics, detail, passes = measure(workloads, instances, golden, args)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    attempted = sum(p.checks for p in passes)
    failures = [f for p in passes for f in p.failures]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(workloads, args.seed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
        "passes": len(passes),
        **detail,
        "instances": [{"key": inst.key, **dataclasses.asdict(inst)} for inst in instances],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    _write_json(path, result)

    print(
        f"bandgraph {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {detail.get('pass_counts', len(passes))}  {len(instances)} instances"
    )
    for name in units:
        print(f"  {name:28s} {metrics[name]:14.6g} {units[name]}")
    print(f"  {'fail_frac':28s} {result['fail_frac']:14.6g} (failed {len(failures)} of {attempted} checks)")
    if not args.trace:
        print(f"  wall_s spread (IQR over {len(passes)} passes): {detail['wall_s_iqr']:.6g} s")
    for f in failures[:5]:
        print(f"  FAILED {f}")
    print("  provenance: " + ", ".join(f"{k} {v}" for k, v in result["provenance"].items()))
    print(f"  result: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
