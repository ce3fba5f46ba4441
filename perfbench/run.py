"""distdom benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; distdom is imported from ./src.  The run
makes the workload's inputs from the seed (set-up), repeats whole rounds
of the workload until S seconds have passed (timed phase), then checks
the outputs with perfbench/checker.py.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it runs the first half of the time
untraced and the second half traced, and reports the per-layer metrics
plus the tracing overhead.  The last line of stdout is one JSON object;
the exit status is 0 only when every check passed.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
    "wcol_sum": "count",
    "dom_ratio": "ratio",
    "indep_ratio": "ratio",
}


def _import_distdom():
    """Import distdom from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "distdom", "__init__.py")):
        sys.exit(f"error: {SRC}/distdom not found; run from a distdom checkout")
    sys.path.insert(0, SRC)
    import distdom
    if os.path.dirname(os.path.dirname(os.path.abspath(distdom.__file__))) != SRC:
        sys.exit(f"error: distdom imported from {distdom.__file__}, not {SRC}")


# Median seconds of one _probe() on the reference host (a 2-vCPU x86-64
# virtual machine, Python 3.11) when it is not slowed by other tenants.
PROBE_REF_S = 0.0025


def _probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work that shares no
    code with distdom: integer and float arithmetic, list building, dict
    stores.  Its median over a run measures how fast the host runs Python
    code at the time of the run."""
    t = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(1500):
        row = [j * 1.5 for j in range(24)]
        acc += sum(row) + (i * i) % 7
        table[i % 101] = row
    return time.perf_counter() - t


def _timed_rounds(workload, instances, seconds: float):
    """Whole rounds until `seconds` have passed.  Returns the outputs of the
    first round, the output signatures of every round, the per-instance
    seconds of every round, and the probe seconds taken before each
    instance.  Later rounds keep signatures only, so that peak memory does
    not grow with the number of rounds."""
    first, signatures, times, probes = None, [], [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        outs, ts = [], []
        for inst in instances:
            probes.append(_probe())
            t = time.perf_counter()
            outs.append(workload.run_one(inst))
            ts.append(time.perf_counter() - t)
        if first is None:
            first = outs
        signatures.append([workload.signature(out) for out in outs])
        times.append(ts)
    return first, signatures, times, probes


def _round_seconds(times) -> float:
    """Seconds of one round, as the sum over instances of each instance's
    median time over the rounds: a burst of load from other processes on
    the host slows some rounds, and the median leaves it out."""
    return sum(statistics.median(col) for col in zip(*times))


def _host_slowness(probes) -> float:
    """How much slower the host ran Python during the run than the
    reference host: median probe time over PROBE_REF_S."""
    return statistics.median(probes) / PROBE_REF_S


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _import_distdom()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    instances = workload.make(args.seed)
    setup_s = time.perf_counter() - T_START

    tracer = None
    if args.trace:
        import tracer as tracing
        first, plain_sigs, plain_times, plain_probes = _timed_rounds(
            workload, instances, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracer.installed():
            _, traced_sigs, traced_times, traced_probes = _timed_rounds(
                workload, instances, args.seconds / 2)
        signatures = plain_sigs + traced_sigs
    else:
        first, signatures, times, probes = _timed_rounds(workload, instances,
                                                         args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = workload.check(instances, first, random.Random(args.seed))
    for i, sigs in enumerate(signatures[1:], start=2):
        if sigs != signatures[0]:
            failures.append(f"round {i} differs from round 1 on the same inputs")
    for msg in failures[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, len(traced_sigs))
        plain_s = _round_seconds(plain_times) / _host_slowness(plain_probes)
        traced_s = _round_seconds(traced_times) / _host_slowness(traced_probes)
        metrics["trace.overhead_pct"] = 100 * (traced_s - plain_s) / plain_s
        units = {name: unit for name, unit, _b in tracing.PER_LAYER}
    else:
        slowness = _host_slowness(probes)
        raw_rate = len(instances) / _round_seconds(times)
        print(f"host slowness {slowness:.4f}  raw setup_s {setup_s:.4f}  "
              f"raw instances_per_s {raw_rate:.4f}")
        metrics = dict(workload.quantities(first))
        metrics["setup_s"] = setup_s / slowness
        metrics["instances_per_s"] = raw_rate * slowness
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END_UNITS

    result = {
        "correct": not failures,
        "attempted": len(signatures) * len(instances),
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(os.path.join(OUT_DIR, f"spans-{stem}.json"))
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as f:
        json.dump(result, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {len(signatures)}  instances/round {len(instances)}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
