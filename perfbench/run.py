"""scpm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload stream-deep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the engine is imported from its
``src/``.  One process, one thread, closed loop: the next call starts when
the previous one has returned.  With ``--trace 0`` the workload repeats
its cycle for about ``--seconds`` and the end-to-end metrics, adjusted
for the host's speed, are printed;
with ``--trace 1`` one cycle runs under the span tracer, the same cycle
runs again untraced, and the per-layer metrics are printed.  Output
checks run after the timed section.  The last stdout line is the result object; the
line before it records the machine, versions, commit and seed.  Exit code
1 means an output check failed, 2 a usage or checkout error.
"""

import os

# Pin BLAS pools before numpy is imported: the benchmark is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_tail10_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be in [1, 600]")
    return args


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(seed):
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "scpm").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def run_cycles(wl, rec, n_cycles=None, deadline=None, before_cycle=None):
    """Run whole cycles, n_cycles of them or as many as end by the deadline
    at the pace of the cycles so far (at least one), calling
    ``before_cycle`` ahead of each.  With a speed probe on the recorder,
    each cycle starts with a probe sample, and the probe's sample count
    at each cycle's end goes to ``rec.cycle_marks``.  Returns the number
    of cycles."""
    cycles = 0
    start = time.perf_counter_ns()
    while n_cycles is None or cycles < n_cycles:
        if deadline is not None and cycles:
            now = time.perf_counter_ns()
            if now + (now - start) / cycles > deadline:
                break
        if before_cycle is not None:
            before_cycle()
        if rec.speed is not None:
            rec.speed.sample()
        for i in range(wl.cycle_rounds):
            wl.round(i, rec)
        cycles += 1
        if rec.speed is not None:
            rec.cycle_marks.append(len(rec.speed.samples))
        wl.end_cycle()
    return cycles


def op_metrics(calls_ns, latency_ns, ops_per_cycle):
    """ops_per_s, latency_p50_us and latency_tail10_us from per-cycle call
    times and op latencies, arrays of shape (cycles, calls) and (cycles,
    ops).  Every cycle makes the same calls in the same order, so each call
    is taken at the mean of its repeats, one per cycle.  Throughput is the
    ops of a cycle over the sum of its calls' mean times; the latency
    metrics are the median and the mean of the slowest tenth of the timed
    ops' mean latencies."""
    import numpy as np

    mean_lat = np.mean(latency_ns, axis=0) / 1e3
    return {
        "ops_per_s": ops_per_cycle / (np.mean(calls_ns, axis=0).sum() / 1e9),
        "latency_p50_us": float(np.percentile(mean_lat, 50)),
        "latency_tail10_us": float(np.sort(mean_lat)[-max(1, mean_lat.size // 10):].mean()),
    }


def measure(wl, seconds, probe):
    """Untraced run of whole cycles for about ``seconds``: the end-to-end
    metrics.  ``probe`` is a second instance of the workload whose set-up
    is timed before each cycle, so that the set-ups spread over the run.

    The host is shared, and its speed swings by up to 2x for seconds or
    minutes at a time.  Times are the thread's CPU time (see ``Recorder``),
    and each is divided by a speed factor read from the reference loop of
    ``hostspeed``: a call's by the mean factor of its cycle, a set-up's
    by the factor read just before and just after it.  Means, not
    medians, because the slow spells come and go within a cycle: a mean
    over a cycle's reference samples and a mean over its calls both weigh
    a slow spell by its length.  The unadjusted figures and the factors
    go to the info line.
    """
    import numpy as np
    import hostspeed

    setup_ns = []
    setup_speed = hostspeed.SpeedProbe()

    def timed_setup():
        setup_speed.sample()
        t0 = time.thread_time_ns()
        probe.setup()
        setup_ns.append(time.thread_time_ns() - t0)
        setup_speed.sample()

    wl.setup()
    for _ in range(SETUP_REPEATS):
        timed_setup()
    rec = wl.recorder(speed=hostspeed.SpeedProbe())
    cycles = run_cycles(wl, rec, deadline=time.perf_counter_ns() + seconds * 10**9,
                        before_cycle=timed_setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not rec.latency_ns:
        fail("the run completed no timed op")
    ops_per_cycle = (rec.attempted - rec.failed) // cycles
    factor = rec.speed.factors(rec.cycle_marks)
    calls = np.asarray(rec.call_ns, dtype=float).reshape(cycles, -1)
    lat = np.asarray(rec.latency_ns, dtype=float).reshape(cycles, -1)
    setup_factor = setup_speed.factors(range(2, len(setup_speed.samples) + 1, 2))
    metrics = op_metrics(calls / factor[:, None], lat / factor[:, None], ops_per_cycle)
    metrics.update(setup_s=float(np.median(np.asarray(setup_ns) / setup_factor)) / 1e9,
                   peak_rss_mb=peak_rss_mb)
    raw = op_metrics(calls, lat, ops_per_cycle)
    raw["setup_s"] = statistics.median(setup_ns) / 1e9
    info = {"cycles": cycles, "latency_samples": len(rec.latency_ns),
            "setups": len(setup_ns), "speed_samples": len(rec.speed.samples),
            "speed_factor": factor.tolist(), "unadjusted": raw,
            "per_cycle_ops_per_s": (ops_per_cycle / (calls.sum(axis=1) / 1e9)).tolist(),
            "digest": wl.digest()}
    return rec, metrics, info, wl.check()


def measure_traced(wl, out_dir):
    """One cycle traced, then the same cycle untraced: the per-layer
    metrics.  ``trace.overhead_frac`` compares the two passes' call times,
    each divided by its host speed factor (see ``measure``)."""
    import hostspeed
    import tracing

    def adjusted_call_ns(rec):
        return sum(rec.call_ns) / rec.speed.factors(rec.cycle_marks)[0]

    wl.setup()
    tracer = tracing.Tracer()
    rec = wl.recorder(tracer, speed=hostspeed.SpeedProbe())
    with tracer.installed(wl.utilities()):
        run_cycles(wl, rec, n_cycles=1)
    traced_ns = adjusted_call_ns(rec)
    digest = wl.digest()
    failures = wl.check()
    spans = tracer.arrays()
    span_file = out_dir / f"spans-{wl.name}-seed{wl.seed}.npz"
    tracing.write_spans(span_file, tracer.names, spans)
    metrics, accounting = tracing.layer_metrics(spans, tracer.names, wl.kinds, rec.ops_by_kind)
    del tracer, spans

    wl.setup()
    plain = wl.recorder(speed=hostspeed.SpeedProbe())
    run_cycles(wl, plain, n_cycles=1)
    plain_ns = adjusted_call_ns(plain)
    if wl.digest() != digest:
        failures.append(f"traced and untraced runs differ: digest {digest} vs {wl.digest()}")
    metrics["trace.overhead_frac"] = traced_ns / plain_ns - 1.0
    info = {"cycles": 1, "spans_file": str(span_file.relative_to(ROOT)), "digest": digest,
            "fill_accounting": {k: {"solves_x_solve_us": e, "fill_us": f, "gap_share": g}
                                for k, (e, f, g) in accounting.items()}}
    if "all" in accounting:
        info["fill_gap_within_unattributed"] = bool(
            abs(accounting["all"][2]) <= metrics["trace.unattributed_frac"])
    return rec, metrics, info, failures


def check_benchmark_spec(units, trace):
    """The printed metrics must be exactly those BENCHMARK.json names."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if listed != units:
        fail("metrics disagree with BENCHMARK.json: "
             f"{sorted(set(listed.items()) ^ set(units.items()))}")


def main(argv=None):
    if not (ROOT / "src" / "scpm" / "__init__.py").is_file():
        fail(f"no engine source at {ROOT / 'src' / 'scpm'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    # QuadraticScore is not monotone; its negative prices are expected.
    warnings.filterwarnings("ignore", message="QuadraticScore produced negative prices")
    from workloads import WORKLOADS
    import tracing

    args = parse_args(argv, sorted(WORKLOADS))
    units = tracing.per_layer_units(WORKLOADS[args.workload].kinds) if args.trace else E2E_UNITS
    check_benchmark_spec(units, args.trace)

    out_dir = HERE / "out"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir)
        if args.trace:
            measured = measure_traced(wl, out_dir)
        else:
            probe_dir = work_dir / "probe"
            probe_dir.mkdir()
            probe = WORKLOADS[args.workload](args.seed, probe_dir)
            measured = measure(wl, args.seconds, probe)
        rec, metrics, info, failures = measured
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    info.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                process_peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                env=environment(args.seed), check_failures=failures[:20],
                errors=rec.errors[:20])
    result = {
        "correct": not failures,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    for message in failures[:20]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
