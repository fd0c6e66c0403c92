"""Alternating parent/change benchmark pairs, written as BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent 14731b7 --change HEAD --label fixedcost \\
        --runs many-markets:80501-80510 --runs stream-deep:80511-80513 \\
        --claim many-markets:ops_per_s

Each revision is exported with ``git archive`` into its own directory, and
every run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` from that export, so both sides run their own committed files;
T is BENCHMARK.json's ``run_seconds``.
A pair is one seed run on both sides, the parent first on even pairs (the
first pair is pair 0).  For each workload the file keeps every run's
end-to-end metrics, the output digests and the two sides' quartiles, pairs
won and median ratio per metric.  Beside ``setup_s`` it keeps each run's
unadjusted set-up time from the info line, with its quartiles, since the
speed factor that adjusts set-ups moves with the process's state; and
each run's ``attempted`` op count, with its quartiles, since the harness
keeps a sample per op and ``peak_rss_mb`` grows with the count.  A claim
on WORKLOAD:METRIC is met when the change wins at least nine tenths of the
pairs, ties counting for neither, and its median is better than the
parent's by more than the parent's interquartile spread.  Every other workload and metric is
compared against the bound that BENCHMARK.json fixes for it.  The file is
rewritten after every pair, so a cut run keeps the pairs it finished.
Before any export or run, a ``--runs`` workload that BENCHMARK.json does
not declare or whose seeds are no range (none, not integers, or LO > HI),
or a ``--claim`` on a workload missing from ``--runs`` or on
a metric that is not end to end, prints one ``error:`` line and exits 2,
as a ``--parent`` or ``--change`` that git cannot export does.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0"


def seed_range(text):
    """The seeds of LO-HI or of LO alone, or None where text is neither or
    the range is empty."""
    lo, _, hi = text.partition("-")
    try:
        return list(range(int(lo), int(hi or lo) + 1)) or None
    except ValueError:
        return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--change", required=True, help="git revision of the change side")
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--runs", action="append", required=True, metavar="WORKLOAD:SEEDS",
                   help="a workload and its seeds, one pair per seed: 80501-80510 or 80501")
    p.add_argument("--claim", metavar="WORKLOAD:METRIC",
                   help="the one end-to-end metric whose gain is claimed")
    p.add_argument("--notes", default=None)
    args = p.parse_args(argv)
    args.runs = [(w, s) for w, _, s in (r.partition(":") for r in args.runs)]
    if args.claim is not None:
        args.claim = tuple(args.claim.split(":", 1))
    return args


def export(rev, dest):
    """The committed files of rev in dest; returns the full commit hash."""
    # git archive first: its error names a bad rev in one line.
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True).stdout.decode().strip()
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_one(tree, workload, seed, seconds):
    """(info, result) from one untraced perfbench run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:  # statistics.quantiles needs two points
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs, metrics):
    """Quartiles, pairs won and median ratio per metric, pairs matched by seed."""
    summary = {}
    for name, better in metrics.items():
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        sign = 1.0 if better == "higher" else -1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        summary[name] = {"better": better, "parent": quartiles(parent),
                         "change": quartiles(change), "pairs_won": f"{won}/{len(parent)}",
                         "median_ratio": statistics.median(change) / statistics.median(parent)}
    return summary


def run_pair(trees, report, section, i, seed, seconds, workload):
    """Pair i: one seed run on both sides, the parent first on even pairs,
    each run's row added to section."""
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    section["first_side"][str(seed)] = order[0]
    digests = {}
    for side in order:
        info, result = run_one(trees[side], workload, seed, seconds)
        env = info["env"]
        report["machine"] = {k: env[k] for k in ("nproc", "cpu", "python", "numpy", "scipy")}
        report["source_sha256"][side] = env["source_sha256"]
        section["all_correct"] &= result["correct"]
        section["failed_ops"][side] += result["failed"]
        digests[side] = info["digest"]
        row = {"seed": seed, "digest": info["digest"]}
        row.update({k: v["value"] for k, v in result["metrics"].items()})
        row["unadjusted_setup_s"] = info["unadjusted"]["setup_s"]
        row["attempted"] = result["attempted"]
        section["runs"][side].append(row)
    section["digests_equal_in_every_pair"] &= digests["parent"] == digests["change"]


def summarize_section(section, metrics, bounds):
    """The section's summary, its quartiles of the unadjusted set-ups and of
    the attempted counts, and its bound verdicts, from the pairs so far."""
    section["summary"] = summarize(section["runs"], metrics)
    for key in ("unadjusted_setup_s", "attempted"):
        section[key] = {side: quartiles([r[key] for r in rows])
                        for side, rows in section["runs"].items()}
    section["bounds"] = bound_verdicts(section, bounds)


def claim_verdict(section, metric):
    s = section["summary"][metric]
    won, n = map(int, s["pairs_won"].split("/"))
    parent, change = s["parent"], s["change"]
    gain = (change["median"] - parent["median"]) * (1.0 if s["better"] == "higher" else -1.0)
    spread = parent["q3"] - parent["q1"]
    met = 10 * won >= 9 * n and gain > spread
    return (f"{'met' if met else 'not met'}: median {parent['median']:.6g} -> "
            f"{change['median']:.6g} (ratio {s['median_ratio']:.4f}), {won}/{n} pairs, "
            f"gain {gain:.6g} against a parent interquartile spread of {spread:.6g}")


def bound_verdicts(section, bounds):
    """Per metric: within its bound, worse beyond it, or unresolved where the
    parent's own spread is wider than the bound."""
    out = {}
    for name, s in section["summary"].items():
        bound, sign = bounds[name], (1.0 if s["better"] == "higher" else -1.0)
        worse = sign * (1.0 - s["median_ratio"])
        spread = (s["parent"]["q3"] - s["parent"]["q1"]) / s["parent"]["median"]
        out[name] = ("worse beyond its bound" if worse > bound
                     else "unresolved" if spread > bound else "within its bound")
    return out


def _reason(exc):
    """The last line of a failed command's stderr, or the error itself."""
    lines = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else str(exc)


def usage_error(args, spec):
    """What is wrong with --runs or --claim against BENCHMARK.json, or None."""
    workloads = [w["name"] for w in spec["workloads"]]
    for workload, seeds in args.runs:
        if workload not in workloads:
            return f"unknown workload {workload!r} in --runs; expected one of {workloads}"
        if seed_range(seeds) is None:
            return f"--runs {workload}:{seeds} has no seeds; expected LO-HI with LO <= HI, or LO"
    if args.claim is None:
        return None
    if len(args.claim) != 2:
        return f"--claim {args.claim[0]} is not WORKLOAD:METRIC"
    if args.claim[0] not in (w for w, _ in args.runs):
        return f"--claim workload {args.claim[0]!r} has no --runs"
    metrics = [m["name"] for m in spec["end_to_end"]]
    if args.claim[1] not in metrics:
        return f"--claim metric {args.claim[1]!r} is not one of the end-to-end {metrics}"
    return None


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problem = usage_error(args, spec)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_path = ROOT / f"BENCH_{args.label}.json"
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        trees = {side: Path(work) / side for side in ("parent", "change")}
        commits = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            try:
                commits[side] = export(rev, trees[side])
            except (OSError, subprocess.CalledProcessError) as exc:
                print(f"error: cannot export {rev}: {_reason(exc)}", file=sys.stderr)
                return 2
        report = {"label": args.label, "claim": None, "result": None,
                  "command": COMMAND.format(seconds=seconds), "machine": None,
                  "parent_commit": commits["parent"], "change_commit": commits["change"],
                  "source_sha256": {},
                  "design": "alternating parent/change pairs, parent first on even pairs; "
                            "each side run from its own export of the files (git archive)"}
        if args.notes:
            report["notes"] = args.notes
        if args.claim:
            report["claim"] = (f"{args.claim[0]} {args.claim[1]} improves, winning at least nine "
                               f"tenths of the pairs, with the median better by more than the "
                               f"parent's interquartile spread")
        for workload, seeds in ((w, seed_range(s)) for w, s in args.runs):
            section = {"seeds": seeds, "all_correct": True, "failed_ops": {"parent": 0, "change": 0},
                       "digests_equal_in_every_pair": True, "first_side": {}, "summary": None,
                       "runs": {"parent": [], "change": []}}
            report[workload] = section
            for i, seed in enumerate(seeds):
                run_pair(trees, report, section, i, seed, seconds, workload)
                summarize_section(section, metrics, bounds)
                if args.claim and args.claim[0] == workload:
                    report["result"] = claim_verdict(section, args.claim[1])
                out_path.write_text(json.dumps(report, indent=1) + "\n")
                print(f"{workload} seed {seed}: pair {i + 1}/{len(seeds)} done", file=sys.stderr)
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
