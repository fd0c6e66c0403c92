"""Tests for the repository's tools."""

import importlib.util
from pathlib import Path

import pytest

def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_lines = load_tool("src_lines")
bench_pairs = load_tool("bench_pairs")
solve_split = load_tool("solve_split")


def test_src_lines_counts_code_apart_from_blanks_comments_and_docstrings():
    snippet = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line code

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string that is
    a value, not a docstring"""
    "a bare string"
    return math.sqrt(x), text
'''
    # Code: the import, the def, both lines of the assigned string, the return.
    assert src_lines.count(snippet) == (14, 5)


def test_src_lines_reports_a_failed_export_in_one_line(capsys):
    # An unknown revision, or a tree that is no git checkout, makes
    # git archive fail: one error line and exit 2, not a traceback.
    assert src_lines.main(["--against", "no-such-rev"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot export no-such-rev: ") and err.count("\n") == 1


def test_solve_split_prints_a_row_per_kind_and_size(capsys):
    # One call per cell: the table's shape and arithmetic, not its timings.
    assert solve_split.main(["--repeat", "1", "--number", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:5] == ["kind", "N", "_kernel", "solve_t", "the"]
    cells = [row.split() for row in rows]
    assert [(c[0], int(c[1])) for c in cells] == [
        (kind, n) for n in solve_split.SIZES for kind in solve_split.utilities.KINDS]
    for _, _, kernel, whole, rest in cells:
        assert float(kernel) > 0.0 and float(whole) > 0.0
        assert float(rest) == pytest.approx(float(whole) - float(kernel), abs=0.02)


def test_bench_pairs_keeps_each_runs_attempted_count(monkeypatch):
    # perfbench keeps a sample per op, so peak_rss_mb is read against the
    # op count: each run's row keeps it, and each side its quartiles.
    attempted = {("parent", 1): 100, ("change", 1): 130, ("parent", 2): 110,
                 ("change", 2): 150, ("parent", 3): 90, ("change", 3): 140}

    def run_one(tree, workload, seed, seconds):
        info = {"env": {"nproc": 2, "cpu": "cpu", "python": "3", "numpy": "2", "scipy": "1",
                        "source_sha256": tree}, "digest": "d", "unadjusted": {"setup_s": 0.01}}
        count = attempted[tree, seed]
        metrics = {"ops_per_s": count / 25.0, "peak_rss_mb": 40.0 + count / 100.0}
        return info, {"correct": True, "attempted": count, "failed": 0,
                      "metrics": {k: {"value": v} for k, v in metrics.items()}}

    monkeypatch.setattr(bench_pairs, "run_one", run_one)
    report = {"machine": None, "source_sha256": {}}
    section = {"all_correct": True, "failed_ops": {"parent": 0, "change": 0},
               "digests_equal_in_every_pair": True, "first_side": {},
               "runs": {"parent": [], "change": []}}
    trees = {"parent": "parent", "change": "change"}
    for i, seed in enumerate((1, 2, 3)):
        bench_pairs.run_pair(trees, report, section, i, seed, 25, "analysis")
    bench_pairs.summarize_section(section, {"ops_per_s": "higher", "peak_rss_mb": "lower"},
                                  {"ops_per_s": 0.2, "peak_rss_mb": 0.1})
    assert section["first_side"] == {"1": "parent", "2": "change", "3": "parent"}
    for side in ("parent", "change"):
        assert [r["attempted"] for r in section["runs"][side]] == [
            attempted[side, seed] for seed in (1, 2, 3)]
    assert section["attempted"]["parent"] == {"q1": 95.0, "median": 100, "q3": 105.0}
    assert section["attempted"]["change"] == {"q1": 135.0, "median": 140, "q3": 145.0}
    assert section["summary"]["peak_rss_mb"]["pairs_won"] == "0/3"


@pytest.mark.parametrize("args, message", [
    (["--runs", "no-such-workload:1"], "unknown workload 'no-such-workload'"),
    (["--runs", "analysis:1", "--claim", "analysis:no_such_metric"], "'no_such_metric'"),
    (["--runs", "analysis:1", "--claim", "analysis:cost.solve_us.LMSR"],
     "'cost.solve_us.LMSR'"),
    (["--runs", "analysis:1", "--claim", "stream-deep:ops_per_s"], "'stream-deep' has no --runs"),
    (["--runs", "analysis:1", "--claim", "analysis"], "not WORKLOAD:METRIC"),
    (["--parent", "no-such-rev", "--runs", "analysis:1"], "cannot export no-such-rev: "),
    (["--runs", "analysis"], "--runs analysis: has no seeds"),
    (["--runs", "analysis:x"], "--runs analysis:x has no seeds"),
    (["--runs", "analysis:1-x"], "--runs analysis:1-x has no seeds"),
    (["--runs", "analysis:5-3"], "--runs analysis:5-3 has no seeds"),
    (["--runs", "analysis:1", "--runs", "stream-deep:"], "--runs stream-deep: has no seeds"),
])
def test_bench_pairs_fails_before_any_run(monkeypatch, capsys, args, message):
    # A bad --runs or --claim is found before anything is exported, and a
    # revision git cannot export before any run: one error line and exit 2.
    exported = []

    def export(rev, dest):
        exported.append(rev)
        return real_export(rev, dest)

    real_export = bench_pairs.export
    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_one", lambda *a: pytest.fail("ran"))
    argv = ["--parent", "HEAD", "--change", "HEAD", "--label", "usage-check"] + args
    assert bench_pairs.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert exported == (["no-such-rev"] if "no-such-rev" in args else [])
    assert not (bench_pairs.ROOT / "BENCH_usage-check.json").exists()
