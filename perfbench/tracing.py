"""Span tracing from outside the engine, and the per-layer metrics it gives.

The tracer wraps the public functions of each scpm module at the place
where their callers look them up:

* ``scpm.cost`` is reached through ``importlib`` because the package
  attribute ``scpm.cost`` is the re-exported function, not the module;
* ``scpm.market`` binds ``cost.prices`` and ``cost.charge`` under its own
  names at import time, and ``scpm.analysis`` binds ``solve_t`` and
  ``cost.cost`` the same way, so those bindings are wrapped too;
* utility methods are wrapped on the instances the workload built, so an
  instance attribute shadows the class method only while tracing.

Spans stay in memory as ``[parent, name, t0, t1, a0, a1]`` lists and are
written out once, after the run.  ``a0``/``a1`` carry a few facts read
from the returned value: the solve path and bisection iterations of a
``solve_t``, whether a fill was accepted and whether it stopped at its
limit, the number of orders a CSV read returned, and the utility kind of
a root span.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

import numpy as np

PATHS = ("flat", "closed", "bisect")
ROOT_OP = "op"
ROOT_AUX = "aux"

COST_NAMES = ("solve_t", "prices", "cost", "charge")
MARKET_NAMES = ("fill", "apply", "quote", "settle", "run_orders",
                "read_orders_csv", "trace_record")
ANALYSIS_NAMES = ("worst_case_loss", "check_properness",
                  "identify_penalty_family", "risk_dual_check")
UTILITY_NAMES = ("value", "grad", "grad_sum", "solve_withdrawal")

# Spans whose time the per-layer metrics explain: cost solves, utility
# calls made outside a solve, the market calls that make no solve, and
# the analysis calls, timed whole.  Op time outside all of them is
# "unattributed": the fill and quote loops, wrapper and harness glue.
ACCOUNTED = ("cost.solve_t", "utilities.value", "utilities.grad",
             "utilities.grad_sum", "utilities.solve_withdrawal",
             "market.apply", "market.trace_record", "market.settle",
             "market.read_orders_csv", "analysis.worst_case_loss",
             "analysis.check_properness", "analysis.identify_penalty_family",
             "analysis.risk_dual_check")


def solve_path(result):
    """Classify a CostSolveResult: 0 flat, 1 closed form, 2 bisection."""
    if result.flat_objective:
        return 0
    return 2 if result.iterations > 0 else 1


def _solve_info(result, args):
    return solve_path(result), result.iterations


def _fill_info(f, args):
    return int(f.x_bar > 0.0), int(f.x_bar > 0.0 and f.x_bar == f.order.limit)


def _read_info(orders, args):
    return len(orders), 0


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.stack = [-1]

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, info=None):
        nid = self.name_id(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [stack[-1], nid, 0, 0, -1, -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if info is not None:
                rec[4], rec[5] = info(out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    def open_root(self, name, kind):
        rec = [-1, self.name_id(name), 0, 0, kind, -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter_ns()

    def close_root(self):
        self.spans[self.stack.pop()][3] = time.perf_counter_ns()

    @contextlib.contextmanager
    def installed(self, utilities):
        """Wrap the engine's public functions and the given utility
        instances; restore every binding on exit."""
        cost = importlib.import_module("scpm.cost")
        market = importlib.import_module("scpm.market")
        analysis = importlib.import_module("scpm.analysis")
        bindings = [(cost, n, "cost." + n) for n in COST_NAMES]
        bindings += [(market, "compute_prices", "cost.prices"),
                     (market, "compute_charge", "cost.charge")]
        bindings += [(market, n, "market." + n) for n in MARKET_NAMES]
        bindings += [(analysis, "solve_t", "cost.solve_t"),
                     (analysis, "compute_cost", "cost.cost")]
        bindings += [(analysis, n, "analysis." + n) for n in ANALYSIS_NAMES]
        infos = {"cost.solve_t": _solve_info, "market.fill": _fill_info,
                 "market.read_orders_csv": _read_info}
        saved = []
        try:
            for owner, attr, name in bindings:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, infos.get(name)))
            for u in utilities:
                for attr in UTILITY_NAMES:
                    setattr(u, attr, self.wrap("utilities." + attr, getattr(u, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            for u in utilities:
                for attr in UTILITY_NAMES:
                    u.__dict__.pop(attr, None)

    def arrays(self):
        a = np.array(self.spans, dtype=np.int64).reshape(-1, 6)
        return {"parent": a[:, 0], "name": a[:, 1], "t0": a[:, 2], "t1": a[:, 3],
                "a0": a[:, 4], "a1": a[:, 5]}


def write_spans(path, names, spans):
    np.savez_compressed(path, names=np.array(json.dumps(names)), **spans)


def _nearest(parent, mask):
    """Index of the nearest span at or above each span for which mask is
    true, or -1.  Parents precede children, so pointer jumping is exact."""
    idx = np.arange(parent.size)
    anc = np.where(mask, idx, parent)
    while True:
        pending = (anc >= 0) & ~mask[np.maximum(anc, 0)]
        if not pending.any():
            return anc
        anc = np.where(pending, parent[np.maximum(anc, 0)], anc)


def layer_metrics(spans, names, kinds, n_ops):
    """Per-layer metrics from the spans of one traced pass (as given by
    ``Tracer.arrays``), and the fill accounting of ``fill_accounting``.

    ``n_ops`` counts the op roots per kind index.  Per-kind metrics use the
    kind of the root span a span descends from; spans under a kindless
    root (kind -1) enter only the totals.
    """
    parent, name, a0, a1 = spans["parent"], spans["name"], spans["a0"], spans["a1"]
    dur = (spans["t1"] - spans["t0"]).astype(float)
    nid = {n: i for i, n in enumerate(names)}

    def is_name(n):
        return name == nid[n] if n in nid else np.zeros(name.size, bool)

    is_root = parent < 0
    child = np.zeros(name.size)
    np.add.at(child, parent[~is_root], dur[~is_root])
    self_t = dur - child
    root = _nearest(parent, is_root)
    kind_of = a0[root]
    layer_of = np.array([n.split(".")[0] for n in names])[name]

    total_ops = int(sum(n_ops))
    m = {}

    def per_op(x, ops):
        return float(x) / ops if ops else 0.0

    def mean(x):
        return float(np.mean(x)) if x.size else 0.0

    solve = is_name("cost.solve_t")
    fill = is_name("market.fill")
    fill_anc = _nearest(parent, fill)
    in_fill = fill_anc >= 0
    solves_in = np.zeros(name.size)
    np.add.at(solves_in, fill_anc[solve & in_fill], 1.0)
    accepted = fill & (a0 == 1)
    rejected = fill & (a0 == 0)

    n_accepted = []
    for k, kind in enumerate(kinds):
        mine = kind_of == k
        ops = n_ops[k]
        acc_k, rej_k = accepted & mine, rejected & mine
        n_accepted.append(int(acc_k.sum()))
        m[f"market.solves_per_fill.accepted.{kind}"] = mean(solves_in[acc_k])
        m[f"market.solves_per_fill.rejected.{kind}"] = mean(solves_in[rej_k])
        m[f"market.fill_us.accepted.{kind}"] = mean(dur[acc_k]) / 1e3
        m[f"market.fill_us.rejected.{kind}"] = mean(dur[rej_k]) / 1e3
        m[f"market.accept_ratio.{kind}"] = per_op(acc_k.sum(), (fill & mine).sum())
        m[f"market.limit_bound_share.{kind}"] = per_op((acc_k & (a1 == 1)).sum(), acc_k.sum())
        m[f"cost.bisect_iters_per_solve.{kind}"] = mean(a1[solve & mine].astype(float))
        m[f"cost.solves_per_op.{kind}"] = per_op((solve & mine).sum(), ops)
        m[f"cost.solve_us.{kind}"] = mean(dur[solve & mine]) / 1e3
        for layer in ("utilities", "cost", "market"):
            m[f"{layer}.self_us_per_op.{kind}"] = per_op(
                self_t[(layer_of == layer) & mine].sum() / 1e3, ops)

    for attr in UTILITY_NAMES:
        m[f"utilities.calls_per_op.{attr}"] = per_op(is_name("utilities." + attr).sum(), total_ops)
    n_solves = solve.sum()
    for p, path in enumerate(PATHS):
        on_path = solve & (a0 == p)
        m[f"cost.solve_us.{path}"] = mean(dur[on_path]) / 1e3
        m[f"cost.path_share.{path}"] = per_op(on_path.sum(), n_solves)
    for call in ("apply", "trace_record", "settle"):
        m[f"market.{call}_us"] = mean(dur[is_name("market." + call)]) / 1e3
    reads = is_name("market.read_orders_csv")
    m["market.read_orders_csv_us_per_order"] = per_op(dur[reads].sum() / 1e3, a0[reads].sum())
    for call in ANALYSIS_NAMES:
        m[f"analysis.{call}_s"] = mean(dur[is_name("analysis." + call)]) / 1e9
    in_analysis = _nearest(parent, layer_of == "analysis") >= 0
    m["analysis.solves_per_study"] = per_op((solve & in_analysis).sum(),
                                            is_name("analysis.worst_case_loss").sum())

    accounted = np.zeros(name.size, bool)
    for n in ACCOUNTED:
        accounted |= is_name(n)
    outer = accounted & (_nearest(parent, accounted)[np.maximum(parent, 0)] < 0)
    outer &= ~is_root
    root_time = dur[is_root].sum()
    m["trace.unattributed_frac"] = per_op(root_time - dur[outer].sum(), root_time)
    return m, fill_accounting(m, kinds, n_accepted)


PER_KIND = (
    ("market.solves_per_fill.accepted", "count"),
    ("market.solves_per_fill.rejected", "count"),
    ("market.fill_us.accepted", "us"),
    ("market.fill_us.rejected", "us"),
    ("market.accept_ratio", "ratio"),
    ("market.limit_bound_share", "ratio"),
    ("cost.bisect_iters_per_solve", "count"),
    ("cost.solves_per_op", "count"),
    ("cost.solve_us", "us"),
    ("utilities.self_us_per_op", "us"),
    ("cost.self_us_per_op", "us"),
    ("market.self_us_per_op", "us"),
)


def per_layer_units(kinds):
    """Name -> unit of every metric layer_metrics returns."""
    units = {f"{name}.{kind}": unit for name, unit in PER_KIND for kind in kinds}
    units.update({f"utilities.calls_per_op.{a}": "count" for a in UTILITY_NAMES})
    units.update({f"cost.solve_us.{p}": "us" for p in PATHS})
    units.update({f"cost.path_share.{p}": "ratio" for p in PATHS})
    units.update({f"market.{c}_us": "us" for c in ("apply", "trace_record", "settle")})
    units["market.read_orders_csv_us_per_order"] = "us"
    units.update({f"analysis.{c}_s": "s" for c in ANALYSIS_NAMES})
    units["analysis.solves_per_study"] = "count"
    units["trace.overhead_frac"] = "ratio"
    units["trace.unattributed_frac"] = "ratio"
    return units


def fill_accounting(m, kinds, n_accepted):
    """Solves per accepted fill x mean solve time against the mean accepted
    fill time, per kind and over all accepted fills ("all"), as
    (explained us, fill us, unexplained share).  Each kind takes a single
    solve path on these workloads, so its mean solve time is its path's."""
    rows = {}
    est_all = fill_all = 0.0
    for k, kind in enumerate(kinds):
        fill_us = m[f"market.fill_us.accepted.{kind}"]
        if fill_us > 0.0:
            est = m[f"market.solves_per_fill.accepted.{kind}"] * m[f"cost.solve_us.{kind}"]
            rows[kind] = (est, fill_us, (fill_us - est) / fill_us)
            est_all += est * n_accepted[k]
            fill_all += fill_us * n_accepted[k]
    if fill_all > 0.0:
        n = sum(n_accepted)
        rows["all"] = (est_all / n, fill_all / n, (fill_all - est_all) / fill_all)
    return rows
