"""Smoke test of the names the benchmark's span tracer binds.

perfbench/tracing.py wraps engine functions and utility methods by name,
so a refactor that drops or renames one of them breaks the benchmark
without failing any engine test.  The tracer is loaded from its file as
the benchmark loads it, installed on one market per kind and on the four
analysis entry points, and must record their spans and restore every
binding on exit.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

from scpm import MarketConfig, Order, make_utility
from scpm.utilities import KINDS

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_and_restores_engine_names():
    tracing = load_tracing()
    cost = importlib.import_module("scpm.cost")
    market = importlib.import_module("scpm.market")
    analysis = importlib.import_module("scpm.analysis")
    bindings = [(cost, n) for n in tracing.COST_NAMES]
    bindings += [(market, n) for n in ("compute_prices", "compute_charge", *tracing.MARKET_NAMES)]
    bindings += [(analysis, n) for n in ("solve_t", "compute_cost", *tracing.ANALYSIS_NAMES)]
    before = [getattr(owner, attr) for owner, attr in bindings]

    utilities = [make_utility(kind, n_outcomes=3) for kind in KINDS]
    u2 = make_utility("LMSR", n_outcomes=2)
    tracer = tracing.Tracer()
    with tracer.installed([*utilities, u2]):
        for u in utilities:
            state = market.new_market(MarketConfig(utility=u))
            market.fill(state, Order("t", 0.6, math.inf, np.array([1.0, 0.0, 0.0])))
            market.quote(state, np.array([0.0, 1.0, 1.0]))
        # positional, as perfbench/workloads.py calls them
        analysis.worst_case_loss(u2, "numeric", 7)
        analysis.check_properness(u2, 3, 7)
        analysis.identify_penalty_family(u2)
        analysis.risk_dual_check(u2, np.array([0.2, -0.1]), 50)
    spans = tracer.arrays()
    recorded = {tracer.names[i] for i in np.unique(spans["name"])}
    assert {"market.fill", "market.quote", "cost.solve_t",
            "utilities.solve_withdrawal"} <= recorded
    assert {"analysis." + n for n in tracing.ANALYSIS_NAMES} <= recorded
    # The numeric loss solves through analysis.solve_t, so its solves count
    # in analysis.solves_per_study.
    loss = np.flatnonzero(spans["name"] == tracer.name_id("analysis.worst_case_loss"))
    solves = spans["name"] == tracer.name_id("cost.solve_t")
    assert loss.size == 1 and np.count_nonzero(solves & (spans["parent"] == loss[0])) >= 2
    # check_properness calls the instance's traced grad, not the kind's
    # _grad hook, so utilities.calls_per_op.grad counts its calls.
    study = np.flatnonzero(spans["name"] == tracer.name_id("analysis.check_properness"))
    grads = spans["name"] == tracer.name_id("utilities.grad")
    assert study.size == 1 and np.any(grads & (spans["parent"] == study[0]))

    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(bindings, before))
    for u in [*utilities, u2]:
        assert not set(tracing.UTILITY_NAMES) & set(vars(u))
        assert all(callable(getattr(u, name)) for name in tracing.UTILITY_NAMES)
