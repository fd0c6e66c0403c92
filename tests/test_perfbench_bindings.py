"""Smoke test of the names the benchmark's span tracer binds.

perfbench/tracing.py wraps engine functions and utility methods by name,
so a refactor that drops or renames one of them breaks the benchmark
without failing any engine test.  The tracer is loaded from its file as
the benchmark loads it, installed on one market per kind, and must
record solves and withdrawals and restore every binding on exit.
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
    tracer = tracing.Tracer()
    with tracer.installed(utilities):
        for u in utilities:
            state = market.new_market(MarketConfig(utility=u))
            market.fill(state, Order("t", 0.6, math.inf, np.array([1.0, 0.0, 0.0])))
            market.quote(state, np.array([0.0, 1.0, 1.0]))
    recorded = {tracer.names[i] for i in np.unique(tracer.arrays()["name"])}
    assert {"market.fill", "market.quote", "cost.solve_t",
            "utilities.solve_withdrawal"} <= recorded

    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(bindings, before))
    for u in utilities:
        assert not set(tracing.UTILITY_NAMES) & set(vars(u))
