"""The four benchmark workloads, the op recorder, and the output checks.

A workload is a cycle of ``cycle_rounds`` rounds, and each round visits
every utility kind.  The timed loop repeats the cycle on fresh markets
until the time is up, so every cycle does the same work: a cycle's
numbers differ from another's only by the host's noise, and every cycle
must produce the same output digest.  The outputs of the first cycle are
kept for the checks.  Inputs come from ``--seed`` alone and are built in
``setup``; the engine only ever sees the generated orders, bundles and
utilities.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

from scpm import analysis, market
from scpm.cost import SolverError, prices
from scpm.market import StaleFillError, UnboundedFillError
from scpm.oracle import brute_force_fill, quadrature_charge
from scpm.utilities import KINDS, DomainError, make_utility

from tracing import ROOT_AUX, ROOT_OP

# Typed engine errors: an op that raises one is counted as failed and its
# order is neither retried nor replaced.  Anything else is a harness bug.
ENGINE_ERRORS = (SolverError, DomainError, UnboundedFillError, StaleFillError)

B = 1.0
# The six 0/1 bundles over three states that are neither empty nor full.
BUNDLES3 = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                     [1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float)

# Oracle settings.  The step and both tolerances are acceptance criterion
# 8's.  The step scan starts SCAN_WINDOW below x_bar instead of at 0: the
# bundle price is nondecreasing along a fill (C is convex), and a scan
# from 0 costs x_bar / step solves, which for the long fills of
# stream-deep is minutes.  The quadrature uses QUAD_PANELS trapezoids
# (criterion 8 uses 10000) to keep the checks to a few seconds; fewer
# panels can only widen the quadrature's own error.
SCAN_STEP = 1e-4
SCAN_TOL = 2e-4
SCAN_WINDOW = 0.02
QUAD_PANELS = 1000
QUAD_TOL = {"MinSCPM": 1e-3}
QUAD_TOL_DEFAULT = 1e-4

SIMPLEX_TOL = 1e-9
PRICE_TOL = 1e-12


def expected_loss_bound(kind, b, n):
    """Analytic worst-case loss B + C(0) of the catalog (uniform priors)."""
    return {
        "LMSR": b * math.log(n),
        "ExponentialSCPM": b * math.log(n),
        "QuadraticScore": b * (n - 1) / n,
        "QuadSCPM": b * (n - 1) / n,
        "MinSCPM": 0.0,
        "LogSCPM": math.inf,
    }[kind]


class Recorder:
    """Runs and times the workload's ops, closed loop, one at a time.

    ``latency_ns`` holds the timed ops' latencies; ``call_ns`` the time
    of every call made through the recorder, ops and auxiliary calls
    alike, in call order.  Times are the thread's CPU time: the calls
    neither sleep nor wait on I/O, so on an idle host it equals their
    wall time, and on a shared one it leaves out the spells in which the
    host runs something else on the vCPU.  With a speed probe, the probe
    may run its reference loop before a call, outside the call's time.
    With a tracer, every op and every auxiliary call (market construction,
    settlement, CSV reads) becomes a root span carrying its utility kind.
    """

    def __init__(self, n_kinds, tracer=None, speed=None):
        self.tracer = tracer
        self.speed = speed
        self.cycle_marks = []
        self.latency_ns = []
        self.call_ns = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.ops_by_kind = [0] * n_kinds

    def op(self, kind, fn, *args, timed=True):
        if self.speed is not None:
            self.speed.maybe()
        self.attempted += 1
        self.ops_by_kind[kind] += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.open_root(ROOT_OP, kind)
        t0 = time.thread_time_ns()
        try:
            out = fn(*args)
        except ENGINE_ERRORS as exc:
            self.call_ns.append(time.thread_time_ns() - t0)
            self.failed += 1
            self.errors.append(f"{KINDS[kind]}: {type(exc).__name__}: {exc}")
            return None
        else:
            ns = time.thread_time_ns() - t0
            self.call_ns.append(ns)
            if timed:
                self.latency_ns.append(ns)
            return out
        finally:
            if tracer is not None:
                tracer.close_root()

    def aux(self, kind, fn, *args):
        if self.speed is not None:
            self.speed.maybe()
        tracer = self.tracer
        if tracer is not None:
            tracer.open_root(ROOT_AUX, kind)
        t0 = time.thread_time_ns()
        try:
            return fn(*args)
        finally:
            self.call_ns.append(time.thread_time_ns() - t0)
            if tracer is not None:
                tracer.close_root()


def fill_and_apply(state, order):
    f = market.fill(state, order)
    market.apply(state, f)
    return f


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def check_fill(u, f, recompute, failures):
    """Invariants every fill must satisfy; ``recompute`` also re-solves the
    bundle price at the fill's end point."""
    tag = f"{u.kind} fill {f.order.trader_id}"
    for label, p in (("before", f.prices_before), ("after", f.prices_after)):
        if abs(float(p.sum()) - 1.0) > SIMPLEX_TOL:
            failures.append(f"{tag}: prices {label} sum to {p.sum()!r}")
        if u.monotone and (p.min() < -PRICE_TOL or p.max() > 1.0 + PRICE_TOL):
            failures.append(f"{tag}: prices {label} leave [0, 1]")
    o, x = f.order, f.x_bar
    if not 0.0 <= x <= o.limit:
        failures.append(f"{tag}: x_bar {x!r} outside [0, {o.limit!r}]")
    if x == 0.0:
        if f.charge != 0.0:
            failures.append(f"{tag}: rejected fill charged {f.charge!r}")
        return
    if recompute:
        end_price = float(prices(u, f.q_before + o.bundle * x) @ o.bundle)
        if end_price > o.pi + PRICE_TOL:
            failures.append(f"{tag}: bundle price {end_price!r} above pi {o.pi!r} at x_bar")
    # Integral charge of a nondecreasing price between p(q)'a and pi.
    tol = 1e-8 * max(1.0, x)
    low = x * float(f.prices_before @ o.bundle)
    if not low - tol <= f.charge <= x * o.pi + tol:
        failures.append(f"{tag}: charge {f.charge!r} outside [{low!r}, {x * o.pi!r}]")


def check_fill_oracle(u, f, failures):
    """Criterion 8's step-scan fill and quadrature charge on one fill."""
    o, x = f.order, f.x_bar
    x0 = max(0.0, x - SCAN_WINDOW)
    start = market.new_market(market.MarketConfig(utility=u, initial_q=f.q_before + o.bundle * x0))
    shifted = market.Order(o.trader_id, o.pi, o.limit - x0, o.bundle)
    scan = x0 + brute_force_fill(start, shifted, step=SCAN_STEP)
    if abs(scan - x) > SCAN_TOL:
        failures.append(f"{u.kind} fill {o.trader_id}: step scan {scan!r} vs x_bar {x!r}")
    quad = quadrature_charge(u, f.q_before, o.bundle, x, panels=QUAD_PANELS)
    if abs(quad - f.charge) > QUAD_TOL.get(u.kind, QUAD_TOL_DEFAULT):
        failures.append(f"{u.kind} fill {o.trader_id}: quadrature {quad!r} vs charge {f.charge!r}")


def check_settlement(u, state, failures):
    bound = expected_loss_bound(u.kind, u.b, u.n)
    for outcome in range(u.n):
        rep = market.settle(state, outcome)
        check_report(u, state.q, state.collected, rep, bound, failures)


def check_report(u, q, collected, rep, bound, failures):
    profit = collected - float(q[rep.outcome])
    if rep.profit != profit:
        failures.append(f"{u.kind}: settlement profit {rep.profit!r}, expected {profit!r}")
    if math.isfinite(bound) and (profit < -bound - 1e-6 or not rep.bound_ok):
        failures.append(f"{u.kind}: loss {-profit!r} beyond B + C(0) = {bound!r}")


def sample_oracle_fills(us, fills_by_kind, rng, failures):
    """One seeded fill per kind, accepted if the kind has any."""
    for u, fills in zip(us, fills_by_kind):
        if not fills:
            continue
        pool = [f for f in fills if f.x_bar > 0.0] or fills
        check_fill_oracle(u, pool[int(rng.integers(len(pool)))], failures)


class Workload:
    """Base class.  ``setup`` builds the cycle's inputs from the seed and
    resets all state; ``round(i, rec)`` runs round i of the cycle through
    the recorder; ``end_cycle`` digests the cycle's outputs and keeps the
    first cycle's for ``check``."""

    name = ""
    kinds = KINDS
    cycle_rounds = 1

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir

    def recorder(self, tracer=None, speed=None):
        return Recorder(len(self.kinds), tracer, speed)

    def rng(self, stream):
        return np.random.default_rng([self.seed, stream])

    def open_markets(self):
        """One fresh market per utility."""
        return [market.new_market(market.MarketConfig(utility=u)) for u in self.us]

    def reset_outputs(self):
        self.outputs = []
        self.kept = None
        self.digests = []

    def end_cycle(self):
        self.digests.append(_digest(self.output_items()))
        if self.kept is None:
            self.kept = self.outputs
        self.outputs = []

    def digest(self):
        return self.digests[0]

    def check(self):
        failures = [f"cycle {i} digest {d} differs from cycle 0's {self.digests[0]}"
                    for i, d in enumerate(self.digests) if d != self.digests[0]]
        return failures + self.check_outputs(self.kept)


class StreamDeep(Workload):
    """N = 3 markets, one per kind, fed by informed traders.

    A round is a session: fresh markets with their own hidden beliefs take
    ``session_rounds`` orders each, read from CSV files written at set-up.
    """

    name = "stream-deep"
    cycle_rounds = 4
    session_rounds = 50
    chunk_rounds = 10
    belief_concentration = 3.0
    belief_noise = 0.05
    limit_mean = 20.0 * B

    def setup(self):
        rng = self.rng(1)
        n_kinds = len(KINDS)
        self.us = [make_utility(k, b=B, n_outcomes=3) for k in KINDS]
        rows = self.cycle_rounds * self.session_rounds
        beliefs = rng.dirichlet(np.full(3, self.belief_concentration),
                                size=(self.cycle_rounds, n_kinds))
        which = rng.integers(len(BUNDLES3), size=(rows, n_kinds))
        noise = rng.normal(0.0, self.belief_noise, size=(rows, n_kinds))
        limits = rng.exponential(self.limit_mean, size=(rows, n_kinds))
        fair = np.einsum("rkn,rkn->rk", beliefs.repeat(self.session_rounds, axis=0),
                         BUNDLES3[which])
        # One-sided noise: most orders are accepted, so the median order is
        # an accepted fill, not on the cliff between rejected and accepted.
        pis = np.clip(fair + np.abs(noise), 0.02, 0.98)
        texts = [";".join("1" if v else "0" for v in a) for a in BUNDLES3]
        pis, limits, which = pis.tolist(), limits.tolist(), which.tolist()
        self.paths = []
        for c in range(rows // self.chunk_rounds):
            path = self.work_dir / f"stream-{c:05d}.csv"
            lines = ["trader_id,pi,limit,bundle"]
            for r in range(c * self.chunk_rounds, (c + 1) * self.chunk_rounds):
                for k in range(n_kinds):
                    lines.append(f"s{r}-{k},{pis[r][k]!r},{limits[r][k]!r},{texts[which[r][k]]}")
            path.write_text("\n".join(lines) + "\n")
            self.paths.append(path)
        self.reset_outputs()
        for u in self.us:
            warm = market.new_market(market.MarketConfig(utility=u))
            market.run_orders(warm, [market.Order("warm", 0.5, 1.0, BUNDLES3[0])], [])

    def utilities(self):
        return self.us

    def round(self, i, rec):
        n_kinds = len(KINDS)
        states = rec.aux(-1, self.open_markets)
        traces = [[] for _ in KINDS]
        self.outputs.append((states, traces))
        first_chunk = i * self.session_rounds // self.chunk_rounds
        for j in range(self.session_rounds):
            at = j % self.chunk_rounds
            if at == 0:
                path = self.paths[first_chunk + j // self.chunk_rounds]
                chunk = rec.aux(-1, market.read_orders_csv, path, 3)
            for k in range(n_kinds):
                rec.op(k, market.run_orders, states[k], [chunk[at * n_kinds + k]], traces[k])

    def output_items(self):
        return (line for _, traces in self.outputs for trace in traces for line in trace)

    def check_outputs(self, sessions):
        failures = []
        fills = [[] for _ in KINDS]
        for states, _ in sessions:
            for k, (u, state) in enumerate(zip(self.us, states)):
                for f in state.journal:
                    check_fill(u, f, True, failures)
                check_settlement(u, state, failures)
                fills[k].extend(state.journal)
        sample_oracle_fills(self.us, fills, self.rng(11), failures)
        return failures


class ManyMarkets(Workload):
    """Fresh N = 3 markets of 50 retail orders each, then settlement.

    A round opens one market per kind.
    """

    name = "many-markets"
    cycle_rounds = 24
    orders_per_market = 50

    def setup(self):
        rng = self.rng(2)
        n_kinds = len(KINDS)
        self.us = [make_utility(k, b=B, n_outcomes=3) for k in KINDS]
        shape = (self.cycle_rounds, n_kinds, self.orders_per_market)
        which = rng.integers(len(BUNDLES3), size=shape)
        pis = rng.uniform(0.05, 0.95, size=shape).tolist()
        limits = rng.uniform(0.01, 0.3, size=shape).tolist()
        self.orders = [[[(f"m{r}-{k}-{j}", pis[r][k][j], limits[r][k][j], BUNDLES3[which[r, k, j]])
                         for j in range(self.orders_per_market)]
                        for k in range(n_kinds)] for r in range(self.cycle_rounds)]
        self.reset_outputs()
        for u in self.us:
            fill_and_apply(market.new_market(market.MarketConfig(utility=u)),
                           market.Order("warm", 0.5, 0.1, BUNDLES3[0]))

    def utilities(self):
        return self.us

    def _open(self, k, i):
        state = market.new_market(market.MarketConfig(utility=self.us[k]))
        return state, [market.Order(*row) for row in self.orders[i][k]]

    def _settle(self, state):
        return [market.settle(state, o) for o in range(state.config.n_outcomes)]

    def round(self, i, rec):
        for k in range(len(KINDS)):
            state, orders = rec.aux(k, self._open, k, i)
            for order in orders:
                rec.op(k, fill_and_apply, state, order)
            reports = rec.aux(k, self._settle, state)
            self.outputs.append((k, state, reports))

    def output_items(self):
        return ((k, tuple(s.q), s.collected) for k, s, _ in self.outputs)

    def check_outputs(self, markets):
        failures = []
        fills = [[] for _ in KINDS]
        for k, state, reports in markets:
            u = self.us[k]
            bound = expected_loss_bound(u.kind, u.b, u.n)
            for rep in reports:
                check_report(u, state.q, state.collected, rep, bound, failures)
            for f in state.journal:
                check_fill(u, f, True, failures)
            fills[k].extend(state.journal)
        sample_oracle_fills(self.us, fills, self.rng(12), failures)
        return failures


class QuoteWide(Workload):
    """N = 1024 combinatorial markets, one per kind: nine quotes per fill.

    A round is a session of ``session_rounds`` (9 quotes + 1 fill) per kind
    on fresh markets with their own hidden event probabilities.  Only the
    quotes are timed ops; the fills count in the throughput.
    """

    name = "quote-wide"
    cycle_rounds = 2
    session_rounds = 40
    n_events = 10
    quotes_per_fill = 9
    quote_checks_per_kind = 60
    fill_rechecks_per_kind = 40

    def setup(self):
        rng = self.rng(3)
        n_kinds = len(KINDS)
        n = 2 ** self.n_events
        bits = (np.arange(n)[None, :] >> np.arange(self.n_events)[:, None]) & 1
        groups = [(i,) for i in range(self.n_events)]
        groups += [(i, j) for i in range(self.n_events) for j in range(i + 1, self.n_events)]
        groups += [(i, j, l) for i in range(self.n_events) for j in range(i + 1, self.n_events)
                   for l in range(j + 1, self.n_events)]
        # Bundles: every event and every intersection of two or three events.
        self.bundles = np.array([np.prod(bits[list(g)], axis=0) for g in groups], dtype=float)
        members = np.zeros((len(groups), self.n_events))
        for g, events in enumerate(groups):
            members[g, list(events)] = 1.0
        self.us = [make_utility(k, b=B, n_outcomes=n) for k in KINDS]
        rows = self.cycle_rounds * self.session_rounds
        event_p = rng.uniform(0.2, 0.8, size=(self.cycle_rounds, n_kinds, self.n_events))
        fair = np.exp(np.log(event_p) @ members.T)
        self.quote_ids = rng.integers(len(groups), size=(rows, n_kinds, self.quotes_per_fill))
        self.fill_ids = rng.integers(len(groups), size=(rows, n_kinds))
        noise = rng.normal(0.0, 0.03, size=(rows, n_kinds))
        session = np.arange(rows)[:, None] // self.session_rounds
        self.pis = np.clip(fair[session, np.arange(n_kinds)[None, :], self.fill_ids] + noise,
                           0.02, 0.98)
        self.limits = rng.uniform(0.1, 1.0, size=(rows, n_kinds))
        self.reset_outputs()
        for u in self.us:
            warm = market.new_market(market.MarketConfig(utility=u))
            market.quote(warm, self.bundles[0])

    def utilities(self):
        return self.us

    def round(self, i, rec):
        states = rec.aux(-1, self.open_markets)
        quotes = []
        for r in range(i * self.session_rounds, (i + 1) * self.session_rounds):
            for k in range(len(KINDS)):
                state = states[k]
                for qid in self.quote_ids[r, k]:
                    v = rec.op(k, market.quote, state, self.bundles[qid])
                    quotes.append((k, state.q, qid, v))
                order = market.Order(f"w{r}-{k}", float(self.pis[r, k]), float(self.limits[r, k]),
                                     self.bundles[self.fill_ids[r, k]])
                rec.op(k, fill_and_apply, state, order, timed=False)
        self.outputs.append((states, quotes))

    def output_items(self):
        for states, quotes in self.outputs:
            yield from (v for *_, v in quotes)
            yield from ((f.x_bar, f.charge) for state in states for f in state.journal)

    def check_outputs(self, sessions):
        failures = []
        rng = self.rng(13)
        fills = [[] for _ in KINDS]
        for states, quotes in sessions:
            by_kind = [[] for _ in KINDS]
            for item in quotes:
                by_kind[item[0]].append(item)
            for k, items in enumerate(by_kind):
                u = self.us[k]
                picks = rng.choice(len(items), size=min(len(items), self.quote_checks_per_kind),
                                   replace=False) if items else []
                for i in picks:
                    _, q, qid, v = items[i]
                    p = prices(u, q)
                    if abs(float(p.sum()) - 1.0) > SIMPLEX_TOL:
                        failures.append(f"{u.kind} quote: prices sum to {p.sum()!r}")
                    if u.monotone and (p.min() < -PRICE_TOL or p.max() > 1.0 + PRICE_TOL):
                        failures.append(f"{u.kind} quote: prices leave [0, 1]")
                    if v != float(p @ self.bundles[qid]):
                        failures.append(f"{u.kind} quote {v!r} differs from p(q)'a")
                journal = states[k].journal
                recheck = set(rng.choice(len(journal),
                                         size=min(len(journal), self.fill_rechecks_per_kind),
                                         replace=False).tolist()) if journal else set()
                for i, f in enumerate(journal):
                    check_fill(u, f, i in recheck, failures)
                check_settlement(u, states[k], failures)
                fills[k].extend(journal)
        sample_oracle_fills(self.us, fills, self.rng(14), failures)
        return failures


class Analysis(Workload):
    """table1-shaped studies for every kind at N = 2 and 3; a round is the
    study of one (kind, N) cell, and each analysis call in it is an op."""

    name = "analysis"
    n_samples = 50
    dual_grid = {2: 4000, 3: 400}

    def setup(self):
        rng = self.rng(4)
        self.cells = [(KINDS.index(k), n) for n in (2, 3) for k in KINDS]
        self.cycle_rounds = len(self.cells)
        self.us = [make_utility(KINDS[k], b=B, n_outcomes=n) for k, n in self.cells]
        self.seeds = rng.integers(2 ** 31, size=len(self.cells)).tolist()
        self.zs = [rng.uniform(-0.5, 0.5, size=n) for _, n in self.cells]
        self.reset_outputs()
        for u in self.us:
            analysis.worst_case_loss(u)
            analysis.check_properness(u, n_samples=1)

    def utilities(self):
        return self.us

    def round(self, i, rec):
        k, n = self.cells[i]
        u, seed = self.us[i], self.seeds[i]
        loss = rec.op(k, analysis.worst_case_loss, u, "numeric", seed)
        prop = rec.op(k, analysis.check_properness, u, self.n_samples, seed)
        penalty = dual = None
        if u.monotone:
            penalty = rec.op(k, analysis.identify_penalty_family, u)
            dual = rec.op(k, analysis.risk_dual_check, u, self.zs[i], self.dual_grid[n])
        self.outputs.append((i, (loss, prop, penalty, dual)))

    def output_items(self):
        return iter(self.outputs)

    def check_outputs(self, results):
        failures = []
        for c, (loss, prop, penalty, dual) in results:
            u = self.us[c]
            tag = f"{u.kind} N={u.n}"
            expected = expected_loss_bound(u.kind, u.b, u.n)
            if loss is not None:
                if math.isinf(expected):
                    if not math.isinf(loss.total):
                        failures.append(f"{tag}: numeric loss {loss.total!r}, expected unbounded")
                elif abs(loss.total - expected) > 1e-6 * max(1.0, expected):
                    failures.append(f"{tag}: numeric loss {loss.total!r}, expected {expected!r}")
            strict = u.kind != "MinSCPM"
            if prop is not None and (not prop.proper or prop.strictly_proper != strict):
                failures.append(f"{tag}: properness {prop}")
            if penalty is not None and penalty[0] != analysis.PENALTY_LABELS[u.kind]:
                failures.append(f"{tag}: penalty family {penalty[0]!r}")
            if dual is not None and dual.dual_gap > 1e-4:
                failures.append(f"{tag}: risk dual gap {dual.dual_gap!r}")
        return failures


WORKLOADS = {w.name: w for w in (StreamDeep, ManyMarkets, QuoteWide, Analysis)}
