"""Command-line harness: quote, trade, simulate, converge, table1, verify.

Every number printed here comes from a library operation; the CLI only
loads files and formats output.  Exit codes: 0 success, 1 verification
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analysis, market as market_mod
from .cost import prices as compute_prices
from .oracle import cross_check
from .utilities import utility_from_dict


class ConfigError(Exception):
    pass


def load_market_config(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    try:
        utility = utility_from_dict(doc.get("utility"))
        return market_mod.MarketConfig(
            utility=utility,
            charging_mode=doc.get("charging_mode", "integral"),
            initial_q=doc.get("initial_q"),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad market config {path}: {exc}")


def _replay(state, orders_path):
    orders = market_mod.read_orders_csv(orders_path, state.config.n_outcomes)
    return market_mod.run_orders(state, orders)


def _parse_vector(text, n, what):
    try:
        return market_mod.parse_bundle(text, n)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}")


def _fmt(x):
    return f"{x:.6f}"


def cmd_quote(args):
    config = load_market_config(args.config)
    state = market_mod.new_market(config)
    if args.orders:
        _replay(state, args.orders)
    bundle = _parse_vector(args.bundle, config.n_outcomes, "bundle")
    p = compute_prices(config.utility, state.q)
    print(_fmt(float(p @ bundle)))
    print("prices: " + " ".join(_fmt(x) for x in p))
    return 0


def cmd_trade(args):
    config = load_market_config(args.config)
    state = market_mod.new_market(config)
    if args.orders:
        _replay(state, args.orders)
    order = market_mod.Order(
        trader_id="cli",
        pi=args.pi,
        limit=math.inf if args.limit is None else args.limit,
        bundle=_parse_vector(args.bundle, config.n_outcomes, "bundle"),
    )
    f = market_mod.fill(state, order)
    market_mod.apply(state, f)
    print(f"x_bar: {_fmt(f.x_bar)}")
    print(f"charge: {_fmt(f.charge)}")
    print("prices: " + " ".join(_fmt(x) for x in f.prices_after))
    return 0


def cmd_simulate(args):
    config = load_market_config(args.config)
    state = market_mod.new_market(config)
    orders = market_mod.read_orders_csv(args.orders, config.n_outcomes)
    trace = []
    market_mod.run_orders(state, orders, trace=trace)
    with open(args.out, "w") as f:
        for line in trace:
            f.write(line + "\n")
    p = compute_prices(config.utility, state.q)
    print(f"orders: {len(orders)}")
    print("final prices: " + " ".join(_fmt(x) for x in p))
    print(f"collected: {_fmt(state.collected)}")
    reports = [market_mod.settle(state, i) for i in range(config.n_outcomes)]
    for r in reports:
        print(f"pnl[{r.outcome}]: {_fmt(r.profit)}")
    bound = reports[0].loss_bound
    bound_text = "inf" if math.isinf(bound) else _fmt(bound)
    ok = all(r.bound_ok for r in reports)
    print(f"loss bound: {bound_text} respected: {'yes' if ok else 'NO'}")
    return 0


def cmd_converge(args):
    config = load_market_config(args.config)
    if config.utility.kind == "MinSCPM":
        print(
            "warning: MinSCPM is proper but not strictly proper; "
            "price convergence to the belief is not guaranteed",
            file=sys.stderr,
        )
    belief = _parse_vector(args.belief, config.n_outcomes, "belief")
    state = market_mod.new_market(config)
    sweeps = market_mod.converge(state, belief, rounds=args.rounds, cap=args.cap)
    p = compute_prices(config.utility, state.q)
    print(f"sweeps: {sweeps}")
    print("final prices: " + " ".join(_fmt(x) for x in p))
    print(f"belief gap: {float(np.max(np.abs(p - belief))):.6e}")
    return 0


def cmd_table1(args):
    theta = None
    if args.theta:
        theta = [float(x) for x in args.theta.split(";")]
    header = (
        f"{'mechanism':<16} {'loss':>12} {'loss(num)':>12} "
        f"{'properness':<16} {'risk':<5} {'penalty (fit dev)':<34}"
    )
    print(header)
    print("-" * len(header))
    for row in analysis.table1(args.b, args.n, theta):
        if math.isinf(row.loss):
            loss, loss_num = "inf", "unbounded"
        else:
            loss = _fmt(row.loss)
            loss_num = "inf" if math.isinf(row.loss_numeric) else _fmt(row.loss_numeric)
        if row.penalty is None:
            risk, penalty = "no", "-"
        else:
            risk, penalty = "yes", f"{row.penalty} ({row.penalty_dev:.2e})"
        print(f"{row.kind:<16} {loss:>12} {loss_num:>12} {row.properness:<16} "
              f"{risk:<5} {penalty:<34}")
    return 0


def cmd_verify(args):
    checks = cross_check(np.random.default_rng(7), args.scope)
    failures = 0
    for c in checks:
        if c.ok:
            print(f"ok   {c.name}")
        else:
            failures += 1
            print(f"FAIL {c.name}: gap {c.gap:.3e} > tolerance {c.tol:.1e}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scpm", description="Convex pari-mutuel market maker harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quote", help="price a bundle against a market config")
    p.add_argument("--config", required=True)
    p.add_argument("--orders", help="order CSV to replay before quoting")
    p.add_argument("--bundle", required=True, help="semicolon-separated bundle")
    p.set_defaults(func=cmd_quote)

    p = sub.add_parser("trade", help="submit a single limit order")
    p.add_argument("--config", required=True)
    p.add_argument("--orders", help="order CSV to replay first")
    p.add_argument("--pi", type=float, required=True)
    p.add_argument("--limit", type=float)
    p.add_argument("--bundle", required=True)
    p.set_defaults(func=cmd_trade)

    p = sub.add_parser("simulate", help="run an order stream and write a JSONL trace")
    p.add_argument("--config", required=True)
    p.add_argument("--orders", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("converge", help="run a truthful agent until prices meet its belief")
    p.add_argument("--config", required=True)
    p.add_argument("--belief", required=True, help="semicolon-separated simplex vector")
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--cap", type=float, default=1.0)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("table1", help="mechanism comparison table")
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--theta", help="semicolon-separated prior weights")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("verify", help="run oracle-vs-engine cross checks")
    p.add_argument("--scope", choices=["cost", "charge", "fill", "all"], default="all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
