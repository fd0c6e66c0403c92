"""sha256 digests of the package's outputs, to show that a change keeps every bit.

    python3 tools/output_digests.py > digests.txt
    python3 tools/output_digests.py --against HEAD~1

Prints one ``<sha256>  <name>`` line per output, from the ``src/`` of the
tree the script sits in, so a copy of it placed in a ``git archive`` export
of another revision digests that revision.  ``--against REV`` does that:
it runs a copy of the script in an export of REV and prints the names of
the lines that differ from this tree's, or that only one side has, and
exits 1 if there are any; where the export fails (an unknown REV, or a
tree that is no git checkout) it prints one ``error:`` line and exits 2.
The lines are:

* ``simulate/<kind>/seed11/{trace,stdout}``: ``scpm simulate`` at N = 3,
  b = 1, on criterion 11's stream (seed 11, 40 orders, limits up to 2), and
  ``.../seed12/...`` on a longer one (seed 12, 200 orders, limits up to 60);
* ``table1/n2`` and ``table1/n3``: ``scpm table1 --n 2`` and ``--n 3``;
* ``grid/solve_t/<kind>``: ``cost.solve_t`` for N in {2, 3, 10, 1024},
  b in {1e-3, 1, 1e3}, the default prior and a random one (for QuadSCPM one
  with zero weights too), at q of up to 1e9 and at ties;
* ``grid/fill/<kind>``: fills over the same markets, 0/1 and other
  bundles, finite and infinite limits, each with its ``trace_record`` line,
  and ``grid/fill-solves/<kind>``: the ``FillResult.solves`` of the same
  fills, which a change to the order of a fill's solves moves alone;
* ``grid/apply/<kind>``: fill-and-apply streams over the same markets, from
  a random initial_q, from one holding -0.0, and on a q that the caller
  assigned as a writable array holding -0.0, hashing ``state.q`` and
  ``collected`` after every ``apply`` and the ``settle`` reports at the end;
* ``grid/quote/<kind>``: ``market.quote`` over the same markets at the
  solve grid's q, on 0/1, fractional and negative bundles and on ones with
  a nan, an inf or a -inf entry where q is smallest;
* ``grid/value_grad/<kind>`` and ``grid/penalty_raw/<kind>``: batch and
  single-row calls at N in {2, 3, 10}, simplex rows with zeros and vertices;
* ``grid/analysis/<kind>``: the reports of ``worst_case_loss(u, "numeric")``,
  ``check_properness``, ``identify_penalty_family`` and ``risk_dual_check``
  (at the frozen benchmark's dual resolutions) and the conjugate points of
  seeded beliefs, at N in {2, 3, 5}, b in {1e-3, 1, 1e3}, the default prior
  and a random one (for QuadSCPM one with zero weights too).

Each case records its result's bytes (floats by repr, arrays by their raw
bytes), or the type and message of the error it raised, and the warnings it
emitted.  Equal lines from two trees mean byte-identical outputs.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from scpm import analysis, cli, market  # noqa: E402
from scpm.cost import solve_t  # noqa: E402
from scpm.utilities import KINDS, make_utility  # noqa: E402

NS = (2, 3, 10, 1024)
BS = (1e-3, 1.0, 1e3)


def _token(x):
    """Bytes of a result: floats by repr, arrays by dtype, shape and raw bytes."""
    if isinstance(x, np.ndarray):
        return f"{x.dtype}{x.shape}:{x.tobytes().hex()}"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(_token(v) for v in x) + ")"
    if isinstance(x, (float, np.floating)):
        return f"{type(x).__name__}:{float(x)!r}"
    return repr(x)


def _case(h, fn, *args):
    """Feed h the bytes of fn(*args), or of its error, and of its warnings."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            out = _token(fn(*args))
        except Exception as exc:  # the error is the output of the case
            out = f"{type(exc).__name__}: {exc}"
    out += "".join(f"|{w.category.__name__}: {w.message}" for w in seen)
    h.update(out.encode() + b"\n")


def _stream(seed, n_orders, max_limit):
    """Criterion 11's order generator: 0/1 bundles over 3 states."""
    rng = np.random.default_rng(seed)
    rows = ["trader_id,pi,limit,bundle"]
    for k in range(n_orders):
        bundle = ";".join(str(x) for x in rng.integers(0, 2, size=3))
        if bundle == "0;0;0":
            bundle = "1;0;0"
        rows.append(f"t{k},{rng.uniform(0.05, 0.95):.6f},{rng.uniform(0.1, max_limit):.6f},"
                    f"{bundle}")
    return "\n".join(rows) + "\n"


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}".encode()


def simulate_digests(work):
    for seed, n_orders, max_limit in ((11, 40, 2.0), (12, 200, 60.0)):
        orders = work / f"orders{seed}.csv"
        orders.write_text(_stream(seed, n_orders, max_limit))
        for kind in KINDS:
            config = work / f"{kind}.json"
            config.write_text(json.dumps({"utility": {"kind": kind, "b": 1.0, "n_outcomes": 3},
                                          "charging_mode": "integral"}))
            trace = work / f"{kind}-{seed}.jsonl"
            stdout = _cli(["simulate", "--config", str(config), "--orders", str(orders),
                           "--out", str(trace)])
            yield f"simulate/{kind}/seed{seed}/trace", trace.read_bytes()
            yield f"simulate/{kind}/seed{seed}/stdout", stdout


def _priors(kind, n, rng):
    """The default prior, a random one, and for QuadSCPM one with zero weights."""
    if kind not in ("LMSR", "LogSCPM", "QuadSCPM"):
        return [None]
    theta = 10.0 ** rng.uniform(-2.0, 2.0, n)
    if kind != "QuadSCPM":
        return [None, theta]
    sparse = theta.copy()
    sparse[rng.permutation(n)[: max(1, n // 2)]] = 0.0
    return [None, theta / theta.sum(), sparse / sparse.sum()]


def _markets(kind, rng):
    for n in NS:
        for b in BS:
            for theta in _priors(kind, n, rng):
                yield make_utility(kind, b=b, n_outcomes=n, theta=theta)


def _qs(u, rng):
    n, b = u.n, u.b
    ties = np.zeros(n)
    ties[: n // 2] = 1e9
    return [np.zeros(n), b * rng.uniform(0.0, 4.0, n), rng.uniform(0.0, 1e9, n),
            1e9 * rng.integers(0, 2, n), ties, rng.uniform(-1e3, 1e3, n)]


def solve_digest(kind):
    h, rng = hashlib.sha256(), np.random.default_rng(1901)
    for u in _markets(kind, rng):
        for q in _qs(u, rng):
            _case(h, lambda: (lambda r: (r.t_star, r.cost, r.prices, r.flat_objective,
                                         r.iterations, r.path))(solve_t(u, q)))
    return h.digest()


def _orders(n, rng):
    one_hot = np.eye(n)[rng.integers(n)]
    subset = (rng.uniform(size=n) < 0.5).astype(float)
    subset[rng.integers(n)] = 1.0
    valued = rng.choice([0.0, 0.5, 1.0, 2.0], size=n)
    valued[rng.integers(n)] = 2.0
    for bundle in (one_hot, subset, valued):
        for pi in (0.3, 0.9, float(rng.uniform(0.0, 1.0))):
            for limit in (0.5, 40.0, math.inf):
                yield market.Order("t\"\\é", pi, limit, bundle)


def _fill_case(state, order, solves):
    f = market.fill(state, order)
    market.apply(state, f)
    solves.append(f.solves)
    return (f.x_bar, f.charge, f.prices_before, f.prices_after, f.path,
            market.trace_record(f, state.collected))


def fill_digests(kind):
    """Digests of the fills, and of their solve counts (none for a fill that raised)."""
    h, hs, rng = hashlib.sha256(), hashlib.sha256(), np.random.default_rng(1902)
    for u in _markets(kind, rng):
        q0 = u.b * rng.uniform(0.0, 3.0, u.n)
        state = market.new_market(market.MarketConfig(utility=u, initial_q=q0))
        for order in _orders(u.n, rng):
            solves = []
            _case(h, _fill_case, state, order, solves)
            hs.update(f"{solves}\n".encode())
    return h.digest(), hs.digest()


def _apply_markets(u, rng):
    """(state, assigned): a market from a random q, one whose initial_q holds
    -0.0, and one whose q the caller assigns writable, holding -0.0."""
    q0 = u.b * rng.uniform(0.0, 3.0, u.n)
    signed = q0.copy()
    signed[::2] = -0.0
    for initial_q in (q0, signed):
        yield market.new_market(market.MarketConfig(utility=u, initial_q=initial_q)), False
    state = market.new_market(market.MarketConfig(utility=u))
    state.q = signed
    yield state, True


def _apply_case(state, order):
    market.apply(state, market.fill(state, order))
    return state.q, state.collected


def _settle_case(state):
    return [dataclasses.astuple(market.settle(state, i)) for i in range(state.config.n_outcomes)]


def apply_digest(kind):
    h, rng = hashlib.sha256(), np.random.default_rng(1904)
    for u in _markets(kind, rng):
        for state, assigned in _apply_markets(u, rng):
            for i, order in enumerate(_orders(u.n, rng)):
                if assigned and i % 3 == 0:
                    q = np.array(state.q)
                    q[q == 0.0] = -0.0
                    state.q = q
                _case(h, _apply_case, state, order)
            _case(h, _settle_case, state)
    return h.digest()


def _bundles(q, rng):
    """0/1, fractional and negative bundles, and one with a nan, an inf or a
    -inf entry on the state of smallest q, where a price may be 0."""
    n = q.size
    subset = (rng.uniform(size=n) < 0.5).astype(float)
    subset[rng.integers(n)] = 1.0
    bundles = [np.eye(n)[rng.integers(n)], subset, rng.uniform(0.0, 1.0, n),
               rng.uniform(-1.0, 1.0, n)]
    for bad in (math.nan, math.inf, -math.inf):
        a = rng.uniform(0.0, 1.0, n)
        a[q.argmin()] = bad
        bundles.append(a)
    return bundles


def quote_digest(kind):
    h, rng = hashlib.sha256(), np.random.default_rng(1906)
    for u in _markets(kind, rng):
        state = market.new_market(market.MarketConfig(utility=u))
        for q in _qs(u, rng):
            state.q = q
            for a in _bundles(q, rng):
                _case(h, market.quote, state, a)
    return h.digest()


def _rows(n, rng):
    p = rng.dirichlet(np.ones(n), size=20)
    p[:5, 0] = 0.0
    p[:5] /= p[:5].sum(axis=1, keepdims=True)
    return np.vstack([p, np.eye(n)])


def catalog_digests(kind):
    hv, hp, rng = hashlib.sha256(), hashlib.sha256(), np.random.default_rng(1903)
    for n in NS[:3]:
        for b in BS:
            for theta in _priors(kind, n, rng):
                u = make_utility(kind, b=b, n_outcomes=n, theta=theta)
                s = b * rng.uniform(0.1, 4.0, (20, n))
                _case(hv, lambda: (u.value(s), u.grad(s), [u.value(r) for r in s],
                                   [u.grad(r) for r in s]))
                p = _rows(n, rng)
                _case(hp, lambda: (u.penalty_raw(p), [u.penalty_raw(r) for r in p]))
    return hv.digest(), hp.digest()


def _report(x):
    """A study's report as a tuple: a dataclass by its fields."""
    return dataclasses.astuple(x) if dataclasses.is_dataclass(x) else x


def analysis_digest(kind):
    h, rng = hashlib.sha256(), np.random.default_rng(1905)
    for n, dual_resolution in ((2, 4000), (3, 400), (5, 100)):
        for b in BS:
            for theta in _priors(kind, n, rng):
                u = make_utility(kind, b=b, n_outcomes=n, theta=theta)
                Z = b * rng.uniform(-3.0, 3.0, n)
                R = 0.9 * rng.dirichlet(np.ones(n), size=20) + 0.1 / n
                for study, *args in ((analysis.worst_case_loss, "numeric"),
                                     (analysis.check_properness, 50),
                                     (analysis.identify_penalty_family,),
                                     (analysis.risk_dual_check, Z, dual_resolution),
                                     (lambda u, R: u._conjugate(R), R)):
                    _case(h, lambda: _report(study(u, *args)))
    return h.digest()


def digests():
    with tempfile.TemporaryDirectory(prefix="output-digests-") as work:
        yield from ((name, hashlib.sha256(data).digest())
                    for name, data in simulate_digests(Path(work)))
    for n in (2, 3):
        yield f"table1/n{n}", hashlib.sha256(_cli(["table1", "--n", str(n)])).digest()
    for kind in KINDS:
        yield f"grid/solve_t/{kind}", solve_digest(kind)
        fills, solves = fill_digests(kind)
        yield f"grid/fill/{kind}", fills
        yield f"grid/fill-solves/{kind}", solves
        yield f"grid/apply/{kind}", apply_digest(kind)
        yield f"grid/quote/{kind}", quote_digest(kind)
        value_grad, penalty = catalog_digests(kind)
        yield f"grid/value_grad/{kind}", value_grad
        yield f"grid/penalty_raw/{kind}", penalty
        yield f"grid/analysis/{kind}", analysis_digest(kind)


def _lines(text):
    """{name: digest} of the printed lines."""
    return {name: digest for digest, name in (line.split("  ", 1) for line in text.splitlines())}


def differing(rev):
    """Names of the lines whose digests differ between this tree and rev's,
    or that only one of them prints."""
    with tempfile.TemporaryDirectory(prefix="output-digests-") as tree:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        script = Path(tree) / "tools" / Path(__file__).name
        script.parent.mkdir(exist_ok=True)
        shutil.copyfile(__file__, script)
        # The export digests itself while this tree does.
        with subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE,
                              text=True) as proc:
            mine = {name: digest.hex() for name, digest in digests()}
            out, _ = proc.communicate()
        if proc.returncode:
            raise RuntimeError(f"{script} exited {proc.returncode}")
    theirs = _lines(out)
    return [name for name in {**theirs, **mine} if mine.get(name) != theirs.get(name)]


def _reason(exc):
    """The last line of a failed command's stderr, or the error itself."""
    lines = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else str(exc)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", metavar="REV",
                   help="print the names of the lines that differ from git revision REV's")
    args = p.parse_args(argv)
    if args.against is None:
        for name, digest in digests():
            print(f"{digest.hex()}  {name}", flush=True)
        return 0
    try:
        names = differing(args.against)
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"error: cannot export {args.against}: {_reason(exc)}", file=sys.stderr)
        return 2
    print("\n".join(names) if names else f"no line differs from {args.against}")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
