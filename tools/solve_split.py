"""Where a cost solve's time goes: the utility's kernel against the rest of solve_t.

    python3 tools/solve_split.py
    python3 tools/solve_split.py --repeat 7 --number 20000

Times, for every catalog kind at b = 1 and N = 3 and N = 1024, the
kernel alone (``u._kernel`` at q - max(q), as ``solve_t`` calls it) and
the whole ``cost.solve_t(u, q)``, each as the minimum over ``--repeat``
timeit runs of ``--number`` calls (a twentieth of them at N = 1024), in
µs per call; the runs of the two alternate.  The rest is their
difference: the checks and the result around the kernel.  At N = 3, q is
[0.5, 0.2, 0]; at N = 1024 it is 0.25·(i mod 5) for state i.  It runs
the ``src/`` of the tree the script sits in, so a copy of it placed in
an export of another revision times that revision.
"""

import argparse
import importlib
import math
import sys
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from scpm import utilities  # noqa: E402

# The package re-exports the function cost under the submodule's name.
cost = importlib.import_module("scpm.cost")

SIZES = (3, 1024)


def market_q(n):
    """The share vector the table times at n states."""
    return np.array([0.5, 0.2, 0.0]) if n == 3 else 0.25 * (np.arange(n) % 5)


def split(kind, n, repeat, number):
    """(kernel µs, solve_t µs) per call, each the minimum of repeat runs;
    the two alternate, so that both see the host in the same state."""
    u = utilities.make_utility(kind, n_outcomes=n)
    q = market_q(n)
    shifted = q - q.max()
    kernel = whole = math.inf
    for _ in range(repeat):
        kernel = min(kernel, timeit.timeit(lambda: u._kernel(shifted), number=number))
        whole = min(whole, timeit.timeit(lambda: cost.solve_t(u, q), number=number))
    return kernel / number * 1e6, whole / number * 1e6


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeat", type=int, default=7, help="timeit runs per cell (default 7)")
    p.add_argument("--number", type=int, default=20000,
                   help="calls per timeit run at N = 3, a twentieth of them at N = 1024 "
                        "(default 20000)")
    args = p.parse_args(argv)
    if args.repeat < 1 or args.number < 1:
        p.error("--repeat and --number must be at least 1")
    print(f"{'kind':<16} {'N':>5} {'_kernel':>9} {'solve_t':>9} {'the rest':>9}   (µs)")
    for n in SIZES:
        number = args.number if n == 3 else max(1, args.number // 20)
        for kind in utilities.KINDS:
            kernel, whole = split(kind, n, args.repeat, number)
            print(f"{kind:<16} {n:>5} {kernel:>9.2f} {whole:>9.2f} {whole - kernel:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
