"""In-process A/B timing of one selection pass on two source checkouts.

    python3 tools/ab_pass.py PARENT CHANGE --input continuous_all_distinct --pairs 20
    python3 tools/ab_pass.py PARENT CHANGE --input evolve --n 1000 --stages _screen_setup
    python3 tools/ab_pass.py PARENT CHANGE --input evolve --n 1000 --generations 1 \
        --method batch_lexicase --batch-size 2 --events 1000

Each checkout's ``src/lexsel`` is copied into a temporary directory as
the packages ``lexsel_a`` (PARENT) and ``lexsel_b`` (CHANGE); the
package's own imports are relative, so both load side by side in one
process.  A pass is ``build_classes`` -> ``select_classes`` ->
``expand_class_selection`` on one input: a regime of
``lexsel.bench.make_regime_matrices`` (n x m) or ``evolve``, the errors
of n initial ``discrete_vector`` genomes.  With ``--generations G``
above 0, ``evolve`` is instead the population ``run_evolution`` selects
on at generation G, evolved from the input seed with the method's own
selector (side a's package), as perfbench's evolve workload times it at
G = 1: selection and mutation leave duplicates and converged columns.
Pairs alternate which side runs first, and both sides of a pair use the
same pass seed.  The script prints each side's median milliseconds, the
ratio of the medians (parent over change, so above 1 means the change
is faster), how many pairs the change won, and whether every pass
picked the same parents on both sides.  ``--stages`` wraps the named
functions of ``selectors`` (``Class.method`` for a method) on both sides
and prints each one's median seconds a pass, calls included.  Not part
of the test suite.  Set ``OPENBLAS_NUM_THREADS`` to pin BLAS threads; it defaults
to one here.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

SIDES = ("a", "b")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout timed as side a")
    parser.add_argument("change", help="checkout timed as side b")
    parser.add_argument("--input", default="continuous_all_distinct",
                        help="a bench regime, or evolve")
    parser.add_argument("--n", type=int, default=4000, help="individuals")
    parser.add_argument("--m", type=int, default=200, help="cases")
    parser.add_argument("--events", type=int, default=None, help="events a pass (default n)")
    parser.add_argument("--method", default="dalex")
    parser.add_argument("--pressure", type=float, default=200.0)
    parser.add_argument("--batch-size", type=int, default=1, help="batch_lexicase cases a batch")
    parser.add_argument("--generations", type=int, default=0,
                        help="evolve: select on the population after this many generations")
    parser.add_argument("--seed", type=int, default=13001, help="input seed")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument("--stages", default="", help="comma-separated selectors functions")
    return parser.parse_args(argv)


def load(checkout: str, name: str, into: str):
    """Checkout's ``src/lexsel`` imported as the package ``name``."""
    shutil.copytree(os.path.join(checkout, "src", "lexsel"), os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def config(pkg, args):
    return pkg.selectors.SelectorConfig(method=args.method, pressure=args.pressure,
                                        batch_size=args.batch_size)


def matrices(pkg, args):
    if args.input == "evolve":
        problem = pkg.evolve.SyntheticProblem(kind="discrete_vector", m=args.m, seed=args.seed)
        if args.generations > 0:
            return evolved(pkg, problem, args)
        gen = pkg.core.RandomSource(args.seed).generator(0)
        return problem.evaluate([problem.initial_genome(gen) for _ in range(args.n)])
    return pkg.bench.make_regime_matrices(args.input, args.n, args.m,
                                          pkg.core.RandomSource(args.seed))


def evolved(pkg, problem, args):
    """Errors and support of the population selected on at generation
    ``args.generations`` of a ``run_evolution`` run, rebuilt from that
    generation's classing (a class's members share its rows)."""
    seen = {}

    def capture(t, classing, parents):
        if t == args.generations:
            rows = classing.class_of()
            support = None if classing.full_support else classing.class_support[rows]
            seen["matrices"] = classing.class_errors[rows], support

    pkg.evolve.run_evolution(problem, config(pkg, args), args.n, args.generations + 1,
                             pkg.core.RandomSource(args.seed), on_generation=capture)
    return seen["matrices"]


def wrap_stages(pkg, names, totals):
    """Wrap each named ``selectors`` function so its time adds to
    ``totals[name]``."""
    for name in names:
        owner, attr = pkg.selectors, name
        if "." in name:
            cls, attr = name.split(".")
            owner = getattr(pkg.selectors, cls)
        inner = getattr(owner, attr)

        def timed(*a, _inner=inner, _name=name, **kw):
            start = time.perf_counter()
            try:
                return _inner(*a, **kw)
            finally:
                totals[_name] += time.perf_counter() - start

        setattr(owner, attr, timed)


def main(argv=None) -> int:
    args = parse_args(argv)
    events = args.events or args.n
    stages = [s for s in args.stages.split(",") if s]
    tmp = tempfile.mkdtemp(prefix="ab_pass_")
    sys.path.insert(0, tmp)
    try:
        pkgs = {s: load(c, f"lexsel_{s}", tmp) for s, c in zip(SIDES, (args.parent, args.change))}
        errors, support = matrices(pkgs["a"], args)
        totals = {s: dict.fromkeys(stages, 0.0) for s in SIDES}
        for s in SIDES:
            wrap_stages(pkgs[s], stages, totals[s])

        def run(side, seed):
            pkg = pkgs[side]
            cfg = config(pkg, args)
            rng = pkg.core.RandomSource(seed)
            for name in stages:
                totals[side][name] = 0.0
            start = time.perf_counter()
            classing = pkg.core.build_classes(errors, support)
            picks = pkg.selectors.select_classes(classing, events, cfg, rng)
            parents = pkg.core.expand_class_selection(classing, picks, rng)
            return time.perf_counter() - start, parents, dict(totals[side])

        for i in range(args.warmup):
            for s in SIDES:
                run(s, i)
        times = {s: [] for s in SIDES}
        stage_times = {s: {name: [] for name in stages} for s in SIDES}
        same = True
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            parents = {}
            for s in order:
                seconds, parents[s], spent = run(s, 1000 + i)
                times[s].append(seconds)
                for name in stages:
                    stage_times[s][name].append(spent[name])
            same &= bool(np.array_equal(parents["a"], parents["b"]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    med = {s: statistics.median(times[s]) * 1e3 for s in SIDES}
    won = sum(b < a for a, b in zip(times["a"], times["b"]))
    print(f"input {args.input} n={args.n} m={args.m} events={events} method={args.method} "
          f"pressure={args.pressure:g} batch={args.batch_size} generations={args.generations} "
          f"pairs={args.pairs}")
    print(f"parent {med['a']:.3f} ms  change {med['b']:.3f} ms  "
          f"ratio {med['a'] / med['b']:.3f}x  change won {won}/{args.pairs}  "
          f"picks {'equal' if same else 'DIFFER'}")
    for name in stages:
        a, b = (statistics.median(stage_times[s][name]) * 1e3 for s in SIDES)
        print(f"  {name}: parent {a:.3f} ms  change {b:.3f} ms")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
