"""Pick hashes of every selector on the benchmark regimes.

    python3 tools/pick_hashes.py

Runs from the root of a source checkout and imports the package from
``src/``.  Each cell is one method on one regime's 1000x200 matrices
(``lexsel.bench.make_regime_matrices``) at one seed: a full pass of
``select_parents`` with 1000 events, hashed.  Those passes are one event
block each, so multi-block cells follow: ``dalex`` on every regime at
4000x200 with 4000 events, where a pass runs several blocks.  On full
support the events its screens leave are gathered across the blocks
for the cascade; on ``partial_support`` those the partial-support
screen leaves are gathered for ``weighted_fitness``.  The regime
matrices have no repeated error columns, so ``dalex`` cells on an
``evolve`` population close the grid: 1000 initial genomes of a
``discrete_vector`` problem with m = 200, whose train keys cycle over
m // 3 keys, so 66 of the 200 columns are distinct.  Last come the
``huge`` cells: plain ``dalex`` on the ``continuous_all_distinct``
4000x200 errors times 1e300, too large for the float32 screen, so the
pass runs no screen and every event goes through the cascade, over
several blocks.  The lexicase family closes the grid on both inputs
that run it over several first-step blocks or deep filters: lexicase,
epsilon-lexicase and every batch cell on each regime at 4000x200 with
4000 events, and on the ``evolve`` population, whose converged
duplicates tie on many cases.  The script prints one line per cell,
``regime seed method hash`` (the regime suffixed ``-4000`` for the
multi-block cells), then ``total`` and a hash of every cell.  Running
it on two checkouts and comparing the output shows which cells a change
moved; a change that keeps picks bit-identical leaves every line as it
was.  Not part of the test suite; it takes about a minute.
"""

from __future__ import annotations

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from lexsel import evolve  # noqa: E402
from lexsel.bench import REGIMES, make_regime_matrices  # noqa: E402
from lexsel.core import RandomSource  # noqa: E402
from lexsel.selectors import SelectorConfig, select_parents  # noqa: E402

N, M = 1000, 200
SEEDS = (0, 1)
# The multi-block grid: n individuals and events, and its regimes.
WIDE_N = 4000
WIDE_REGIMES = REGIMES
# The screenless grid's errors: continuous_all_distinct times this.
HUGE = 1e300


def evolve_matrices(n: int, m: int, seed: int):
    """The errors of ``n`` initial genomes of a ``discrete_vector`` problem
    with ``m`` cases, and no support matrix."""
    problem = evolve.SyntheticProblem(kind="discrete_vector", m=m, seed=seed)
    gen = RandomSource(seed).generator(0)
    return problem.evaluate([problem.initial_genome(gen) for _ in range(n)])


def dalex_configs(relaxed_cells=(False, True)) -> dict[str, SelectorConfig]:
    """The ``dalex`` cells, by name."""
    cells = {}
    for pressure in (2.0, 20.0, 200.0):
        for relaxed in relaxed_cells:
            name = f"dalex-p{pressure:g}" + ("-relaxed" if relaxed else "")
            cells[name] = SelectorConfig(method="dalex", pressure=pressure, relaxed=relaxed)
    return cells


def configs() -> dict[str, SelectorConfig]:
    """Every method cell of the grid, by name."""
    cells = dalex_configs()
    cells["lexicase"] = SelectorConfig(method="lexicase")
    cells["epsilon_lexicase"] = SelectorConfig(method="epsilon_lexicase")
    # b = 16 pins numpy's pairwise order of a batch's sum past 8 terms.
    for size in (2, 3, 16):
        for mode in ("mad", "absolute"):
            cells[f"batch_lexicase-b{size}-{mode}"] = SelectorConfig(
                method="batch_lexicase", batch_size=size, batch_threshold_mode=mode
            )
    return cells


def filter_configs() -> dict[str, SelectorConfig]:
    """The lexicase-family cells, by name."""
    cells = configs()
    for name in dalex_configs():
        del cells[name]
    return cells


def main() -> None:
    total = hashlib.sha256()
    grids = [
        (N, REGIMES, "", configs()),
        (WIDE_N, WIDE_REGIMES, f"-{WIDE_N}", dalex_configs()),
        (N, ("evolve",), "", dalex_configs()),
        # Relaxed dalex standardizes the errors, which the screens then take.
        (WIDE_N, ("huge",), f"-{WIDE_N}", dalex_configs(relaxed_cells=(False,))),
        (WIDE_N, WIDE_REGIMES, f"-{WIDE_N}", filter_configs()),
        (N, ("evolve",), "", filter_configs()),
    ]
    for n, regimes, suffix, cells in grids:
        for regime in regimes:
            for seed in SEEDS:
                if regime == "evolve":
                    errors, support = evolve_matrices(n, M, seed)
                elif regime == "huge":
                    errors, support = make_regime_matrices(
                        "continuous_all_distinct", n, M, RandomSource(seed)
                    )
                    errors = errors * HUGE
                else:
                    errors, support = make_regime_matrices(regime, n, M, RandomSource(seed))
                for name, cfg in cells.items():
                    picks = select_parents(errors, support, cfg, n, RandomSource(seed).child(1))
                    digest = hashlib.sha256(np.asarray(picks, dtype=np.int64).tobytes()).hexdigest()
                    total.update(digest.encode())
                    print(f"{regime}{suffix} {seed} {name} {digest[:16]}", flush=True)
    print(f"total {total.hexdigest()[:16]}")


if __name__ == "__main__":
    main()
