"""Release gate: ten end-to-end checks over the whole toolkit.

Each test prints a single PASS/FAIL line with its measured numbers (run
pytest with ``-s`` to see the lines for passing tests) and then asserts,
so a red run always names the criterion that broke.  Everything is
seeded; reruns reproduce the same numbers apart from wall-clock fields,
which are masked where outputs are compared byte for byte.
"""

import csv
import json
import math
import subprocess
import sys

import numpy as np

from lexsel import (
    RandomSource,
    SelectorConfig,
    SyntheticProblem,
    build_classes,
    dalex_select,
    empirical_distribution,
    epsilon_lexicase_select,
    exact_lexicase_probs,
    js_divergence,
    make_regime_matrices,
    run_evolution,
    save_matrix,
    select_parents,
    singleton_classes,
    time_selection,
)
from lexsel.metrics import JS_MAX
from lexsel.selectors import (
    batch_lexicase_select,
    sample_importance,
    softmax_rows,
    weighted_fitness,
    _survivors_for_order,
)


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number:02d} {name}: {detail}"


def random_instance(gen, max_m=8, max_k=10, lo=0, hi=5, min_m=1):
    """Distinct integer error rows; k is capped by the number of
    distinct rows that exist at width m."""
    m = int(gen.integers(min_m, max_m + 1))
    cap = min(max_k, (hi - lo + 1) ** m)
    k = int(gen.integers(2, cap + 1))
    rows = set()
    while len(rows) < k:
        rows.add(tuple(int(v) for v in gen.integers(lo, hi + 1, size=m)))
    return np.array(sorted(rows), dtype=np.float64)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "lexsel", *argv],
        capture_output=True,
        text=True,
    )


def test_criterion_01_high_pressure_matches_exact_lexicase():
    gen = np.random.default_rng(2026)
    cfg = SelectorConfig(method="dalex", pressure=200.0, distribution="normal")
    scores = []
    for i in range(50):
        errors = random_instance(gen)
        classing = build_classes(errors)
        exact = exact_lexicase_probs(classing).probs
        picks = dalex_select(classing, 100_000, cfg, RandomSource(5000 + i))
        emp = empirical_distribution(picks, classing.k).probs
        scores.append(js_divergence(emp, exact))
    mean, worst = float(np.mean(scores)), float(np.max(scores))
    verdict(
        1,
        "high-pressure fidelity",
        mean < 0.01 and worst < 0.03,
        f"50 instances, 1e5 samples each: mean JS {mean:.5f} < 0.01, "
        f"max {worst:.5f} < 0.03",
    )


def test_criterion_02_spaced_weights_reproduce_lexicase_per_draw():
    gen = np.random.default_rng(303)
    draws_per_instance, mismatches, total = 500, 0, 0
    for i in range(20):
        errors = random_instance(gen, max_m=8, max_k=10, min_m=2)
        m = errors.shape[1]
        classing = build_classes(errors)
        # Grid spacing 3 makes consecutive weight ratios e^3 > 20, which
        # beats the largest error (5), so each case dominates everything
        # after it and the induced order is exactly lexicographic.
        pressure = 3.0 * math.sqrt((m * m - 1) / 12.0)
        cfg = SelectorConfig(method="dalex", pressure=pressure,
                             distribution="shuffled_range")
        rng = RandomSource(8000 + i)
        scores = sample_importance(draws_per_instance, m, cfg, rng)
        picks = dalex_select(classing, draws_per_instance, cfg, rng,
                             importance=scores)
        for j in range(draws_per_instance):
            order = np.argsort(-scores[j])
            survivors = _survivors_for_order(classing, order)
            assert survivors.size == 1
            mismatches += int(picks[j] != survivors[0])
            total += 1
    verdict(
        2,
        "spaced-weight equivalence",
        total == 10_000 and mismatches == 0,
        f"{total} draws, {mismatches} mismatches",
    )


def test_criterion_03_reductions_to_simpler_selectors():
    # Zero pressure: uniform weights, so selection is the argmin of the
    # plain mean error with ties split evenly.
    errors = np.array([[0.0, 4.0], [4.0, 0.0], [2.0, 2.0], [5.0, 5.0]])
    classing = build_classes(errors)
    cfg = SelectorConfig(method="dalex", pressure=0.0)
    picks = dalex_select(classing, 100_000, cfg, RandomSource(60))
    emp = empirical_distribution(picks, classing.k).probs
    js_mean = js_divergence(emp, [1 / 3, 1 / 3, 1 / 3, 0.0])

    gen = np.random.default_rng(33)
    errors = random_instance(gen, max_m=5, max_k=8)
    classing = build_classes(errors)
    exact = exact_lexicase_probs(classing).probs
    zero = np.zeros(classing.m)
    picks = epsilon_lexicase_select(classing, 100_000, RandomSource(61), epsilons=zero)
    js_eps = js_divergence(empirical_distribution(picks, classing.k).probs, exact)

    bcfg = SelectorConfig(method="batch_lexicase", batch_size=1,
                          batch_threshold_mode="absolute", batch_threshold_value=0.0)
    picks = batch_lexicase_select(classing, 100_000, bcfg, RandomSource(62))
    js_batch = js_divergence(empirical_distribution(picks, classing.k).probs, exact)

    verdict(
        3,
        "reductions",
        js_mean < 5e-3 and js_eps < 5e-3 and js_batch < 5e-3,
        f"1e5 samples each: zero-pressure JS {js_mean:.5f}, zero-epsilon JS "
        f"{js_eps:.5f}, unit-batch JS {js_batch:.5f}, all < 5e-3",
    )


def test_criterion_04_grouping_preserves_individual_distribution():
    gen = np.random.default_rng(44)
    cfg = SelectorConfig(method="dalex", pressure=20.0)
    worst = 0.0
    for i in range(20):
        base = random_instance(gen, max_m=6, max_k=6)
        counts = gen.integers(1, 4, size=base.shape[0])
        errors = np.repeat(base, counts, axis=0)
        errors = errors[gen.permutation(errors.shape[0])]
        n = errors.shape[0]

        parents = select_parents(errors, None, cfg, 100_000, RandomSource(6000 + i))
        grouped = empirical_distribution(parents, n).probs

        direct_picks = dalex_select(
            singleton_classes(errors), 100_000, cfg, RandomSource(6000 + i)
        )
        direct = empirical_distribution(direct_picks, n).probs
        worst = max(worst, js_divergence(grouped, direct))
    verdict(
        4,
        "group-then-expand",
        worst < 5e-3,
        f"20 duplicate-heavy instances, 1e5 samples each: max JS {worst:.5f} < 5e-3",
    )


def test_criterion_05_relaxed_mode_ignores_per_case_affine_maps():
    cfg = SelectorConfig(method="dalex", pressure=2.0, relaxed=True)
    gen = np.random.default_rng(73)
    mismatches, total = 0, 0
    for i in range(10):
        n, m = int(gen.integers(6, 20)), int(gen.integers(2, 7))
        errors = gen.random((n, m)) * 4.0
        a = gen.uniform(0.5, 3.0, size=m)
        b = gen.uniform(-2.0, 2.0, size=m)
        base = dalex_select(build_classes(errors), 2000, cfg, RandomSource(7000 + i))
        moved = dalex_select(
            build_classes(errors * a + b), 2000, cfg, RandomSource(7000 + i)
        )
        mismatches += int(np.count_nonzero(base != moved))
        total += 2000
    verdict(
        5,
        "relaxed affine invariance",
        mismatches == 0,
        f"{total} draws across 10 instances under random per-case a*e+b: "
        f"{mismatches} index mismatches",
    )


def test_criterion_06_support_normalization():
    gen = np.random.default_rng(91)
    worst = 0.0
    for pressure in (0.5, 20.0, 200.0):
        errors = random_instance(gen, max_m=8, max_k=10)
        classing = build_classes(errors)
        cfg = SelectorConfig(method="dalex", pressure=pressure)
        scores = sample_importance(1000, classing.m, cfg, RandomSource(int(pressure)))
        weights = softmax_rows(scores)
        denom = weights @ classing.class_support.T
        worst = max(worst, float(np.abs(denom - 1.0).max()))

    errors = np.array([[2.0, 0.0, 4.0]])
    support = np.array([[1.0, 0.0, 1.0]])
    classing = build_classes(errors, support)
    weights = np.array([[0.25, 0.5, 0.25]])
    value = weighted_fitness(classing, weights)[0, 0]
    verdict(
        6,
        "support normalization",
        worst <= 1e-9 and value == 3.0,
        f"full-support denominator off by at most {worst:.2e} <= 1e-9; "
        f"masked worked example gives {value} == 3.0 exactly",
    )


def test_criterion_07_divergence_examples_and_bounds():
    exact_zero = js_divergence([0.3, 0.7], [0.3, 0.7])
    disjoint = js_divergence([1.0, 0.0], [0.0, 1.0])
    overlap = js_divergence([0.5, 0.5], [1.0, 0.0])
    examples_ok = (
        exact_zero == 0.0
        and abs(disjoint - math.log(2.0)) < 1e-12
        and abs(overlap - 0.21576155433883565) < 1e-4
    )

    gen = np.random.default_rng(55)
    bounds_ok = True
    for _ in range(10_000):
        size = int(gen.integers(2, 13))
        p = gen.dirichlet(np.ones(size) * gen.uniform(0.2, 3.0))
        q = gen.dirichlet(np.ones(size) * gen.uniform(0.2, 3.0))
        if gen.random() < 0.3:
            q = np.where(gen.random(size) < 0.5, 0.0, q)
            if q.sum() == 0.0:
                continue
            q = q / q.sum()
        value = js_divergence(p, q)
        bounds_ok = bounds_ok and 0.0 <= value <= JS_MAX + 1e-12
    verdict(
        7,
        "divergence metric",
        examples_ok and bounds_ok,
        f"identity {exact_zero}, disjoint {disjoint:.12f} ~ ln 2, overlap "
        f"{overlap:.6f} ~ 0.2158; bounds held on 1e4 fuzzed pairs",
    )


def test_criterion_08_batched_selection_beats_iterative_on_large_runs():
    errors, support = make_regime_matrices(
        "continuous_all_distinct", 1000, 200, RandomSource(7)
    )
    dalex_cfg = SelectorConfig(method="dalex", pressure=200.0)
    lex_cfg = SelectorConfig(method="lexicase")
    dalex_median, _ = time_selection(errors, support, dalex_cfg, 1000, RandomSource(8))
    lex_median, _ = time_selection(errors, support, lex_cfg, 1000, RandomSource(8))
    verdict(
        8,
        "runtime direction",
        dalex_median < lex_median,
        f"n=1000, m=200 all-distinct: weighted-aggregation median "
        f"{dalex_median * 1e3:.1f} ms < iterative {lex_median * 1e3:.1f} ms "
        f"({lex_median / dalex_median:.1f}x)",
    )


EVOLVE_INI = """\
[selector]
method = dalex
pressure = 200.0
seed = 11

[problem]
kind = discrete_vector
m = 4
n_keys = 2
n_values = 4
seed = 5

[run]
pop_size = 30
generations = 12
runs = 2
"""


def _masked_bench_csv(text: str) -> list[list[str]]:
    rows = list(csv.reader(text.splitlines()))
    timing = [rows[0].index(c) for c in ("median_seconds", "min_seconds", "max_seconds")]
    for row in rows[1:]:
        for col in timing:
            row[col] = "T"
    return rows


def _masked_records(path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            row.pop("selection_seconds")
            rows.append(row)
    return rows


def _masked_summary(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[:-1] for row in csv.reader(fh)]


def test_criterion_09_cli_reruns_are_byte_identical(tmp_path):
    errors_path = tmp_path / "errors.csv"
    save_matrix(errors_path, [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0],
                              [3.0, 3.0, 0.0], [3.0, 3.0, 3.0]])
    stable = True
    details = []

    select_args = ("select", str(errors_path), "--method", "dalex",
                   "--pressure", "200.0", "--seed", "9", "--events", "40")
    a, b = run_cli(*select_args), run_cli(*select_args)
    stable &= a.returncode == b.returncode == 0 and a.stdout == b.stdout
    details.append("select")

    dist_args = select_args + ("--emit-distribution",)
    a, b = run_cli(*dist_args), run_cli(*dist_args)
    stable &= a.returncode == 0 and a.stdout == b.stdout
    details.append("select --emit-distribution")

    compare_args = ("compare", str(errors_path), "--methods", "dalex,lexicase",
                    "--pressure", "200.0", "--samples", "5000", "--seed", "3",
                    "--lineage-id", "0")
    a, b = run_cli(*compare_args), run_cli(*compare_args)
    stable &= a.returncode == 0 and a.stdout == b.stdout
    details.append("compare")

    bench_args = ("bench", "--regime", "discrete", "--sizes", "40x5",
                  "--methods", "dalex,lexicase", "--repetitions", "3",
                  "--seed", "2")
    a, b = run_cli(*bench_args), run_cli(*bench_args)
    stable &= a.returncode == 0
    stable &= _masked_bench_csv(a.stdout) == _masked_bench_csv(b.stdout)
    details.append("bench (timings masked)")

    config = tmp_path / "run.ini"
    config.write_text(EVOLVE_INI, encoding="utf-8")
    for name in ("one", "two"):
        result = run_cli("evolve", str(config), "--output-dir", str(tmp_path / name))
        stable &= result.returncode == 0
    stable &= _masked_records(tmp_path / "one" / "records.jsonl") == _masked_records(
        tmp_path / "two" / "records.jsonl"
    )
    stable &= _masked_summary(tmp_path / "one" / "summary.csv") == _masked_summary(
        tmp_path / "two" / "summary.csv"
    )
    details.append("evolve (wall-clock fields masked)")

    verdict(9, "deterministic CLI", stable, "; ".join(details))


def test_criterion_10_equal_problem_solving_at_scale():
    problem = SyntheticProblem(kind="discrete_vector", m=16, n_keys=8,
                               n_values=12, seed=3)
    configs = {
        "lexicase": SelectorConfig(method="lexicase"),
        "dalex": SelectorConfig(method="dalex", pressure=200.0),
    }
    wins = {name: 0 for name in configs}
    for i in range(50):
        for name, cfg in configs.items():
            result = run_evolution(problem, cfg, 200, 100, RandomSource(77).child(i))
            wins[name] += int(result.success)
    lex_rate = wins["lexicase"] / 50.0
    dalex_rate = wins["dalex"] / 50.0
    verdict(
        10,
        "end-to-end parity",
        abs(lex_rate - dalex_rate) <= 0.10,
        f"50 paired runs, pop 200, 100 generations: lexicase {lex_rate:.0%}, "
        f"weighted aggregation at pressure 200 {dalex_rate:.0%}",
    )
