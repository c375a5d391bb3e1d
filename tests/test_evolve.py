"""Tests for the synthetic problems and the evolutionary harness."""

import numpy as np
import pytest

from lexsel import (
    Population,
    RandomSource,
    SelectorConfig,
    SyntheticProblem,
    downsample_cases,
    fidelity_trace,
    run_evolution,
    umad_mutate,
)
from lexsel import evolve as evolve_module
from lexsel.evolve import _slice_cases
from lexsel.exceptions import ConfigError, ShapeError


def mutate_one(genome, rate, token_range, gen):
    """Mutate a single genome through the population kernel."""
    return umad_mutate(Population.pack([genome]), rate, token_range, gen).tokens


def perfect_genome(problem):
    """Spell out the full answer table as (key, value) pairs."""
    pairs = []
    for key in range(problem.n_keys):
        pairs.extend([key, int(problem._table[key])])
    return np.array(pairs, dtype=np.int64)


class TestSyntheticProblem:
    def test_same_seed_same_problem(self):
        a = SyntheticProblem(kind="discrete_vector", m=9, seed=4)
        b = SyntheticProblem(kind="discrete_vector", m=9, seed=4)
        np.testing.assert_array_equal(a._table, b._table)
        c = SyntheticProblem(kind="discrete_vector", m=9, seed=5)
        assert not np.array_equal(a._table, c._table)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            SyntheticProblem(kind="boolean", m=4, seed=0)
        with pytest.raises(ConfigError, match="m"):
            SyntheticProblem(kind="discrete_vector", m=0, seed=0)

    def test_decode_first_pair_wins(self):
        problem = SyntheticProblem(kind="discrete_vector", m=6, seed=1, n_keys=3, n_values=5)
        # key 1 appears twice; the first value (4) must stick
        answers = problem._decode_tables(Population.pack([np.array([1, 4, 1, 2, 0, 3])]))[0]
        assert answers[1] == 4
        assert answers[0] == 3
        assert answers[2] == -1

    def test_decode_wraps_tokens(self):
        problem = SyntheticProblem(kind="discrete_vector", m=6, seed=1, n_keys=3, n_values=5)
        answers = problem._decode_tables(Population.pack([np.array([4, 7])]))[0]
        assert answers[4 % 3] == 7 % 5

    def test_discrete_evaluation(self):
        problem = SyntheticProblem(kind="discrete_vector", m=6, seed=2, n_keys=3)
        errors, support = problem.evaluate([perfect_genome(problem), np.array([], dtype=np.int64)])
        assert support is None
        np.testing.assert_array_equal(errors[0], np.zeros(6))
        # the empty genome covers nothing and scores worst everywhere
        np.testing.assert_array_equal(errors[1], np.full(6, problem.worst_error))

    def test_partial_support_evaluation(self):
        problem = SyntheticProblem(kind="partial_support", m=6, seed=3, n_keys=3)
        covers_one_key = np.array([0, int(problem._table[0])])
        errors, support = problem.evaluate([covers_one_key])
        assert support is not None
        expected_support = (problem._train_keys == 0).astype(float)
        np.testing.assert_array_equal(support[0], expected_support)
        np.testing.assert_array_equal(errors[0], np.zeros(6))

    def test_partial_support_empty_genome_fallback(self):
        # no coverage at all must not produce an all-zero support row
        problem = SyntheticProblem(kind="partial_support", m=6, seed=3, n_keys=3)
        errors, support = problem.evaluate([np.array([], dtype=np.int64)])
        np.testing.assert_array_equal(support[0], np.ones(6))
        np.testing.assert_array_equal(errors[0], np.full(6, problem.worst_error))

    def test_continuous_evaluation(self):
        problem = SyntheticProblem(kind="continuous_vector", m=10, seed=4)
        errors, support = problem.evaluate([np.array([100, 100, 100, 100])])
        assert support is None
        assert errors.shape == (1, 10)
        assert (errors >= 0).all()
        # tokens 100 decode to coefficient 0, so errors are just y^2
        np.testing.assert_allclose(errors[0], problem._train_y**2, rtol=1e-12)

    def test_is_success(self):
        problem = SyntheticProblem(kind="discrete_vector", m=6, seed=5, n_keys=3)
        assert problem.is_success(perfect_genome(problem))
        assert not problem.is_success(np.array([], dtype=np.int64))

    def test_partial_success_requires_full_coverage(self):
        problem = SyntheticProblem(kind="partial_support", m=6, seed=6, n_keys=3)
        full = perfect_genome(problem)
        assert problem.is_success(full)
        # zero error on the covered key alone is not success
        assert not problem.is_success(full[:2])


class TestUmadMutate:
    def test_zero_rate_is_identity(self):
        gen = np.random.default_rng(1)
        genome = np.arange(20)
        np.testing.assert_array_equal(mutate_one(genome, 0.0, 50, gen), genome)

    def test_tokens_stay_in_range(self):
        gen = np.random.default_rng(2)
        genome = np.zeros(100, dtype=np.int64)
        for _ in range(20):
            genome = mutate_one(genome, 0.3, 7, gen)
            assert genome.size == 0 or (0 <= genome).all() and (genome < 7).all()

    def test_expected_length_change_is_zero(self):
        gen = np.random.default_rng(3)
        genome = np.zeros(100_000, dtype=np.int64)
        out = mutate_one(genome, 0.09, 10, gen)
        assert abs(out.size - genome.size) / genome.size < 0.01

    def test_surviving_tokens_keep_relative_order(self):
        gen = np.random.default_rng(4)
        genome = np.arange(1000) + 10_000
        out = mutate_one(genome, 0.2, 10, gen)
        original = out[out >= 10_000]
        assert (np.diff(original) > 0).all()

    def test_rate_validation(self):
        gen = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            mutate_one(np.arange(3), -0.1, 10, gen)
        with pytest.raises(ConfigError):
            mutate_one(np.arange(3), 0.1, 0, gen)


def reference_rows(problem, genome, keys, targets):
    """One genome's (errors, support) on the given cases, computed the
    per-genome way: decode a table or coefficients, then score."""
    if problem.kind == "continuous_vector":
        coeffs = np.zeros(4)
        head = genome[:4]
        coeffs[: head.size] = ((head % 201) - 100) / 50.0
        pred = np.polyval(coeffs[::-1], keys)
        return (pred - targets) ** 2, None
    pairs = genome[: 2 * (genome.size // 2)].reshape(-1, 2)
    answers = np.full(problem.n_keys, -1, dtype=np.int64)
    answers[(pairs[:, 0] % problem.n_keys)[::-1]] = (pairs[:, 1] % problem.n_values)[::-1]
    got = answers[keys]
    covered = got >= 0
    if problem.kind == "discrete_vector":
        errors = np.where(covered, np.abs(got - targets), problem.worst_error)
        return errors.astype(np.float64), None
    if not covered.any():
        return np.full(keys.size, problem.worst_error), np.ones(keys.size)
    errors = np.where(covered, np.abs(got - targets), 0).astype(np.float64)
    return errors, covered.astype(np.float64)


def reference_evaluate(problem, genomes):
    if problem.kind == "continuous_vector":
        keys, targets = problem._train_x, problem._train_y
    else:
        keys, targets = problem._train_keys, problem._train_targets
    rows = [reference_rows(problem, np.asarray(g, dtype=np.int64), keys, targets) for g in genomes]
    errors = np.array([r[0] for r in rows])
    if problem.kind != "partial_support":
        return errors, None
    return errors, np.array([r[1] for r in rows])


def reference_umad(genome, rate, token_range, gen):
    """Per-genome UMAD: insertion uniforms, new tokens only when some
    insertion happens, then deletion uniforms over the grown genome."""
    g = np.asarray(genome, dtype=np.int64)
    add_mask = gen.random(g.size) < rate
    n_add = int(add_mask.sum())
    if n_add:
        new_tokens = gen.integers(0, token_range, n_add)
        grown = np.empty(g.size + n_add, dtype=np.int64)
        slots = np.arange(g.size) + np.cumsum(add_mask)
        grown[slots] = g
        grown[slots[add_mask] - 1] = new_tokens
    else:
        grown = g.copy()
    keep = gen.random(grown.size) >= rate / (1.0 + rate)
    return grown[keep]


def assert_bit_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def edge_genomes(problem, gen):
    """Empty, one-token, odd-length and short genomes, then random ones."""
    r = problem.token_range
    genomes = [
        np.array([], dtype=np.int64),
        np.array([3]),
        np.array([1, 2, 3]),
        np.array([r - 1, 0, 5, 2, 7]),
        np.array([100, 250]),
        np.array([0, 0, 0]),
    ]
    genomes += [gen.integers(0, 3 * r, int(gen.integers(0, 14))) for _ in range(60)]
    return genomes


class TestPackedEvaluate:
    KINDS = ("discrete_vector", "continuous_vector", "partial_support")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_genome_reference(self, kind, seed):
        gen = np.random.default_rng(seed)
        problem = SyntheticProblem(kind=kind, m=13 + seed, seed=seed, n_keys=(None, 4, 9)[seed])
        genomes = edge_genomes(problem, gen)
        errors, support = problem.evaluate(genomes)
        ref_errors, ref_support = reference_evaluate(problem, genomes)
        assert_bit_equal(errors, ref_errors)
        if ref_support is None:
            assert support is None
        else:
            assert_bit_equal(support, ref_support)
        packed_errors, _ = problem.evaluate(Population.pack(genomes))
        assert_bit_equal(packed_errors, ref_errors)

    def test_partial_genomes_covering_no_key(self):
        # n_keys exceeds m, so keys past the train cases cover nothing.
        problem = SyntheticProblem(kind="partial_support", m=4, seed=5, n_keys=10)
        genomes = [np.array([7, 1]), np.array([8, 2, 9, 3]), np.array([0, 1, 8, 2])]
        errors, support = problem.evaluate(genomes)
        ref_errors, ref_support = reference_evaluate(problem, genomes)
        assert_bit_equal(errors, ref_errors)
        assert_bit_equal(support, ref_support)
        np.testing.assert_array_equal(support[:2], np.ones((2, 4)))
        np.testing.assert_array_equal(errors[:2], np.full((2, 4), problem.worst_error))
        assert support[2].sum() == 1.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_is_success_matches_reference(self, kind):
        problem = SyntheticProblem(kind=kind, m=6, seed=8, n_keys=3)
        genomes = edge_genomes(problem, np.random.default_rng(8))
        if kind != "continuous_vector":
            genomes.append(perfect_genome(problem))
        cases = (
            ((problem._train_x, problem._train_y), (problem._test_x, problem._test_y))
            if kind == "continuous_vector"
            else (
                (problem._train_keys, problem._train_targets),
                (problem._test_keys, problem._test_targets),
            )
        )
        for genome in genomes:
            expected = True
            for keys, targets in cases:
                errors, support = reference_rows(problem, genome, keys, targets)
                if (errors != 0).any() or (support is not None and (support == 0).any()):
                    expected = False
            assert problem.is_success(genome) == expected
        if kind != "continuous_vector":
            assert problem.is_success(genomes[-1])


class TestPopulation:
    def test_pack_take_and_genome(self):
        genomes = [np.array([5, 6, 7]), np.array([], dtype=np.int64), np.array([8])]
        population = Population.pack(genomes)
        np.testing.assert_array_equal(population.lengths, [3, 0, 1])
        assert len(population) == 3
        for i, genome in enumerate(genomes):
            np.testing.assert_array_equal(population.genome(i), genome)
        taken = population.take(np.array([2, 0, 0, 1]))
        np.testing.assert_array_equal(taken.tokens, [8, 5, 6, 7, 5, 6, 7])
        np.testing.assert_array_equal(taken.lengths, [1, 3, 3, 0])


class TestPopulationUmad:
    @pytest.mark.parametrize("rate", [0.0, 0.02, 0.09, 0.5, 2.0])
    def test_one_genome_matches_reference(self, rate):
        no_insertion = 0
        for seed in range(40):
            genome = np.random.default_rng([seed, 0]).integers(0, 30, seed % 17)
            a = np.random.default_rng([seed, 1])
            b = np.random.default_rng([seed, 1])
            expected = reference_umad(genome, rate, 11, a)
            probe = np.random.default_rng([seed, 1])
            no_insertion += not (probe.random(genome.size) < rate).any()
            child = umad_mutate(Population.pack([genome]), rate, 11, b)
            np.testing.assert_array_equal(child.tokens, expected)
            np.testing.assert_array_equal(child.lengths, [expected.size])
            # Both drew exactly the same numbers.
            assert a.bit_generator.state == b.bit_generator.state
        assert no_insertion > 0

    def test_zero_size_draw_consumes_no_state(self):
        gen = np.random.default_rng(3)
        state = gen.bit_generator.state
        assert gen.integers(0, 10, 0).size == 0
        assert gen.bit_generator.state == state

    def test_zero_rate_returns_parents(self):
        parents = Population.pack([np.arange(5), np.array([], dtype=np.int64), np.array([9, 9])])
        child = umad_mutate(parents, 0.0, 7, np.random.default_rng(0))
        np.testing.assert_array_equal(child.tokens, parents.tokens)
        np.testing.assert_array_equal(child.lengths, parents.lengths)

    def test_children_keep_parent_tokens_or_draw_new_ones(self):
        token_range = 7
        gen = np.random.default_rng(5)
        # Parent i's tokens are 1000 * (i + 1) + position: unique and out of range.
        genomes = [1000 * (i + 1) + np.arange(i % 9) for i in range(200)]
        children = umad_mutate(Population.pack(genomes), 0.3, token_range, gen)
        assert len(children) == len(genomes)
        for i, genome in enumerate(genomes):
            child = children.genome(i)
            kept = child[child >= token_range]
            assert np.isin(kept, genome).all()
            assert (np.diff(kept) > 0).all()
            assert (child[child < token_range] >= 0).all()

    def test_same_seed_same_children(self):
        genomes = Population.pack([np.arange(i) for i in range(50)])
        a = umad_mutate(genomes, 0.2, 13, np.random.default_rng(9))
        b = umad_mutate(genomes, 0.2, 13, np.random.default_rng(9))
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.lengths, b.lengths)


class TestDownsampleCases:
    def test_size_and_sortedness(self):
        ids = downsample_cases(10, 0.25, RandomSource(1))
        assert ids.size == 2  # round(0.25 * 10)
        assert (np.diff(ids) > 0).all()
        assert downsample_cases(10, 0.05, RandomSource(1)).size == 1

    def test_full_rate_keeps_everything(self):
        np.testing.assert_array_equal(downsample_cases(5, 1.0, RandomSource(2)), np.arange(5))

    def test_deterministic(self):
        a = downsample_cases(30, 0.5, RandomSource(3))
        b = downsample_cases(30, 0.5, RandomSource(3))
        np.testing.assert_array_equal(a, b)

    def test_roughly_uniform_over_cases(self):
        counts = np.zeros(10)
        for seed in range(2000):
            counts[downsample_cases(10, 0.3, RandomSource(seed))] += 1
        np.testing.assert_allclose(counts / 2000, 0.3, atol=0.05)

    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            downsample_cases(10, 0.0, RandomSource(0))
        with pytest.raises(ConfigError):
            downsample_cases(10, 1.5, RandomSource(0))


class TestSliceCases:
    def test_plain_slice(self):
        errors = np.arange(12, dtype=float).reshape(3, 4)
        out, support = _slice_cases(errors, None, np.array([1, 3]), 9.0)
        np.testing.assert_array_equal(out, errors[:, [1, 3]])
        assert support is None

    def test_uncovered_row_scored_worst(self):
        errors = np.array([[0.0, 2.0], [0.0, 3.0]])
        support = np.array([[1.0, 0.0], [1.0, 1.0]])
        out_e, out_s = _slice_cases(errors, support, np.array([1]), 9.0)
        # row 0 covers nothing in the sample: worst error, full support
        np.testing.assert_array_equal(out_e, [[9.0], [3.0]])
        np.testing.assert_array_equal(out_s, [[1.0], [1.0]])


def record_fields(record):
    """Everything except wall-clock timing."""
    return (
        record.generation,
        record.best_error,
        record.mean_error,
        record.downsample_case_ids,
        record.lineage_ancestor,
    )


class TestRunEvolution:
    def problem(self, seed=7):
        return SyntheticProblem(kind="discrete_vector", m=6, seed=seed, n_keys=2, n_values=4)

    def test_deterministic_rerun(self):
        cfg = SelectorConfig(method="lexicase")
        kwargs = dict(pop_size=30, generations=12, downsample_rate=0.8)
        a = run_evolution(self.problem(), cfg, rng=RandomSource(11), **kwargs)
        b = run_evolution(self.problem(), cfg, rng=RandomSource(11), **kwargs)
        assert a.success == b.success
        assert a.success_generation == b.success_generation
        assert [record_fields(r) for r in a.records] == [record_fields(r) for r in b.records]

    def test_seed_changes_trajectory(self):
        cfg = SelectorConfig(method="lexicase")
        a = run_evolution(self.problem(), cfg, 30, 5, RandomSource(1))
        b = run_evolution(self.problem(), cfg, 30, 5, RandomSource(2))
        assert [record_fields(r) for r in a.records] != [record_fields(r) for r in b.records]

    def test_success_found_and_recorded(self):
        result = run_evolution(
            self.problem(), SelectorConfig(method="lexicase"), 60, 40, RandomSource(13)
        )
        assert result.success
        last = result.records[-1]
        assert last.generation == result.success_generation
        assert last.best_error == 0.0
        assert last.selection_seconds == 0.0
        assert last.downsample_case_ids is None

    def test_lineage_chain_is_consistent(self):
        parent_rows = []

        def capture(t, classing, parents):
            parent_rows.append(parents)

        result = run_evolution(
            self.problem(),
            SelectorConfig(method="lexicase"),
            60,
            40,
            RandomSource(13),
            on_generation=capture,
        )
        assert result.success
        ancestors = [r.lineage_ancestor for r in result.records]
        assert all(a is not None for a in ancestors)
        for t in range(result.success_generation):
            assert ancestors[t] == parent_rows[t][ancestors[t + 1]]

    def test_no_success_leaves_lineage_unset(self):
        result = run_evolution(
            self.problem(), SelectorConfig(method="lexicase"), 5, 2, RandomSource(1)
        )
        if not result.success:
            assert all(r.lineage_ancestor is None for r in result.records)

    def test_downsampling_shrinks_selector_view(self):
        seen_m = []

        def capture(t, classing, parents):
            seen_m.append(classing.m)

        problem = SyntheticProblem(
            kind="discrete_vector", m=6, seed=3, n_keys=3, n_values=8
        )
        result = run_evolution(
            problem,
            SelectorConfig(method="lexicase"),
            20,
            4,
            RandomSource(4),
            downsample_rate=0.5,
            on_generation=capture,
        )
        assert seen_m and all(m == 3 for m in seen_m)
        for record in result.records:
            if record.downsample_case_ids is not None:
                assert len(record.downsample_case_ids) == 3
                assert sorted(record.downsample_case_ids) == record.downsample_case_ids

    def test_partial_support_with_downsampling_runs(self):
        problem = SyntheticProblem(kind="partial_support", m=8, seed=9, n_keys=4)
        result = run_evolution(
            problem,
            SelectorConfig(method="lexicase"),
            25,
            6,
            RandomSource(5),
            downsample_rate=0.4,
        )
        assert len(result.records) >= 1

    def test_every_method_runs(self):
        for method in ("dalex", "epsilon_lexicase", "batch_lexicase"):
            cfg = SelectorConfig(method=method, batch_size=2)
            result = run_evolution(self.problem(), cfg, 20, 3, RandomSource(6))
            assert len(result.records) >= 1

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            run_evolution(self.problem(), SelectorConfig(method="lexicase"), 0, 5, RandomSource(0))

    def test_one_evaluate_and_one_mutation_per_generation(self, monkeypatch):
        calls = {"evaluate": 0, "umad_mutate": 0}
        evaluate, mutate = SyntheticProblem.evaluate, evolve_module.umad_mutate

        def counting_evaluate(problem, genomes):
            calls["evaluate"] += 1
            return evaluate(problem, genomes)

        def counting_mutate(*args):
            calls["umad_mutate"] += 1
            return mutate(*args)

        monkeypatch.setattr(SyntheticProblem, "evaluate", counting_evaluate)
        monkeypatch.setattr(evolve_module, "umad_mutate", counting_mutate)
        result = run_evolution(self.problem(), SelectorConfig(method="dalex"), 20, 3, RandomSource(1))
        assert not result.success
        assert calls == {"evaluate": 3, "umad_mutate": 3}


class TestFidelityTrace:
    def test_self_comparison_is_exactly_zero(self):
        problem = SyntheticProblem(kind="discrete_vector", m=6, seed=21, n_keys=2, n_values=4)
        cfg = SelectorConfig(method="lexicase")
        reports, result = fidelity_trace(
            problem, cfg, cfg, pop_size=25, generations=10, rng=RandomSource(8)
        )
        assert len(reports) >= 1
        # both sides use the exact oracle, so the divergence is literal zero
        assert all(r.js_divergence == 0.0 for r in reports)
        if result.success:
            defined = [r.probability_ratio for r in reports if r.probability_ratio is not None]
            assert defined and all(ratio == 1.0 for ratio in defined)

    def test_high_pressure_dalex_tracks_lexicase(self):
        problem = SyntheticProblem(kind="discrete_vector", m=8, seed=22, n_keys=4, n_values=8)
        reports, _ = fidelity_trace(
            problem,
            SelectorConfig(method="lexicase"),
            SelectorConfig(method="dalex", pressure=200.0),
            pop_size=25,
            generations=8,
            rng=RandomSource(9),
            n_samples=4000,
        )
        assert len(reports) == 8
        mean_js = float(np.mean([r.js_divergence for r in reports]))
        assert mean_js < 0.1

    def test_generations_are_labeled(self):
        problem = SyntheticProblem(kind="discrete_vector", m=6, seed=23, n_keys=2)
        cfg = SelectorConfig(method="lexicase")
        reports, _ = fidelity_trace(
            problem, cfg, cfg, pop_size=15, generations=4, rng=RandomSource(10)
        )
        assert [r.generation for r in reports] == list(range(len(reports)))
