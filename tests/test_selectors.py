"""Tests for the selection methods and their shared plumbing."""

import statistics
import tracemalloc
import warnings

import numpy as np
import pytest

from lexsel import (
    RandomSource,
    SelectorConfig,
    SyntheticProblem,
    batch_lexicase_select,
    build_classes,
    config_from_mapping,
    config_to_mapping,
    dalex_select,
    epsilon_for_cases,
    epsilon_lexicase_select,
    exact_epsilon_lexicase_probs,
    exact_lexicase_probs,
    lexicase_select,
    run_evolution,
    sample_importance,
    select_parents,
    singleton_classes,
    softmax_rows,
    weighted_fitness,
)
from lexsel import selectors
from lexsel import oracle
from lexsel.core import EVENT_STREAM, TIEBREAK_STREAM, standardize_per_case
from lexsel.exceptions import ConfigError, ShapeError


class TestSelectorConfig:
    def test_defaults(self):
        cfg = SelectorConfig(method="dalex")
        assert cfg.pressure == 20.0
        assert cfg.distribution == "normal"
        assert not cfg.relaxed
        assert cfg.batch_size == 1
        assert cfg.batch_threshold_mode == "mad"

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"method": "tournament"}, "method"),
            ({"method": "dalex", "pressure": -1.0}, "pressure"),
            ({"method": "dalex", "pressure": float("nan")}, "pressure"),
            ({"method": "dalex", "distribution": "cauchy"}, "distribution"),
            ({"method": "batch_lexicase", "batch_size": 0}, "batch_size"),
            ({"method": "batch_lexicase", "batch_threshold_mode": "iqr"},
             "batch_threshold_mode"),
            ({"method": "batch_lexicase", "batch_threshold_value": -0.5},
             "batch_threshold_value"),
        ],
    )
    def test_validation_names_the_key(self, kwargs, key):
        with pytest.raises(ConfigError, match=key):
            SelectorConfig(**kwargs)

    def test_mapping_round_trip(self):
        cfg = SelectorConfig(
            method="batch_lexicase",
            pressure=3.5,
            distribution="uniform",
            relaxed=True,
            batch_size=7,
            batch_threshold_mode="absolute",
            batch_threshold_value=0.25,
        )
        back, seed = config_from_mapping(config_to_mapping(cfg, seed=99))
        assert back == cfg
        assert seed == 99

    def test_mapping_defaults_and_no_seed(self):
        cfg, seed = config_from_mapping({"method": "lexicase"})
        assert cfg == SelectorConfig(method="lexicase")
        assert seed is None

    def test_mapping_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="population"):
            config_from_mapping({"method": "dalex", "population": "10"})

    def test_mapping_requires_method(self):
        with pytest.raises(ConfigError, match="method"):
            config_from_mapping({"pressure": "5"})

    def test_mapping_rejects_bad_values(self):
        with pytest.raises(ConfigError, match="pressure"):
            config_from_mapping({"method": "dalex", "pressure": "high"})
        with pytest.raises(ConfigError, match="relaxed"):
            config_from_mapping({"method": "dalex", "relaxed": "maybe"})
        with pytest.raises(ConfigError, match="seed"):
            config_from_mapping({"method": "dalex", "seed": "-3"})


class TestSampleImportance:
    def test_normal_std_matches_pressure(self):
        cfg = SelectorConfig(method="dalex", pressure=7.0)
        scores = sample_importance(4000, 25, cfg, RandomSource(1))
        assert scores.shape == (4000, 25)
        assert abs(scores.std() - 7.0) < 0.1

    def test_uniform_bounds_and_std(self):
        cfg = SelectorConfig(method="dalex", pressure=5.0, distribution="uniform")
        scores = sample_importance(4000, 25, cfg, RandomSource(2))
        half = 5.0 * np.sqrt(3.0)
        assert scores.min() >= -half and scores.max() <= half
        assert abs(scores.std() - 5.0) < 0.1

    def test_shuffled_range_rows_are_grid_permutations(self):
        cfg = SelectorConfig(method="dalex", pressure=6.0, distribution="shuffled_range")
        m = 9
        scores = sample_importance(200, m, cfg, RandomSource(3))
        spacing = 6.0 / np.sqrt((m * m - 1) / 12.0)
        grid = np.sort((np.arange(m) - (m - 1) / 2.0) * spacing)
        for row in scores:
            np.testing.assert_allclose(np.sort(row), grid, rtol=1e-12)
        np.testing.assert_allclose(scores.std(axis=1), 6.0, rtol=1e-12)
        assert not np.array_equal(scores[0], scores[1])

    def test_shuffled_range_single_case(self):
        cfg = SelectorConfig(method="dalex", distribution="shuffled_range")
        np.testing.assert_array_equal(
            sample_importance(3, 1, cfg, RandomSource(0)), np.zeros((3, 1))
        )

    def test_rejects_empty(self):
        cfg = SelectorConfig(method="dalex")
        with pytest.raises(ShapeError):
            sample_importance(0, 5, cfg, RandomSource(0))


class TestSoftmaxRows:
    def test_hand_example(self):
        out = softmax_rows([[0.0, np.log(2.0)]])
        np.testing.assert_allclose(out, [[1 / 3, 2 / 3]], rtol=1e-12)

    def test_shift_invariance(self):
        scores = np.random.default_rng(4).normal(size=(10, 6))
        np.testing.assert_allclose(
            softmax_rows(scores), softmax_rows(scores + 123.0), rtol=1e-12
        )

    def test_high_pressure_rows_stay_positive_and_normalized(self):
        cfg = SelectorConfig(method="dalex", pressure=200.0)
        scores = sample_importance(500, 40, cfg, RandomSource(6))
        w = softmax_rows(scores)
        assert (w > 0).all()
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)

    def test_extreme_underflow_clamped(self):
        w = softmax_rows([[0.0, 5000.0]])
        assert w[0, 0] > 0.0
        assert w[0, 1] == pytest.approx(1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ShapeError):
            softmax_rows([[np.inf, 0.0]])


class TestWeightedFitness:
    def test_partial_support_hand_value(self):
        # (0.25*2 + 0.25*4) / (0.25 + 0.25): the weight spent on the
        # undefined middle case is excluded from the mean entirely.
        classing = build_classes([[2.0, 0.0, 4.0]], [[1, 0, 1]])
        fitness = weighted_fitness(classing, np.array([[0.25, 0.5, 0.25]]))
        assert fitness[0, 0] == 3.0

    def test_full_support_is_weighted_mean(self):
        classing = build_classes([[1.0, 3.0], [2.0, 2.0]])
        fitness = weighted_fitness(classing, np.array([[0.75, 0.25]]))
        np.testing.assert_allclose(fitness, [[1.5, 2.0]])

    def test_orientation_is_events_by_classes(self):
        classing = build_classes([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        weights = softmax_rows(np.zeros((7, 2)))
        assert weighted_fitness(classing, weights).shape == (7, 3)

    def test_rejects_wrong_width(self):
        classing = build_classes([[1.0, 2.0]])
        with pytest.raises(ShapeError):
            weighted_fitness(classing, np.ones((4, 3)))


class TestDalexSelect:
    def cfg(self, **kw):
        return SelectorConfig(method="dalex", **kw)

    def test_dominating_class_always_wins(self):
        rng = np.random.default_rng(10)
        errors = rng.random((6, 8)) + 1.0
        errors[0] = 0.0
        classing = build_classes(errors)
        for pressure in (0.0, 5.0, 200.0):
            picks = dalex_select(classing, 500, self.cfg(pressure=pressure), RandomSource(1))
            assert (picks == 0).all()

    def test_symmetric_specialists_split_evenly(self):
        classing = build_classes([[0.0, 1.0], [1.0, 0.0]])
        picks = dalex_select(classing, 50_000, self.cfg(), RandomSource(2))
        assert abs(picks.mean() - 0.5) < 0.01

    def test_zero_pressure_reduces_to_mean_error(self):
        # all softmax weights collapse to 1/m, so only the row means matter
        classing = build_classes([[0.0, 10.0], [4.0, 4.0], [9.0, 0.0]])
        picks = dalex_select(classing, 2000, self.cfg(pressure=0.0), RandomSource(3))
        assert (picks == 1).all()

    def test_zero_pressure_ties_split_uniformly(self):
        classing = build_classes([[0.0, 4.0], [2.0, 2.0], [5.0, 5.0]])
        picks = dalex_select(classing, 40_000, self.cfg(pressure=0.0), RandomSource(4))
        counts = np.bincount(picks, minlength=3)
        assert counts[2] == 0
        np.testing.assert_allclose(counts[:2] / 40_000, 0.5, atol=0.01)

    def test_high_pressure_approaches_lexicase(self):
        rng = np.random.default_rng(11)
        errors = rng.integers(0, 4, (7, 5)).astype(float)
        classing = build_classes(errors)
        exact = exact_lexicase_probs(classing).probs
        picks = dalex_select(classing, 30_000, self.cfg(pressure=200.0), RandomSource(5))
        freqs = np.bincount(picks, minlength=classing.k) / 30_000
        assert np.abs(freqs - exact).max() < 0.015

    def test_duplicate_rows_kept_as_singletons_split_evenly(self):
        # Identical rows held as separate classes can never be told
        # apart, so they must share their winning mass evenly instead of
        # starving the aggregation of usable cases.  Lexicase here: the
        # case order starting at case 0 crowns row 0, the other order
        # exhausts both cases with rows 1-3 tied, 1/6 each.
        errors = np.array([[0.0, 2.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        classing = singleton_classes(errors)
        picks = dalex_select(classing, 30_000, self.cfg(pressure=200.0), RandomSource(8))
        freqs = np.bincount(picks, minlength=4) / 30_000
        assert freqs[0] == pytest.approx(0.5, abs=0.01)
        for j in (1, 2, 3):
            assert freqs[j] == pytest.approx(1 / 6, abs=0.01)

    def test_shuffled_range_mini_equivalence(self):
        # spacing of 3 between consecutive grid weights: e^3 - 1 > 5, the
        # largest error here, so the score order alone decides each event
        m = 4
        pressure = 3.0 * np.sqrt((m * m - 1) / 12.0)
        rng = np.random.default_rng(12)
        errors = rng.integers(0, 6, (6, m)).astype(float)
        classing = build_classes(errors)
        exact = exact_lexicase_probs(classing).probs
        cfg = self.cfg(pressure=pressure, distribution="shuffled_range")
        picks = dalex_select(classing, 30_000, cfg, RandomSource(6))
        freqs = np.bincount(picks, minlength=classing.k) / 30_000
        assert np.abs(freqs - exact).max() < 0.015

    def test_relaxed_is_affine_invariant_per_draw(self):
        rng = np.random.default_rng(13)
        errors = rng.integers(0, 9, (6, 5)).astype(float)
        rescaled = errors * 4.0 + 8.0
        cfg = self.cfg(relaxed=True)
        a = dalex_select(build_classes(errors), 300, cfg, RandomSource(7))
        b = dalex_select(build_classes(rescaled), 300, cfg, RandomSource(7))
        np.testing.assert_array_equal(a, b)

    def test_relaxed_changes_scale_sensitivity(self):
        # case 1's huge scale dominates raw means; standardized it cannot
        errors = np.array([[1.0, 0.0], [0.0, 1000.0]])
        classing = build_classes(errors)
        raw = dalex_select(classing, 4000, self.cfg(pressure=0.0), RandomSource(8))
        relaxed = dalex_select(
            classing, 4000, self.cfg(pressure=0.0, relaxed=True), RandomSource(8)
        )
        assert (raw == 0).all()
        counts = np.bincount(relaxed, minlength=2)
        assert counts.min() > 1000

    def test_injected_importance_shape_checked(self):
        classing = build_classes([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ShapeError):
            dalex_select(classing, 5, self.cfg(), RandomSource(0), importance=np.ones((5, 3)))

    def test_method_mismatch_rejected(self):
        classing = build_classes([[0.0]])
        with pytest.raises(ConfigError):
            dalex_select(classing, 1, SelectorConfig(method="lexicase"), RandomSource(0))

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        classing = build_classes(rng.random((8, 6)))
        a = dalex_select(classing, 100, self.cfg(), RandomSource(9))
        b = dalex_select(classing, 100, self.cfg(), RandomSource(9))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("variant", ["full", "partial", "relaxed"])
    def test_leading_picks_do_not_depend_on_event_count(self, variant):
        # About 2000 classes make the block size B small enough to cross
        # several block boundaries; importance rows and tie-break uniforms
        # are prefix-stable draws, so the first picks must not move.
        rng = np.random.default_rng(15)
        errors = rng.integers(0, 4, (2000, 12)).astype(float)
        support = None
        if variant == "partial":
            support = (rng.random(errors.shape) < 0.6).astype(float)
            support[:, 0] = 1.0
            errors *= support
        classing = build_classes(errors, support)
        assert classing.full_support == (variant != "partial")
        cfg = self.cfg(pressure=200.0, relaxed=variant == "relaxed")
        block = max(2, selectors._BLOCK_ENTRIES // classing.k)
        lead = [
            dalex_select(classing, n, cfg, RandomSource(16))[:2]
            for n in (2, block - 1, block, block + 1, 3 * block + 2)
        ]
        for picks in lead[1:]:
            np.testing.assert_array_equal(picks, lead[0])

    def test_peak_memory_grows_with_block_not_event_count(self):
        rng = np.random.default_rng(17)
        classing = build_classes(rng.integers(0, 6, (1000, 20)).astype(float))
        assert classing.k == 1000
        n_events = 8000
        tracemalloc.start()
        try:
            dalex_select(classing, n_events, self.cfg(pressure=200.0), RandomSource(18))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One (n_events, k) float64 array is 64 MB; a block's temporaries
        # come to about 15 MB, where a whole-batch kernel needs 148 MB.
        assert peak < n_events * classing.k * 8 / 3

    def test_pick_never_dominated_under_one_ulp_rounding(self):
        # In generation 4 of this run two classes differ only on cases
        # weighted below float resolution, and the batched product used
        # to round the dominated one a single ulp lower.
        dominated = []

        def observe(t, classing, parents):
            E = classing.class_errors
            for c in np.unique(classing.class_of()[parents]):
                if ((E <= E[c]).all(axis=1) & (E != E[c]).any(axis=1)).any():
                    dominated.append((t, int(c)))

        problem = SyntheticProblem("discrete_vector", m=200, seed=31)
        run_evolution(
            problem, self.cfg(pressure=200.0), 1000, 5, RandomSource(31),
            on_generation=observe,
        )
        assert dominated == []

    def assert_extreme_errors_split(self, cfg):
        # Ranges of 2e308 overflow a plain per-case shift and the moments
        # of the relaxed standardization; exact lexicase gives [0.5, 0.5, 0].
        classing = build_classes(
            [[1e308, -1e308, 0.0], [-1e308, 1e308, 0.0], [1e308, 1e308, 1e308]]
        )
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            picks = dalex_select(classing, 4000, cfg, RandomSource(19))
        freqs = np.bincount(picks, minlength=3) / picks.size
        assert freqs[2] == 0.0
        np.testing.assert_allclose(freqs[:2], 0.5, atol=0.03)

    def test_extreme_finite_errors_do_not_overflow(self):
        self.assert_extreme_errors_split(self.cfg(pressure=200.0))

    def test_relaxed_extreme_finite_errors_do_not_overflow(self):
        self.assert_extreme_errors_split(self.cfg(pressure=200.0, relaxed=True))

    def test_errors_beyond_float32_range_take_the_float64_path(self):
        # Errors of 1e39-1e300 are fine in float64 but overflow float32, so
        # the pass must skip the float32 screen.  Each case has its own
        # scale, and class 0 is half as far from zero as any other class.
        rng = np.random.default_rng(43)
        scale = 10.0 ** rng.uniform(39.0, 300.0, 12)
        errors = rng.uniform(1.0, 2.0, (8, 12)) * scale
        errors[0] = scale / 2
        classing = build_classes(errors)
        shifted = selectors._shifted_errors(classing.class_errors)
        assert selectors._screen_setup(shifted) is None
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            for pressure in (0.0, 2.0, 200.0):
                for relaxed in (False, True):
                    cfg = self.cfg(pressure=pressure, relaxed=relaxed)
                    picks = dalex_select(classing, 300, cfg, RandomSource(44))
                    assert (picks == 0).all()


def screen_matrices():
    """Full-support matrices with some cases of a unique best class, so
    the float32 screen runs on each."""
    rng = np.random.default_rng(45)
    binary = rng.integers(0, 2, (80, 20)).astype(float)
    binary[:, :8] = 1.0
    binary[rng.integers(0, 80, 8), np.arange(8)] = 0.0
    ties = rng.integers(0, 10, (60, 16)).astype(float)
    ties[rng.integers(0, 60, 4), np.arange(4)] = -1.0
    mixed = rng.random((2500, 30))
    # Even cases tie at their minimum, odd cases have a unique one.
    mixed[:, ::2] = rng.integers(0, 3, (2500, 15))
    return {
        "distinct": rng.random((150, 24)),
        "integer-ties": ties,
        "binary": binary,
        "mixed": mixed,
    }


def float64_cascade_picks(classing, n_events, cfg, rng):
    """``dalex_select``'s picks with every event through the float64
    round of the cascade, no screen."""
    errors = classing.class_errors
    if cfg.relaxed:
        errors = standardize_per_case(errors, classing.sizes)
    errors = selectors._shifted_errors(errors)
    importance = sample_importance(n_events, classing.m, cfg, rng)
    u = rng.generator(TIEBREAK_STREAM).random(n_events)
    picks = np.empty(n_events, dtype=np.intp)
    for lo, hi in selectors._event_blocks(n_events, classing.k):
        marked = selectors._cascade(importance[lo:hi], errors)
        picks[lo:hi] = selectors._pick_marked(marked, u[lo:hi])
    return picks


class TestFloat32Screen:
    PRESSURES = (0.0, 2.0, 20.0, 200.0, 2000.0)

    @pytest.mark.parametrize("name", ["distinct", "integer-ties", "binary", "mixed"])
    def test_screened_picks_equal_float64_cascade_picks(self, name):
        classing = build_classes(screen_matrices()[name])
        n_events = 600
        decided = 0
        for pressure in self.PRESSURES:
            for distribution in ("normal", "uniform", "shuffled_range"):
                for relaxed in (False, True):
                    cfg = SelectorConfig(
                        "dalex", pressure=pressure, distribution=distribution, relaxed=relaxed
                    )
                    picks = dalex_select(classing, n_events, cfg, RandomSource(46))
                    expected = float64_cascade_picks(classing, n_events, cfg, RandomSource(46))
                    np.testing.assert_array_equal(picks, expected, err_msg=str(cfg))
                    errors = classing.class_errors
                    if relaxed:
                        errors = standardize_per_case(errors, classing.sizes)
                    screen = selectors._screen_setup(selectors._shifted_errors(errors))
                    importance = sample_importance(n_events, classing.m, cfg, RandomSource(46))
                    weights = selectors._flushed_softmax(importance)
                    decided += selectors._screen(weights, importance, screen)[0].size
        assert decided > 0

    def test_one_block_holds_both_routes(self):
        classing = build_classes(screen_matrices()["mixed"])
        screen = selectors._screen_setup(selectors._shifted_errors(classing.class_errors))
        (lo, hi), *_ = selectors._event_blocks(4000, classing.k)
        importance = sample_importance(
            4000, classing.m, SelectorConfig("dalex", pressure=200.0), RandomSource(47)
        )
        routed = screen[1][importance[lo:hi].argmax(axis=1)]
        assert routed.any() and not routed.all()

    def test_small_float64_remainder_keeps_the_picks(self):
        # One tied case in 40: a block sends only the few events whose
        # heaviest case it is to the float64 product, a product of a few
        # rows for which BLAS may take other kernels than for the block.
        rng = np.random.default_rng(52)
        errors = rng.random((2500, 40))
        errors[:, 0] = rng.integers(0, 3, 2500)
        classing = build_classes(errors)
        shifted = selectors._shifted_errors(classing.class_errors)
        screen = selectors._screen_setup(shifted)
        remainders = set()
        for n_events in (12, 60, 200, 1000):
            for pressure in (2.0, 200.0, 2000.0):
                cfg = SelectorConfig("dalex", pressure=pressure)
                picks = dalex_select(classing, n_events, cfg, RandomSource(53))
                expected = float64_cascade_picks(classing, n_events, cfg, RandomSource(53))
                np.testing.assert_array_equal(picks, expected, err_msg=str(cfg))
                importance = sample_importance(n_events, classing.m, cfg, RandomSource(53))
                for lo, hi in selectors._event_blocks(n_events, classing.k):
                    weights = selectors._flushed_softmax(importance[lo:hi])
                    rows, _ = selectors._screen(weights, importance[lo:hi], screen)
                    remainders.add(hi - lo - rows.size)
        assert min(remainders) <= 3 and max(remainders) >= 10
        # A product of fewer rows may round a row a few ulps apart from the
        # block's product, but each lies within m * eps / 2 of the exact
        # fitness, so the two differ by far less than the tie slack.
        for pressure in (2.0, 20.0):
            cfg = SelectorConfig("dalex", pressure=pressure)
            importance = sample_importance(500, classing.m, cfg, RandomSource(54))
            weights = selectors._flushed_softmax(importance)
            block = weights @ shifted.T
            for size in range(2, 41):
                rows = np.sort(rng.choice(500, size, replace=False))
                gap = np.abs(weights[rows] @ shifted.T - block[rows])
                assert (gap <= classing.m * np.finfo(float).eps * block[rows]).all()

    def test_candidates_hold_the_float64_tie_set(self):
        rng = np.random.default_rng(48)
        base = rng.random((1, 10))
        matrices = [*screen_matrices().values()]
        # Classes a few ulps apart, far below float32 resolution.
        near = base + base * np.finfo(float).eps * rng.integers(1, 5, (40, 10))
        near[0] = base
        matrices.append(near)
        # Rotations of one row: at pressure 0 every class has the same real
        # fitness, which float32 rounds differently per class.
        row = rng.random(100) * 10.0 ** rng.uniform(-3.0, 3.0, 100)
        matrices.append(np.array([np.roll(row, c) for c in range(100)]))
        # Errors below float32 tiny, where the absolute term decides.
        matrices.append(rng.random((40, 10)) * 1e-39)
        matrices.append(rng.random((40, 12)) * np.logspace(-30, 30, 12))
        for errors in matrices:
            shifted = selectors._shifted_errors(build_classes(errors).class_errors)
            screen = selectors._screen_setup(shifted)
            assert screen is not None
            slack = 1.0 + 2.0 * shifted.shape[1] * np.finfo(np.float64).eps
            for pressure in self.PRESSURES:
                cfg = SelectorConfig("dalex", pressure=pressure)
                importance = sample_importance(500, shifted.shape[1], cfg, RandomSource(49))
                weights = selectors._flushed_softmax(importance)
                fitness = weights @ shifted.T
                tied = fitness <= fitness.min(axis=1, keepdims=True) * slack
                candidates, _ = selectors._screen_candidates(weights, screen)
                assert not (tied & ~candidates).any()


class TestLexicaseSelect:
    def test_dominator_always_wins(self):
        classing = build_classes([[0, 0, 0], [1, 0, 2], [3, 1, 1]])
        picks = lexicase_select(classing, 200, RandomSource(1))
        assert (picks == 0).all()

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(20)
        errors = rng.integers(0, 3, (8, 5)).astype(float)
        classing = build_classes(errors)
        exact = exact_lexicase_probs(classing).probs
        picks = lexicase_select(classing, 30_000, RandomSource(2))
        freqs = np.bincount(picks, minlength=classing.k) / 30_000
        assert np.abs(freqs - exact).max() < 0.015

    def test_partial_support_matches_exact_oracle(self):
        rng = np.random.default_rng(21)
        support = (rng.random((7, 5)) < 0.5).astype(float)
        support[~support.any(axis=1), 0] = 1.0
        errors = rng.integers(0, 3, (7, 5)).astype(float) * support
        classing = build_classes(errors, support)
        exact = exact_lexicase_probs(classing).probs
        picks = lexicase_select(classing, 30_000, RandomSource(3))
        freqs = np.bincount(picks, minlength=classing.k) / 30_000
        assert np.abs(freqs - exact).max() < 0.015

    def test_undefined_class_cannot_win_a_case(self):
        # B is undefined on the only case that could save it
        errors = [[0.0, 1.0], [0.0, 0.0]]
        support = [[1, 1], [1, 0]]
        classing = build_classes(errors, support)
        np.testing.assert_allclose(exact_lexicase_probs(classing).probs, [1.0, 0.0])
        picks = lexicase_select(classing, 300, RandomSource(4))
        assert (picks == 0).all()

    @pytest.mark.parametrize(
        "variant", ["lexicase", "epsilon_lexicase", "batch_lexicase", "partial"]
    )
    def test_leading_picks_do_not_depend_on_event_count(self, variant, monkeypatch):
        # Each event draws its case order and finish uniform from its own
        # stream, so its pick must not move whichever pair block it lands
        # in.  A small pair budget splits 40 events into several blocks.
        rng = np.random.default_rng(15)
        errors = rng.integers(0, 4, (300, 12)).astype(float)
        support = None
        if variant == "partial":
            support = (rng.random(errors.shape) < 0.4).astype(float)
            support[~support.any(axis=1), 0] = 1.0
            errors *= support
        method = "batch_lexicase" if variant == "partial" else variant
        cfg = SelectorConfig(method=method, batch_size=2 if method == "batch_lexicase" else 1)
        classing = build_classes(errors, support)
        reference = selectors.select_classes(classing, 40, cfg, RandomSource(16))
        blocks = []
        run_block = selectors._filter_pairs

        def counted(*args):
            blocks.append(args[2].shape[0])
            return run_block(*args)

        monkeypatch.setattr(selectors, "_PAIR_BUDGET", 4 * classing.k)
        monkeypatch.setattr(selectors, "_filter_pairs", counted)
        for n in (1, 2, 3, 5, 17, 40):
            picks = selectors.select_classes(classing, n, cfg, RandomSource(16))
            np.testing.assert_array_equal(picks, reference[:n])
        assert max(blocks) < 40

    def test_peak_memory_grows_with_block_not_event_count(self):
        rng = np.random.default_rng(17)
        classing = build_classes(rng.integers(0, 6, (1000, 20)).astype(float))
        assert classing.k == 1000
        peaks = []
        for n_events in (2000, 8000):
            tracemalloc.start()
            try:
                lexicase_select(classing, n_events, RandomSource(18))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Blocks hold about _PAIR_BUDGET (event, class) pairs, so both runs
        # peak near 8 MB; filtering all 8000 events at once takes 41 MB.
        assert peaks[1] < 1.5 * peaks[0]


class TestEpsilonLexicase:
    def test_epsilon_hand_values(self):
        classing = singleton_classes([[0.0, 5.0], [1.0, 5.0], [10.0, 5.0]])
        np.testing.assert_array_equal(epsilon_for_cases(classing), [1.0, 0.0])

    def test_epsilon_weights_duplicates(self):
        grouped = build_classes([[0.0], [0.0], [0.5]])
        expanded = singleton_classes([[0.0], [0.0], [0.5]])
        np.testing.assert_array_equal(
            epsilon_for_cases(grouped), epsilon_for_cases(expanded)
        )
        # the duplicate row must count twice: the unweighted class-level
        # MAD would be 0.25, the population value is 0
        assert epsilon_for_cases(grouped)[0] == 0.0

    def test_semi_dynamic_hand_instance(self):
        # tolerances are [1, 0]; during an event the threshold tracks the
        # minimum among the classes still alive.  Case order (1, 0) first
        # drops A, then B and C both sit within 1 of the remaining
        # minimum and the event exhausts.  A fully static threshold
        # (anchored to the population minimum) would keep B alone and
        # give [0, 1, 0] instead.
        classing = build_classes([[0.0, 3.0], [1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(epsilon_for_cases(classing), [1.0, 0.0])
        exact = exact_epsilon_lexicase_probs(classing, [1.0, 0.0]).probs
        np.testing.assert_allclose(exact, [0.0, 0.75, 0.25])
        picks = epsilon_lexicase_select(classing, 40_000, RandomSource(5))
        freqs = np.bincount(picks, minlength=3) / 40_000
        np.testing.assert_allclose(freqs, exact, atol=0.012)

    def test_zero_override_is_plain_lexicase_bitwise(self):
        rng = np.random.default_rng(22)
        errors = rng.random((9, 6))
        classing = singleton_classes(errors)
        a = lexicase_select(classing, 400, RandomSource(6))
        b = epsilon_lexicase_select(classing, 400, RandomSource(6), epsilons=np.zeros(6))
        np.testing.assert_array_equal(a, b)

    def test_exhaustion_weighted_by_member_counts(self):
        # a huge tolerance keeps everyone alive through every case, so
        # the pick must be uniform over individuals, not over classes
        classing = build_classes([[0.0], [0.0], [1.0]])
        picks = epsilon_lexicase_select(classing, 30_000, RandomSource(7), epsilons=[5.0])
        freq_big = (picks == 0).mean()
        assert abs(freq_big - 2 / 3) < 0.01

    def test_mad_of_extreme_finite_errors_stays_finite(self):
        # The midpoint (a + b) / 2 of two values near 1e308 overflows; the
        # true MAD is finite and exact epsilon-lexicase splits three ways.
        classing = build_classes(
            [[1e308, -1e308, 0.0], [-1e308, 1e308, 0.0], [1e308, 1e308, 1e308],
             [-1e308, -1e308, 5.0]]
        )
        with np.errstate(over="raise", invalid="raise"):
            epsilons = epsilon_for_cases(classing)
            picks = epsilon_lexicase_select(classing, 30_000, RandomSource(24))
            exact = oracle._method_distribution(
                classing, SelectorConfig("epsilon_lexicase"), RandomSource(25), 10
            )
        np.testing.assert_array_equal(epsilons, [1e308, 1e308, 2.5])
        expected = [1 / 3, 1 / 3, 0.0, 1 / 3]
        assert exact.kind == "exact"
        np.testing.assert_allclose(exact.probs, expected)
        freqs = np.bincount(picks, minlength=4) / picks.size
        np.testing.assert_allclose(freqs, expected, atol=0.012)

    def test_override_validation(self):
        classing = build_classes([[0.0, 1.0]])
        with pytest.raises(ShapeError):
            epsilon_lexicase_select(classing, 1, RandomSource(0), epsilons=[1.0])
        with pytest.raises(ShapeError):
            epsilon_lexicase_select(classing, 1, RandomSource(0), epsilons=[-1.0, 0.0])


def replay_batch_event(classing, cfg, gen, epsilons=None):
    """Scalar reimplementation of one batch selection event.

    Consumes the generator exactly like the vectorized version: one
    permutation up front, one uniform only if several classes survive.
    ``epsilons`` replaces the batch threshold with a per-case tolerance
    (one-case batches), which is epsilon-lexicase.
    """
    m = classing.m
    b = min(cfg.batch_size, m)
    order = list(gen.permutation(m))
    alive = list(range(classing.k))
    for start in range(0, m, b):
        if len(alive) == 1:
            break
        batch = order[start : start + b]
        means = {}
        for c in alive:
            covered = [t for t in batch if classing.class_support[c, t] == 1.0]
            if covered:
                means[c] = sum(classing.class_errors[c, t] for t in covered) / len(covered)
        if not means:
            continue
        best = min(means.values())
        if epsilons is not None:
            (tau,) = [epsilons[t] for t in batch]
        elif cfg.batch_threshold_mode == "absolute":
            tau = cfg.batch_threshold_value
        else:
            spread = []
            for c in alive:
                if c in means:
                    spread.extend([means[c]] * int(classing.sizes[c]))
            med = statistics.median(spread)
            tau = statistics.median(sorted(abs(v - med) for v in spread))
        alive = [c for c in alive if c in means and means[c] <= best + tau]
    if len(alive) == 1:
        return alive[0]
    u = gen.random()
    total = sum(int(classing.sizes[c]) for c in alive)
    acc = 0.0
    for c in alive:
        acc += classing.sizes[c]
        if acc > u * total:
            return c
    return alive[-1]


def assert_matches_replay(classing, cfg, src, n_events=200):
    """Picks of ``cfg``'s selector equal the scalar replay of every event."""
    epsilons = None
    if cfg.method == "epsilon_lexicase":
        epsilons = epsilon_for_cases(classing)
        assert (epsilons > 0).any()
    picks = selectors.select_classes(classing, n_events, cfg, src)
    expected = [
        replay_batch_event(classing, cfg, src.generator(EVENT_STREAM, i), epsilons)
        for i in range(n_events)
    ]
    np.testing.assert_array_equal(picks, expected)


class TestBatchLexicase:
    def test_size_one_absolute_zero_is_lexicase_bitwise(self):
        rng = np.random.default_rng(30)
        errors = rng.integers(0, 3, (8, 6)).astype(float)
        classing = build_classes(errors)
        cfg = SelectorConfig(
            method="batch_lexicase", batch_threshold_mode="absolute"
        )
        a = lexicase_select(classing, 400, RandomSource(8))
        b = batch_lexicase_select(classing, 400, cfg, RandomSource(8))
        np.testing.assert_array_equal(a, b)

    def test_complementary_halves_split_evenly(self):
        # under any pairing into batches the two rows are symmetric, so
        # each must win half the events
        classing = build_classes([[0, 1, 1, 0], [1, 0, 0, 1]])
        cfg = SelectorConfig(
            method="batch_lexicase", batch_size=2, batch_threshold_mode="absolute"
        )
        picks = batch_lexicase_select(classing, 50_000, cfg, RandomSource(9))
        assert abs(picks.mean() - 0.5) < 0.01

    @staticmethod
    def replay_matrix(errors):
        """Errors and support (None for full support) of a replay input."""
        rng = np.random.default_rng(31)
        if errors == "integer":
            return rng.integers(0, 4, (9, 7)).astype(float), None
        if errors == "duplicates":
            # Classes of one to three members give the MAD unequal weights.
            rows = rng.integers(0, 4, (6, 7)).astype(float)
            return rows[[0, 1, 1, 2, 3, 3, 3, 4, 5, 0]], None
        if errors == "sparse":
            # No one is defined on cases 0 and 1 and few on the rest, so
            # some batches have no defined survivor and are skipped.
            support = (rng.random((9, 7)) < 0.35).astype(float)
            support[:, :2] = 0.0
            support[~support.any(axis=1), 2] = 1.0
            return rng.integers(0, 4, (9, 7)) * support, support
        return rng.random((9, 7)) * 3.0, None

    @staticmethod
    def partial_support_classing():
        rng = np.random.default_rng(32)
        support = (rng.random((8, 6)) < 0.5).astype(float)
        support[~support.any(axis=1), 0] = 1.0
        errors = rng.integers(0, 4, (8, 6)).astype(float) * support
        return build_classes(errors, support)

    @pytest.mark.parametrize(
        "mode, value, batch_size",
        [("absolute", 0.0, 2), ("absolute", 0.5, 3), ("mad", 0.0, 2), ("mad", 0.0, 4)],
    )
    def test_matches_scalar_replay(self, mode, value, batch_size):
        cfg = SelectorConfig(
            method="batch_lexicase",
            batch_size=batch_size,
            batch_threshold_mode=mode,
            batch_threshold_value=value,
        )
        classing = build_classes(*self.replay_matrix("integer"))
        assert_matches_replay(classing, cfg, RandomSource(10))

    @pytest.mark.parametrize(
        "cfg, errors",
        [
            (SelectorConfig(method="batch_lexicase", batch_size=3), "continuous"),
            (SelectorConfig(method="epsilon_lexicase"), "integer"),
            (SelectorConfig(method="batch_lexicase", batch_size=2), "duplicates"),
            (SelectorConfig(method="batch_lexicase", batch_size=2), "sparse"),
            (SelectorConfig(method="batch_lexicase"), "sparse"),
        ],
        ids=[
            "batch_lexicase-continuous",
            "epsilon_lexicase-integer",
            "batch_lexicase-duplicates",
            "batch_lexicase-sparse",
            "batch_lexicase-size1-sparse",
        ],
    )
    def test_filter_variants_match_scalar_replay(self, cfg, errors):
        classing = build_classes(*self.replay_matrix(errors))
        assert_matches_replay(classing, cfg, RandomSource(10))

    def test_partial_support_matches_scalar_replay(self):
        cfg = SelectorConfig(method="batch_lexicase", batch_size=2)
        assert_matches_replay(self.partial_support_classing(), cfg, RandomSource(11))

    def test_epsilon_partial_support_matches_scalar_replay(self):
        cfg = SelectorConfig(method="epsilon_lexicase")
        assert_matches_replay(self.partial_support_classing(), cfg, RandomSource(11))

    def test_peak_memory_bounded_with_an_all_tied_case(self, monkeypatch):
        # About ten classes solve each case, but every class ties on case
        # 0, so events that draw it first keep every class.  The blocks are
        # sized by the mean elite, and the MAD must stay within the pairs
        # a block holds rather than pad every event to the widest one.
        rng = np.random.default_rng(19)
        errors = np.ones((1000, 20))
        errors[rng.random(errors.shape) < 0.01] = 0.0
        half = rng.random(errors.shape) < 0.05
        errors[half] = 0.25 + 0.5 * rng.random(half.sum())
        errors[:, 0] = 0.0
        classing = build_classes(errors)
        monkeypatch.setattr(selectors, "_PAIR_BUDGET", 1 << 15)
        tracemalloc.start()
        try:
            batch_lexicase_select(
                classing, 2000, SelectorConfig(method="batch_lexicase"), RandomSource(20)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 3 MB; padding each event's pairs to k takes about 28 MB.
        assert peak < 32 * 8 * selectors._PAIR_BUDGET

    def test_oversized_batch_clamps_to_single_batch(self):
        # one batch holding every case scores classes by their plain
        # mean error, so the unique argmin always wins
        classing = build_classes([[0.0, 10.0], [4.0, 4.0], [9.0, 0.0]])
        cfg = SelectorConfig(
            method="batch_lexicase", batch_size=999, batch_threshold_mode="absolute"
        )
        picks = batch_lexicase_select(classing, 300, cfg, RandomSource(12))
        assert (picks == 1).all()

    def test_method_mismatch_rejected(self):
        classing = build_classes([[0.0]])
        with pytest.raises(ConfigError):
            batch_lexicase_select(
                classing, 1, SelectorConfig(method="dalex"), RandomSource(0)
            )


class TestSelectParents:
    def test_indices_are_individuals(self):
        errors = [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]
        parents = select_parents(
            errors, None, SelectorConfig(method="lexicase"), 2000, RandomSource(13)
        )
        assert parents.shape == (2000,)
        assert set(np.unique(parents)) <= {0, 1, 2}
        # rows 0 and 1 are identical, so their joint share splits evenly
        counts = np.bincount(parents, minlength=3)
        assert abs(counts[0] - counts[1]) < 4.5 * np.sqrt(2000 * 0.25)

    def test_deterministic(self):
        rng = np.random.default_rng(33)
        errors = rng.random((10, 4))
        cfg = SelectorConfig(method="dalex")
        a = select_parents(errors, None, cfg, 50, RandomSource(14))
        b = select_parents(errors, None, cfg, 50, RandomSource(14))
        np.testing.assert_array_equal(a, b)
