"""Tests for the selection methods and their shared plumbing."""

import math
import statistics
import tracemalloc
import warnings
from dataclasses import replace

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
from lexsel.bench import make_regime_matrices
from lexsel import oracle
from lexsel.core import EVENT_STREAM, FINISH_STREAM, TIEBREAK_STREAM, standardize_per_case
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


class TestScoresInParts:
    """Normal scores drawn in parts: the four largest first, the rest per
    event on demand."""

    def test_ndtri_matches_the_normal_quantile(self):
        tails = [1e-300, 1e-100, 1e-20, 1e-5, 0.025, 0.075, 0.5, 0.925, 0.975, 1 - 1e-12]
        p = np.concatenate([tails, np.random.default_rng(60).random(500)])
        expected = np.array([statistics.NormalDist().inv_cdf(x) for x in p])
        np.testing.assert_allclose(selectors._ndtri(p), expected, rtol=1e-14, atol=1e-300)
        # Elementwise: a value does not depend on the array around it.
        grid = p.reshape(51, 10)
        np.testing.assert_array_equal(selectors._ndtri(grid)[7], selectors._ndtri(grid[7]))

    @pytest.mark.parametrize("m", [1, 2, 4, 5, 30])
    def test_scores_are_independent_normals(self, m):
        n, pressure = 20_000, 3.0
        scores = selectors._scores_in_parts(n, m, pressure, RandomSource(61))
        assert scores.shape == (n, m) and np.isfinite(scores).all()
        # Every case is a normal draw of the pressure's spread ...
        assert np.abs(scores.mean(axis=0)).max() < 5 * pressure / np.sqrt(n)
        assert np.abs(scores.std(axis=0) / pressure - 1).max() < 0.04
        # ... the largest of the m is below that maximum's median half
        # the time, and falls on every case alike ...
        median_max = pressure * statistics.NormalDist().inv_cdf(0.5 ** (1 / m))
        assert abs((scores.max(axis=1) < median_max).mean() - 0.5) < 0.02
        counts = np.bincount(scores.argmax(axis=1), minlength=m)
        assert np.abs(counts / (n / m) - 1).max() < 6 / np.sqrt(n / m)
        # ... and cases are uncorrelated.
        if m > 1:
            corr = np.corrcoef(scores.T)
            assert np.abs(corr[~np.eye(m, dtype=bool)]).max() < 0.04

    def test_scores_do_not_depend_on_the_event_count(self):
        full = selectors._scores_in_parts(90, 12, 5.0, RandomSource(62))
        for n in (1, 2, 31):
            np.testing.assert_array_equal(
                selectors._scores_in_parts(n, 12, 5.0, RandomSource(62)), full[:n]
            )

    def test_rest_stays_below_the_last_top_score(self):
        # A uniform of 0 puts a rest score at the fourth largest's CDF
        # level; computed another way, it may round above it.
        cases, values, level = selectors._top_scores(5000, 9, 1.0, RandomSource(73))
        scores = selectors._complete_scores(cases, values, level, np.zeros((5000, 9)), 1.0)
        rest = np.ones((5000, 9), dtype=bool)
        rest[np.arange(5000)[:, None], cases] = False
        assert (scores[rest].reshape(5000, 5) <= values[:, -1:]).all()

    def test_rest_stream_draws_any_subset_of_events(self):
        whole = selectors._RestStream(RandomSource(63), 9).draw(np.arange(40))
        stream = selectors._RestStream(RandomSource(63), 9)
        for events in ([0, 1], [5], [7, 8, 9, 20], [39]):
            np.testing.assert_array_equal(stream.draw(np.array(events)), whole[events])


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

    def test_flushing_underflow_keeps_every_bit(self):
        # The flush before ``exp`` drops only powers below tiny: the row
        # sums and the clamped weights come out as without it.
        for pressure in (2.0, 20.0, 200.0, 2000.0):
            cfg = SelectorConfig(method="dalex", pressure=pressure)
            scores = sample_importance(300, 200, cfg, RandomSource(60))
            with np.errstate(under="ignore"):
                powers = np.exp(scores - scores.max(axis=1, keepdims=True))
            sums = powers.sum(axis=1, keepdims=True)
            expected = np.maximum(powers / sums, np.finfo(np.float64).tiny)
            flushed = np.where(powers < np.finfo(np.float64).tiny, 0.0, powers)
            np.testing.assert_array_equal(flushed.sum(axis=1, keepdims=True), sums)
            np.testing.assert_array_equal(softmax_rows(scores), expected)


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

    def test_out_buffers_hold_the_same_bits(self):
        # Reused buffers, dirty from an earlier call, give what fresh
        # arrays give.
        rng = np.random.default_rng(96)
        support = (rng.random((40, 12)) < 0.5).astype(float)
        support[:, 0] = 1.0
        for classing in (
            build_classes(rng.random((40, 12))),
            build_classes(rng.random((40, 12)) * support, support),
        ):
            scores = rng.normal(0.0, 20.0, (9, 12))
            weights = np.full((9, 12), np.nan)
            products = np.full((2, 9, classing.k), np.nan)
            w = softmax_rows(scores, out=weights)
            fitness = weighted_fitness(classing, w, out=(products[0], products[1]))
            assert w is weights and np.shares_memory(fitness, products[0])
            np.testing.assert_array_equal(w, softmax_rows(scores))
            np.testing.assert_array_equal(fitness, weighted_fitness(classing, softmax_rows(scores)))


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
        # With partial support the map applies to defined entries only.
        support = (rng.random(errors.shape) < 0.6).astype(float)
        support[:, 0] = 1.0
        cfg = self.cfg(relaxed=True)
        for rows, defined in ((errors, None), (errors * support, support)):
            rescaled = rows * 4.0 + 8.0
            if defined is not None:
                rescaled *= defined
            a = dalex_select(build_classes(rows, defined), 300, cfg, RandomSource(7))
            b = dalex_select(build_classes(rescaled, defined), 300, cfg, RandomSource(7))
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

    ROUTES = ("in-parts", "full-rows", "injected", "partial", "no-screen")

    def route(self, name, patch, n_events=300):
        """A classing, config and injected scores (or None) that send a
        pass down route ``name``, and the first screen its blocks run
        there (None for a pass with no screen)."""
        errors, support = make_regime_matrices("continuous_all_distinct", 300, 40, RandomSource(60))
        cfg, scores, first = self.cfg(pressure=200.0), None, "_lex_screen"
        if name == "in-parts":
            first = "_top_decide"
        elif name == "full-rows":
            cfg = self.cfg(pressure=200.0, distribution="uniform")
        elif name == "injected":
            scores = np.random.default_rng(61).normal(0.0, 200.0, (max(n_events, 0), 40))
        elif name == "partial":
            errors, support = partial_matrices()["zero-rich"]
            patch.setattr(selectors, "_PARTIAL_CLASSES", 0)
            first = "_partial_screen"
        else:
            errors, first = errors * 1e300, None
        return build_classes(errors, support), cfg, scores, first

    @pytest.mark.parametrize("name", ROUTES)
    def test_routes_run_their_first_screen(self, monkeypatch, name):
        calls = []
        for screen in ("_top_decide", "_lex_screen", "_partial_screen"):
            run = getattr(selectors, screen)

            def recorded(*args, _run=run, _screen=screen):
                calls.append(_screen)
                return _run(*args)

            monkeypatch.setattr(selectors, screen, recorded)
        classing, cfg, scores, first = self.route(name, monkeypatch)
        dalex_select(classing, 300, cfg, RandomSource(62), importance=scores)
        assert set(calls) == ({first} if first else set())

    @pytest.mark.parametrize("name", ROUTES)
    @pytest.mark.parametrize("n_events", [0, -1])
    def test_event_count_checked_on_every_route(self, monkeypatch, name, n_events):
        classing, cfg, scores, _ = self.route(name, monkeypatch, n_events)
        with pytest.raises(ShapeError, match="n_events"):
            dalex_select(classing, n_events, cfg, RandomSource(63), importance=scores)

    @pytest.mark.parametrize("name", ["injected", "partial", "no-screen"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_importance_rejected_on_every_route(self, monkeypatch, name, bad):
        classing, cfg, _, _ = self.route(name, monkeypatch)
        scores = np.random.default_rng(64).normal(0.0, 200.0, (300, classing.m))
        scores[7, 3] = bad
        with pytest.raises(ShapeError, match="non-finite"):
            dalex_select(classing, 300, cfg, RandomSource(65), importance=scores)

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
        shifted = selectors._shifted_errors(classing.class_errors)[0]
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


def dalex_scores(shifted, n_events, cfg, rng):
    """The importance scores ``dalex_select`` draws on the ``shifted``
    errors, every event complete: normal scores on a pass the top screen
    pays on are drawn in parts."""
    screen = selectors._screen_setup(shifted)
    m = shifted.shape[1]
    if (
        cfg.distribution == "normal"
        and screen is not None
        and selectors._decisive_top_scores(n_events, m, cfg.pressure, rng, screen)
    ):
        return selectors._scores_in_parts(n_events, m, cfg.pressure, rng)
    return sample_importance(n_events, m, cfg, rng)


def float64_cascade_picks(classing, n_events, cfg, rng):
    """``dalex_select``'s picks with every event through the float64
    round of the cascade, no screen."""
    errors = classing.class_errors
    if cfg.relaxed:
        errors = standardize_per_case(errors, classing.sizes)
    errors, class_rows = selectors._shifted_errors(errors)
    importance = dalex_scores(errors, n_events, cfg, rng)
    u = rng.generator(TIEBREAK_STREAM).random(n_events)
    picks = np.empty(n_events, dtype=np.intp)
    for lo, hi in selectors._event_blocks(n_events, classing.k):
        marked = selectors._cascade(importance[lo:hi], errors, class_rows)
        picks[lo:hi] = selectors._pick_marked(marked, u[lo:hi])
    return picks


def float32_decided(weights, screen):
    """The rows of ``weights`` the float32 screen decides: those left
    with one candidate class."""
    candidates, _ = selectors._screen_candidates(weights, screen)
    return np.flatnonzero(np.count_nonzero(candidates, axis=1) == 1)


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
                    screen = selectors._screen_setup(selectors._shifted_errors(errors)[0])
                    importance = sample_importance(n_events, classing.m, cfg, RandomSource(46))
                    weights = selectors._flushed_softmax(importance)
                    decided += float32_decided(weights, screen).size
        assert decided > 0

    def test_one_block_holds_both_routes(self):
        classing = build_classes(screen_matrices()["mixed"])
        screen = selectors._screen_setup(selectors._shifted_errors(classing.class_errors)[0])
        (lo, hi), *_ = selectors._event_blocks(4000, classing.k)
        importance = sample_importance(
            4000, classing.m, SelectorConfig("dalex", pressure=200.0), RandomSource(47)
        )
        routed = screen.unique_min[importance[lo:hi].argmax(axis=1)]
        assert routed.any() and not routed.all()

    def test_small_float64_remainder_keeps_the_picks(self, monkeypatch):
        # One tied case in 40: the screens send a block's few hard events
        # to the float64 product, a product of a few rows for which BLAS
        # may take other kernels than for the block.
        rng = np.random.default_rng(52)
        errors = rng.random((2500, 40))
        errors[:, 0] = rng.integers(0, 3, 2500)
        classing = build_classes(errors)
        shifted = selectors._shifted_errors(classing.class_errors)[0]
        remainders = set()
        cascade = selectors._cascade

        def recorded(scores, *errors):
            remainders.add(scores.shape[0])
            return cascade(scores, *errors)

        for n_events in (12, 60, 200, 1000):
            for pressure in (2.0, 200.0, 2000.0):
                cfg = SelectorConfig("dalex", pressure=pressure)
                with monkeypatch.context() as patch:
                    patch.setattr(selectors, "_cascade", recorded)
                    picks = dalex_select(classing, n_events, cfg, RandomSource(53))
                expected = float64_cascade_picks(classing, n_events, cfg, RandomSource(53))
                np.testing.assert_array_equal(picks, expected, err_msg=str(cfg))
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

    def test_float64_remainder_separates_classes_below_float32_resolution(self):
        # Contenders differ by 1e-10 to 1e-7 on every case, below float32
        # resolution at 1.0 but far beyond the float64 tie slack, so only a
        # float64 product tells them apart and no agreed case lets the
        # cascade do it.  Events with
        # a dominant case go to its specialist and the screen decides them;
        # the others stay undecided and take the smaller float64 product.
        rng = np.random.default_rng(55)
        m, q = 10, 30
        specialists = np.full((m, m), 1000.0)
        np.fill_diagonal(specialists, 0.0)
        contenders = 1.0 + 1e-10 * rng.integers(1, 1000, (q, m))
        classing = build_classes(np.vstack([contenders, specialists]))
        screen = selectors._screen_setup(selectors._shifted_errors(classing.class_errors)[0])
        for pressure in (5.0, 10.0, 20.0):
            cfg = SelectorConfig("dalex", pressure=pressure)
            picks = dalex_select(classing, 600, cfg, RandomSource(56))
            expected = float64_cascade_picks(classing, 600, cfg, RandomSource(56))
            np.testing.assert_array_equal(picks, expected, err_msg=str(cfg))
            importance = sample_importance(600, m, cfg, RandomSource(56))
            weights = selectors._flushed_softmax(importance)
            decided = float32_decided(weights, screen).size
            assert 0 < decided < 600 and np.unique(picks[picks < q]).size > 1

    def test_decides_most_tied_events_at_low_pressure(self, monkeypatch):
        # A floor, so a routing that keeps events whose heaviest case is
        # tied from the float32 screen fails: at pressure 2 the walk's
        # gate turns them all away, and the float32 product settles them.
        errors = np.random.default_rng(57).integers(0, 6, (4000, 200)).astype(float)
        classing = build_classes(errors)
        cfg = SelectorConfig("dalex", pressure=2.0)
        decided = []
        candidates = selectors._screen_candidates

        def recorded(weights, screen):
            out = candidates(weights, screen)
            decided.append(np.count_nonzero(np.count_nonzero(out[0], axis=1) == 1))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(selectors, "_screen_candidates", recorded)
            picks = dalex_select(classing, 4000, cfg, RandomSource(58))
        assert sum(decided) >= 0.9 * 4000
        expected = float64_cascade_picks(classing, 4000, cfg, RandomSource(58))
        np.testing.assert_array_equal(picks, expected)

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
            shifted = selectors._shifted_errors(build_classes(errors).class_errors)[0]
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


def dense_top_decide(cases, values, screen):
    """``selectors._top_decide`` with a class-wide pass that weighs every
    class, as before heads.  Returns the decided events and their classes,
    and the events the class-wide pass decides with their bounds on U."""
    errors_t, sums = screen.errors_t, screen.sums
    factor, absolute = screen.top_factor, screen.top_absolute
    j1 = cases[:, 0]
    rows = np.flatnonzero(screen.unique_min[j1])
    r = cases.shape[1]
    z = values[rows, 1:] - values[rows, :1]
    b = screen.best[j1[rows]]
    events, bound = rows[:0], np.empty(0)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        w = np.exp(z)
        upper = w[:, -1] * sums[b] if r > 1 else np.zeros(rows.size)
        for t in range(1, r - 1):
            upper += w[:, t - 1] * errors_t[cases[rows, t], b]
        alone = screen.runner_up[j1[rows]] > factor * upper + absolute
        decided, classes = [rows[alone]], [b[alone]]
        left = np.flatnonzero(~alone & (z[:, -1] < selectors._LOG_LIGHT_TAIL)) if r > 1 else []
        if len(left):
            events = rows[left]
            lower = errors_t[cases[events, 0]]
            for t in range(1, r - 1):
                wt = w[left, t - 1]
                wt[wt < selectors._FLOOR] = 0.0
                lower += wt[:, None] * errors_t[cases[events, t]]
            tail = np.exp(np.maximum(z[left, -1], selectors._LOG_FLOOR))
            a = lower.argmin(axis=1)
            bound = factor * (lower[np.arange(left.size), a] + tail * sums[a]) + absolute
            only = np.count_nonzero(lower > bound[:, None], axis=1) == lower.shape[1] - 1
            decided.append(events[only])
            classes.append(a[only])
            events, bound = events[only], bound[only]
    return np.concatenate(decided), np.concatenate(classes), events, bound


class TestTopScreen:
    """The screen that decides events from their heaviest cases alone."""

    def matrices(self):
        rng = np.random.default_rng(64)
        base = rng.random((1, 12))
        # Classes a few ulps apart, the first a unique best on every case.
        near = base + base * np.finfo(float).eps * rng.integers(1, 5, (30, 12))
        near[0] = base
        return [
            *screen_matrices().values(),
            near,
            # Cases scaled from 1e-300 to 1e30.
            rng.random((50, 8)) * 10.0 ** rng.uniform(-300, 30, 8),
            # Rank-like errors, as in the acceptance benchmark.
            np.argsort(rng.random((300, 40)), axis=0) + rng.random((300, 40)) * 0.5,
            rng.random((40, 1)),
            rng.random((40, 2)),
            rng.random((40, 4)),
        ]

    @pytest.mark.parametrize("pressure", [2.0, 20.0, 200.0, 2000.0])
    def test_decided_events_hold_for_any_completion(self, pressure):
        # The screen sees only the four largest scores; whatever the
        # others are below them, the float64 round marks the decided class
        # alone.
        decided_any = 0
        for errors in self.matrices():
            shifted, class_rows = selectors._shifted_errors(build_classes(errors).class_errors)
            screen = selectors._screen_setup(shifted)
            assert screen is not None
            m, n = shifted.shape[1], 400
            cases, values, level = selectors._top_scores(n, m, pressure, RandomSource(65))
            rows, classes = selectors._top_decide(cases, values, screen)
            decided_any += rows.size
            for seed in (66, 67):
                uniforms = selectors._RestStream(RandomSource(seed), m).draw(np.arange(n))
                scores = selectors._complete_scores(cases, values, level, uniforms, pressure)
                marked = selectors._cascade(scores, shifted, class_rows)
                expected = np.zeros_like(marked[rows])
                expected[np.arange(rows.size), classes] = True
                np.testing.assert_array_equal(marked[rows], expected)
        assert decided_any > 0

    @pytest.mark.parametrize("distribution", ["normal", "uniform", "shuffled_range"])
    def test_full_rows_agree_with_the_float64_round(self, distribution):
        for errors in self.matrices():
            shifted, class_rows = selectors._shifted_errors(build_classes(errors).class_errors)
            screen = selectors._screen_setup(shifted)
            for pressure in (20.0, 2000.0):
                cfg = SelectorConfig("dalex", pressure=pressure, distribution=distribution)
                scores = sample_importance(300, shifted.shape[1], cfg, RandomSource(68))
                rows, classes, _ = selectors._lex_screen(scores, screen)
                marked = selectors._cascade(scores, shifted, class_rows)
                assert marked[rows].sum(axis=1).max(initial=1) == 1
                np.testing.assert_array_equal(marked[rows, classes], True)

    def assert_decisions_match_float64_round(self, errors, scores):
        shifted, class_rows = selectors._shifted_errors(build_classes(errors).class_errors)
        rows, classes, _ = selectors._lex_screen(scores, selectors._screen_setup(shifted))
        marked = selectors._cascade(scores, shifted, class_rows)
        expected = np.zeros_like(marked[rows])
        expected[np.arange(rows.size), classes] = True
        np.testing.assert_array_equal(marked[rows], expected)

    def test_classes_tied_within_the_slack_stay_undecided(self):
        # Class 1 is worse than class 0 by 1-3 ulps: the float64 round
        # marks both, so the screen must not decide for class 0.
        for ulps in (1, 2, 3):
            delta = np.exp(-1.0) * (1 + ulps * 2.0**-52)
            errors = np.array([[0.0, 1.0], [delta, 0.0]])
            scores = np.array([[0.0, -1.0], [0.0, -1.0]])
            self.assert_decisions_match_float64_round(errors, scores)

    def test_flushed_weights_do_not_count_toward_a_decision(self):
        # The second case's weight is below float64 tiny, so the float64
        # round gives class 0 fitness 0; counted, it would make class 1
        # look better.
        errors = np.array([[0.0, 1e30, 0.0], [1e-280, 0.0, 0.0]])
        scores = np.array([[0.0, -710.0, -800.0], [0.0, -710.0, -800.0]])
        self.assert_decisions_match_float64_round(errors, scores)

    def head_matrices(self):
        rng = np.random.default_rng(76)
        # Case 0: a unique best class, 29 close behind, and 120 tied at
        # the value the 64-class head ends on.
        boundary = 2.0 + rng.random((200, 12))
        boundary[:, 0] = 3.0 + rng.random(200)
        boundary[:30, 0] = np.sort(rng.random(30))
        boundary[0, 0] = 0.0
        boundary[30:150, 0] = 1.0
        return [*self.matrices(), rng.random((64, 10)), rng.random((65, 10)), boundary]

    def test_heads_decide_what_every_class_decides(self, monkeypatch):
        # Decided events compared as sets, with their classes, against a
        # class-wide pass over every class, on drawn scores and on
        # events with a flushed third weight and a floored tail.
        rng = np.random.default_rng(78)
        routes = {"head": 0, "fallback": 0}
        every_class = []
        class_wide = selectors._class_wide

        def recorded(top, weights, tail, screen, columns=None):
            out = class_wide(top, weights, tail, screen, columns)
            if columns is None and screen.errors_t.shape[1] > selectors._HEAD:
                every_class.append(np.count_nonzero(out[0]))
            return out

        monkeypatch.setattr(selectors, "_class_wide", recorded)
        for errors in self.head_matrices():
            shifted = selectors._shifted_errors(build_classes(errors).class_errors)[0]
            screen = selectors._screen_setup(shifted)
            m, k = shifted.shape[1], shifted.shape[0]
            # Every odd class's error sum overflows.
            with np.errstate(over="ignore"):
                sums = np.where(np.arange(k) % 2, screen.sums * 1e308, screen.sums)
            overflowed = replace(screen, sums=sums)
            draws = [selectors._top_scores(2000, m, p, RandomSource(79))[:2]
                     for p in (2.0, 20.0, 200.0, 2000.0)]
            cases = draws[0][0]
            gaps = np.stack([np.zeros(2000), -3 * rng.random(2000), np.full(2000, -400.0),
                             np.full(2000, -800.0)], axis=1)
            draws.append((cases, gaps[:, : cases.shape[1]]))
            for cases, values in draws:
                for tried in (screen, overflowed):
                    rows, classes = selectors._top_decide(cases, values, tried)
                    expected, expected_classes, wide, bound = dense_top_decide(
                        cases, values, tried
                    )
                    assert rows.size == np.unique(rows).size == expected.size
                    assert dict(zip(rows.tolist(), classes.tolist())) == dict(
                        zip(expected.tolist(), expected_classes.tolist())
                    )
                    if k > selectors._HEAD and wide.size:
                        rest = tried.heads(cases[wide, 0])[1]
                        routes["head"] += np.count_nonzero(bound < rest)
                        routes["fallback"] += np.count_nonzero(~(bound < rest))
        assert routes["head"] > 0 and routes["fallback"] > 0
        assert sum(every_class) == routes["fallback"]

    def test_heads_hold_the_least_errors_of_each_case(self):
        rng = np.random.default_rng(80)
        shifted = selectors._shifted_errors(rng.integers(0, 40, (300, 20)).astype(float))[0]
        screen = selectors._screen_setup(shifted)
        cases = rng.integers(0, 20, 50)
        heads, rest = screen.heads(cases)
        again = screen.heads(cases[::-1])
        np.testing.assert_array_equal(again[0], heads[::-1])
        for j, head, least in zip(cases, heads, rest):
            column = shifted[:, j]
            assert (np.diff(head) > 0).all() and head.size == selectors._HEAD
            outside = np.delete(column, head)
            assert least == outside.min()
            assert column[head].max() <= least

    def test_most_distinct_events_skip_the_rest_of_their_scores(self):
        errors = np.argsort(np.random.default_rng(69).random((1000, 200)), axis=0)
        shifted = selectors._shifted_errors(build_classes(errors + 0.5).class_errors)[0]
        screen = selectors._screen_setup(shifted)
        cases, values, _ = selectors._top_scores(1000, 200, 200.0, RandomSource(70))
        rows, _ = selectors._top_decide(cases, values, screen)
        assert rows.size > 980

    def test_picks_do_not_depend_on_event_count_or_blocks(self, monkeypatch):
        classing = build_classes(screen_matrices()["mixed"])
        cfg = SelectorConfig("dalex", pressure=200.0)
        screen = selectors._screen_setup(selectors._shifted_errors(classing.class_errors)[0])
        assert selectors._decisive_top_scores(1, classing.m, 200.0, RandomSource(71), screen)
        full = dalex_select(classing, 3 * 420 + 2, cfg, RandomSource(71))
        monkeypatch.setattr(selectors, "_BLOCK_ENTRIES", 420 * classing.k)
        for n in (1, 2, 419, 3 * 420 + 2):
            np.testing.assert_array_equal(
                dalex_select(classing, n, cfg, RandomSource(71)), full[:n]
            )

    def test_drawn_picks_equal_picks_from_injected_scores(self):
        in_parts = set()
        for name, errors in screen_matrices().items():
            classing = build_classes(errors)
            shifted = selectors._shifted_errors(classing.class_errors)[0]
            for pressure in (2.0, 200.0):
                cfg = SelectorConfig("dalex", pressure=pressure)
                scores = dalex_scores(shifted, 500, cfg, RandomSource(72))
                np.testing.assert_array_equal(
                    dalex_select(classing, 500, cfg, RandomSource(72)),
                    dalex_select(classing, 500, cfg, RandomSource(72), importance=scores),
                    err_msg=f"{name} {pressure}",
                )
                screen = selectors._screen_setup(shifted)
                top = selectors._decisive_top_scores(500, classing.m, pressure, RandomSource(72), screen)
                in_parts.add(top is not None)
        # Both layouts ran.
        assert in_parts == {False, True}

    def test_pilot_choice_does_not_depend_on_event_count(self):
        classing = build_classes(screen_matrices()["distinct"])
        screen = selectors._screen_setup(selectors._shifted_errors(classing.class_errors)[0])
        for pressure in (2.0, 20.0, 200.0):
            chosen = {
                selectors._decisive_top_scores(n, classing.m, pressure, RandomSource(74), screen)
                is not None
                for n in (1, 5, selectors._PILOT, 300)
            }
            assert len(chosen) == 1

    def test_accepted_pilot_draws_equal_whole_draws(self):
        """The pilot's events and the others, drawn in two calls, are the
        draws of one call over every event."""
        classing = build_classes(screen_matrices()["distinct"])
        screen = selectors._screen_setup(selectors._shifted_errors(classing.class_errors)[0])
        for n in (1, selectors._PILOT, selectors._PILOT + 1, 300):
            top = selectors._decisive_top_scores(n, classing.m, 200.0, RandomSource(75), screen)
            whole = selectors._top_scores(n, classing.m, 200.0, RandomSource(75))
            for part, expected in zip(top, whole):
                np.testing.assert_array_equal(part, expected)


def unscreened_dalex_picks(monkeypatch, classing, n_events, cfg, rng, importance=None):
    """``dalex_select``'s picks with the lexicographic screen off."""
    with monkeypatch.context() as patch:
        none = np.empty(0, dtype=np.intp)
        patch.setattr(selectors, "_lex_screen", lambda scores, screen: (none, none, none))
        return dalex_select(classing, n_events, cfg, rng, importance)


class TestLexScreen:
    """The screen that decides events by filtering their heaviest cases."""

    PRESSURES = (2.0, 20.0, 200.0, 2000.0)

    def matrices(self):
        rng = np.random.default_rng(80)
        problem = SyntheticProblem("discrete_vector", m=40, seed=81, n_keys=3, n_values=4)
        genomes = [rng.integers(0, problem.token_range, 4) for _ in range(300)]
        evolved, _ = problem.evaluate(genomes)
        out = {
            "ties": rng.integers(0, 6, (300, 30)).astype(float),
            "binary": rng.integers(0, 2, (200, 25)).astype(float),
            "evolve-like": evolved,
            "m=1": rng.integers(0, 4, (40, 1)).astype(float),
            "m=2": rng.integers(0, 3, (40, 2)).astype(float),
            "all tied": np.full((30, 12), 3.0),
            "one case splits": np.hstack([np.zeros((50, 11)), rng.integers(0, 3, (50, 1))]),
            "near 1e308": rng.choice([-1e308, 0.0, 1e308], (30, 10)),
        }
        for k in (1, 63, 64, 65, 129):
            # Distinct rows, so k classes, across bitset word edges.
            ties = rng.integers(0, 4, (k, 16)).astype(float)
            ties[:, 0] = np.arange(k) % 4
            ties[:, 1] = np.arange(k) // 4
            out[f"k={k}"] = ties
        return out

    def test_screened_picks_equal_unscreened_picks(self, monkeypatch):
        # Two references: the lexicographic screen off, and every screen
        # off (the float64 cascade alone).
        decided = {}
        matrices = {**self.matrices(), **{f"screen {k}": v for k, v in screen_matrices().items()}}
        for name, errors in matrices.items():
            for classing in (build_classes(errors), singleton_classes(errors)):
                for pressure in self.PRESSURES:
                    for distribution in ("normal", "shuffled_range"):
                        for relaxed in (False, True):
                            cfg = SelectorConfig(
                                "dalex", pressure=pressure, distribution=distribution,
                                relaxed=relaxed,
                            )
                            picks = dalex_select(classing, 300, cfg, RandomSource(82))
                            for expected in (
                                unscreened_dalex_picks(
                                    monkeypatch, classing, 300, cfg, RandomSource(82)
                                ),
                                float64_cascade_picks(classing, 300, cfg, RandomSource(82)),
                            ):
                                np.testing.assert_array_equal(
                                    picks, expected, err_msg=f"{name} k={classing.k} {cfg}"
                                )
                shifted = selectors._shifted_errors(classing.class_errors)[0]
                screen = selectors._screen_setup(shifted)
                if screen is not None:
                    scores = sample_importance(
                        300, classing.m, SelectorConfig("dalex", pressure=200.0), RandomSource(83)
                    )
                    decided[name] = decided.get(name, 0) + selectors._lex_screen(scores, screen)[0].size
        assert decided["ties"] > 0 and decided["evolve-like"] > 0 and decided["k=129"] > 0

    def test_decisions_match_the_float64_cascade(self):
        for name, errors in self.matrices().items():
            for classing in (build_classes(errors), singleton_classes(errors)):
                shifted, class_rows = selectors._shifted_errors(classing.class_errors)
                screen = selectors._screen_setup(shifted)
                if screen is None:
                    continue
                for pressure in self.PRESSURES:
                    cfg = SelectorConfig("dalex", pressure=pressure)
                    scores = sample_importance(300, classing.m, cfg, RandomSource(84))
                    rows, classes, _ = selectors._lex_screen(scores, screen)
                    marked = selectors._cascade(scores, shifted, class_rows)
                    expected = np.zeros_like(marked[rows])
                    expected[np.arange(rows.size), classes] = True
                    np.testing.assert_array_equal(marked[rows], expected, err_msg=name)

    def test_duplicate_classes_are_never_decided(self):
        # Kept as separate classes, a duplicated row can never be the
        # lone survivor of its own filter.
        errors = np.random.default_rng(85).integers(0, 3, (60, 20)).astype(float)
        classing = singleton_classes(np.vstack([errors, errors]))
        screen = selectors._screen_setup(selectors._shifted_errors(classing.class_errors)[0])
        for pressure in self.PRESSURES:
            cfg = SelectorConfig("dalex", pressure=pressure)
            scores = sample_importance(400, classing.m, cfg, RandomSource(86))
            assert selectors._lex_screen(scores, screen)[0].size == 0

    def test_classes_tied_within_the_slack_stay_undecided(self, monkeypatch):
        # Classes 0 and 1 tie on the heaviest case, and the filter cuts
        # class 1 on the next, though it is worse by only 1-3 ulps: every
        # round marks both and, once the first case is dropped, no agreed
        # case separates them, so the events are coin flips the screen
        # must leave to the cascade.
        for ulps in (1, 2, 3):
            delta = np.exp(-1.0) * (1 + ulps * 2.0**-52)
            classing = build_classes([[0.0, 0.0, 1.0], [0.0, delta, 0.0], [1.0, 1.0, 1.0]])
            importance = np.tile([0.0, -1.0, -2.0], (200, 1))
            cfg = SelectorConfig("dalex", pressure=200.0)
            picks = dalex_select(classing, 200, cfg, RandomSource(87), importance)
            expected = unscreened_dalex_picks(
                monkeypatch, classing, 200, cfg, RandomSource(87), importance
            )
            np.testing.assert_array_equal(picks, expected)
            assert set(picks.tolist()) == {0, 1}

    def test_near_equal_top_scores_take_the_fallback(self, monkeypatch):
        # Cases 0 and 1 are every event's heaviest, 2^-60 apart, and the
        # classes with a zero on one have a one on the other: the lexicase
        # winner's error on case 1 then weighs as much as any cut class's
        # on case 0, and only the cascade can settle the event.
        rng = np.random.default_rng(88)
        errors = rng.integers(0, 6, (300, 30)).astype(float)
        errors[:, 0] = rng.integers(0, 2, 300)
        errors[:, 1] = 1.0 - errors[:, 0]
        classing = build_classes(errors)
        cfg = SelectorConfig("dalex", pressure=200.0)
        importance = sample_importance(300, classing.m, cfg, RandomSource(89))
        importance -= importance.max(axis=1, keepdims=True) + 100.0
        importance[:, 0] = 0.0
        importance[:, 1] = -(2.0**-60)
        screen = selectors._screen_setup(selectors._shifted_errors(classing.class_errors)[0])
        assert selectors._lex_screen(importance, screen)[0].size == 0
        picks = dalex_select(classing, 300, cfg, RandomSource(90), importance)
        np.testing.assert_array_equal(
            picks,
            unscreened_dalex_picks(monkeypatch, classing, 300, cfg, RandomSource(90), importance),
        )

    def test_decides_most_tied_events_at_high_pressure(self):
        # A floor, so a screen that silently decides nothing fails.
        errors = np.random.default_rng(91).integers(0, 6, (4000, 200)).astype(float)
        classing = build_classes(errors)
        screen = selectors._screen_setup(selectors._shifted_errors(classing.class_errors)[0])
        assert not screen.unique_min.any()
        scores = sample_importance(
            4000, classing.m, SelectorConfig("dalex", pressure=200.0), RandomSource(92)
        )
        rows, _, _ = selectors._lex_screen(scores, screen)
        assert rows.size >= 0.9 * 4000

    def test_walk_decides_most_distinct_full_rows(self):
        # A floor, so a walk that leaves events whose heaviest case has a
        # unique best class fails: the rank matrix of
        # TestTopScreen.test_most_distinct_events_skip_the_rest_of_their_scores,
        # with full normal rows.
        errors = np.argsort(np.random.default_rng(69).random((1000, 200)), axis=0)
        shifted = selectors._shifted_errors(build_classes(errors + 0.5).class_errors)[0]
        screen = selectors._screen_setup(shifted)
        scores = sample_importance(
            1000, 200, SelectorConfig("dalex", pressure=200.0), RandomSource(70)
        )
        rows, _, _ = selectors._lex_screen(scores, screen)
        assert rows.size >= 0.8 * 1000

    def test_low_pressure_events_skip_the_walk(self):
        # At pressure 2 the tail term alone rules every event out.
        errors = np.random.default_rng(93).integers(0, 6, (500, 200)).astype(float)
        classing = build_classes(errors)
        screen = selectors._screen_setup(selectors._shifted_errors(classing.class_errors)[0])
        scores = sample_importance(
            500, classing.m, SelectorConfig("dalex", pressure=2.0), RandomSource(94)
        )
        assert selectors._lex_screen(scores, screen)[0].size == 0

    def test_bitsets_hold_each_column(self):
        rng = np.random.default_rng(95)
        for cols in (1, 63, 64, 65, 129):
            marks = rng.random((7, cols)) < 0.3
            words = selectors._bitsets(marks)
            assert words.shape == (7, -(-cols // 64))
            rows, positions = selectors._set_bits(words)
            found = np.zeros_like(marks)
            found[rows, positions] = True
            np.testing.assert_array_equal(found, marks)

    def test_least_nonzero_matches_a_masked_minimum(self):
        rng = np.random.default_rng(100)
        errors = rng.integers(0, 4, (70, 9)).astype(float) * rng.random((70, 9))
        errors[:, 0] = 0.0
        errors[:35, 1] = -0.0
        errors[35:, 1] = 0.0
        errors[:, 2] = np.finfo(np.float64).tiny / 4
        errors[5, 3] = np.finfo(np.float64).max
        expected = np.min(errors, axis=0, where=errors != 0, initial=np.inf)
        # Row-wise: each case is a row of the case-major errors.
        rows = np.ascontiguousarray(errors.T)
        np.testing.assert_array_equal(selectors._least_nonzero(rows), expected)
        assert np.isinf(expected[:2]).all()

    def test_swar_bit_count(self):
        words = np.random.default_rng(96).integers(0, 2**63, (5, 9), dtype=np.uint64)
        words[0] = [0, 1, 2**63, 2**64 - 1, 2**63 - 1, 2**32, 0x5555555555555555, 3, 7]
        counts = [[bin(int(w)).count("1") for w in row] for row in words]
        np.testing.assert_array_equal(selectors._swar_popcount(words), counts)
        np.testing.assert_array_equal(selectors._row_popcount(words), np.sum(counts, axis=1))
        # Rows of at least 2^16 bits take the default accumulator: 65,600
        # set bits would wrap in the narrow one.
        wide = np.full((3, 1025), 2**64 - 1, dtype=np.uint64)
        wide[1, ::2] = 0
        wide[2] = words[0, 6]
        expected = [1025 * 64, 512 * 64, 1025 * 32]
        np.testing.assert_array_equal(selectors._row_popcount(wide), expected)
        narrow = wide[:, :1023]
        np.testing.assert_array_equal(selectors._row_popcount(narrow), [1023 * 64, 511 * 64, 1023 * 32])

    def test_screened_picks_without_a_bit_count_ufunc(self, monkeypatch):
        # NumPy 1.x has no np.bitwise_count; the screen falls back to the
        # SWAR count and decides the same events.
        errors = np.random.default_rng(97).integers(0, 6, (300, 40)).astype(float)
        classing = build_classes(errors)
        cfg = SelectorConfig("dalex", pressure=200.0)
        scores = sample_importance(300, classing.m, cfg, RandomSource(98))
        screen = selectors._screen_setup(selectors._shifted_errors(classing.class_errors)[0])
        rows, classes, _ = selectors._lex_screen(scores, screen)
        picks = dalex_select(classing, 300, cfg, RandomSource(99))
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        fallback_rows, fallback_classes, _ = selectors._lex_screen(scores, screen)
        assert rows.size > 0
        np.testing.assert_array_equal(fallback_rows, rows)
        np.testing.assert_array_equal(fallback_classes, classes)
        np.testing.assert_array_equal(dalex_select(classing, 300, cfg, RandomSource(99)), picks)


def per_block_dalex_picks(classing, n_events, cfg, rng, importance=None):
    """``dalex_select``'s picks on full support with each block's leftover
    events through a cascade call of their own: the block loop as it was
    before the pass-wide cascade, on every case's own column."""
    class_errors = classing.class_errors
    if cfg.relaxed:
        class_errors = standardize_per_case(class_errors, classing.sizes)
    class_errors, class_rows = selectors._shifted_errors(class_errors)
    screen = selectors._screen_setup(class_errors)
    top = None
    unique = screen is not None and screen.unique_min.any()
    if importance is None and unique and cfg.distribution == "normal":
        top = selectors._decisive_top_scores(n_events, classing.m, cfg.pressure, rng, screen)
    in_parts = top is not None
    if in_parts:
        cases, values, level = top
        rest = selectors._RestStream(rng, classing.m)
    elif importance is None:
        importance = sample_importance(n_events, classing.m, cfg, rng)
    u = rng.generator(TIEBREAK_STREAM).random(n_events)
    picks = np.empty(n_events, dtype=np.intp)
    for lo, hi in selectors._event_blocks(n_events, classing.k):
        if in_parts:
            rows, classes = selectors._top_decide(cases[lo:hi], values[lo:hi], screen)
            picks[lo + rows] = classes
            events = lo + np.delete(np.arange(hi - lo), rows)
            scores = selectors._complete_scores(
                cases[events], values[events], level[events], rest.draw(events), cfg.pressure
            )
            rows = walked = rows[:0]
        else:
            events, scores = np.arange(lo, hi), importance[lo:hi]
            rows = walked = events[:0]
            if screen is not None:
                rows, classes, walked = selectors._lex_screen(scores, screen)
                picks[lo + rows] = classes
        left = np.ones(events.size, dtype=bool)
        left[rows] = False
        screened = np.setdiff1d(np.flatnonzero(left), walked, assume_unique=True)
        if screen is not None and screened.size:
            candidates, best = selectors._screen_candidates(
                selectors._flushed_softmax(scores[screened]), screen
            )
            if np.count_nonzero(candidates) > screened.size:
                alone = np.count_nonzero(candidates, axis=1) == 1
                screened, best = screened[alone], best[alone]
            picks[events[screened]] = best
            left[screened] = False
        if left.any():
            marked = selectors._cascade(scores if left.all() else scores[left], class_errors, class_rows)
            picks[events[left]] = selectors._pick_marked(marked, u[events[left]])
    return picks


class TestPassCascade:
    """The events a pass's screens leave go through the cascade together,
    in chunks of at most half a block, whichever blocks they came from."""

    # Blocks of 64 rows, so a pass of 600 events runs 9 of them.
    BLOCK_ROWS = 64

    def recorded_calls(self, patch):
        calls = []
        cascade = selectors._cascade

        def recorded(scores, *errors):
            calls.append(scores.shape[0])
            return cascade(scores, *errors)

        patch.setattr(selectors, "_cascade", recorded)
        return calls

    def test_picks_equal_per_block_picks(self, monkeypatch):
        cascaded = 0
        for name, errors in screen_matrices().items():
            classing = build_classes(errors)
            monkeypatch.setattr(selectors, "_BLOCK_ENTRIES", self.BLOCK_ROWS * classing.k)
            assert len(list(selectors._event_blocks(600, classing.k))) >= 8
            for pressure in (2.0, 20.0, 200.0, 2000.0):
                for distribution in ("normal", "uniform", "shuffled_range"):
                    for relaxed in (False, True):
                        cfg = SelectorConfig(
                            "dalex", pressure=pressure, distribution=distribution, relaxed=relaxed
                        )
                        with monkeypatch.context() as patch:
                            calls = self.recorded_calls(patch)
                            picks = dalex_select(classing, 600, cfg, RandomSource(100))
                        expected = per_block_dalex_picks(classing, 600, cfg, RandomSource(100))
                        np.testing.assert_array_equal(picks, expected, err_msg=f"{name} {cfg}")
                        cascaded += sum(calls)
        assert cascaded > 0

    def test_one_cascade_call_per_chunk(self, monkeypatch):
        errors = np.random.default_rng(101).integers(0, 6, (300, 30)).astype(float)
        classing = build_classes(errors)
        monkeypatch.setattr(selectors, "_BLOCK_ENTRIES", self.BLOCK_ROWS * classing.k)
        fewer = False
        for pressure in (2.0, 20.0, 200.0, 2000.0):
            for distribution in ("normal", "uniform"):
                cfg = SelectorConfig("dalex", pressure=pressure, distribution=distribution)
                with monkeypatch.context() as patch:
                    calls = self.recorded_calls(patch)
                    dalex_select(classing, 600, cfg, RandomSource(102))
                with monkeypatch.context() as patch:
                    per_block = self.recorded_calls(patch)
                    per_block_dalex_picks(classing, 600, cfg, RandomSource(102))
                assert sum(calls) == sum(per_block)
                if calls:
                    chunks = selectors._cascade_chunks(sum(calls), classing.k)
                    assert calls == [b - a for a, b in chunks]
                fewer |= len(calls) < len(per_block)
        assert fewer

    def test_pending_one_past_a_chunk_takes_no_lone_row(self, monkeypatch):
        errors = np.random.default_rng(103).integers(0, 6, (300, 30)).astype(float)
        classing = build_classes(errors)
        cfg = SelectorConfig("dalex", pressure=20.0)
        monkeypatch.setattr(selectors, "_BLOCK_ENTRIES", self.BLOCK_ROWS * classing.k)
        with monkeypatch.context() as patch:
            calls = self.recorded_calls(patch)
            picks = dalex_select(classing, 600, cfg, RandomSource(104))
        pending = sum(calls)
        assert pending > 2
        # Half a block is now one row fewer than the pass leaves.
        with monkeypatch.context() as patch:
            patch.setattr(selectors, "_BLOCK_ENTRIES", 2 * (pending - 1) * classing.k)
            calls = self.recorded_calls(patch)
            np.testing.assert_array_equal(
                dalex_select(classing, 600, cfg, RandomSource(104)), picks
            )
        assert sum(calls) == pending and len(calls) == 2 and min(calls) >= 2

    @pytest.mark.parametrize("k", [1, 2, 3, 1000, 1 << 18, 1 << 19, 1 << 21])
    def test_chunks_are_near_equal_and_never_one_row(self, k):
        cap = max(2, selectors._BLOCK_ENTRIES // 2 // k)
        for n in (*range(1, 12), cap - 1, cap, cap + 1, 2 * cap + 1, 5 * cap + 3):
            sizes = [b - a for a, b in selectors._cascade_chunks(n, k)]
            assert sum(sizes) == n and max(sizes) - min(sizes) <= 1
            assert min(sizes) >= 2 or n == 1
            assert max(sizes) <= (cap if cap > 2 else 3)


def repeated_matrices():
    """Full-support matrices with repeated error columns: groups of one
    to five copies, every column one, a single repeated pair, and an
    evolve population (``discrete_vector`` train keys cycle over m // 3
    keys), with k above and below 64."""
    rng = np.random.default_rng(47)

    def spread(base, sizes):
        # Each base column ``sizes[j]`` times, the copies shuffled.
        cols = np.repeat(np.arange(base.shape[1]), sizes)
        return base[:, rng.permutation(cols)]

    ties = rng.integers(0, 6, (300, 15)).astype(float)
    small = rng.integers(0, 4, (40, 12)).astype(float)
    pair = rng.random((120, 20))
    pair[:, 13] = pair[:, 4]
    problem = SyntheticProblem(kind="discrete_vector", m=60, seed=48)
    population = [problem.initial_genome(rng) for _ in range(400)]
    return {
        "sizes-1-5": spread(ties, np.arange(15) % 5 + 1),
        "small": spread(small, np.arange(12) % 5 + 1),
        "one-column": np.tile(rng.permutation(90).astype(float)[:, None], (1, 7)),
        "one-pair": pair,
        "evolve": problem.evaluate(population)[0],
    }


def case_major(errors):
    """``errors`` as the (k, m) view of a case-major copy, the layout
    :func:`selectors._shifted_errors` returns."""
    return np.ascontiguousarray(errors.T).T


def merged_groups(columns, m):
    """Each column's group under :func:`selectors._column_groups`' result,
    groups numbered as in the merged errors; every column alone when None."""
    if columns is None:
        return np.arange(m)
    group = np.empty(m, dtype=np.intp)
    start = 0
    for width in columns.widths:
        group[columns.order[start : start + width]] = np.arange(width)
        start += width
    return group


class TestMergedColumns:
    """On full score rows, identical error columns weigh as one case whose
    score is the log-sum-exp of theirs, with the picks of every case's
    own column (:func:`per_block_dalex_picks`)."""

    def test_groups_are_the_identical_columns(self):
        for name, errors in repeated_matrices().items():
            shifted = selectors._shifted_errors(build_classes(errors).class_errors)[0]
            group = merged_groups(selectors._column_groups(shifted), shifted.shape[1])
            _, expected = np.unique(shifted.T, axis=0, return_inverse=True)
            # The same partition, whatever the numbering.
            pairs = np.unique(np.stack([group, expected.ravel()]), axis=1)
            assert pairs.shape[1] == group.max() + 1 == expected.max() + 1, name

    def test_fingerprint_rows_only_admit_candidates(self):
        rng = np.random.default_rng(49)
        errors = rng.random((100, 6))
        errors[:, 1] = errors[:, 0]
        errors[:, 3] = errors[:, 2]
        # Columns 2 and 3 agree on the fingerprint rows only.
        errors[selectors._FINGERPRINT_ROWS + 4, 3] += 1.0
        group = merged_groups(selectors._column_groups(case_major(errors)), 6)
        assert group[0] == group[1]
        assert len(set(group[2:].tolist())) == 4 and group[0] not in group[2:]
        distinct = rng.random((100, 6))
        assert selectors._column_groups(case_major(distinct)) is None
        # Equal on the first row only: the fingerprint rows tell them apart.
        distinct[0, 5] = distinct[0, 4]
        assert selectors._column_groups(case_major(distinct)) is None

    def test_merged_scores_weigh_each_group_as_its_columns(self):
        rng = np.random.default_rng(50)
        errors = repeated_matrices()["sizes-1-5"]
        columns = selectors._column_groups(case_major(errors))
        group = merged_groups(columns, errors.shape[1])
        for pressure in (2.0, 200.0, 2000.0):
            scores = rng.normal(0.0, pressure, (50, errors.shape[1]))
            merged = selectors._merged_scores(scores, columns)
            expected = np.stack(
                [np.logaddexp.reduce(scores[:, group == g], axis=1) for g in range(group.max() + 1)],
                axis=1,
            )
            # A score's absolute error is its weight's relative one.
            atol = 4 * np.finfo(float).eps * np.abs(scores).max()
            np.testing.assert_allclose(merged, expected, rtol=0, atol=atol)
            # A lone column keeps its score bit for bit.
            alone = np.flatnonzero(np.bincount(group) == 1)
            np.testing.assert_array_equal(merged[:, alone], scores[:, columns.firsts[alone]])

    @pytest.mark.parametrize("blocks", [False, True])
    def test_picks_equal_unmerged_picks(self, monkeypatch, blocks):
        merged = []
        merge = selectors._merged_scores

        def recorded(scores, columns):
            merged.append(scores.shape)
            return merge(scores, columns)

        monkeypatch.setattr(selectors, "_merged_scores", recorded)
        for name, errors in repeated_matrices().items():
            classing = build_classes(errors)
            if blocks:
                monkeypatch.setattr(selectors, "_BLOCK_ENTRIES", 64 * classing.k)
            for pressure in (2.0, 20.0, 200.0):
                for relaxed in (False, True):
                    cfg = SelectorConfig("dalex", pressure=pressure, relaxed=relaxed)
                    scores = sample_importance(500, classing.m, cfg, RandomSource(51))
                    # Injected scores, and scores the pass draws itself.
                    for injected in (scores, None):
                        picks = dalex_select(classing, 500, cfg, RandomSource(52), injected)
                        expected = per_block_dalex_picks(
                            classing, 500, cfg, RandomSource(52), injected
                        )
                        np.testing.assert_array_equal(
                            picks, expected, err_msg=f"{name} {cfg} {injected is None}"
                        )
        assert len(merged) > 0

    def test_extreme_errors_raise_nothing(self):
        errors = repeated_matrices()["sizes-1-5"]
        classing = build_classes((errors - 2.5) * 4e307)
        for pressure in (2.0, 200.0):
            for relaxed in (False, True):
                cfg = SelectorConfig("dalex", pressure=pressure, relaxed=relaxed)
                scores = sample_importance(400, classing.m, cfg, RandomSource(53))
                expected = per_block_dalex_picks(classing, 400, cfg, RandomSource(54), scores)
                with np.errstate(all="raise"):
                    picks = dalex_select(classing, 400, cfg, RandomSource(54), scores)
                np.testing.assert_array_equal(picks, expected)

    def test_high_pressure_approaches_lexicase(self):
        rng = np.random.default_rng(55)
        errors = rng.integers(0, 4, (7, 4)).astype(float)[:, [0, 1, 1, 2, 3, 3, 3]]
        classing = build_classes(errors)
        assert selectors._column_groups(case_major(classing.class_errors)) is not None
        exact = exact_lexicase_probs(classing).probs
        cfg = SelectorConfig("dalex", pressure=200.0)
        picks = dalex_select(classing, 30_000, cfg, RandomSource(56))
        freqs = np.bincount(picks, minlength=classing.k) / 30_000
        assert np.abs(freqs - exact).max() < 0.015

    def test_tie_slack_counts_merged_cases(self):
        # Shifted, class 0 has [0, 1] and class 1 [1, 0] on two cases of
        # 100 copies each.  Case 0 outweighs case 1 by a factor
        # 1 + 1e-14, so class 0 is better by that much: beyond the tie
        # slack of two merged cases (1 + 4 eps), within that of 200.
        errors = np.repeat([[1.0, 2.0], [2.0, 1.0]], 100, axis=1)
        classing = build_classes(errors)
        scores = np.zeros((300, 200))
        scores[:, :100] = 1e-14
        picks = dalex_select(classing, 300, SelectorConfig("dalex"), RandomSource(57), scores)
        assert (picks == 0).all()


class TestTieRounds:
    """The cascade's helpers for its tie rounds."""

    def test_agreed_cases_match_a_direct_comparison(self, monkeypatch):
        rng = np.random.default_rng(58)
        # 13 cases: the packed differences end mid-byte.
        errors = rng.integers(0, 3, (50, 13)).astype(float)
        tied = rng.random((40, 50)) < 0.1
        tied[np.arange(40), rng.integers(0, 50, 40)] = True
        tied[np.arange(40), rng.integers(0, 50, 40)] = True
        tied = tied[tied.sum(axis=1) > 1]
        expected = np.array(
            [(errors[row] == errors[row][:1]).all(axis=0) for row in tied]
        )
        np.testing.assert_array_equal(selectors._agreed_cases(tied, errors), expected)
        # Slices of a few rows each give the same.
        monkeypatch.setattr(selectors, "_BLOCK_ENTRIES", 3 * 13)
        np.testing.assert_array_equal(selectors._agreed_cases(tied, errors), expected)

    def test_pair_fitness_does_not_depend_on_its_slices(self, monkeypatch):
        rng = np.random.default_rng(59)
        errors = rng.random((30, 9))
        weights = selectors._flushed_softmax(rng.normal(0.0, 20.0, (12, 9)))
        rows, classes = rng.integers(0, 12, 200), rng.integers(0, 30, 200)
        whole = selectors._pair_fitness(weights, rows, classes, errors)
        np.testing.assert_allclose(whole, (weights[rows] * errors[classes]).sum(axis=1), rtol=1e-14)
        monkeypatch.setattr(selectors, "_BLOCK_ENTRIES", 7 * 9)
        sliced = selectors._pair_fitness(weights, rows, classes, errors)
        np.testing.assert_array_equal(sliced, whole)
        # Each pair alone, too.
        alone = [selectors._pair_fitness(weights, rows[i : i + 1], classes[i : i + 1], errors) for i in range(5)]
        np.testing.assert_array_equal(np.concatenate(alone), whole[:5])


def per_block_partial_picks(classing, n_events, cfg, rng, importance=None):
    """``dalex_select``'s picks on partial support as the block loop took
    them before the partial-support screen: per block the softmax, both
    products, exact-equality marks and the tie-break draw."""
    if cfg.relaxed:
        classing = replace(
            classing,
            class_errors=standardize_per_case(
                classing.class_errors, classing.sizes, classing.class_support
            ),
        )
    if importance is None:
        importance = sample_importance(n_events, classing.m, cfg, rng)
    u = rng.generator(TIEBREAK_STREAM).random(n_events)
    picks = np.empty(n_events, dtype=np.intp)
    for lo, hi in selectors._event_blocks(n_events, classing.k):
        fitness = weighted_fitness(classing, softmax_rows(importance[lo:hi]))
        marked = fitness == fitness.min(axis=1, keepdims=True)
        picks[lo:hi] = selectors._pick_marked(marked, u[lo:hi])
    return picks


def column_wise_screen_fields(class_errors):
    """:func:`selectors._screen_setup`'s per-case and per-class fields,
    built column by column from the class-major ``class_errors``, as
    they were before the shift was stored case major."""
    zero = class_errors == 0
    most = float(class_errors.max(initial=0.0))
    return {
        "most": most,
        "elite_sizes": np.count_nonzero(zero, axis=0),
        "unique_min": np.count_nonzero(zero, axis=0) == 1,
        "best": zero.argmax(axis=0),
        "runner_up": np.min(class_errors, axis=0, where=~zero, initial=np.inf),
        # Past the float32 screen's range the set-up returns None, and
        # the sums may overflow.
        "sums": class_errors.sum(axis=1) if most <= selectors._F32_ROOM else None,
    }


def column_wise_partial_fields(class_errors, class_support):
    """:func:`selectors._partial_setup`'s fields from transposed views and a
    masked minimum, as they were built before the case-major +inf rows."""
    defined = class_support == 1.0
    return {
        "zeros": selectors._bitsets(class_errors.T == 0),
        "defined": selectors._bitsets(defined.T),
        "least": np.min(class_errors, axis=0, where=class_errors != 0, initial=np.inf),
        "most": class_errors.max(axis=1),
        "fewest": np.min(class_errors, axis=1, where=defined, initial=np.inf),
    }


class TestCaseMajorLayout:
    """The shift is stored case major, and every screen's set-up reads it
    (or the case-major +inf errors, on partial support) a chunk of case
    rows at a time, with the fields of the column-wise construction."""

    def setup_matrices(self):
        rng = np.random.default_rng(102)
        tiny = np.finfo(np.float64).tiny
        signed = rng.integers(0, 3, (70, 9)).astype(float)
        # +0 and -0 both count as zeros; the shift keeps a -0 whose case
        # least is +0.
        signed[:35, 1] = -0.0
        signed[35:, 1] = 0.0
        signed[::3, 2] = -0.0
        subnormal = rng.integers(0, 4, (50, 12)) * (tiny / 8)
        subnormal[:, 0] = tiny / 4
        room = rng.integers(0, 3, (40, 10)) * (selectors._F32_ROOM / 2)
        return {
            **{name: selectors._shifted_errors(e)[0] for name, e in TestLexScreen().matrices().items()},
            **{f"screen {name}": selectors._shifted_errors(e)[0] for name, e in screen_matrices().items()},
            "signed zeros": case_major(signed),
            "subnormal": case_major(subnormal),
            "largest screened": case_major(room),
            "largest finite": case_major(rng.choice([0.0, np.finfo(np.float64).max], (30, 6))),
        }

    @pytest.mark.parametrize("chunk", [1 << 16, 64])
    def test_screen_setup_matches_the_column_wise_fields(self, monkeypatch, chunk):
        # A chunk of 64 entries splits every matrix into several chunks.
        monkeypatch.setattr(selectors, "_CHUNK_ENTRIES", chunk)
        screened = set()
        for name, errors in self.setup_matrices().items():
            screen = selectors._screen_setup(errors)
            expected = column_wise_screen_fields(errors)
            if expected["most"] > selectors._F32_ROOM:
                assert screen is None, name
                continue
            screened.add(name)
            assert screen.errors_t.flags.c_contiguous, name
            np.testing.assert_array_equal(screen.errors_t, errors.T, err_msg=name)
            m = errors.shape[1]
            for field, value in expected.items():
                got = getattr(screen, field)
                if field == "sums":
                    # Summed case row by case row: another order, within
                    # the gamma_m every bound allows for.
                    bound = 2 * selectors._gamma(m, 2.0**-53) * value
                    assert (np.abs(got - value) <= bound).all(), name
                else:
                    np.testing.assert_array_equal(got, value, err_msg=f"{name} {field}")
            assert screen.top_absolute == m * m * 2.0**-1072
        assert {"k=64", "k=65", "signed zeros", "subnormal", "largest screened"} <= screened
        assert "largest finite" not in screened

    @pytest.mark.parametrize("chunk", [1 << 16, 64])
    def test_partial_setup_matches_the_column_wise_fields(self, monkeypatch, chunk):
        monkeypatch.setattr(selectors, "_CHUNK_ENTRIES", chunk)
        cases = dict(partial_matrices())
        errors, support = partial_matrices()["zero-rich"]
        # No class defined on case 3, and class 0 defined on case 5 only.
        errors, support = errors.copy(), support.copy()
        errors[:, 3] = support[:, 3] = 0.0
        errors[0], support[0] = 0.0, 0.0
        errors[0, 5], support[0, 5] = 2.0, 1.0
        cases["undefined case"] = (errors, support)
        wide = make_regime_matrices("partial_support", 300, 200, RandomSource(103))
        cases["wide"] = wide
        for name, (errors, support) in cases.items():
            classing = build_classes(errors, support)
            setup = selectors._partial_setup(classing.class_errors, classing.class_support)
            expected = column_wise_partial_fields(classing.class_errors, classing.class_support)
            for field, value in expected.items():
                np.testing.assert_array_equal(getattr(setup, field), value, err_msg=f"{name} {field}")
        classing = build_classes(*cases["undefined case"])
        setup = selectors._partial_setup(classing.class_errors, classing.class_support)
        assert np.isinf(setup.least[3]) and not setup.defined[3].any()
        negative = build_classes((errors - 1.0) * support, support)
        assert selectors._partial_setup(negative.class_errors, negative.class_support) is None

    def test_class_rows_have_the_bits_of_the_shift(self):
        rng = np.random.default_rng(104)
        matrices = [
            rng.random((60, 7)),
            rng.integers(-3, 3, (40, 5)).astype(float),
            # A range that overflows, so the shift scales by 0.25.
            rng.choice([-1e308, 0.0, 1e308], (30, 10)),
        ]
        for errors in matrices:
            shifted, rows = selectors._shifted_errors(errors)
            assert shifted.T.flags.c_contiguous and rows.shape == shifted.shape
            classes = rng.integers(0, errors.shape[0], 50)
            np.testing.assert_array_equal(
                rows[classes].view(np.uint64), shifted[classes].view(np.uint64)
            )
        assert rows.scale == 0.25

    @pytest.mark.parametrize("route", ["full-rows", "merged", "in-parts"])
    def test_every_screen_reads_case_rows(self, monkeypatch, route):
        errors, _ = make_regime_matrices("continuous_all_distinct", 300, 40, RandomSource(60))
        cfg = SelectorConfig("dalex", pressure=200.0, distribution="uniform")
        ran = "_lex_screen"
        if route == "merged":
            errors, ran = errors[:, np.arange(40) // 2], "_merged_scores"
        elif route == "in-parts":
            cfg, ran = SelectorConfig("dalex", pressure=200.0), "_top_decide"
        screens, calls = [], []
        setup, first = selectors._screen_setup, getattr(selectors, ran)

        def recorded_setup(class_errors):
            screens.append(setup(class_errors))
            return screens[-1]

        def recorded(*args):
            calls.append(ran)
            return first(*args)

        monkeypatch.setattr(selectors, "_screen_setup", recorded_setup)
        monkeypatch.setattr(selectors, ran, recorded)
        dalex_select(build_classes(errors), 300, cfg, RandomSource(62))
        assert calls and screens
        assert all(screen.errors_t.flags.c_contiguous for screen in screens)


def partial_matrices():
    """Partial-support (errors, support) pairs for the screen: errors 0-5
    on 35% support (zero-rich), errors 1-5 (zero-free), and rows defined
    on a single case, with k above and below 64."""
    rng = np.random.default_rng(46)

    def make(n, m, low=0, share=0.35, one=False):
        if one:
            support = np.zeros((n, m))
            support[np.arange(n), rng.integers(0, m, n)] = 1.0
        else:
            support = (rng.random((n, m)) < share).astype(float)
            support[np.flatnonzero(~support.any(axis=1)), 0] = 1.0
        return rng.integers(low, 6, (n, m)).astype(float) * support, support

    return {
        "zero-rich": make(300, 40),
        "zero-free": make(300, 40, low=1),
        "small": make(40, 12),
        "one-defined": make(120, 30, one=True),
        "half-support": make(200, 30, share=0.5),
    }


class TestPartialScreen:
    """On partial support, ``_partial_screen`` decides the events whose
    computed fitness has one least class, and the rest go through the
    products in chunks of their own; picks stay those of the block loop."""

    BLOCK_ROWS = 64

    @pytest.fixture(autouse=True)
    def any_class_count(self, monkeypatch):
        # The test matrices have fewer classes than a pass needs to run
        # the screen.
        monkeypatch.setattr(selectors, "_PARTIAL_CLASSES", 0)

    def recorded_screen(self, patch):
        decided = []
        screen = selectors._partial_screen

        def recorded(weights, setup):
            rows, classes, weighed = screen(weights, setup)
            decided.append((weights.shape[0], rows.size))
            return rows, classes, weighed

        patch.setattr(selectors, "_partial_screen", recorded)
        return decided

    def test_picks_equal_block_loop(self, monkeypatch):
        screened = 0
        for name, (errors, support) in partial_matrices().items():
            classing = build_classes(errors, support)
            assert not classing.full_support
            monkeypatch.setattr(selectors, "_BLOCK_ENTRIES", self.BLOCK_ROWS * classing.k)
            for pressure in (2.0, 20.0, 200.0):
                for seed in (0, 1, 2):
                    cfg = SelectorConfig("dalex", pressure=pressure)
                    with monkeypatch.context() as patch:
                        decided = self.recorded_screen(patch)
                        picks = dalex_select(classing, 500, cfg, RandomSource(seed))
                    expected = per_block_partial_picks(classing, 500, cfg, RandomSource(seed))
                    np.testing.assert_array_equal(picks, expected, err_msg=f"{name} {cfg}")
                    screened += sum(d for _, d in decided)
        assert screened > 0

    def test_injected_importance_keeps_the_picks(self):
        errors, support = partial_matrices()["zero-rich"]
        classing = build_classes(errors, support)
        cfg = SelectorConfig("dalex", pressure=200.0)
        for seed in (3, 4):
            scores = np.random.default_rng(seed).normal(0.0, 200.0, (400, classing.m))
            scores[:, 5] += 4000.0  # one case heaviest in every event
            picks = dalex_select(classing, 400, cfg, RandomSource(seed), importance=scores)
            expected = per_block_partial_picks(classing, 400, cfg, RandomSource(seed), scores)
            np.testing.assert_array_equal(picks, expected)

    @pytest.mark.parametrize("k_above_64", [False, True])
    def test_duplicate_classes_tie(self, k_above_64):
        # Ungrouped rows: duplicate classes have equal fitness, so the
        # screen may not decide for one of them alone.
        errors, support = partial_matrices()["zero-rich" if k_above_64 else "small"]
        errors = np.vstack([errors, errors[:10]])
        support = np.vstack([support, support[:10]])
        classing = singleton_classes(errors, support)
        cfg = SelectorConfig("dalex", pressure=200.0)
        picks = dalex_select(classing, 600, cfg, RandomSource(5))
        np.testing.assert_array_equal(
            picks, per_block_partial_picks(classing, 600, cfg, RandomSource(5))
        )
        n = errors.shape[0]
        twins = np.isin(picks, np.r_[0:10, n - 10 : n])
        assert twins.any()

    def test_lone_leftover_is_weighed_beside_a_copy(self, monkeypatch):
        # numpy weighs a single row as a matrix-vector product, which can
        # round apart from the same row inside a block's product.
        errors, support = partial_matrices()["zero-rich"]
        classing = build_classes(errors, support)
        marked, weighed = selectors._least_marked, []

        def all_but_the_first(weights, setup):
            n = weights.shape[0]
            return np.arange(1, n), np.zeros(n - 1, dtype=np.intp), 0

        def recorded(classing, weights, buffers):
            weighed.append(weights.shape[0])
            return marked(classing, weights, buffers)

        monkeypatch.setattr(selectors, "_partial_screen", all_but_the_first)
        monkeypatch.setattr(selectors, "_least_marked", recorded)
        dalex_select(classing, 500, SelectorConfig("dalex", pressure=200.0), RandomSource(19))
        assert weighed == [2]

    @pytest.mark.parametrize("screened", [False, True])
    def test_leftovers_keep_block_chunks(self, monkeypatch, screened):
        # Partial marks are exact float64 ties, and a product row can round
        # apart with the rows around it, so the events a pass leaves are
        # weighed in chunks the size of event blocks: with the screen off,
        # exactly the pass's blocks.  Half-block cascade chunks would not do.
        errors, support = make_regime_matrices("partial_support", 300, 40, RandomSource(20))
        classing = build_classes(errors, support)
        if not screened:
            monkeypatch.setattr(selectors, "_PARTIAL_CLASSES", classing.k)
        # Blocks of 32 rows; at pressure 5 the screen leaves about 180 events.
        monkeypatch.setattr(selectors, "_BLOCK_ENTRIES", 32 * classing.k)
        marked, weighed = selectors._least_marked, []

        def recorded(classing, weights, buffers):
            weighed.append(weights.shape[0])
            return marked(classing, weights, buffers)

        monkeypatch.setattr(selectors, "_least_marked", recorded)
        n_events = 2000
        cfg = SelectorConfig("dalex", pressure=5.0)
        with monkeypatch.context() as patch:
            decided = self.recorded_screen(patch)
            picks = dalex_select(classing, n_events, cfg, RandomSource(21))
        # The screen's first call is the pilot's, on the pass's first events.
        n_pending = n_events - sum(d for _, d in decided[1:])
        assert (n_pending < n_events) == screened
        chunks = [b - a for a, b in selectors._event_blocks(n_pending, classing.k)]
        assert len(chunks) >= 3 and weighed == chunks
        np.testing.assert_array_equal(
            picks, per_block_partial_picks(classing, n_events, cfg, RandomSource(21))
        )

    def test_single_case(self):
        # m = 1 forces full support, so the screen is run on its own.
        errors = np.random.default_rng(6).integers(0, 4, (30, 1)).astype(float)
        classing = build_classes(errors)
        setup = selectors._partial_setup(classing.class_errors, classing.class_support)
        weights = np.ones((50, 1))
        rows, classes, _ = selectors._partial_screen(weights, setup)
        fitness = weighted_fitness(classing, weights)
        lone = (fitness == fitness.min(axis=1, keepdims=True)).sum(axis=1) == 1
        np.testing.assert_array_equal(rows, np.flatnonzero(lone))
        assert (fitness[rows, classes] == fitness[rows].min(axis=1)).all()

    def test_decided_classes_are_the_lone_minimum(self):
        wide = make_regime_matrices("partial_support", 300, 200, RandomSource(16))
        errors, support = partial_matrices()["zero-rich"]
        # Products that underflow, and sums near the float64 maximum.
        scaled = [(errors * scale, support) for scale in (1e-300, 2.9e307)]
        for errors, support in [*partial_matrices().values(), wide, *scaled]:
            classing = build_classes(errors, support)
            setup = selectors._partial_setup(classing.class_errors, classing.class_support)
            for pressure in (5.0, 20.0, 200.0, 2000.0):
                scores = np.random.default_rng(7).normal(0.0, pressure, (300, classing.m))
                weights = softmax_rows(scores)
                rows, classes, _ = selectors._partial_screen(weights, setup)
                fitness = weighted_fitness(classing, weights)
                marked = fitness == fitness.min(axis=1, keepdims=True)
                assert (marked[rows].sum(axis=1) == 1).all()
                assert marked[rows, classes].all()

    def test_weight_past_the_depth_counts(self):
        # Case j is the event's (j + 1)-th heaviest.  Class 0 has error 1
        # on the heaviest case only; class 1 has error 2 there but also
        # error 0 on the 24 light cases past the screen's depth, whose
        # weight pulls its mean below 1.  Class 2 has error 3 on case 1.
        m = 60
        errors, support = np.zeros((3, m)), np.zeros((3, m))
        errors[0, 0], errors[1, 0], errors[2, 1] = 1.0, 2.0, 3.0
        support[:2, 0] = support[1, 36:] = support[2, 1] = 1.0
        classing = build_classes(errors, support)
        scores = np.r_[0.0, np.linspace(-0.5, -1.0, 35), np.full(24, -1.1)][None, :]
        weights = softmax_rows(np.repeat(scores, 2, axis=0))
        assert weighted_fitness(classing, weights)[0].argmin() == 1
        setup = selectors._partial_setup(classing.class_errors, classing.class_support)
        rows, classes, _ = selectors._partial_screen(weights, setup)
        assert (classes == 1).all()

    def test_rounding_ties_are_left_to_the_products(self):
        # Classes 0 and 1 differ by an ulp or two of their errors, so
        # their computed fitnesses may tie or swap; the bounds' rounding
        # factor must keep the screen from deciding such events wrongly.
        rng = np.random.default_rng(17)
        support = np.ones((3, 3))
        support[2, :2] = 0.0
        for _ in range(300):
            errors = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 0.0, 5.0]])
            errors[1, rng.integers(0, 3)] += rng.integers(1, 3) * np.spacing(3.0)
            errors[0] += rng.integers(0, 2, 3) * np.spacing(1.0)
            classing = build_classes(errors, support)
            setup = selectors._partial_setup(classing.class_errors, classing.class_support)
            weights = softmax_rows(rng.normal(0.0, 0.3, (2, 3)))
            rows, classes, _ = selectors._partial_screen(weights, setup)
            fitness = weighted_fitness(classing, weights)
            marked = fitness == fitness.min(axis=1, keepdims=True)
            assert (marked[rows].sum(axis=1) == 1).all() and marked[rows, classes].all()

    @pytest.mark.parametrize("variant", ["relaxed", "negative"])
    def test_screen_off_keeps_the_picks(self, monkeypatch, variant):
        errors, support = partial_matrices()["zero-rich"]
        relaxed = variant == "relaxed"
        if not relaxed:
            errors = errors - 2.0 * support
        classing = build_classes(errors, support)
        cfg = SelectorConfig("dalex", pressure=200.0, relaxed=relaxed)
        with monkeypatch.context() as patch:
            decided = self.recorded_screen(patch)
            picks = dalex_select(classing, 500, cfg, RandomSource(8))
        assert decided == []
        np.testing.assert_array_equal(
            picks, per_block_partial_picks(classing, 500, cfg, RandomSource(8))
        )

    @pytest.mark.parametrize("m", [40, 200])
    def test_low_pressure_turns_the_screen_off(self, monkeypatch, m):
        # With 200 cases the tail check turns it off before the pilot;
        # with 40 the pilot runs and decides too few.
        errors, support = make_regime_matrices("partial_support", 300, m, RandomSource(9))
        classing = build_classes(errors, support)
        cfg = SelectorConfig("dalex", pressure=2.0)
        with monkeypatch.context() as patch:
            decided = self.recorded_screen(patch)
            picks = dalex_select(classing, 500, cfg, RandomSource(9))
        assert [n for n, _ in decided] == ([] if m == 200 else [selectors._PILOT])
        np.testing.assert_array_equal(
            picks, per_block_partial_picks(classing, 500, cfg, RandomSource(9))
        )

    @pytest.mark.parametrize("short", ["classes", "events"])
    def test_small_passes_turn_the_screen_off(self, monkeypatch, short):
        errors, support = partial_matrices()["zero-rich"]
        classing = build_classes(errors, support)
        cfg = SelectorConfig("dalex", pressure=200.0)
        if short == "classes":
            monkeypatch.setattr(selectors, "_PARTIAL_CLASSES", classing.k)
        n_events = 500 if short == "classes" else selectors._PARTIAL_EVENTS - 1
        with monkeypatch.context() as patch:
            decided = self.recorded_screen(patch)
            picks = dalex_select(classing, n_events, cfg, RandomSource(18))
        assert decided == []
        np.testing.assert_array_equal(
            picks, per_block_partial_picks(classing, n_events, cfg, RandomSource(18))
        )

    def test_large_errors_raise_nothing(self, monkeypatch):
        errors, support = partial_matrices()["zero-rich"]
        classing = build_classes(errors * 2.9e307, support)
        cfg = SelectorConfig("dalex", pressure=20.0)
        expected = per_block_partial_picks(classing, 500, cfg, RandomSource(10))
        with monkeypatch.context() as patch, np.errstate(all="raise"):
            decided = self.recorded_screen(patch)
            picks = dalex_select(classing, 500, cfg, RandomSource(10))
        np.testing.assert_array_equal(picks, expected)
        assert sum(d for _, d in decided) > 0

    def test_picks_attain_their_row_minimum(self):
        errors, support = make_regime_matrices("partial_support", 1000, 200, RandomSource(11))
        classing = build_classes(errors, support)
        scores = np.random.default_rng(12).normal(0.0, 200.0, (1000, classing.m))
        cfg = SelectorConfig("dalex", pressure=200.0)
        picks = dalex_select(classing, 1000, cfg, RandomSource(13), importance=scores)
        # An independent computation: sums over each row's defined cases.
        weights = softmax_rows(scores)
        fitness = (weights @ classing.class_errors.T) / (weights @ classing.class_support.T)
        best = fitness.min(axis=1)
        got = fitness[np.arange(1000), picks]
        assert (got <= best + 1e-9 * np.abs(best)).all()

    def test_decides_most_events_at_high_pressure(self):
        errors, support = make_regime_matrices("partial_support", 1000, 200, RandomSource(14))
        classing = build_classes(errors, support)
        setup = selectors._partial_setup(classing.class_errors, classing.class_support)
        cfg = SelectorConfig("dalex", pressure=200.0)
        scores = sample_importance(1000, classing.m, cfg, RandomSource(15))
        rows, _, _ = selectors._partial_screen(softmax_rows(scores), setup)
        assert rows.size >= 900


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
        # Event i's case order and finish uniform are the i-th draws of
        # the pass's two streams, so its pick must not move whichever pair
        # block it lands in.  A small pair budget splits 40 events into
        # several blocks.
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

    @pytest.mark.parametrize("method", ["lexicase", "epsilon_lexicase", "batch_lexicase"])
    def test_leading_picks_do_not_depend_on_block_split(self, method, monkeypatch):
        # The streams are drawn block by block in event order, so the first
        # j picks stay put when one more event spills into a new block, when
        # several blocks run, and whatever the pair budget.
        rng = np.random.default_rng(25)
        classing = build_classes(rng.integers(0, 4, (300, 12)).astype(float))
        cfg = SelectorConfig(method=method, batch_size=2 if method == "batch_lexicase" else 1)
        blocks = []
        run_block = selectors._filter_pairs

        def counted(*args):
            blocks.append(args[2].shape[0])
            return run_block(*args)

        monkeypatch.setattr(selectors, "_filter_pairs", counted)
        tiny = 8 * classing.k
        monkeypatch.setattr(selectors, "_PAIR_BUDGET", tiny)
        selectors.select_classes(classing, 200, cfg, RandomSource(26))
        block = blocks[0]
        assert 1 < block < 200 / 3
        many = 3 * block + 2
        monkeypatch.setattr(selectors, "_PAIR_BUDGET", 1 << 18)
        reference = selectors.select_classes(classing, many, cfg, RandomSource(26))
        for budget in (tiny, 1 << 18):
            monkeypatch.setattr(selectors, "_PAIR_BUDGET", budget)
            for n in (block, block + 1, many):
                blocks.clear()
                picks = selectors.select_classes(classing, n, cfg, RandomSource(26))
                np.testing.assert_array_equal(picks, reference[:n], err_msg=f"{budget} {n}")
                assert len(blocks) == (1 if budget > tiny else -(-n // block))

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

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_epsilon_is_np_median_of_member_rows(self, duplicates):
        # Populations with duplicates take the member-expanded rows, those
        # without the class rows; both must give np.median's bits.
        rng = np.random.default_rng(36)
        for rows in (
            rng.integers(0, 5, (300, 40)).astype(float),
            rng.normal(size=(301, 40)) * 10.0 ** rng.uniform(-300, 300, 40),
        ):
            if duplicates:
                rows = rows[rng.integers(0, len(rows) // 3, len(rows))]
            classing = build_classes(rows)
            assert (classing.k < classing.n) == duplicates
            med = np.median(rows, axis=0)
            np.testing.assert_array_equal(
                epsilon_for_cases(classing), np.median(np.abs(rows - med), axis=0)
            )

    def test_epsilon_of_a_converged_population_weighs_class_rows(self):
        # About 25 members a class: the MAD weighs class rows by their
        # member counts, with np.median's bits on member rows.
        rng = np.random.default_rng(37)
        base = rng.integers(0, 5, (12, 40)).astype(float)
        base[:, 1] = rng.normal(size=12) * 1e300
        rows = base[rng.integers(0, 12, 300)]
        classing = build_classes(rows)
        assert classing.n > 8 * classing.k
        med = np.median(rows, axis=0)
        np.testing.assert_array_equal(
            epsilon_for_cases(classing), np.median(np.abs(rows - med), axis=0)
        )

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


def safe_median(values):
    """``statistics.median``, with an even count's midpoint taken as
    ``a / 2 + b / 2`` where ``(a + b) / 2`` overflows."""
    ranked = sorted(values)
    a, b = ranked[(len(ranked) - 1) // 2], ranked[len(ranked) // 2]
    mid = (a + b) / 2
    return a / 2 + b / 2 if math.isinf(mid) else mid


def replay_batch_event(classing, cfg, order, u, epsilons=None):
    """Scalar reimplementation of one batch selection event with case
    order ``order`` and finish uniform ``u``, used only if several
    classes survive.  ``epsilons`` replaces the batch threshold with a
    per-case tolerance (one-case batches), which is epsilon-lexicase.
    """
    m = classing.m
    b = min(cfg.batch_size, m)
    order = list(order)
    alive = list(range(classing.k))
    for start in range(0, m, b):
        if len(alive) == 1:
            break
        batch = order[start : start + b]
        means = {}
        for c in alive:
            # Python floats, which overflow to inf without a warning.
            row, defined = classing.class_errors[c].tolist(), classing.class_support[c]
            covered = [row[t] for t in batch if defined[t] == 1.0]
            if covered:
                means[c] = sum(covered) / len(covered)
                if not math.isfinite(means[c]):
                    # The sum overflowed: the library takes it again scaled
                    # by a power of two, which is exact.
                    means[c] = sum(e * 2.0**-600 for e in covered) / len(covered) * 2.0**600
        if not means:
            continue
        best = min(means.values())
        if epsilons is not None:
            (tau,) = [epsilons[t] for t in batch]
        elif cfg.method == "lexicase":
            tau = 0.0
        elif cfg.batch_threshold_mode == "absolute":
            tau = cfg.batch_threshold_value
        else:
            spread = []
            for c in alive:
                if c in means:
                    spread.extend([means[c]] * int(classing.sizes[c]))
            med = safe_median(spread)
            tau = safe_median([abs(v - med) for v in spread])
        alive = [c for c in alive if c in means and means[c] <= best + tau]
    if len(alive) == 1:
        return alive[0]
    total = sum(int(classing.sizes[c]) for c in alive)
    acc = 0.0
    for c in alive:
        acc += classing.sizes[c]
        if acc > u * total:
            return c
    return alive[-1]


def assert_matches_replay(classing, cfg, src, n_events=200):
    """Picks of ``cfg``'s selector equal the scalar replay of every event.

    The replay takes event i's case order as the i-th ``permutation(m)``
    of the ``EVENT_STREAM`` generator and its finish uniform as the i-th
    ``random()`` of the ``FINISH_STREAM`` generator, one of each per
    event whether or not the event uses it.
    """
    epsilons = None
    if cfg.method == "epsilon_lexicase":
        epsilons = epsilon_for_cases(classing)
        assert (epsilons > 0).any()
    picks = selectors.select_classes(classing, n_events, cfg, src)
    order_gen, finish_gen = src.generator(EVENT_STREAM), src.generator(FINISH_STREAM)
    expected = [
        replay_batch_event(
            classing, cfg, order_gen.permutation(classing.m), finish_gen.random(), epsilons
        )
        for _ in range(n_events)
    ]
    np.testing.assert_array_equal(picks, expected)


# Batch means whose sums overflow, on full and partial support.
HUGE_REPLAYS = [
    (SelectorConfig(method="batch_lexicase", batch_size=size, batch_threshold_mode=mode), errors)
    for errors in ("huge", "huge-partial")
    for size in (2, 3)
    for mode in ("mad", "absolute")
]
HUGE_REPLAY_IDS = [
    f"batch_lexicase-b{cfg.batch_size}-{cfg.batch_threshold_mode}-{errors}"
    for cfg, errors in HUGE_REPLAYS
]


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
        if errors == "negative":
            # Negative errors on partial support, and no one is defined on
            # case 0: an event drawing it first keeps every class.
            support = (rng.random((9, 7)) < 0.5).astype(float)
            support[:, 0] = 0.0
            support[~support.any(axis=1), 1] = 1.0
            return rng.integers(-4, 2, (9, 7)) * support, support
        if errors.startswith("huge"):
            # Batch sums overflow, though their means fit.
            huge = rng.choice([-1e308, 1e308, 1.7e308], (9, 7))
            if errors == "huge":
                return huge, None
            support = (rng.random((9, 7)) < 0.6).astype(float)
            support[~support.any(axis=1), 0] = 1.0
            return huge * support, support
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
            (SelectorConfig(method="lexicase"), "negative"),
            (SelectorConfig(method="epsilon_lexicase"), "negative"),
            (SelectorConfig(method="batch_lexicase"), "negative"),
            (SelectorConfig(method="batch_lexicase", batch_size=2), "negative"),
            *HUGE_REPLAYS,
        ],
        ids=[
            "batch_lexicase-continuous",
            "epsilon_lexicase-integer",
            "batch_lexicase-duplicates",
            "batch_lexicase-sparse",
            "batch_lexicase-size1-sparse",
            "lexicase-negative",
            "epsilon_lexicase-negative",
            "batch_lexicase-size1-negative",
            "batch_lexicase-negative",
            *HUGE_REPLAY_IDS,
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

    @pytest.mark.parametrize("shape", [(1, 4), (3, 1)], ids=["k=1", "m=1"])
    def test_partial_support_pass_leaves_class_errors_unchanged(self, shape):
        # At these shapes a case-major view of the class errors shares
        # their memory, so encoding undefined entries in place would
        # write into the classing.  At m = 1 every row is defined on its
        # one case, so only k = 1 holds an undefined entry.
        rng = np.random.default_rng(33)
        support = np.ones(shape)
        support[0, :-1] = 0.0
        errors = -rng.integers(1, 4, shape) * support
        classing = build_classes(errors, support)
        before = classing.class_errors.copy()
        for cfg in (
            SelectorConfig(method="lexicase"),
            SelectorConfig(method="epsilon_lexicase"),
            SelectorConfig(method="batch_lexicase", batch_size=2),
        ):
            selectors.select_classes(classing, 20, cfg, RandomSource(12))
            assert classing.class_errors.tobytes() == before.tobytes()

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

    @pytest.mark.parametrize("batch_size", [2, 3, 16])
    def test_extreme_finite_errors_do_not_overflow(self, batch_size):
        # A batch's errors near +-1e308 overflow their sum though their
        # mean fits.  Scaling every error by a power of two scales each
        # mean and MAD exactly and keeps every comparison, so the picks
        # must equal those on the scaled matrix.
        rng = np.random.default_rng(34)
        errors = rng.choice([1e308, -1e308, 1e300, 0.0, 3.0], (60, 12))
        cfg = SelectorConfig(method="batch_lexicase", batch_size=batch_size)
        with np.errstate(over="raise", invalid="raise"):
            picks = batch_lexicase_select(build_classes(errors), 300, cfg, RandomSource(35))
            scaled = batch_lexicase_select(
                build_classes(errors * 2.0**-600), 300, cfg, RandomSource(35)
            )
        np.testing.assert_array_equal(picks, scaled)

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


def first_step_matrices():
    """Errors and support of the dense first step's test grid, by name."""
    rng = np.random.default_rng(41)
    ties = rng.integers(0, 6, (160, 20)).astype(float)
    support = (rng.random(ties.shape) < 0.3).astype(float)
    # No one is defined on cases 2-17, so a batch drawn from them has no
    # defined class and keeps every class.
    support[:, 2:18] = 0.0
    support[~support.any(axis=1), 0] = 1.0
    huge = rng.choice([1e308, -1e308, 1.7e308, -3e307, 0.0, 3.0], (160, 20))
    members = rng.integers(0, 8, 160)
    return {
        "distinct": (rng.normal(size=(160, 20)) * 10.0 ** rng.uniform(-5, 5, 20), None),
        "ties": (ties, None),
        "partial": (ties * support, support),
        # About 2 members a class, member-expanded for the MAD.
        "duplicates": (ties[rng.integers(0, 80, 160)], None),
        # About 20 members a class, weighed as class rows.
        "converged": (ties[rng.integers(0, 8, 160)], None),
        "converged-partial": ((ties * support)[members], support[members]),
        "huge": (huge, None),
        "huge-partial": (huge * support, support),
    }


class TestFirstStep:
    """The dense first step keeps exactly the pairs the pair step keeps
    when every event holds every class."""

    @pytest.mark.parametrize("name", list(first_step_matrices()))
    @pytest.mark.parametrize("tolerance", ["none", "per-case", "fixed", "mad"])
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4, 9, 16])
    def test_equals_pair_step(self, name, tolerance, batch_size):
        errors, support = first_step_matrices()[name]
        classing = build_classes(errors, support)
        k, m = classing.k, classing.m
        rng = np.random.default_rng(42)
        tolerance = {
            "none": None,
            "per-case": rng.random(m),
            "fixed": 0.75,
            "mad": "mad",
        }[tolerance]
        cases = rng.permuted(np.tile(np.arange(m), (60, 1)), axis=1)[:, :batch_size]
        # Batches of undefined cases only, and of the same case for every event.
        cases[0] = np.arange(2, 2 + batch_size)
        cases[1] = cases[1, 0]
        first, step = selectors._case_major_steps(classing, tolerance)
        with np.errstate(all="raise"):
            classes, counts = first(cases)
        every = np.tile(np.arange(k, dtype=np.int32), len(cases))
        want_classes, want_counts = step(cases, np.full(len(cases), k), every)
        assert classes.dtype == want_classes.dtype and counts.dtype == want_counts.dtype
        np.testing.assert_array_equal(classes, want_classes)
        np.testing.assert_array_equal(counts, want_counts)
        if support is not None:
            # The undefined batch keeps every class.
            assert counts[0] == k

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 128, 129, 136, 200, 300])
    def test_batch_sums_have_numpy_bits(self, n):
        # A pair's batch sum is numpy's pairwise sum of a contiguous row;
        # the dense step adds the same terms in the same order.
        rng = np.random.default_rng(n)
        values = rng.normal(size=(3, n, 50)) * 10.0 ** rng.integers(-12, 12, (3, n, 50))
        rows = np.ascontiguousarray(values.transpose(0, 2, 1))
        np.testing.assert_array_equal(
            selectors._batch_sums(values, 0, n).view(np.int64), rows.sum(axis=2).view(np.int64)
        )

    @pytest.mark.parametrize("members_per_class", [1, 2, 30])
    def test_row_mad_is_np_median_of_member_rows(self, members_per_class):
        # Sorted rows, member-expanded rows and weighted class rows all
        # give np.median's MAD over each row's finite members.
        rng = np.random.default_rng(43)
        rows = rng.integers(0, 7, (40, 25)).astype(float) * 10.0 ** rng.integers(-3, 3, (40, 1))
        rows[rng.random(rows.shape) < 0.3] = np.inf
        rows[:, 0] = 1.0
        members = None if members_per_class == 1 else rng.integers(1, 2 * members_per_class, 25)
        expanded = rows if members is None else np.repeat(rows, members, axis=1)
        want = []
        for row in expanded:
            row = row[np.isfinite(row)]
            want.append(np.median(np.abs(row - np.median(row))))
        np.testing.assert_array_equal(selectors._row_mad(rows, members), want)

    def test_member_expanded_rows_stay_within_the_budget(self, monkeypatch):
        # 512 classes of about 8 members: the MAD sorts each event's 4000
        # member-expanded scores, so a block holds budget / n events, not
        # budget / (k b).
        rng = np.random.default_rng(44)
        errors = rng.integers(0, 6, (512, 20)).astype(float)
        errors[:, 0] = np.arange(512)
        classing = build_classes(errors[rng.permutation(np.arange(4000) % 512)])
        assert classing.k == 512 and classing.n == 4000
        budget = 1 << 14
        monkeypatch.setattr(selectors, "_PAIR_BUDGET", budget)
        widest = []
        first_step = selectors._first_step

        def recorded(*args):
            widest.append(len(args[-1]))
            return first_step(*args)

        monkeypatch.setattr(selectors, "_first_step", recorded)
        cfg = SelectorConfig(method="batch_lexicase", batch_size=2)
        batch_lexicase_select(classing, 64, cfg, RandomSource(45))
        assert max(widest) * classing.n <= budget
        monkeypatch.setattr(selectors, "_first_step", first_step)
        tracemalloc.start()
        try:
            batch_lexicase_select(classing, 64, cfg, RandomSource(45))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 0.36 MB; blocks sized by k b alone peak near 0.9 MB.
        assert peak < 4 * 8 * budget


def per_block_filter_picks(classing, n_events, cfg, rng):
    """``_filter_events``' picks for a lexicase-family ``cfg`` with each
    first-step block's events filtered by a ``_filter_pairs`` run of their
    own: the block loop as it was before contested events pooled across
    blocks."""
    tolerance, batch_size = None, 1
    if cfg.method == "epsilon_lexicase":
        tolerance = epsilon_for_cases(classing)
    elif cfg.method == "batch_lexicase":
        mode = cfg.batch_threshold_mode
        tolerance = "mad" if mode == "mad" else cfg.batch_threshold_value
        batch_size = cfg.batch_size
    k, m = classing.class_errors.shape
    first, step = selectors._case_major_steps(classing, tolerance)
    batch_size = min(batch_size, m)
    width = max(k * batch_size, classing.n)
    lookup = batch_size == 1 and n_events >= m
    if lookup:
        every = np.arange(k, dtype=np.int32)
        elite, elite_counts = step(np.arange(m)[:, None], np.full(m, k), np.tile(every, m))
        elite_heads = np.cumsum(elite_counts) - elite_counts
        width = -(-elite.size // m)
    block = max(1, selectors._PAIR_BUDGET // max(width, m))
    order_gen, finish_gen = rng.generator(EVENT_STREAM), rng.generator(FINISH_STREAM)
    picks = np.empty(n_events, dtype=np.int64)
    for lo in range(0, n_events, block):
        hi = min(lo + block, n_events)
        orders = order_gen.permuted(np.tile(np.arange(m), (hi - lo, 1)), axis=1)
        u = finish_gen.random(hi - lo)
        if lookup:
            counts = elite_counts[orders[:, 0]]
            classes = elite[selectors._segment_positions(elite_heads[orders[:, 0]], counts)]
        else:
            classes, counts = first(orders[:, :batch_size])
        lone, events, counts, classes = selectors._filter_pairs(
            step, batch_size, orders[:, batch_size:], counts, classes
        )
        lone[events] = selectors._finish_events(counts, classes, classing.sizes, u[events])
        picks[lo:hi] = lone
    return picks


def pooled_filter_matrices():
    """Errors and support of the pooled filter's test grid, by name: each
    case has a few best classes, so most first steps settle or leave a
    few pairs, and blocks' contested events pool."""
    rng = np.random.default_rng(46)
    ties = rng.integers(0, 120, (300, 40)).astype(float)
    support = (rng.random(ties.shape) < 0.6).astype(float)
    support[~support.any(axis=1), 0] = 1.0
    evolve = {}
    for m in (40, 12):
        problem = SyntheticProblem(kind="discrete_vector", m=m, seed=3)
        gen = RandomSource(3).generator(0)
        evolve[m] = problem.evaluate([problem.initial_genome(gen) for _ in range(300)])
    return {
        "full": (ties, None),
        "partial": (ties * support, support),
        # 300 rows of 150 distinct ones.
        "duplicates": (ties[rng.integers(0, 150, 300)], None),
        # Initial genomes of an evolve run: heavy ties, and duplicates.
        "evolve": evolve[40],
        # With 12 cases, some batch filters keep several classes to the
        # end, and pooled events draw their finish.
        "evolve-short": evolve[12],
    }


POOLED_FILTER_CONFIGS = {
    "lexicase": SelectorConfig(method="lexicase"),
    "epsilon_lexicase": SelectorConfig(method="epsilon_lexicase"),
    **{
        f"batch-b{size}-{mode}": SelectorConfig(
            method="batch_lexicase", batch_size=size, batch_threshold_mode=mode
        )
        for size in (2, 3)
        for mode in ("mad", "absolute")
    },
}


class TestPooledFilter:
    """The events a block's first step leaves contested pool across
    blocks, and every pick equals the one its block's own filter run
    gives."""

    @staticmethod
    def pooled_pass(classing, cfg, n_events, seed, monkeypatch):
        """The picks of one pass, the number of pool entries each filter
        run takes, and the event count of each first-step block."""
        pools, blocks = [], []
        filter_pool, first_step = selectors._filter_pool, selectors._first_step

        def recorded_pool(step, batch_size, sizes, pool, picks):
            pools.append(len(pool))
            return filter_pool(step, batch_size, sizes, pool, picks)

        def recorded_first(*args):
            blocks.append(len(args[-1]))
            return first_step(*args)

        with monkeypatch.context() as patch:
            patch.setattr(selectors, "_filter_pool", recorded_pool)
            patch.setattr(selectors, "_first_step", recorded_first)
            picks = selectors.select_classes(classing, n_events, cfg, RandomSource(seed))
        return picks, pools, blocks

    @pytest.mark.parametrize("name", list(pooled_filter_matrices()))
    @pytest.mark.parametrize("method", list(POOLED_FILTER_CONFIGS))
    @pytest.mark.parametrize("budget", [1 << 11, 1 << 18])
    def test_equals_per_block_filter(self, name, method, budget, monkeypatch):
        classing = build_classes(*pooled_filter_matrices()[name])
        cfg = POOLED_FILTER_CONFIGS[method]
        monkeypatch.setattr(selectors, "_PAIR_BUDGET", budget)
        # 30 events take first steps of their own; 200 look up the elites.
        for n_events in (30, 200):
            picks, _, _ = self.pooled_pass(classing, cfg, n_events, 47, monkeypatch)
            expected = per_block_filter_picks(classing, n_events, cfg, RandomSource(47))
            np.testing.assert_array_equal(picks, expected, err_msg=f"{n_events}")

    @pytest.mark.parametrize(
        "name, method, n_events",
        [
            ("evolve", "lexicase", 39),
            ("evolve", "epsilon_lexicase", 39),
            ("evolve", "batch-b2-mad", 200),
            ("duplicates", "batch-b3-mad", 200),
            ("partial", "batch-b2-absolute", 200),
        ],
    )
    def test_pools_span_blocks(self, name, method, n_events, monkeypatch):
        # A small budget makes blocks of a few events whose contested pairs
        # stay below the cap, so a pool holds several blocks and one pass
        # runs several such pools.
        classing = build_classes(*pooled_filter_matrices()[name])
        cfg = POOLED_FILTER_CONFIGS[method]
        monkeypatch.setattr(selectors, "_PAIR_BUDGET", 1 << 11)
        picks, pools, blocks = self.pooled_pass(classing, cfg, n_events, 48, monkeypatch)
        assert sum(size >= 2 for size in pools) >= 2
        assert len(blocks) > len(pools)
        expected = per_block_filter_picks(classing, n_events, cfg, RandomSource(48))
        np.testing.assert_array_equal(picks, expected)

    def test_peak_memory_grows_with_block_not_event_count(self, monkeypatch):
        # Initial evolve genomes: batch first steps leave a few pairs each,
        # so every block's contested events pool, and only the pool's caps
        # keep its pairs and case orders from growing with the event count.
        # A small budget keeps the first steps' own memory small beside it.
        problem = SyntheticProblem(kind="discrete_vector", m=200, seed=5)
        gen = RandomSource(5).generator(0)
        classing = build_classes(
            *problem.evaluate([problem.initial_genome(gen) for _ in range(500)])
        )
        cfg = SelectorConfig(method="batch_lexicase", batch_size=2)
        monkeypatch.setattr(selectors, "_PAIR_BUDGET", 1 << 14)
        peaks = []
        for n_events in (2000, 8000):
            tracemalloc.start()
            try:
                batch_lexicase_select(classing, n_events, cfg, RandomSource(49))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


def agreed_run_matrices(m):
    """Errors and support, by name, of m-case instances whose classes
    agree on long runs of cases.  Case 0 spreads every row's error, so
    some epsilon tolerance is positive."""
    rng = np.random.default_rng(51 + m)
    # Four distinct 0/1 columns repeated over the cases.
    repeated = rng.integers(0, 2, (12, 4)).astype(float)[:, rng.integers(0, 4, m)]
    # Ten rows equal but on one or two cases each.
    near = np.zeros((10, m))
    near[np.arange(10)[:, None], rng.integers(1, m, (10, 2))] = rng.integers(1, 3, (10, 2))
    support = (rng.random(near.shape) < 0.7).astype(float)
    # No one is defined on a run of cases.
    support[:, 1 : 1 + m // 2] = 0.0
    support[:, 0] = 1.0
    for errors in (repeated, near):
        errors[:, 0] = np.arange(len(errors)) % 3
    return {
        "repeated": (repeated, None),
        "one-or-two-cases": (near, None),
        "partial": (near * support, support),
        # Classes of one to three members, weighed by the MAD.
        "duplicates": (near[[0, 1, 1, 2, 3, 3, 3, 4, 5, 5, 6, 7, 8, 9]], None),
    }


def agreed_run_configs(m):
    """A cell of every tolerance kind, by name: none, per case, fixed and
    MAD, the batch sizes leaving a short last batch at m = 7 or 200."""
    cells = {
        "lexicase": SelectorConfig(method="lexicase"),
        "epsilon_lexicase": SelectorConfig(method="epsilon_lexicase"),
    }
    for size in (2, 3) if m == 7 else (3, 16):
        for mode, value in (("absolute", 0.0), ("absolute", 0.5), ("mad", 0.0)):
            cells[f"batch-b{size}-{mode}-{value:g}"] = SelectorConfig(
                method="batch_lexicase",
                batch_size=size,
                batch_threshold_mode=mode,
                batch_threshold_value=value,
            )
    return cells


def converged_classing(m=200, n=1000):
    """The classing ``run_evolution`` selects on at generation 1 of a
    lexicase run, as perfbench's evolve workload times it: selection and
    mutation leave duplicates, and most classes tie on most cases."""
    problem = SyntheticProblem(kind="discrete_vector", m=m, seed=3)
    seen = []
    run_evolution(problem, SelectorConfig(method="lexicase"), n, 2, RandomSource(3),
                  on_generation=lambda t, classing, parents: seen.append(classing))
    return seen[1]


class TestSkipAgreed:
    """Events skip the batches their classes agree on, and every pick
    equals the scalar replay's, whether the scans always or never run."""

    GATES = {"always": 0.0, "never": np.inf}

    @staticmethod
    def recorded_scans(monkeypatch):
        """Patch ``_filter_step`` to append, for each of its calls that
        scans ahead, the most cases an event agreed on."""
        agreed = []
        filter_step = selectors._filter_step

        def recorded(*args):
            out = filter_step(*args)
            if len(out) == 3:
                agreed.append(int(out[2].max()))
            return out

        monkeypatch.setattr(selectors, "_filter_step", recorded)
        return agreed

    @pytest.mark.parametrize("gate", list(GATES))
    @pytest.mark.parametrize("name", list(agreed_run_matrices(7)))
    @pytest.mark.parametrize(
        "m, method", [(m, method) for m in (7, 200) for method in agreed_run_configs(m)]
    )
    def test_matches_scalar_replay(self, m, method, name, gate, monkeypatch):
        cfg = agreed_run_configs(m)[method]
        classing = build_classes(*agreed_run_matrices(m)[name])
        agreed = self.recorded_scans(monkeypatch)
        monkeypatch.setattr(selectors, "_SKIP_SHARE", self.GATES[gate])
        assert_matches_replay(classing, cfg, RandomSource(52), n_events=200 if m == 7 else 60)
        if gate == "never":
            assert not agreed

    @pytest.mark.parametrize("method", ["lexicase", "epsilon_lexicase", "batch-b3-mad-0"])
    @pytest.mark.parametrize("name", ["repeated", "one-or-two-cases", "partial", "duplicates"])
    def test_events_skip_agreed_runs(self, name, method, monkeypatch):
        # On these instances some event's classes agree on a whole batch
        # ahead, so its cursor jumps.
        cfg = agreed_run_configs(200)[method]
        classing = build_classes(*agreed_run_matrices(200)[name])
        agreed = self.recorded_scans(monkeypatch)
        monkeypatch.setattr(selectors, "_SKIP_SHARE", 0.0)
        selectors.select_classes(classing, 60, cfg, RandomSource(52))
        assert max(agreed) >= cfg.batch_size

    def test_default_gate_scans_on_converged_populations_only(self, monkeypatch):
        # Most event-steps on a converged population keep every class, so
        # the scans start; on select-ties errors few do.
        agreed = self.recorded_scans(monkeypatch)
        ties = np.random.default_rng(53).integers(0, 6, (1000, 200)).astype(float)
        for classing, scans in ((converged_classing(), True), (build_classes(ties), False)):
            for cfg in agreed_run_configs(7).values():
                agreed.clear()
                picks = selectors.select_classes(classing, 500, cfg, RandomSource(54))
                assert bool(agreed) == scans, cfg
                with monkeypatch.context() as patch:
                    patch.setattr(selectors, "_SKIP_SHARE", np.inf)
                    never = selectors.select_classes(classing, 500, cfg, RandomSource(54))
                np.testing.assert_array_equal(picks, never)


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
