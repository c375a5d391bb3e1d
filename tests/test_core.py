"""Tests for population primitives: classing, standardization, RNG, CSV."""

import numpy as np
import pytest

from lexsel.core import (
    EXPAND_STREAM,
    RandomSource,
    build_classes,
    expand_class_selection,
    load_error_matrix,
    load_support_matrix,
    save_matrix,
    singleton_classes,
    standardize_per_case,
)
from lexsel.exceptions import ConfigError, ParseError, ShapeError


def pairwise_grouping(errors, support):
    """Definitional O(n^2) grouping: rows are classmates iff their
    (error row, support row) pairs compare equal."""
    n = len(errors)
    groups = []
    for i in range(n):
        for group in groups:
            j = group[0]
            same = np.array_equal(errors[i], errors[j]) and np.array_equal(
                support[i], support[j]
            )
            if same:
                group.append(i)
                break
        else:
            groups.append([i])
    return groups


def dict_grouping(errors, support=None):
    """Reference grouping: one dict entry per distinct row's bytes, filled
    in index order.  Returns (members, class errors, class support)."""
    E = np.asarray(errors, dtype=np.float64) + 0.0
    S = np.ones_like(E) if support is None else np.asarray(support, dtype=np.float64)
    keyed = np.ascontiguousarray(np.concatenate([E, S], axis=1))
    groups = {}
    for i in range(len(keyed)):
        groups.setdefault(keyed[i].tobytes(), []).append(i)
    members = [np.array(g, dtype=np.int64) for g in groups.values()]
    firsts = [g[0] for g in members]
    return members, E[firsts], S[firsts]


def members_expansion(members, picks, rng):
    """Reference expansion over a concatenation of member lists."""
    sizes = np.array([len(g) for g in members], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    offsets = rng.generator(EXPAND_STREAM).integers(0, sizes[picks])
    return np.concatenate(members)[starts[picks] + offsets]


def assert_groups(classing, groups):
    """``classing``'s inverse index and counts hold ``groups``, each
    class's individuals in class order."""
    inverse = np.empty(sum(len(g) for g in groups), dtype=np.int64)
    for c, group in enumerate(groups):
        inverse[np.asarray(group, dtype=np.int64)] = c
    np.testing.assert_array_equal(classing.inverse, inverse)
    np.testing.assert_array_equal(classing.counts, [len(g) for g in groups])


def grouping_instances():
    """(name, errors, support) cases that stress grouping."""
    rng = np.random.default_rng(11)
    base = rng.integers(0, 3, (7, 5)).astype(float)
    shuffled = base[rng.integers(0, 7, 40)]
    support = (rng.random((7, 5)) < 0.6).astype(float)
    support[:, 0] = 1.0
    partial = (base * support)[np.r_[0:7, 6::-1, 2, 2]]
    partial_support = support[np.r_[0:7, 6::-1, 2, 2]]
    wide = rng.random((9, 30))
    yield "shuffled duplicates", shuffled, None
    yield "shuffled duplicates, partial", partial, partial_support
    yield "equal errors, unequal support", np.zeros((4, 3)), np.array(
        [[1, 1, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=float
    )
    yield "signed zeros", np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, -0.0], [0.0, 0.0]]), None
    yield "F-ordered", np.asfortranarray(shuffled), None
    yield "column-permuted", shuffled[:, rng.permutation(5)], None
    yield "non-contiguous", np.repeat(wide, 2, axis=0)[::3, ::2], None
    yield "n = 1", np.array([[3.0, -1.0, 2.0]]), None
    yield "k = 1", np.tile([[1.5, 0.0, 2.0]], (6, 1)), None
    yield "k = 1, partial", np.tile([[1.5, 0.0, 2.0]], (6, 1)), np.tile([[1.0, 0.0, 1.0]], (6, 1))
    yield "all distinct", wide, None
    yield "first word shared, most rows distinct", *first_word_rows(rng, 30, 8)
    yield "first word shared, most rows agreeing", *first_word_rows(rng, 6, 30)


def first_word_rows(rng, distinct, twins):
    """``distinct`` rows and ``twins`` rows that copy one of them but
    differ only in the last column, only in a middle one, or nowhere, so
    sorted neighbours agree in their first word whether or not they are
    equal.  Shuffled; returns (errors, None)."""
    base = rng.random((distinct, 6))
    copies = base[rng.integers(0, distinct, twins)]
    copies[0::3, -1] += 1.0
    copies[1::3, 3] += 1.0
    rows = np.vstack([base, copies])
    return rows[rng.permutation(len(rows))], None


class TestRandomSource:
    def test_same_key_same_stream(self):
        a = RandomSource(42).generator(2, 7).random(5)
        b = RandomSource(42).generator(2, 7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_different_streams(self):
        a = RandomSource(42).generator(2, 7).random(5)
        b = RandomSource(42).generator(2, 8).random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomSource(1).generator(0).random(5)
        b = RandomSource(2).generator(0).random(5)
        assert not np.array_equal(a, b)

    def test_child_extends_path(self):
        root = RandomSource(9)
        assert root.child(3).generator(1).random(4).tolist() == root.generator(
            3, 1
        ).random(4).tolist()

    def test_event_streams_do_not_depend_on_order(self):
        """Event i's stream must not change when other events run first."""
        rs = RandomSource(123)
        direct = rs.generator(2, 50).random(3)
        for i in range(50):
            rs.generator(2, i).random(3)
        again = rs.generator(2, 50).random(3)
        np.testing.assert_array_equal(direct, again)

    def test_seed_validation(self):
        with pytest.raises(ConfigError):
            RandomSource(-1)
        with pytest.raises(ConfigError):
            RandomSource(2**64)
        with pytest.raises(ConfigError):
            RandomSource(1.5)
        RandomSource(2**64 - 1)


class TestBuildClasses:
    def test_duplicate_rows_grouped(self):
        classing = build_classes([[0, 1], [0, 1], [2, 3]])
        assert classing.k == 2
        assert_groups(classing, [[0, 1], [2]])
        np.testing.assert_array_equal(classing.class_errors, [[0, 1], [2, 3]])
        np.testing.assert_array_equal(classing.sizes, [2, 1])

    def test_sizes_and_support_flag_are_cached(self):
        classing = build_classes([[0, 1], [0, 1], [2, 3]])
        assert classing.sizes is classing.sizes
        assert not classing.sizes.flags.writeable
        assert classing.full_support is True

    def test_first_occurrence_order(self):
        classing = build_classes([[5.0], [1.0], [5.0], [3.0]])
        np.testing.assert_array_equal(classing.class_errors.ravel(), [5.0, 1.0, 3.0])

    def test_support_distinguishes_classes(self):
        errors = [[0.0, 0.0], [0.0, 0.0]]
        support = [[1, 1], [1, 0]]
        assert build_classes(errors, support).k == 2

    def test_signed_zero_rows_grouped_together(self):
        assert build_classes([[0.0], [-0.0]]).k == 1

    def test_rows_differing_after_their_first_word_stay_apart(self):
        # Neighbours agreeing in the first word are compared whole: rows
        # differing only in the last word are separate classes.
        distinct = np.arange(40, dtype=float)[:, None] + np.zeros((40, 4))
        last = distinct[:3].copy()
        last[:, -1] += 0.5
        middle = distinct[3:5].copy()
        middle[:, 1] += 0.5
        errors = np.vstack([distinct, last, middle, distinct[:2]])
        classing = build_classes(errors)
        assert classing.k == 45
        assert_groups(classing, [[0, 45], [1, 46], *([c] for c in range(2, 45))])

    def test_matches_pairwise_definition_on_fuzz(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n, m = rng.integers(2, 12), rng.integers(1, 5)
            errors = rng.integers(0, 3, (n, m)).astype(float)
            support = (rng.random((n, m)) < 0.7).astype(float)
            support[~support.any(axis=1), 0] = 1.0
            errors *= support
            expected = pairwise_grouping(errors, support)
            classing = build_classes(errors, support)
            assert_groups(classing, expected)

    @pytest.mark.parametrize(
        "errors, support", [case[1:] for case in grouping_instances()],
        ids=[case[0] for case in grouping_instances()],
    )
    def test_matches_dict_grouping(self, errors, support):
        members, class_errors, class_support = dict_grouping(errors, support)
        classing = build_classes(errors, support)
        assert_groups(classing, members)
        np.testing.assert_array_equal(classing.class_errors, class_errors)
        np.testing.assert_array_equal(classing.class_support, class_support)
        np.testing.assert_array_equal(classing.counts, [len(g) for g in members])
        for c, group in enumerate(members):
            assert (classing.class_of()[group] == c).all()
        assert classing.class_errors.flags.c_contiguous
        assert classing.n == len(errors)
        picks = np.random.default_rng(3).integers(0, classing.k, 500)
        np.testing.assert_array_equal(
            expand_class_selection(classing, picks, RandomSource(8)),
            members_expansion(members, picks, RandomSource(8)),
        )

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_later_input_changes_do_not_reach_classing(self, duplicates):
        rng = np.random.default_rng(5)
        support = (rng.random((6, 4)) < 0.7).astype(float)
        support[:, 0] = 1.0
        errors = rng.random((6, 4)) * support
        if duplicates:
            errors[3], support[3] = errors[0], support[0]
        for sup in (None, support):
            e, s = errors.copy(), None if sup is None else sup.copy()
            classing = build_classes(e, s)
            before = classing.class_errors.copy(), np.array(classing.class_support)
            e[:] = 9.0
            if s is not None:
                s[:] = 1.0
            np.testing.assert_array_equal(classing.class_errors, before[0])
            np.testing.assert_array_equal(classing.class_support, before[1])
            assert not classing.inverse.flags.writeable
            assert not classing.counts.flags.writeable

    def test_class_of_inverts_members(self):
        classing = build_classes([[0, 1], [2, 3], [0, 1]])
        np.testing.assert_array_equal(classing.class_of(), [0, 1, 0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ShapeError):
            build_classes([[np.nan, 0.0]])
        with pytest.raises(ShapeError):
            build_classes([1.0, 2.0])
        with pytest.raises(ShapeError):
            build_classes(np.empty((0, 3)))
        with pytest.raises(ShapeError):
            build_classes([[1.0, 2.0]], [[1, 1], [1, 1]])
        with pytest.raises(ShapeError):
            build_classes([[1.0, 2.0]], [[0, 0]])
        with pytest.raises(ShapeError):
            build_classes([[1.0, 2.0]], [[1, 0.5]])
        with pytest.raises(ShapeError):
            # nonzero error at an unsupported case
            build_classes([[1.0, 2.0]], [[1, 0]])

    def test_singleton_classes_keeps_duplicates_apart(self):
        classing = singleton_classes([[0, 1], [0, 1]])
        assert classing.k == 2
        assert classing.n == 2


class TestExpandClassSelection:
    def test_uniform_within_class(self):
        """Expanding a class pick must spread mass evenly over members."""
        classing = build_classes([[0.0], [0.0], [0.0], [7.0]])
        picks = np.zeros(30_000, dtype=np.int64)
        chosen = expand_class_selection(classing, picks, RandomSource(5))
        counts = np.bincount(chosen, minlength=4)
        assert counts[3] == 0
        # three-way split: 5 sigma of Binomial(30000, 1/3) is ~445
        np.testing.assert_allclose(counts[:3], 10_000, atol=450)

    def test_deterministic(self):
        classing = build_classes([[0.0], [0.0], [1.0]])
        picks = np.array([0, 1, 0, 0, 1])
        a = expand_class_selection(classing, picks, RandomSource(3))
        b = expand_class_selection(classing, picks, RandomSource(3))
        np.testing.assert_array_equal(a, b)

    def test_out_of_range_rejected(self):
        classing = build_classes([[0.0], [1.0]])
        with pytest.raises(ShapeError):
            expand_class_selection(classing, [2], RandomSource(0))

    def test_empty_picks(self):
        classing = build_classes([[0.0]])
        out = expand_class_selection(classing, [], RandomSource(0))
        assert out.size == 0


class TestStandardizePerCase:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(7)
        errors = rng.random((6, 4)) * 10
        out = standardize_per_case(errors)
        for j in range(4):
            col = errors[:, j]
            mu = sum(col) / len(col)
            sd = (sum((x - mu) ** 2 for x in col) / len(col)) ** 0.5
            np.testing.assert_allclose(out[:, j], (col - mu) / sd, rtol=1e-12)

    def test_population_statistics(self):
        out = standardize_per_case(np.random.default_rng(0).random((50, 3)))
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, rtol=1e-12)

    def test_multiplicities_match_expanded_population(self):
        rng = np.random.default_rng(13)
        rows = rng.random((4, 3))
        sizes = np.array([3, 1, 2, 5])
        expanded = np.repeat(rows, sizes, axis=0)
        weighted = standardize_per_case(rows, sizes)
        plain = standardize_per_case(expanded)
        np.testing.assert_allclose(np.repeat(weighted, sizes, axis=0), plain, rtol=1e-12)

    def test_zero_variance_column_becomes_zeros(self):
        out = standardize_per_case([[3.0, 1.0], [3.0, 2.0]])
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.0])

    def test_idempotent(self):
        z = standardize_per_case(np.random.default_rng(1).random((20, 5)))
        np.testing.assert_allclose(standardize_per_case(z), z, atol=1e-12)

    def test_extreme_finite_columns_scale_exactly(self):
        # Moments of errors near +-1e308 overflow; a power-of-two scale
        # must give the same standardized values as the unscaled rows.
        rows = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.5, 2.0, 3.0]])
        with np.errstate(over="raise", invalid="raise"):
            huge = standardize_per_case(rows * 2.0**1021, [2, 1, 1, 3])
        np.testing.assert_array_equal(huge, standardize_per_case(rows, [2, 1, 1, 3]))

    def test_support_standardizes_defined_entries_only(self):
        # Each column equals the standardization of its defined entries
        # alone, undefined entries stay 0, and column 3, defined on one
        # row, is constant.
        rng = np.random.default_rng(17)
        support = (rng.random((7, 4)) < 0.6).astype(float)
        support[:, 0] = 1.0
        support[:, 3] = 0.0
        support[2, 3] = 1.0
        errors = rng.integers(0, 9, (7, 4)) * support
        sizes = rng.integers(1, 4, 7)
        out = standardize_per_case(errors, sizes, support)
        for j in range(4):
            rows = support[:, j] == 1.0
            alone = standardize_per_case(errors[rows, j : j + 1], sizes[rows])[:, 0]
            np.testing.assert_allclose(out[rows, j], alone, rtol=1e-12, atol=1e-12)
            assert (out[~rows, j] == 0.0).all()
        with np.errstate(over="raise", invalid="raise"):
            huge = standardize_per_case(errors * 2.0**1020, sizes, support)
        np.testing.assert_array_equal(huge, out)

    def test_bad_multiplicities(self):
        with pytest.raises(ShapeError):
            standardize_per_case([[1.0], [2.0]], [1])
        with pytest.raises(ShapeError):
            standardize_per_case([[1.0], [2.0]], [1, 0])
        with pytest.raises(ShapeError):
            standardize_per_case([[1.0], [2.0]], [1, 1.5])


class TestMatrixCsv:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(11)
        matrix = rng.random((5, 3)) * np.pi
        path = tmp_path / "errors.csv"
        save_matrix(path, matrix)
        np.testing.assert_array_equal(load_error_matrix(path), matrix)

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# case0,case1\n1.5,2.5\n")
        np.testing.assert_array_equal(load_error_matrix(path), [[1.5, 2.5]])

    def test_ragged_rows_name_the_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match="line 2"):
            load_error_matrix(path)

    def test_bad_token_names_the_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(ParseError, match="line 2"):
            load_error_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,inf\n")
        with pytest.raises(ParseError):
            load_error_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_error_matrix(path)

    def test_second_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# a\n# b\n1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_error_matrix(path)

    def test_support_must_be_binary(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,0\n0,2\n")
        with pytest.raises(ParseError):
            load_support_matrix(path)

    def test_support_accepts_zero_one(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,0\n0,1\n")
        np.testing.assert_array_equal(load_support_matrix(path), [[1, 0], [0, 1]])
