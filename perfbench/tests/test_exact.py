"""The enumerator against 3-case instances worked out by hand."""

import numpy as np
from numpy.testing import assert_allclose

from perfbench import exact


def test_lexicase_each_case_picks_its_own_winner():
    errors = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
    assert_allclose(exact.lexicase_probs(errors), [1 / 3, 1 / 3, 1 / 3])


def test_lexicase_duplicates_split_their_share():
    # Case 0 first -> row 0; case 2 first -> row 3; case 1 first leaves
    # the duplicate rows 1 and 2, which nothing separates.
    errors = [[0, 2, 2], [1, 0, 2], [1, 0, 2], [2, 1, 0]]
    assert_allclose(exact.lexicase_probs(errors), [1 / 3, 1 / 6, 1 / 6, 1 / 3])


def test_lexicase_skips_cases_no_survivor_is_defined_on():
    # Case 0 first keeps rows 0 and 1, which case 1 cannot split (both
    # undefined) and case 2 gives to row 1; case 1 first -> row 2 (the
    # only row defined there); case 2 first -> row 1.
    errors = [[0, 0, 2], [0, 0, 1], [1, 0, 0]]
    support = [[1, 0, 1], [1, 0, 1], [1, 1, 0]]
    assert_allclose(exact.lexicase_probs(errors, support), [0, 2 / 3, 1 / 3])


def test_epsilon_lexicase_with_fixed_tolerance():
    # Only case 0 has slack: it keeps rows 0 and 1, and the next case
    # decides between them; cases 1 and 2 first pick rows 1 and 2.
    errors = [[0, 3, 1], [1, 0, 3], [4, 1, 0]]
    probs = exact.epsilon_lexicase_probs(errors, epsilons=[1, 0, 0])
    assert_allclose(probs, [1 / 6, 1 / 2, 1 / 3])


def test_epsilon_defaults_to_per_case_mad():
    errors = [[0, 3, 1], [1, 0, 3], [4, 1, 0]]
    assert_allclose(exact.mad_per_case(errors), [1, 1, 1])
    assert_allclose(
        exact.epsilon_lexicase_probs(errors),
        exact.epsilon_lexicase_probs(errors, epsilons=[1, 1, 1]),
    )


def test_batch_lexicase_with_zero_threshold():
    # Batches are (first two cases | last case).  Cases {0, 1} first tie
    # everyone and so does case 2; {0, 2} -> row 0; {1, 2} -> row 2.
    errors = [[0, 4, 2], [2, 2, 2], [4, 0, 2]]
    probs = exact.batch_lexicase_probs(errors, batch_size=2, threshold=0.0)
    assert_allclose(probs, [4 / 9, 1 / 9, 4 / 9])


def test_batch_lexicase_with_mad_threshold():
    # Batch {0, 2}: means 1, 2, 3, MAD 1 keeps rows 0 and 1; case 1 then
    # has values 4, 2, MAD 1, and keeps row 1 alone.  {1, 2} mirrors it.
    errors = [[0, 4, 2], [2, 2, 2], [4, 0, 2]]
    probs = exact.batch_lexicase_probs(errors, batch_size=2)
    assert_allclose(probs, [1 / 9, 7 / 9, 1 / 9])


def test_batch_of_one_with_zero_threshold_is_lexicase():
    gen = np.random.default_rng(0)
    errors = gen.integers(0, 3, (6, 5)).astype(float)
    assert_allclose(
        exact.batch_lexicase_probs(errors, batch_size=1, threshold=0.0),
        exact.lexicase_probs(errors),
    )
