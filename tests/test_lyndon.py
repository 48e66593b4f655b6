"""Lyndon words, Lyndon tuples, and the parity balance behind cancellation."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgspectra.lyndon import (
    LyndonTuple,
    is_lyndon,
    lyndon_tuples,
    lyndon_words,
    symmetric_group_parity_sum,
    tuple_parity_census,
)

BINARY_UP_TO_4 = [
    (1,), (1, 1, 1, 2), (1, 1, 2), (1, 1, 2, 2),
    (1, 2), (1, 2, 2), (1, 2, 2, 2), (2,),
]


def _mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _necklace_count(q, n):
    """Aperiodic necklaces of length n over q letters."""
    return sum(_mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def test_binary_words_up_to_4():
    assert lyndon_words(2, 4) == BINARY_UP_TO_4


def test_words_are_sorted_and_lyndon():
    words = lyndon_words(3, 5)
    assert words == sorted(words)
    assert len(set(words)) == len(words)
    assert all(is_lyndon(w) for w in words)


@pytest.mark.parametrize("alphabet", [2, 3])
def test_word_counts_match_mobius(alphabet):
    words = lyndon_words(alphabet, 8)
    by_len = Counter(len(w) for w in words)
    for n in range(1, 9):
        assert by_len[n] == _necklace_count(alphabet, n)


def test_words_exhaustive_against_filter():
    # brute force: every word over {1,2} of length <= 5 that is minimal
    # among its rotations and aperiodic
    expected = set()
    for n in range(1, 6):
        for w in itertools.product((1, 2), repeat=n):
            if is_lyndon(w):
                expected.add(w)
    assert set(lyndon_words(2, 5)) == expected


def test_lyndon_words_rejects_bad_args():
    with pytest.raises(ValueError):
        lyndon_words(0, 3)
    with pytest.raises(ValueError):
        lyndon_words(2, 0)


def test_is_lyndon_basics():
    assert is_lyndon((1,))
    assert is_lyndon((1, 2, 2))
    assert not is_lyndon((2, 1))
    assert not is_lyndon((1, 2, 1, 2))
    assert not is_lyndon(())


def test_tuples_for_two_ones_two_twos():
    tuples = lyndon_tuples({1: 2, 2: 2})
    assert [t.words for t in tuples] == [
        ((1,), (1, 2), (2,)),
        ((1,), (1, 2, 2)),
        ((1, 1, 2), (2,)),
        ((1, 1, 2, 2),),
    ]
    assert [t.index for t in tuples] == [1, 2, 2, 3]
    assert [t.parity for t in tuples] == [-1, 1, 1, -1]
    assert all(t.content == ((1, 2), (2, 2)) for t in tuples)
    assert all(t.total_letters == 4 for t in tuples)


def test_tuples_accept_iterable_content():
    assert lyndon_tuples([1, 1, 2, 2]) == lyndon_tuples({1: 2, 2: 2})


def test_tuples_use_exact_content():
    for t in lyndon_tuples({1: 3, 2: 1}):
        assert t.content == ((1, 3), (2, 1))
        assert len(set(t.words)) == len(t.words)
        assert all(is_lyndon(w) for w in t.words)


def test_single_letter_content():
    # (1) is the only Lyndon word over one letter, so multiplicity > 1
    # admits no tuple at all
    assert [t.words for t in lyndon_tuples({1: 1})] == [((1,),)]
    assert lyndon_tuples({1: 2}) == []
    assert tuple_parity_census({1: 1}) == (1, 0)
    assert tuple_parity_census({1: 3}) == (0, 0)


def _set_partitions(items):
    """Every partition of the list ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [[head], *partition]
        for i in range(len(partition)):
            yield [*partition[:i], [head, *partition[i]], *partition[i + 1:]]


def _brute_force_tuples(content):
    """Lyndon tuples over ``content`` without the word generator: split the
    letters into blocks every way, arrange each block every way, keep the
    arrangements of distinct Lyndon words."""
    letters = [a for a, c in sorted(content.items()) for _ in range(c)]
    found = set()
    for partition in _set_partitions(letters):
        arrangements = [{w for w in itertools.permutations(block) if is_lyndon(w)}
                        for block in partition]
        for words in itertools.product(*arrangements):
            if len(set(words)) == len(words):
                found.add(tuple(sorted(words)))
    return sorted(found)


@pytest.mark.parametrize("content", [
    {1: 1}, {1: 3}, {1: 2, 3: 1}, {2: 2, 5: 1}, {1: 2, 2: 2}, {1: 3, 2: 1},
    {1: 1, 2: 1, 3: 1}, {1: 2, 2: 1, 3: 2}, {2: 1, 4: 2, 7: 1}, {1: 3, 2: 3},
])
def test_tuples_match_brute_force(content):
    expected = _brute_force_tuples(content)
    assert [t.words for t in lyndon_tuples(content)] == expected
    even = sum(1 for words in expected if (sum(map(len, words)) - len(words)) % 2 == 0)
    assert tuple_parity_census(content) == (even, len(expected) - even)


def test_tuples_reject_bad_content():
    with pytest.raises(ValueError):
        lyndon_tuples({})
    with pytest.raises(ValueError):
        lyndon_tuples({0: 2})
    with pytest.raises(ValueError):
        lyndon_tuples({1: -1})


def test_parity_census_refuses_empty_content():
    # it tallies lyndon_tuples, which has no tuple to offer for no letters
    for content in ({}, [], {1: 0}):
        with pytest.raises(ValueError, match="content must be a nonempty multiset"):
            tuple_parity_census(content)


@pytest.mark.parametrize("content, message", [
    ({1: 2.9}, "letter counts must be integers"),
    ([1.7, 2], "letters must be integers"),
    (["1", 2], "letters must be integers"),
])
def test_content_is_refused_not_truncated(content, message):
    # int() would read {1: 2.9} as {1: 2} and [1.7, 2] as [1, 2]
    with pytest.raises(ValueError, match=message):
        tuple_parity_census(content)
    with pytest.raises(ValueError, match=message):
        lyndon_tuples(content)


def test_parity_census_balance_exhaustive():
    """Even and odd tuples pair off whenever the multiset mixes letters."""
    for total in range(2, 9):
        for a in range(0, total + 1):
            for b in range(0, total + 1 - a):
                c = total - a - b
                content = {1: a, 2: b, 3: c}
                if sum(1 for v in content.values() if v > 0) < 2:
                    continue
                even, odd = tuple_parity_census(content)
                assert even == odd, f"unbalanced census for {content}"


@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=9).filter(
        lambda xs: len(set(xs)) >= 2
    )
)
@settings(max_examples=80, deadline=None)
def test_parity_census_balance_property(letters):
    even, odd = tuple_parity_census(letters)
    assert even == odd


def test_parity_matches_tuple_definition():
    t = LyndonTuple(words=((1,), (1, 2, 2)))
    assert t.index == 4 - 2
    assert t.parity == 1


def test_symmetric_group_parity_sums():
    assert [symmetric_group_parity_sum(l) for l in range(1, 7)] == [-1, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        symmetric_group_parity_sum(0)
