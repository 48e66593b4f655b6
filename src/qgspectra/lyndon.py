"""Lyndon words, Lyndon tuples over a fixed letter multiset, and parity.

Words are tuples of integer letters from {1, ..., l}.  A Lyndon word is
strictly smaller than all of its proper rotations; a Lyndon tuple is a set
of distinct Lyndon words.  Tuples whose letters exhaust a multiset M model
the ways repeated bonds can regroup into orbits, and the index
|M| - (number of words) tracks the sign such a regrouping carries.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .graphs import _whole

Word = tuple[int, ...]


def lyndon_words(alphabet_size: int, max_len: int) -> list[Word]:
    """All Lyndon words of length <= max_len over {1..alphabet_size},
    in lexicographic order: :func:`_fitting_lyndon_words` with a supply of
    max_len of each letter, which the length bound never lets run out.
    Raises ValueError unless both are positive integers."""
    if _whole(alphabet_size, "alphabet sizes") < 1:
        raise ValueError("alphabet_size must be positive")
    if _whole(max_len, "word lengths") < 1:
        raise ValueError("max_len must be positive")
    return _fitting_lyndon_words((max_len,) * alphabet_size, max_len)[0]


def is_lyndon(word: Sequence[int]) -> bool:
    """True when the word is strictly smaller than all proper rotations."""
    w = tuple(word)
    if not w:
        return False
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


@dataclass(frozen=True)
class LyndonTuple:
    """A set of distinct Lyndon words, stored sorted."""

    words: tuple[Word, ...]

    @property
    def content(self) -> tuple[tuple[int, int], ...]:
        counts = Counter(a for w in self.words for a in w)
        return tuple(sorted(counts.items()))

    @property
    def total_letters(self) -> int:
        return sum(len(w) for w in self.words)

    @property
    def index(self) -> int:
        """|M| - k for a k-word tuple with letter multiset M."""
        return self.total_letters - len(self.words)

    @property
    def parity(self) -> int:
        """(-1)**index."""
        return -1 if self.index % 2 else 1


def _normalize_content(content) -> Counter:
    if isinstance(content, Mapping):
        counts = Counter({_whole(a, "letters"): _whole(c, "letter counts")
                          for a, c in content.items()})
    else:
        counts = Counter(_whole(a, "letters") for a in content)
    if any(c < 0 for c in counts.values()):
        raise ValueError("letter counts must be nonnegative")
    counts = +counts  # drop zero-count letters
    if any(a < 1 for a in counts):
        raise ValueError("letters must be positive integers")
    return counts


def _fitting_lyndon_words(
    supply: tuple[int, ...], longest: int
) -> tuple[list[Word], list[tuple[int, ...]]]:
    """The Lyndon words of length <= longest using letter a at most
    supply[a - 1] times, in lexicographic order, with their per-letter
    counts; the one Lyndon-word generator of the package.

    Depth-first over prenecklaces (prefixes of Lyndon words), the
    Fredricksen-Kessler-Maiorana tree: a prefix with longest Lyndon prefix
    of length p extends by a letter equal to the one p places back
    (keeping p) or larger (making the whole prefix Lyndon).  A prefix is a
    Lyndon word when p is its length.  Letters run out along a branch and
    no prefix grows past ``longest``, so only words that fit are
    generated, in preorder, which is lexicographic.
    """
    alphabet = len(supply)
    left = list(supply)
    word: list[int] = []
    words: list[Word] = []
    needs: list[tuple[int, ...]] = []

    def extend(period: int) -> None:
        if word and len(word) == period:
            words.append(tuple(word))
            needs.append(tuple(map(operator.sub, supply, left)))
        t = len(word)
        if t == longest:
            return
        low = word[t - period] if word else 1
        for a in range(low, alphabet + 1):
            if left[a - 1]:
                left[a - 1] -= 1
                word.append(a)
                extend(period if t and a == low else t + 1)
                word.pop()
                left[a - 1] += 1

    extend(0)
    return words, needs


def lyndon_tuples(content) -> list[LyndonTuple]:
    """All Lyndon tuples whose words jointly use exactly the multiset
    ``content`` (a mapping letter -> count, or an iterable of letters).

    The candidate words are the Lyndon words that fit the content, each
    held with its vector of per-letter counts.  A Lyndon word begins with
    its smallest letter and the search takes words in lexicographic order,
    so the smallest letter left must be covered by the next word chosen:
    the search only tries the words that begin with it.
    """
    counts = _normalize_content(content)
    if not counts:
        raise ValueError("content must be a nonempty multiset")
    total = sum(counts.values())
    alphabet = max(counts)
    supply = tuple(counts[a] for a in range(1, alphabet + 1))
    candidates, needs = _fitting_lyndon_words(supply, total)
    # candidates[first[a]:first[a + 1]] are the words that begin with letter a
    first = [bisect.bisect_left(candidates, (a,)) for a in range(1, alphabet + 2)]
    results: list[LyndonTuple] = []
    chosen: list[Word] = []

    def search(start: int, remaining: tuple[int, ...], left: int) -> None:
        if not left:
            results.append(LyndonTuple(words=tuple(chosen)))
            return
        lowest = next(a for a, c in enumerate(remaining) if c)
        for j in range(max(start, first[lowest]), first[lowest + 1]):
            need = needs[j]
            if all(map(operator.le, need, remaining)):
                chosen.append(candidates[j])
                search(j + 1, tuple(map(operator.sub, remaining, need)), left - len(candidates[j]))
                chosen.pop()

    search(0, supply, total)
    return sorted(results, key=lambda t: t.words)


def tuple_parity_census(content) -> tuple[int, int]:
    """(even, odd) counts of the :func:`lyndon_tuples` over ``content`` by
    index parity; like them, raises ValueError for an empty multiset.

    For any multiset with at least two distinct letters the two counts are
    equal; this balance is what cancels repeated-bond pseudo orbits.
    """
    tuples = lyndon_tuples(content)
    odd = sum(t.index % 2 for t in tuples)
    return len(tuples) - odd, odd


def symmetric_group_parity_sum(letters: int) -> int:
    """Sum of (-1)**(number of cycles) over all permutations of ``letters``
    symbols; zero for every l >= 2.  A float, bool or l < 1 raises ValueError."""
    if _whole(letters, "letters") < 1:
        raise ValueError("letters must be positive")
    total = 0
    for perm in itertools.permutations(range(letters)):
        seen = [False] * letters
        cycles = 0
        for i in range(letters):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        total += (-1) ** cycles
    return total
