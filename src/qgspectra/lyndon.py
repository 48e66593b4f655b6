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

Word = tuple[int, ...]


def lyndon_words(alphabet_size: int, max_len: int) -> list[Word]:
    """All Lyndon words of length <= max_len over {1..alphabet_size},
    in lexicographic order (Duval's generation)."""
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be positive")
    if max_len < 1:
        raise ValueError("max_len must be positive")
    words: list[Word] = []
    w = [1]
    while w:
        words.append(tuple(w))
        w = [w[i % len(w)] for i in range(max_len)]
        while w and w[-1] == alphabet_size:
            w.pop()
        if w:
            w[-1] += 1
    return words


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
        counts = Counter({int(a): int(c) for a, c in content.items()})
    else:
        counts = Counter(int(a) for a in content)
    if any(c < 0 for c in counts.values()):
        raise ValueError("letter counts must be nonnegative")
    counts = +counts  # drop zero-count letters
    if any(a < 1 for a in counts):
        raise ValueError("letters must be positive integers")
    return counts


def lyndon_tuples(content) -> list[LyndonTuple]:
    """All Lyndon tuples whose words jointly use exactly the multiset
    ``content`` (a mapping letter -> count, or an iterable of letters).

    Every word is held as a vector of per-letter counts, built once.  A
    Lyndon word begins with its smallest letter and the search takes words
    in lexicographic order, so the smallest letter left must be covered by
    the next word chosen: the search only tries the words that begin with it.
    """
    counts = _normalize_content(content)
    if not counts:
        raise ValueError("content must be a nonempty multiset")
    total = sum(counts.values())
    alphabet = max(counts)
    supply = tuple(counts[a] for a in range(1, alphabet + 1))
    candidates: list[Word] = []
    needs: list[tuple[int, ...]] = []
    for w in lyndon_words(alphabet, total):
        need = [0] * alphabet
        for a in w:
            need[a - 1] += 1
        if all(map(operator.le, need, supply)):
            candidates.append(w)
            needs.append(tuple(need))
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
    """(even, odd) counts of Lyndon tuples over ``content`` by index parity.

    For any multiset with at least two distinct letters the two counts are
    equal; this balance is what cancels repeated-bond pseudo orbits.
    """
    counts = _normalize_content(content)
    if not counts:
        return (0, 0)
    even = odd = 0
    for t in lyndon_tuples(counts):
        if t.index % 2:
            odd += 1
        else:
            even += 1
    return even, odd


def symmetric_group_parity_sum(letters: int) -> int:
    """Sum of (-1)**(number of cycles) over all permutations of ``letters``
    symbols; zero for every l >= 2."""
    if letters < 1:
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
