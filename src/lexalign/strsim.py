"""String similarity kernels: Jaro, Jaro-Winkler and Smith-Waterman.

All comparisons operate on Unicode scalar values and never normalize
case; callers that want case-insensitive matching lowercase first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

WINKLER_PREFIX_SCALE = 0.1
WINKLER_MAX_PREFIX = 4
Counts = Mapping[str, int]  # a string's character counts, as collections.Counter gives them


@dataclass(frozen=True)
class SwScoring:
    """Smith-Waterman scoring: positive match, nonpositive mismatch and gap."""

    match: int = 2
    mismatch: int = -1
    gap: int = -1

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ValueError("match score must be positive")
        if self.mismatch > 0:
            raise ValueError("mismatch score must be <= 0")
        if self.gap > 0:
            raise ValueError("gap score must be <= 0")


DEFAULT_SW_SCORING = SwScoring()


def jaro(s1: str, s2: str) -> float:
    """Jaro similarity in [0, 1].

    Matching characters must agree within a window of
    max(floor(max(len)/2) - 1, 0); transpositions are counted as half
    the number of matched characters that disagree in order.
    """
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    window = max(max(len(s1), len(s2)) // 2 - 1, 0)

    taken = [False] * len(s2)
    matched1 = []
    for i, ch in enumerate(s1):
        lo = max(0, i - window)
        hi = min(len(s2), i + window + 1)
        for j in range(lo, hi):
            if not taken[j] and s2[j] == ch:
                taken[j] = True
                matched1.append(ch)
                break
    m = len(matched1)
    if m == 0:
        return 0.0
    matched2 = [s2[j] for j, used in enumerate(taken) if used]
    transpositions = sum(a != b for a, b in zip(matched1, matched2)) / 2
    return (m / len(s1) + m / len(s2) + (m - transpositions) / m) / 3


def _winkler(s1: str, s2: str, j: float) -> float:
    prefix = 0
    for a, b in zip(s1, s2):
        if a != b or prefix == WINKLER_MAX_PREFIX:
            break
        prefix += 1
    return j + prefix * WINKLER_PREFIX_SCALE * (1.0 - j)


def jaro_winkler(s1: str, s2: str) -> float:
    """Jaro score boosted by the shared prefix: j + l * 0.1 * (1 - j), l <= 4."""
    return _winkler(s1, s2, jaro(s1, s2))


def _shared_count(counts1: Counts, counts2: Counts) -> int:
    """Sum over c of min(counts1[c], counts2[c]): the most equal characters
    two strings can pair one to one."""
    m = 0
    for ch in counts1.keys() & counts2.keys():
        n1, n2 = counts1[ch], counts2[ch]
        m += n1 if n1 < n2 else n2
    return m


def jaro_winkler_bound(s1: str, s2: str, counts1: Counts, counts2: Counts) -> float:
    """An upper bound on Jaro-Winkler: always >= jaro_winkler(s1, s2).

    Jaro pairs equal characters one to one, so the number of matches m is
    at most the shared count of the two strings' characters, and the
    transposition term (m - t) / m is at most 1. That gives
    j <= (m/|s1| + m/|s2| + 1) / 3, which the Winkler step, increasing in
    j, boosts with the exact common prefix (Dreßler & Ngonga Ngomo, "On
    the efficient execution of bounded Jaro-Winkler distances", SWJ
    2017). Taking the counts lets a caller count a string it compares many
    times once; a pair then costs one key intersection.
    """
    if not s1 or not s2:
        return 1.0 if s1 == s2 else 0.0
    m = _shared_count(counts1, counts2)
    if m == 0:
        return 0.0
    return _winkler(s1, s2, (m / len(s1) + m / len(s2) + 1.0) / 3)


def smith_waterman(
    s1: str, s2: str, scoring: SwScoring = DEFAULT_SW_SCORING
) -> tuple[int, tuple[str, str]]:
    """Local alignment via the classic H(i,j) = max(0, diag, up, left) recurrence.

    Returns the maximal cell value and the pair of contiguous substrings
    spanned by the traceback from that cell. Ties prefer the earliest
    best cell in row-major order and diagonal moves during traceback,
    which keeps the reported region deterministic.
    """
    n, m = len(s1), len(s2)
    if n == 0 or m == 0:
        return 0, ("", "")
    h = [[0] * (m + 1) for _ in range(n + 1)]
    best = 0
    best_pos = (0, 0)
    for i in range(1, n + 1):
        row = h[i]
        prev = h[i - 1]
        c1 = s1[i - 1]
        for j in range(1, m + 1):
            sub = scoring.match if c1 == s2[j - 1] else scoring.mismatch
            val = max(0, prev[j - 1] + sub, prev[j] + scoring.gap, row[j - 1] + scoring.gap)
            row[j] = val
            if val > best:
                best = val
                best_pos = (i, j)
    if best == 0:
        return 0, ("", "")

    i, j = best_pos
    end_i, end_j = i, j
    while i > 0 and j > 0 and h[i][j] > 0:
        sub = scoring.match if s1[i - 1] == s2[j - 1] else scoring.mismatch
        if h[i][j] == h[i - 1][j - 1] + sub:
            i, j = i - 1, j - 1
        elif h[i][j] == h[i - 1][j] + scoring.gap:
            i -= 1
        else:
            j -= 1
    return best, (s1[i:end_i], s2[j:end_j])


def sw_normalized(s1: str, s2: str, scoring: SwScoring = DEFAULT_SW_SCORING) -> float:
    """Smith-Waterman raw score scaled into [0, 1] by match * min(len).

    An exact substring of the shorter string inside the longer one
    scores 1.0. Empty input scores 0.
    """
    if not s1 or not s2:
        return 0.0
    raw, _ = smith_waterman(s1, s2, scoring)
    return raw / (scoring.match * min(len(s1), len(s2)))


def sw_normalized_bound(s1: str, s2: str, counts1: Counts, counts2: Counts) -> float:
    """An upper bound on sw_normalized under any SwScoring.

    A local alignment's matches pair equal characters one to one and every
    other step scores <= 0, so raw <= match * (shared count), which
    normalizes to shared / min(len).
    """
    if not s1 or not s2:
        return 0.0
    return _shared_count(counts1, counts2) / min(len(s1), len(s2))
