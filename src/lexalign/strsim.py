"""String similarity kernels: Jaro, Jaro-Winkler and Smith-Waterman.

All comparisons operate on Unicode scalar values and never normalize
case; callers that want case-insensitive matching lowercase first.
"""

from __future__ import annotations

WINKLER_PREFIX_SCALE = 0.1
WINKLER_MAX_PREFIX = 4
SW_MATCH = 2  # Smith-Waterman scores: a positive match, nonpositive mismatch and gap
SW_MISMATCH = -1
SW_GAP = -1


def jaro(s1: str, s2: str) -> float:
    """Jaro similarity in [0, 1].

    Matching characters must agree within a window of
    max(floor(max(len)/2) - 1, 0); transpositions are counted as half
    the number of matched characters that disagree in order.

    Each character of s1 takes the first untaken equal character of s2 in
    its window. A character's matches take its occurrences left to right,
    so one str.find from a per-character cursor finds it: every occurrence
    before the cursor is taken or left of every later window.
    """
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    window = max(max(len(s1), len(s2)) // 2 - 1, 0)

    taken = [False] * len(s2)
    cursor: dict[str, int] = {}
    matched1 = []
    for i, ch in enumerate(s1):
        hi = min(len(s2), i + window + 1)
        j = s2.find(ch, max(cursor.get(ch, 0), i - window), hi)
        if j < 0:
            cursor[ch] = hi
            continue
        cursor[ch] = j + 1
        taken[j] = True
        matched1.append(ch)
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


def shared_bound(s1: str, s2: str, mask1: int, mask2: int) -> int:
    """An upper bound on the most equal characters two strings can pair
    one to one, sum over c of min(count in s1, count in s2).

    A mask holds one bit per distinct character of its string, under one
    character-to-bit map for both masks. Each distinct character that s1
    lacks takes at least one position of s2, and the other way round, so
    the bound is never below the count and costs an AND and a popcount.
    """
    return min(len(s1) - (mask1 & ~mask2).bit_count(), len(s2) - (mask2 & ~mask1).bit_count())


def jaro_winkler_bound(s1: str, s2: str, shared: int) -> float:
    """An upper bound on Jaro-Winkler: always >= jaro_winkler(s1, s2) when
    `shared` is at least the two strings' shared character count, as
    shared_bound gives it.

    Jaro pairs equal characters one to one, so the number of matches m is
    at most `shared`, and the transposition term (m - t) / m is at most 1.
    That gives j <= (m/|s1| + m/|s2| + 1) / 3, which the Winkler step,
    increasing in j, boosts with the exact common prefix (Dreßler & Ngonga
    Ngomo, "On the efficient execution of bounded Jaro-Winkler distances",
    SWJ 2017).
    """
    if not s1 or not s2:
        return 1.0 if s1 == s2 else 0.0
    if shared <= 0:
        return 0.0
    return _winkler(s1, s2, (shared / len(s1) + shared / len(s2) + 1.0) / 3)


def smith_waterman(s1: str, s2: str) -> int:
    """The best local alignment score, max over i, j of the classic
    H(i,j) = max(0, diag, up, left) recurrence; two rows of H at a time."""
    best = 0
    prev = [0] * (len(s2) + 1)
    for c1 in s1:
        row = [0]
        for j, c2 in enumerate(s2):
            val = max(
                0,
                prev[j] + (SW_MATCH if c1 == c2 else SW_MISMATCH),
                prev[j + 1] + SW_GAP,
                row[j] + SW_GAP,
            )
            row.append(val)
            if val > best:
                best = val
        prev = row
    return best


def sw_normalized(s1: str, s2: str) -> float:
    """Smith-Waterman raw score scaled into [0, 1] by SW_MATCH * min(len).

    An exact substring of the shorter string inside the longer one
    scores 1.0. Empty input scores 0.
    """
    if not s1 or not s2:
        return 0.0
    return smith_waterman(s1, s2) / (SW_MATCH * min(len(s1), len(s2)))


def sw_normalized_bound(s1: str, s2: str, shared: int) -> float:
    """An upper bound on sw_normalized, given `shared` as for
    jaro_winkler_bound.

    A local alignment's matches pair equal characters one to one and every
    other step scores <= 0, so raw <= SW_MATCH * (shared count), which
    normalizes to shared / min(len).
    """
    if not s1 or not s2:
        return 0.0
    return shared / min(len(s1), len(s2))
