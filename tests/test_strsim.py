import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import all_strings, exhaustive_local_alignment, reference_jaro
from lexalign.strsim import (
    SW_MATCH,
    jaro,
    jaro_winkler,
    jaro_winkler_bound,
    shared_bound,
    smith_waterman,
    sw_normalized,
    sw_normalized_bound,
)


def random_pairs(seed, count, alphabet="abcdef", max_len=10):
    rng = random.Random(seed)
    for _ in range(count):
        yield (
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))),
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))),
        )


def shared(s1, s2):
    """shared_bound of two strings, with masks under one character-to-bit map."""
    bits = {ch: 1 << i for i, ch in enumerate(dict.fromkeys(s1 + s2))}
    mask1, mask2 = (sum(bits[ch] for ch in set(s)) for s in (s1, s2))
    return shared_bound(s1, s2, mask1, mask2)


def test_jaro_identity():
    assert jaro("beautiful", "beautiful") == 1.0


def test_jaro_martha():
    # m=6 matches, one transposition pair -> (1 + 1 + 5/6) / 3
    assert jaro("MARTHA", "MARHTA") == pytest.approx(0.9444444444, abs=1e-6)


def test_jaro_disjoint():
    assert jaro("abc", "xyz") == 0.0


def test_jaro_empty():
    assert jaro("", "") == 1.0
    assert jaro("", "abc") == 0.0
    assert jaro("abc", "") == 0.0


def test_jaro_winkler_martha():
    assert jaro_winkler("MARTHA", "MARHTA") == pytest.approx(0.9611111111, abs=1e-6)


def test_jaro_winkler_identity_and_disjoint():
    assert jaro_winkler("same", "same") == 1.0
    assert jaro_winkler("x", "y") == 0.0


def test_jaro_winkler_prefix_capped_at_four():
    # identical 5-char prefix must not boost more than 4 characters worth
    j = jaro("prefixa", "prefixb")
    assert jaro_winkler("prefixa", "prefixb") == pytest.approx(j + 4 * 0.1 * (1 - j))


def test_symmetry_range_and_dominance():
    for s1, s2 in random_pairs(seed=42, count=1200):
        j = jaro(s1, s2)
        jw = jaro_winkler(s1, s2)
        assert jaro(s2, s1) == pytest.approx(j, abs=1e-12)
        assert jaro_winkler(s2, s1) == pytest.approx(jw, abs=1e-12)
        assert 0.0 <= j <= 1.0
        assert 0.0 <= jw <= 1.0
        assert jw >= j - 1e-12


@st.composite
def related_pair(draw):
    """A string and an edit of it: adjacent swaps, repeats, a longer shared
    prefix or a changed tail, so that many pairs score near the top."""
    s1 = draw(st.text(alphabet="abcé", max_size=12))
    s2 = list(s1)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, max(len(s2) - 2, 0)))
        edit = draw(st.sampled_from(("swap", "repeat", "drop", "change")))
        if edit == "swap" and len(s2) > 1:
            s2[i], s2[i + 1] = s2[i + 1], s2[i]
        elif edit == "repeat" and s2:
            s2.insert(i, s2[i])
        elif edit == "drop" and s2:
            del s2[i]
        elif edit == "change" and s2:
            s2[i] = draw(st.sampled_from("abcé"))
    prefix = draw(st.sampled_from(("", "pre", "prefix")))
    return prefix + s1, prefix + "".join(s2)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.tuples(st.text(), st.text()), related_pair()))
@example(("MARTHA", "MARHTA"))
@example(("", ""))
@example(("", "a"))
@example(("aaaa", "aa"))
@example(("prefixab", "prefixba"))
@example(("crate", "trace"))
@example(("école", "ecole"))
def test_jaro_winkler_bound_is_never_below_jaro_winkler(pair):
    s1, s2 = pair
    assert jaro_winkler_bound(s1, s2, shared(s1, s2)) >= jaro_winkler(s1, s2)


def test_smith_waterman_aab_ab():
    assert smith_waterman("aab", "ab") == 4


def test_smith_waterman_abc_abd():
    assert smith_waterman("abc", "abd") == 4


def test_smith_waterman_empty():
    assert smith_waterman("", "abc") == 0
    assert smith_waterman("abc", "") == 0


def test_smith_waterman_no_overlap():
    assert smith_waterman("aaa", "bbb") == 0


def test_sw_normalized_examples():
    assert sw_normalized("same", "same") == 1.0
    assert sw_normalized("abc", "abd") == pytest.approx(4 / 6)
    assert sw_normalized("aab", "ab") == 1.0
    assert sw_normalized("", "abc") == 0.0


def test_sw_raw_bounds():
    for s1, s2 in random_pairs(seed=7, count=300, alphabet="abc", max_len=8):
        raw = smith_waterman(s1, s2)
        assert 0 <= raw <= SW_MATCH * min(len(s1), len(s2))
        assert sw_normalized(s1, s2) == pytest.approx(sw_normalized(s2, s1), abs=1e-12)


def test_smith_waterman_equals_exhaustive_oracle_small():
    strings = all_strings("ab", 4)
    for s1 in strings:
        for s2 in strings:
            assert smith_waterman(s1, s2) == exhaustive_local_alignment(s1, s2), (s1, s2)


def test_sw_normalized_bound_is_never_below_sw_normalized():
    strings = all_strings("abc", 4)
    for s1 in strings:
        for s2 in strings:
            bound = sw_normalized_bound(s1, s2, shared(s1, s2))
            assert bound >= sw_normalized(s1, s2), (s1, s2)


# few characters, so that they repeat: a non-BMP one, combining marks, a precomposed é
_FEW = st.text(alphabet="ab\U0001d538\u0301\u0327\xe9", max_size=8)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.tuples(st.text(), st.text()), st.tuples(_FEW, _FEW)))
@example(("", ""))
@example(("", "aa"))
@example(("aaab", "ab"))
@example(("\U0001d538\U0001d538a", "\U0001d538"))
@example(("e\u0301e\u0301", "\u0301e"))
def test_shared_bound_is_never_below_the_shared_count(pair):
    s1, s2 = pair
    counts1, counts2 = Counter(s1), Counter(s2)
    count = sum(min(counts1[ch], counts2[ch]) for ch in counts1.keys() & counts2.keys())
    assert shared(s1, s2) >= count


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.tuples(st.text(), st.text()), st.tuples(_FEW, _FEW), related_pair()))
@example(("MARTHA", "MARHTA"))
@example(("abab", "baba"))
@example(("aaaaab", "baaaaa"))
@example(("abcabcabc", "cbacbacba"))
def test_jaro_equals_the_window_scan(pair):
    s1, s2 = pair
    assert jaro(s1, s2) == reference_jaro(s1, s2)


def test_jaro_winkler_is_fast_on_long_strings():
    distinct = "".join(map(chr, range(0x4E00, 0x4E00 + 20_000)))
    for s1, s2 in (("a" * 20_000, "a" * 20_000), ("ab" * 10_000, "ba" * 10_000), (distinct, distinct[::-1])):
        start = time.perf_counter()
        jaro_winkler(s1, s2)
        assert time.perf_counter() - start < 1.0


def test_smith_waterman_scores_a_shared_character():
    for s1, s2 in random_pairs(seed=11, count=200, alphabet="abcd", max_len=8):
        raw = smith_waterman(s1, s2)
        assert raw == smith_waterman(s2, s1)
        assert (raw >= SW_MATCH) == bool(set(s1) & set(s2)), (s1, s2)
