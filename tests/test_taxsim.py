import math
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_frequency_ic
from lexalign.taxsim import (
    JCN_MAX,
    Synset,
    ThesaurusError,
    jcn_similarity,
    lcs,
    lexical_match,
    load_thesaurus,
)


def write_thesaurus(tmp_path, rows, name="th.tsv"):
    path = tmp_path / name
    path.write_text("".join("\t".join(row) + "\n" for row in rows), "utf-8")
    return path


def test_fixture_loads_with_school_under_institution(thesaurus):
    assert "institution-1" in thesaurus.ancestors_or_self("school-1")
    assert thesaurus.roots == ["entity-1"]
    assert thesaurus.ic["entity-1"] == 0.0


def test_word_index_covers_multiword_synonyms(thesaurus):
    assert "educational institution" in thesaurus.word_index
    assert thesaurus.word_index["establishment"] == {"institution-1"}
    assert thesaurus.word_index["school"] == {"school-1", "school-2"}


def test_lcs_school_institution(thesaurus):
    assert lcs(thesaurus, "school-1", "institution-1") == "institution-1"


def test_lcs_self(thesaurus):
    assert lcs(thesaurus, "school-1", "school-1") == "school-1"


def test_lcs_unknown_synset(thesaurus):
    with pytest.raises(ThesaurusError, match="unknown synset"):
        lcs(thesaurus, "school-1", "nope-9")


def test_lcs_matches_reachability_oracle(thesaurus, tmp_path):
    # p1 and p2 are common subsumers of a and b with equal IC
    tied = load_thesaurus(
        write_thesaurus(
            tmp_path,
            [
                ("r", "root", "", "0.0", "ic"),
                ("p2", "second", "r", "1.0", "ic"),
                ("p1", "first", "r", "1.0", "ic"),
                ("a", "apple", "p2|p1", "2.0", "ic"),
                ("b", "brick", "p1|p2", "2.0", "ic"),
            ],
        )
    )
    assert lcs(tied, "a", "b") == "p1"
    for th in (thesaurus, tied):
        ids = sorted(th.synsets)
        for a in ids:
            for b in ids:
                result = lcs(th, a, b)
                common = th.ancestors_or_self(a) & th.ancestors_or_self(b)
                if not common:
                    assert result is None
                else:
                    best = max(th.ic[c] for c in common)
                    assert result == min(c for c in common if th.ic[c] == best)


def test_lcs_disjoint_trees(tmp_path):
    th = load_thesaurus(
        write_thesaurus(
            tmp_path,
            [
                ("r1", "left", "", "0.0", "ic"),
                ("r2", "right", "", "0.0", "ic"),
                ("a", "apple", "r1", "1.0", "ic"),
                ("b", "brick", "r2", "1.0", "ic"),
            ],
        )
    )
    assert lcs(th, "a", "b") is None
    assert jcn_similarity(th, "a", "b") == 0.0
    assert lexical_match(th, "apple", "brick") == 0.0


def test_jcn_school_institution_value(thesaurus):
    # IC 3.0 and 2.2 with the subsumer at 2.2: 1 / (3.0 + 2.2 - 4.4)
    assert jcn_similarity(thesaurus, "school-1", "institution-1") == pytest.approx(
        1.25, abs=1e-9
    )


def test_jcn_identical_synset_capped(thesaurus):
    assert jcn_similarity(thesaurus, "school-1", "school-1") == JCN_MAX


def test_zero_count_synsets(tmp_path):
    # A counts 0 below the root, and C and D below Z, which counts 0 too:
    # the IC of all four is inf
    rows = [
        ("root", "root", "", "10", "freq"),
        ("A", "book|volume", "root", "0", "freq"),
        ("B", "paper", "root", "10", "freq"),
        ("Z", "zero", "root", "0", "freq"),
        ("C", "tome", "Z", "0", "freq"),
        ("D", "codex", "Z", "0", "freq"),
    ]
    th = load_thesaurus(write_thesaurus(tmp_path, rows))
    assert th.ic["A"] == math.inf
    assert lexical_match(th, "book", "volume") == JCN_MAX
    assert jcn_similarity(th, "A", "B") == 0.0
    assert jcn_similarity(th, "C", "D") == 0.0  # inf + inf - 2 * inf
    for a in th.synsets:  # the checks of the IC fixture below hold here too
        assert jcn_similarity(th, a, a) == JCN_MAX
        for b in th.synsets:
            assert 0.0 <= jcn_similarity(th, a, b) == jcn_similarity(th, b, a) <= JCN_MAX


def test_jcn_symmetric_nonnegative(thesaurus):
    ids = sorted(thesaurus.synsets)
    for a in ids:
        for b in ids:
            v = jcn_similarity(thesaurus, a, b)
            assert v >= 0.0
            assert v == jcn_similarity(thesaurus, b, a)


def test_jcn_maximal_at_self(thesaurus):
    ids = sorted(thesaurus.synsets)
    for a in ids:
        best = max(jcn_similarity(thesaurus, a, b) for b in ids)
        assert jcn_similarity(thesaurus, a, a) == best


def test_lexical_match_school_institution(thesaurus):
    value = lexical_match(thesaurus, "school", "institution")
    assert value == pytest.approx(1.25, abs=1e-9)
    assert value > 1.0


def test_lexical_match_same_word(thesaurus):
    assert lexical_match(thesaurus, "school", "school") == JCN_MAX


def test_lexical_match_unknown_word(thesaurus):
    assert lexical_match(thesaurus, "school", "zzz-unknown") == 0.0


def test_lexical_match_picks_best_sense(thesaurus):
    # schoolhouse only exists in the building sense; the score must use it
    via_building = lexical_match(thesaurus, "schoolhouse", "edifice")
    assert via_building == pytest.approx(1 / (3.4 + 1.5 - 2 * 1.5), abs=1e-9)


def test_frequency_mode_ic_matches_hand_computation(fixtures_dir):
    th = load_thesaurus(fixtures_dir / "mini_thesaurus_freq.tsv")
    # organism 2, animal 5, plant 9, dog 4; cumulative root total = 20
    total = 20
    assert th.ic["organism-1"] == pytest.approx(0.0, abs=1e-12)
    assert th.ic["animal-1"] == pytest.approx(-math.log((5 + 4) / total))
    assert th.ic["plant-1"] == pytest.approx(-math.log(9 / total))
    assert th.ic["dog-1"] == pytest.approx(-math.log(4 / total))
    for synset in th.synsets.values():
        for hypernym in synset.hypernyms:
            assert th.ic[synset.id] >= th.ic[hypernym] - 1e-12


@st.composite
def frequency_dag(draw):
    """Freq-mode rows of a DAG with one root: each other synset names one
    to three earlier synsets as hypernyms, repeats allowed; ids are
    shuffled so that file order is not hypernym order."""
    size = draw(st.integers(1, 8))
    ids = draw(st.permutations([f"n{i}" for i in range(size)]))
    rows = []
    for i, sid in enumerate(ids):
        hypernyms = draw(st.lists(st.sampled_from(ids[:i]), min_size=1, max_size=3)) if i else []
        freq = draw(st.one_of(st.integers(0, 9).map(float), st.floats(0, 100)))
        rows.append((sid, f"w{sid}", "|".join(hypernyms), repr(freq), "freq"))
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(frequency_dag())
def test_frequency_ic_counts_each_descendant_once(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_thesaurus(Path(tmp), rows)
        try:
            th = load_thesaurus(path)
        except ThesaurusError as exc:
            assert "total frequency must be positive" in str(exc)
            assert sum(float(row[3]) for row in rows) == 0
            return
    expected = reference_frequency_ic(th, {row[0]: float(row[3]) for row in rows})
    assert th.ic.keys() == expected.keys()
    for sid, ic in expected.items():
        assert th.ic[sid] == ic or math.isclose(th.ic[sid], ic, rel_tol=1e-9, abs_tol=1e-12)
    assert th.ancestors_or_self.cache_info().currsize == 0


def test_deep_frequency_chain_loads_in_linear_time(tmp_path):
    depth = 2000
    rows = [(row[0], row[1], row[2], "1", "freq") for row in hypernym_chain(depth)]
    path = write_thesaurus(tmp_path, rows)
    start = time.perf_counter()
    th = load_thesaurus(path)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        load_thesaurus(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an ancestor set per synset took ~0.9 s and peaked at ~85 MB; a
    # linear pass takes ~0.04 s and peaks at ~2 MB
    assert elapsed < 0.5
    assert peak < 20 * 2**20
    assert th.ancestors_or_self.cache_info().currsize == 0
    assert th.ic["s0000"] == pytest.approx(-math.log(1 / (depth + 1)))
    assert th.ic[f"s{depth:04d}"] == 0.0


def test_monotonicity_holds_on_ic_fixture(thesaurus):
    for synset in thesaurus.synsets.values():
        for hypernym in synset.hypernyms:
            assert thesaurus.ic[synset.id] >= thesaurus.ic[hypernym]


def test_cycle_rejected(tmp_path):
    with pytest.raises(ThesaurusError, match="cycle"):
        load_thesaurus(
            write_thesaurus(
                tmp_path,
                [("a", "a", "b", "1.0", "ic"), ("b", "b", "a", "1.0", "ic")],
            )
        )


def test_dangling_hypernym_rejected(tmp_path):
    with pytest.raises(ThesaurusError, match="dangling"):
        load_thesaurus(write_thesaurus(tmp_path, [("a", "a", "ghost", "0.0", "ic")]))


def test_negative_frequency_rejected(tmp_path):
    with pytest.raises(ThesaurusError, match="negative frequency"):
        load_thesaurus(
            write_thesaurus(
                tmp_path,
                [("r", "root", "", "5", "freq"), ("a", "a", "r", "-1", "freq")],
            )
        )


@pytest.mark.parametrize(
    "value, mode",
    [("nan", "ic"), ("nan", "freq"), ("inf", "freq"), ("-inf", "freq")],
)
def test_value_out_of_range_rejected_with_its_line(tmp_path, value, mode):
    root = "0.0" if mode == "ic" else "5"
    path = write_thesaurus(tmp_path, [("r", "root", "", root, mode), ("a", "a", "r", value, mode)])
    with pytest.raises(ThesaurusError) as err:
        load_thesaurus(path)
    assert str(err.value) == f"th.tsv:2: {mode} value out of range: {value!r}"


def test_multi_root_frequency_rejected(tmp_path):
    with pytest.raises(ThesaurusError, match="exactly one root"):
        load_thesaurus(
            write_thesaurus(
                tmp_path,
                [("r1", "a", "", "5", "freq"), ("r2", "b", "", "5", "freq")],
            )
        )


def test_mixed_modes_rejected(tmp_path):
    with pytest.raises(ThesaurusError, match="mixed modes"):
        load_thesaurus(
            write_thesaurus(
                tmp_path,
                [("r", "root", "", "0.0", "ic"), ("a", "a", "r", "5", "freq")],
            )
        )


def test_nonzero_root_ic_rejected(tmp_path):
    with pytest.raises(ThesaurusError, match="root .* must have IC 0"):
        load_thesaurus(write_thesaurus(tmp_path, [("r", "root", "", "1.0", "ic")]))


def test_ic_monotonicity_violation_rejected(tmp_path):
    with pytest.raises(ThesaurusError, match="monotonicity"):
        load_thesaurus(
            write_thesaurus(
                tmp_path,
                [("r", "root", "", "0.0", "ic"), ("a", "a", "r", "2.0", "ic"), ("b", "b", "a", "1.0", "ic")],
            )
        )


def test_empty_words_rejected(tmp_path):
    with pytest.raises(ThesaurusError, match="no words"):
        load_thesaurus(write_thesaurus(tmp_path, [("r", "", "", "0.0", "ic")]))


def hypernym_chain(depth, closed=False):
    """IC-mode rows of a chain from the root s<depth> down to the leaf
    s0000, whose id sorts first; closed makes the leaf the root's hypernym."""
    ids = [f"s{depth - level:04d}" for level in range(depth + 1)]
    rows = [(ids[0], "w0", ids[-1] if closed else "", "0.0", "ic")]
    rows += [(ids[i], f"w{i}", ids[i - 1], f"{i}.0", "ic") for i in range(1, depth + 1)]
    return rows


def test_deep_hypernym_chain_loads(tmp_path):
    th = load_thesaurus(write_thesaurus(tmp_path, hypernym_chain(3000)))
    assert th.roots == ["s3000"]
    assert lcs(th, "s0000", "s0001") == "s0001"


def test_deep_hypernym_cycle_rejected(tmp_path):
    with pytest.raises(ThesaurusError, match="cycle") as err:
        load_thesaurus(write_thesaurus(tmp_path, hypernym_chain(3000, closed=True)))
    assert "s1500" in str(err.value)


def test_hypernym_self_loop_rejected(tmp_path):
    with pytest.raises(ThesaurusError, match="cycle: a -> a"):
        load_thesaurus(write_thesaurus(tmp_path, [("a", "a", "a", "0.0", "ic")]))


@pytest.mark.parametrize(
    "rows, message",
    [
        ([("r", "root", "", "0.0")], "th.tsv:1: expected 5 or 6 columns, got 4"),
        ([("r", "root", "", "0.0", "ic", "gloss", "more")], "th.tsv:1: expected 5 or 6 columns, got 7"),
        ([("r", "root", "", "0.0", "IC")], "th.tsv:1: mode must be 'freq' or 'ic'"),
        ([("r", "root", "", "zero", "ic")], "th.tsv:1: value is not a number: 'zero'"),
        ([], "th.tsv: empty thesaurus"),
        ([("#", "a comment")], "th.tsv: empty thesaurus"),
        ([("r", "root", "", "0.0", "ic"), ("r", "again", "", "0.0", "ic")], "th.tsv:2: duplicate synset id r"),
        ([("r", "root", "", "0.0", "ic"), ("a", "a", "r", "-0.5", "ic")], "th.tsv: negative IC on a"),
        ([("r", "root", "", "-1e-13", "ic")], "th.tsv: negative IC on r"),
    ],
)
def test_refusals_name_their_file_and_line(tmp_path, rows, message):
    with pytest.raises(ThesaurusError) as err:
        load_thesaurus(write_thesaurus(tmp_path, rows))
    assert str(err.value) == message


def test_jcn_is_capped_for_distinct_synsets_with_a_vanishing_denominator(tmp_path):
    # b's IC equals its hypernym a's, so IC(a) + IC(b) - 2 * IC(lcs = a) is 0
    rows = [("r", "root", "", "0.0", "ic"), ("a", "a", "r", "1.0", "ic"), ("b", "b", "a", "1.0", "ic")]
    th = load_thesaurus(write_thesaurus(tmp_path, rows))
    assert jcn_similarity(th, "a", "b") == jcn_similarity(th, "b", "a") == JCN_MAX


def test_a_gloss_column_loads_and_is_ignored(tmp_path):
    rows = [("r", "root", "", "0.0", "ic", "the top of it all"), ("a", "a", "r", "1.0", "ic")]
    th = load_thesaurus(write_thesaurus(tmp_path, rows))
    assert th.synsets["r"] == Synset("r", frozenset({"root"}), ())
    assert th.ic == {"r": 0.0, "a": 1.0}
