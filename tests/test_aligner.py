import gc
import random
import time
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURES,
    IdentityTranslator,
    all_pairs_tree_scores,
    per_call_align,
    per_call_structural,
    reference_greedy_one_to_one,
    rule_predicates,
)
from lexalign import aligner, dictstore, labelkit, lexiserve, structsim, taxsim, triplemap
from lexalign.aligner import (
    Alignment,
    AlignerError,
    AlignmentFormatError,
    Correspondence,
    MatchConfig,
    NameTable,
    align,
    evaluate,
    greedy_one_to_one,
    read_alignment,
    string_correspondences,
    structural_correspondences,
    write_alignment,
    _translated,
)
from lexalign.ontomodel import EntityId, Kind, load_ontology
from lexalign.labelkit import token_sequence_match
from lexalign.strsim import jaro_winkler, jaro_winkler_bound, sw_normalized

FR = "http://example.org/biblio-fr#"
EN = "http://example.org/biblio-en#"


@pytest.fixture()
def cfg():
    return MatchConfig(source_lang="fr", target_lang="en")


@pytest.fixture()
def full_alignment(onto_fr, onto_en, dict_translator, thesaurus, cfg):
    return align(onto_fr, onto_en, dict_translator, cfg, thesaurus)


def pair_names(alignment):
    return {(l.rsplit("#", 1)[1], r.rsplit("#", 1)[1]) for l, r in alignment.pairs()}


def test_film_matches_motion_picture(full_alignment):
    assert ("Film", "MotionPicture") in pair_names(full_alignment)


def test_universite_matches_school(full_alignment):
    assert ("Universite", "School") in pair_names(full_alignment)


def test_isbn_matches_via_fallback(full_alignment):
    assert ("isbn", "isbn") in pair_names(full_alignment)


def test_nomcourt_does_not_match_shortname(full_alignment):
    names = pair_names(full_alignment)
    assert ("nomCourt", "shortName") not in names
    assert all(left != "nomCourt" for left, _ in names)


def test_revue_matches_journal_only_with_structure(
    onto_fr, onto_en, dict_translator, thesaurus
):
    with_structure = align(
        onto_fr,
        onto_en,
        dict_translator,
        MatchConfig(source_lang="fr", target_lang="en", structure_enabled=True),
        thesaurus,
    )
    without_structure = align(
        onto_fr,
        onto_en,
        dict_translator,
        MatchConfig(source_lang="fr", target_lang="en", structure_enabled=False),
        thesaurus,
    )
    assert ("Revue", "Journal") in pair_names(with_structure)
    assert ("Revue", "Journal") not in pair_names(without_structure)
    assert all(left != "Revue" for left, _ in pair_names(without_structure))


def test_lexical_stage_needs_thesaurus(onto_fr, onto_en, dict_translator, thesaurus, cfg):
    with_thesaurus = align(onto_fr, onto_en, dict_translator, cfg, thesaurus)
    without = align(onto_fr, onto_en, dict_translator, cfg, None)
    assert ("Etablissement", "Institution") in pair_names(with_thesaurus)
    assert ("Etablissement", "Institution") not in pair_names(without)
    lexical = [c for c in with_thesaurus if c.source == "lexical"]
    assert lexical and all(0 <= c.score <= 1 for c in lexical)


def test_structure_rule_pairs_score_one(full_alignment):
    revue = next(c for c in full_alignment if c.left.iri == FR + "Revue")
    assert revue.source == "structure"
    assert revue.score == 1.0


def test_expected_correspondence_set(full_alignment):
    expected = read_alignment(FIXTURES / "expected_alignment.tsv")
    assert full_alignment.pairs() == expected.pairs()


def test_identity_self_alignment(onto_en):
    cfg = MatchConfig(source_lang="en", target_lang="en")
    result = align(onto_en, onto_en, IdentityTranslator(), cfg)
    identity = {(e.iri, e.iri) for e in onto_en.entities.values()}
    assert result.pairs() == identity
    assert all(c.score == 1.0 for c in result)


def test_two_long_labels_align_in_under_a_second():
    def one_class(base, label):
        return load_ontology(
            f"<{base}X> <{RDF_TYPE}> <{OWL}Class> .\n<{base}X> <{RDFS}label> \"{label}\" .\n"
        )

    o1, o2 = one_class("http://example.org/a#", "a" * 20_000), one_class("http://example.org/b#", "a" * 20_000)
    start = time.perf_counter()
    result = align(o1, o2, IdentityTranslator(), MatchConfig(source_lang="en", target_lang="en"))
    assert time.perf_counter() - start < 1.0
    assert [c.score for c in result] == [1.0]


def test_align_through_http_endpoint(onto_fr, onto_en, biblio_store, thesaurus, cfg, full_alignment):
    from lexalign.labelkit import EndpointTranslator
    from lexalign.lexiserve import ServiceConfig, serve

    with serve(ServiceConfig(port=0), biblio_store) as handle:
        over_http = align(onto_fr, onto_en, EndpointTranslator(handle.endpoint), cfg, thesaurus)
    assert over_http == full_alignment


def test_endpoint_lookups_go_through_the_traced_client_names(
    monkeypatch, onto_fr, onto_en, biblio_store, cfg
):
    # the benchmark's trace wraps these two names in labelkit and replays
    # each call's arguments 1-3 against the store
    from lexalign import labelkit
    from lexalign.lexiserve import ServiceConfig, serve

    calls = []
    for name in ("client_translate", "client_reverse_translate"):

        def recording(*args, _name=name, _original=getattr(labelkit, name)):
            answer = _original(*args)
            calls.append((_name, args, answer))
            return answer

        monkeypatch.setattr(labelkit, name, recording)
    replay = {
        "client_translate": biblio_store.translations,
        "client_reverse_translate": biblio_store.reverse_translations,
    }
    with serve(ServiceConfig(port=0), biblio_store) as handle:
        translator = labelkit.EndpointTranslator(handle.endpoint)
        assert translator.translate("université", "fr", "en") == ["school", "university"]
        assert [(name, args[:4]) for name, args, _ in calls] == [
            ("client_translate", (handle.endpoint, "université", "fr", "en")),
            ("client_reverse_translate", (handle.endpoint, "université", "fr", "en")),
        ]
        calls.clear()
        align(onto_fr, onto_en, translator, cfg)
    names = Counter(name for name, _, _ in calls)
    assert names["client_translate"] == names["client_reverse_translate"] > 0
    for name, args, answer in calls:
        assert args[2:4] == ("fr", "en")
        assert replay[name](*args[1:4]) == answer


class CountingTranslator:
    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def translate(self, word, from_lang, to_lang):
        self.calls[word, from_lang, to_lang] += 1
        return self.inner.translate(word, from_lang, to_lang)


@pytest.mark.parametrize("left", ["biblio", "shared-words"])
def test_align_looks_up_each_word_once_per_run(
    monkeypatch, left, onto_fr, onto_en, dict_translator, thesaurus, cfg
):
    o1 = onto_fr
    if left == "shared-words":  # two labels that share the words "date" and "de"
        o1 = load_ontology("".join(
            f"<http://example.org/d#{name}> <{RDF_TYPE}> <{OWL}Class> .\n"
            f"<http://example.org/d#{name}> <{RDFS}label> \"{name}\" .\n"
            for name in ("dateDePublication", "dateDeCreation")
        ))
    memoized = CountingTranslator(dict_translator)
    with_memo = align(o1, onto_en, memoized, cfg, thesaurus)
    assert memoized.calls and max(memoized.calls.values()) == 1

    def per_call_translated(o1, translator, cfg):
        return {
            iri: aligner.translate_label(
                o1.display_name(o1.entities[iri]), translator.translate, cfg.source_lang, cfg.target_lang
            )
            for iri in sorted(o1.entities)
        }

    monkeypatch.setattr(aligner, "_translated", per_call_translated)
    per_call = CountingTranslator(dict_translator)
    assert align(o1, onto_en, per_call, cfg, thesaurus) == with_memo
    assert set(per_call.calls) == set(memoized.calls)
    if left == "shared-words":  # the memo saves the lookups of words shared across labels
        assert sum(per_call.calls.values()) > len(per_call.calls)


def test_alignment_is_one_to_one(full_alignment):
    lefts = [left for left, _ in full_alignment.pairs()]
    rights = [right for _, right in full_alignment.pairs()]
    assert len(lefts) == len(set(lefts))
    assert len(rights) == len(set(rights))


def test_alignment_constructor_rejects_duplicates():
    a = EntityId("a", Kind.CLASS)
    b1 = EntityId("b1", Kind.CLASS)
    b2 = EntityId("b2", Kind.CLASS)
    with pytest.raises(AlignerError, match="twice on the left"):
        Alignment([Correspondence(a, b1, 1.0), Correspondence(a, b2, 1.0)])
    with pytest.raises(AlignerError, match="twice on the right"):
        Alignment([Correspondence(b1, a, 1.0), Correspondence(b2, a, 1.0)])


def test_align_deterministic(onto_fr, onto_en, biblio_store, thesaurus, cfg):
    from lexalign.labelkit import DictionaryTranslator

    first = align(onto_fr, onto_en, DictionaryTranslator(biblio_store), cfg, thesaurus)
    second = align(onto_fr, onto_en, DictionaryTranslator(biblio_store), cfg, thesaurus)
    assert first == second


def string_table(cfg):
    """A table that compares tokens as align()'s string stage does."""
    if cfg.sw_enabled:
        return NameTable(aligner._jw_or_sw, cfg.jw_threshold, aligner._jw_or_sw_bound)
    return NameTable(jaro_winkler, cfg.jw_threshold, jaro_winkler_bound)


def test_string_stage_threshold_monotonic(onto_fr, onto_en, dict_translator):
    previous = None
    for threshold in (0.95, 0.9, 0.85, 0.7):
        cfg = MatchConfig(source_lang="fr", target_lang="en", jw_threshold=threshold)
        translations = _translated(onto_fr, dict_translator, cfg)
        pairs = {
            (c.left.iri, c.right.iri)
            for c in string_correspondences(onto_fr, onto_en, translations, cfg, string_table(cfg))
        }
        if previous is not None:
            assert previous <= pairs  # lowering the bar only adds pairs
        previous = pairs


# --------------------------------------------------------------------------
# the per-run name table against comparisons made afresh

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
# near-identical words, so that names collide and scores straddle the thresholds
_WORDS = ("ab", "abc", "abd", "ba", "bab", "cab")
_LABELS = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)


class WordTableTranslator:
    """Test double: a few words of _WORDS translate to others."""

    TABLE = {"ab": ["abc", "ba"], "bab": ["cab"], "abd ba": ["ab"]}

    def translate(self, word, from_lang, to_lang):
        return self.TABLE.get(word, [])


@st.composite
def small_ontology(draw, base):
    """At most 6 classes in a subclass forest and 3 object properties."""
    lines = []

    def triple(s, p, o, literal=False):
        lines.append(f'<{base}{s}> <{p}> ' + (f'"{o}" .' if literal else f"<{o}> ."))

    classes = draw(st.integers(1, 6))
    for i in range(classes):
        triple(f"C{i}", RDF_TYPE, OWL + "Class")
        triple(f"C{i}", RDFS + "label", draw(_LABELS), literal=True)
        if i and draw(st.booleans()):
            triple(f"C{i}", RDFS + "subClassOf", f"{base}C{draw(st.integers(0, i - 1))}")
    for j in range(draw(st.integers(0, 3))):
        triple(f"p{j}", RDF_TYPE, OWL + "ObjectProperty")
        triple(f"p{j}", RDFS + "label", draw(_LABELS), literal=True)
        for predicate in ("domain", "range"):
            if draw(st.booleans()):
                triple(f"p{j}", RDFS + predicate, f"{base}C{draw(st.integers(0, classes - 1))}")
    return load_ontology("\n".join(lines) + "\n")


_THRESHOLDS = st.sampled_from((0.8, 0.9, 0.95, 1.0))


def check_against_per_call(o1, o2, translator, cfg, thesaurus=None):
    assert align(o1, o2, translator, cfg, thesaurus) == per_call_align(
        o1, o2, translator, cfg, thesaurus
    )
    translations = _translated(o1, translator, cfg)
    seed = greedy_one_to_one(string_correspondences(o1, o2, translations, cfg, string_table(cfg)))
    table = NameTable(jaro_winkler, structsim.LABEL_THRESHOLD, jaro_winkler_bound)
    assert structural_correspondences(o1, o2, seed, table, translations) == per_call_structural(
        o1, o2, seed, translations
    )


def test_name_table_agrees_with_per_call_matchers_on_biblio(
    onto_fr, onto_en, dict_translator, thesaurus
):
    for jw_threshold in (0.9, 0.8, 0.95):
        cfg = MatchConfig("fr", "en", jw_threshold=jw_threshold)
        check_against_per_call(onto_fr, onto_en, dict_translator, cfg, thesaurus)


@settings(max_examples=150, deadline=None)
@given(
    small_ontology("http://example.org/one#"),
    small_ontology("http://example.org/two#"),
    _THRESHOLDS,
    st.booleans(),
)
def test_name_table_agrees_with_per_call_matchers_on_small_pairs(o1, o2, jw_threshold, sw_enabled):
    cfg = MatchConfig("fr", "en", jw_threshold=jw_threshold, sw_enabled=sw_enabled)
    check_against_per_call(o1, o2, WordTableTranslator(), cfg)


def test_a_pair_both_structure_rules_emit_is_listed_once():
    # C2 is C1's one subclass and p0 runs from C1 to C0, all named "ab":
    # the triple rule emits (C1, C1) from p0's range and name, and the
    # subclass rule emits it from the subclasses; the oracle lists it once
    base = "http://example.org/one#"
    lines = []
    for name in ("C0", "C1", "C2", "p0"):
        kind = "ObjectProperty" if name == "p0" else "Class"
        lines.append(f"<{base}{name}> <{RDF_TYPE}> <{OWL}{kind}> .")
        lines.append(f'<{base}{name}> <{RDFS}label> "ab" .')
    lines.append(f"<{base}C2> <{RDFS}subClassOf> <{base}C1> .")
    lines.append(f"<{base}p0> <{RDFS}domain> <{base}C1> .")
    lines.append(f"<{base}p0> <{RDFS}range> <{base}C0> .")
    o = load_ontology("\n".join(lines) + "\n")
    c1 = o.entity(base + "C1")
    table = NameTable(jaro_winkler, 0.9, jaro_winkler_bound)

    def matcher(a, b):
        return table.cover(table.tokens(a), table.tokens(b), 0.9) is not None

    corresponds, named = rule_predicates(o, o, set(), matcher)
    assert (c1, c1) in structsim.triple_rule(o, o, corresponds, named)
    assert (c1, c1) in structsim.subclass_rule(o, o, corresponds)
    check_against_per_call(o, o, WordTableTranslator(), MatchConfig("fr", "en"))


# a thesaurus over _WORDS, so that the lexical stage scores small pairs
SMALL_THESAURUS = taxsim.Thesaurus(
    {
        "s0": taxsim.Synset("s0", frozenset({"ab"}), ()),
        "s1": taxsim.Synset("s1", frozenset({"abc", "ba"}), ("s0",)),
        "s2": taxsim.Synset("s2", frozenset({"cab", "ab ba"}), ("s1",)),
        "s3": taxsim.Synset("s3", frozenset({"bab"}), ("s0",)),
    },
    {"s0": 0.0, "s1": 0.5, "s2": 1.0, "s3": 0.8},
)


def check_candidates_are_exact(o1, o2, translator, cfg, thesaurus):
    """align() scores a class-pair tree only when the score is above 0,
    scores every such pair, and asks the thesaurus only about its words."""
    scored = []
    asked = []

    def tree_similarity(tx, ty, matcher):
        score = structsim.tree_similarity(tx, ty, matcher)
        scored.append((tx.root.iri, ty.root.iri, score))
        return score

    def lexical_match(t, w1, w2):
        asked.append((w1, w2))
        return taxsim.lexical_match(t, w1, w2)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aligner, "tree_similarity", tree_similarity)
        mp.setattr(aligner, "lexical_match", lexical_match)
        align(o1, o2, translator, cfg, thesaurus)
    assert all(score > 0 for _, _, score in scored)
    translations = _translated(o1, translator, cfg)
    assert [(left, right) for left, right, _ in scored] == [
        (c1.iri, c2.iri)
        for c1, c2, score in all_pairs_tree_scores(o1, o2, translations)
        if score > 0
    ]
    assert all(w1 in thesaurus.word_index and w2 in thesaurus.word_index for w1, w2 in asked)
    return scored, asked


def test_align_scores_only_pairs_that_can_match_on_biblio(
    onto_fr, onto_en, dict_translator, thesaurus
):
    for threshold in (0.8, 0.9, 0.95, 1.0):
        cfg = MatchConfig("fr", "en", jw_threshold=threshold)
        scored, asked = check_candidates_are_exact(
            onto_fr, onto_en, dict_translator, cfg, thesaurus
        )
        assert scored and asked
        assert len(scored) < len(onto_fr.classes()) * len(onto_en.classes())


@settings(max_examples=150, deadline=None)
@given(
    small_ontology("http://example.org/one#"),
    small_ontology("http://example.org/two#"),
    _THRESHOLDS,
)
def test_align_scores_only_pairs_that_can_match_on_small_pairs(o1, o2, jw_threshold):
    cfg = MatchConfig("fr", "en", jw_threshold=jw_threshold)
    check_candidates_are_exact(o1, o2, WordTableTranslator(), cfg, SMALL_THESAURUS)
    check_against_per_call(o1, o2, WordTableTranslator(), cfg, SMALL_THESAURUS)


def test_align_scores_each_token_pair_once(
    monkeypatch, onto_fr, onto_en, dict_translator, thesaurus, cfg
):
    calls = Counter()

    def counting(a, b):
        calls[a, b] += 1
        return jaro_winkler(a, b)

    monkeypatch.setattr(aligner, "jaro_winkler", counting)
    monkeypatch.setattr(structsim, "jaro_winkler", counting)
    align(onto_fr, onto_en, dict_translator, cfg, thesaurus)
    assert calls
    assert max(calls.values()) == 1


@pytest.mark.parametrize("value", [0.0, -0.5, float("nan"), float("-inf")])
def test_thresholds_must_be_positive_numbers(value):
    with pytest.raises(AlignerError, match="positive"):
        MatchConfig("fr", "en", jw_threshold=value)
    with pytest.raises(AlignerError, match="positive"):
        MatchConfig("fr", "en", jcn_threshold=value)


@pytest.mark.parametrize(
    "option, value",
    [("jw_threshold", 1.5), ("jw_threshold", float("inf")), ("jcn_threshold", float("inf"))],
)
def test_thresholds_no_score_can_reach_are_refused(option, value):
    with pytest.raises(AlignerError, match="highest score"):
        MatchConfig("fr", "en", **{option: value})
    MatchConfig("fr", "en", jw_threshold=1.0, jcn_threshold=taxsim.JCN_MAX)


def test_name_table_refuses_a_threshold_below_its_floor():
    table = NameTable(jaro_winkler, 0.9, jaro_winkler_bound)
    assert table.cover(("film",), ("film",), 0.95) == 1.0
    assert table.cover(("film",), ("firm",), 0.95) is None
    with pytest.raises(AlignerError, match="floor"):
        table.cover(("film",), ("film",), 0.8)


def test_a_name_table_and_its_caches_go_when_it_is_dropped():
    # align() makes its tables per run: with no reference cycle through a
    # table, reference counting frees it, and every answer it keeps, at once
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = NameTable(jaro_winkler, 0.9, jaro_winkler_bound)
        film, films = table.tokens("film"), table.tokens("films")
        noir, noirs = table.tokens("Film noir"), table.tokens("noir films")
        assert table.cover(film, films, 0.9) == table.cover(noir, noirs, 0.9) == 0.96
        assert table.covers([noir], aligner._by_length([(0, noirs), (1, film)]), 0.9) == {0: 0.96}
        dropped = weakref.ref(table)
        del table
        assert dropped() is None
    finally:
        if enabled:
            gc.enable()


_TOKENS = st.text(alphabet="abcé", min_size=1, max_size=7)


@st.composite
def token_tuple_pair(draw, tokens=_TOKENS):
    """Two token tuples, the second often a reordered near-copy of the first."""
    left = draw(st.lists(tokens, min_size=1, max_size=3))
    right = []
    for token in left:
        edit = draw(st.sampled_from(("keep", "swap", "drop", "fresh")))
        i = draw(st.integers(0, len(token) - 1))
        if edit == "swap" and i + 1 < len(token):
            token = token[:i] + token[i + 1] + token[i] + token[i + 2 :]
        elif edit == "drop" and len(token) > 1:
            token = token[:i] + token[i + 1 :]
        elif edit == "fresh":
            token = draw(tokens)
        right.append(token)
    right = draw(st.permutations(right))
    if draw(st.booleans()):
        right = right[1:]  # tuples of different lengths never match
    return tuple(left), tuple(right)


@settings(max_examples=150, deadline=None)
@given(st.lists(token_tuple_pair(), min_size=1, max_size=6), _THRESHOLDS)
def test_bounded_name_table_gives_the_unbounded_covers(pairs, floor):
    table = NameTable(jaro_winkler, floor, jaro_winkler_bound)
    for tokens_a, tokens_b in pairs:
        expected = token_sequence_match(tokens_a, tokens_b, jaro_winkler, floor)
        for threshold in (0.8, 0.9, 0.95, 1.0):
            if threshold >= floor:
                gated = expected if expected is not None and expected >= threshold else None
                assert table.cover(tokens_a, tokens_b, threshold) == gated


def best_covers(keys, rights, similarity, threshold):
    """The best token_sequence_match over `keys` of each right some key covers, by position."""
    expected = {}
    for item, right in enumerate(rights):
        scores = [token_sequence_match(key, right, similarity, threshold) for key in keys]
        if any(score is not None for score in scores):
            expected[item] = max(score for score in scores if score is not None)
    return expected


# Latin, Greek, Cyrillic and non-BMP mathematical letters: 107 code points
_WIDE_ALPHABET = "".join(
    map(chr, [*range(0x61, 0x7B), *range(0x3B1, 0x3CA), *range(0x430, 0x450), *range(0x1D538, 0x1D550)])
)
_WIDE_TOKENS = st.text(alphabet=_WIDE_ALPHABET, min_size=1, max_size=7)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.permutations(_WIDE_ALPHABET),
    st.lists(token_tuple_pair(_WIDE_TOKENS), min_size=1, max_size=6),
    _THRESHOLDS,
)
def test_name_table_masks_past_64_characters_give_the_unbounded_covers(order, pairs, floor):
    # the left tokens get their bits first; a name of 70 distinct characters
    # then takes the bit map past 64 bits before the right tokens get theirs
    wide = ("".join(order[:70]),)
    keys = [tokens_a for tokens_a, _ in pairs]
    rights = [tokens_b for _, tokens_b in pairs]
    for similarity, bound in ((jaro_winkler, jaro_winkler_bound), (aligner._jw_or_sw, aligner._jw_or_sw_bound)):
        table = NameTable(similarity, floor, bound)
        for tokens in keys + [wide]:
            assert table.cover(tokens, tokens, floor) == 1.0
        for threshold in (t for t in (0.8, 0.9, 0.95, 1.0) if t >= floor):
            for tokens_a, tokens_b in pairs:
                expected = token_sequence_match(tokens_a, tokens_b, similarity, threshold)
                assert table.cover(tokens_a, tokens_b, threshold) == expected
            expected = best_covers(keys, rights, similarity, threshold)
            assert table.covers(keys, aligner._by_length(enumerate(rights)), threshold) == expected


# near-identical words, so that several keys cover one right name at different scores
_NAME_TOKENS = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=2).map(tuple)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_NAME_TOKENS, max_size=5),
    st.lists(_NAME_TOKENS, max_size=6),
    _THRESHOLDS,
    _THRESHOLDS,
)
def test_covers_is_the_best_cover_over_every_key_and_right(keys, rights, floor, threshold):
    if threshold < floor:
        floor, threshold = threshold, floor
    table = NameTable(jaro_winkler, floor, jaro_winkler_bound)
    expected = best_covers(keys, rights, jaro_winkler, threshold)
    assert table.covers(keys, aligner._by_length(enumerate(rights)), threshold) == expected


def _record_table_pairs(monkeypatch) -> list:
    """(similarity, token pairs bounded) for each NameTable that align() makes."""
    asked: list = []

    def recording_table(similarity, floor, bound):
        pairs: set = set()
        asked.append((similarity, pairs))

        def recording(a, b, shared):
            pairs.add((a, b))
            return bound(a, b, shared)

        return NameTable(similarity, floor, recording)

    monkeypatch.setattr(aligner, "NameTable", recording_table)
    return asked


def test_align_skips_token_pairs_below_the_floor(
    monkeypatch, onto_fr, onto_en, dict_translator, thesaurus, cfg
):
    asked = _record_table_pairs(monkeypatch)
    scored = set()

    def recording(a, b):
        scored.add((a, b))
        return jaro_winkler(a, b)

    monkeypatch.setattr(aligner, "jaro_winkler", recording)
    align(onto_fr, onto_en, dict_translator, cfg, thesaurus)
    ((_, pairs),) = asked
    assert scored and scored < pairs


def test_smith_waterman_table_skips_token_pairs_below_the_floor(
    monkeypatch, onto_fr, onto_en, dict_translator, thesaurus
):
    asked = _record_table_pairs(monkeypatch)
    scored = set()

    def recording(a, b):
        scored.add((a, b))
        return sw_normalized(a, b)

    monkeypatch.setattr(aligner, "sw_normalized", recording)
    align(onto_fr, onto_en, dict_translator, MatchConfig("fr", "en", sw_enabled=True), thesaurus)
    (sw_pairs,) = [pairs for similarity, pairs in asked if similarity is aligner._jw_or_sw]
    assert len(asked) == 2
    assert scored and scored < sw_pairs


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # the traced benchmark run wraps names in these namespaces; a name
    # deleted from one should fail here, not only in that run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer, instrument_aligner

    namespaces = (aligner, labelkit, structsim)
    before = [dict(vars(module)) for module in namespaces]
    tracer = Tracer()
    try:
        instrument_aligner(tracer)
        assert aligner.align is not before[0]["align"]
    finally:
        tracer.restore()
    assert [dict(vars(module)) for module in namespaces] == before


def test_benchmark_finds_every_name_it_patches_outside_the_aligner(
    monkeypatch, idioms_store, translation_query_text
):
    # perfbench/run.py wraps the client calls and calls to_triples, and
    # perfbench/timed_serve.py replaces the evaluate that the /sparql
    # handler looks up in lexiserve; a rename should fail here too
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer, instrument_lookups

    namespaces = (labelkit, lexiserve, triplemap)
    before = [dict(vars(module)) for module in namespaces]
    tracer = Tracer()
    try:
        instrument_lookups(
            tracer,
            labelkit,
            {"client_translate": "translations", "client_reverse_translate": "reverse_translations"},
            "lexiserve.request",
            "lexiserve.requests",
            first=1,
        )
        tracer.wrap_span(lexiserve, "client_sparql", "lexiserve.request", count="lexiserve.requests")
        tracer.wrap_span(lexiserve, "evaluate", "sparqlet.evaluate", count="sparqlet.evaluations")
        assert callable(triplemap.to_triples)
        with lexiserve.serve(lexiserve.ServiceConfig(port=0), idioms_store) as handle:
            labelkit.EndpointTranslator(handle.endpoint).translate("cat", "en", "fr")
            lexiserve.client_sparql(handle.endpoint, translation_query_text)
        assert tracer.counts == {"lexiserve.requests": 3, "sparqlet.evaluations": 1}
    finally:
        tracer.restore()
    assert [dict(vars(module)) for module in namespaces] == before


def test_a_traced_align_reports_every_layer(monkeypatch, onto_fr, onto_en, thesaurus, cfg):
    # a stage that stops going through the name the benchmark wraps
    # reads 0 here, not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer, align_layers, instrument_aligner, instrument_store, instrument_translator

    store = dictstore.ingest_tables(FIXTURES / "biblio_dict")
    translator = labelkit.DictionaryTranslator(store)
    tracer = Tracer()
    tracer.op_id = 1
    try:
        instrument_aligner(tracer)
        instrument_translator(tracer, translator)
        instrument_store(tracer, store)
        aligner.align(onto_fr, onto_en, translator, cfg, thesaurus)
    finally:
        tracer.restore()
    layers = align_layers(tracer, 1)
    assert layers and [name for name, value in layers.items() if not value > 0] == []


def test_evaluate_benchmark_scale_counts():
    def synthetic(a_count, r_count, common):
        left = [EntityId(f"l{i}", Kind.CLASS) for i in range(max(a_count, r_count) + 10)]
        right = [EntityId(f"r{i}", Kind.CLASS) for i in range(max(a_count, r_count) + 10)]
        a = Alignment(
            Correspondence(left[i], right[i], 1.0) for i in range(a_count)
        )
        r = Alignment(
            Correspondence(left[i], right[i], 1.0)
            for i in list(range(common)) + list(range(a_count + 1, a_count + 1 + r_count - common))
        )
        return evaluate(a, r)

    m = synthetic(54, 97, 53)
    assert abs(m.precision - Fraction(53, 54)) < 1e-12
    assert abs(m.recall - Fraction(53, 97)) < 1e-12
    assert m.summary().startswith("precision=0.98 recall=0.55")

    m2 = synthetic(61, 97, 60)
    assert abs(m2.precision - Fraction(60, 61)) < 1e-12
    assert abs(m2.recall - Fraction(60, 97)) < 1e-12
    assert m2.summary().startswith("precision=0.98 recall=0.62")


def test_evaluate_perfect_alignment():
    e = [EntityId(f"x{i}", Kind.CLASS) for i in range(5)]
    a = Alignment(Correspondence(e[i], e[i], 1.0) for i in range(5))
    m = evaluate(a, a)
    assert m.precision == 1.0 and m.recall == 1.0


def test_evaluate_empty_alignment():
    m = evaluate(Alignment(), Alignment())
    assert m.precision == 0.0 and m.recall == 0.0


def test_evaluate_matches_set_oracle():
    rng = random.Random(13)
    universe = [(f"L{i}", f"R{j}") for i in range(30) for j in range(30)]
    for _ in range(25):
        a_pairs, r_pairs = set(), set()
        used_l, used_r = set(), set()
        for left, right in rng.sample(universe, 60):
            if left not in used_l and right not in used_r:
                used_l.add(left)
                used_r.add(right)
                (a_pairs if rng.random() < 0.5 else r_pairs).add((left, right))
        a = Alignment(
            Correspondence(EntityId(l, None), EntityId(r, None), 1.0) for l, r in a_pairs
        )
        r = Alignment(
            Correspondence(EntityId(l, None), EntityId(r, None), 1.0) for l, r in r_pairs
        )
        m = evaluate(a, r)
        inter = len(a_pairs & r_pairs)
        assert m.common == inter
        assert m.precision == (inter / len(a_pairs) if a_pairs else 0.0)
        assert m.recall == (inter / len(r_pairs) if r_pairs else 0.0)


def test_write_read_round_trip(tmp_path, onto_fr, onto_en, full_alignment):
    path = tmp_path / "out.tsv"
    write_alignment(full_alignment, path)
    loaded = read_alignment(path, onto_fr, onto_en)
    assert loaded.pairs() == full_alignment.pairs()
    for loaded_c, original in zip(loaded, full_alignment):
        assert loaded_c.score == pytest.approx(original.score, abs=1e-4)
    lines = path.read_text("utf-8").splitlines()
    assert lines == sorted(lines)
    assert all(len(line.split("\t")) == 3 for line in lines)
    assert all(len(line.split("\t")[2].split(".")[1]) == 4 for line in lines)


def test_empty_alignment_round_trip(tmp_path):
    path = tmp_path / "empty.tsv"
    write_alignment(Alignment(), path)
    assert read_alignment(path).pairs() == set()


def test_exact_round_trip_with_quantized_scores(tmp_path, onto_fr, onto_en):
    a = Alignment(
        [
            Correspondence(onto_fr.entity(FR + "Film"), onto_en.entity(EN + "Book"), 0.75),
            Correspondence(onto_fr.entity(FR + "Livre"), onto_en.entity(EN + "Journal"), 1.0),
        ]
    )
    path = tmp_path / "a.tsv"
    write_alignment(a, path)
    assert read_alignment(path, onto_fr, onto_en) == a


def test_read_rejects_out_of_range_score(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\t1.5\n", "utf-8")
    with pytest.raises(AlignmentFormatError, match="out of range"):
        read_alignment(path)


def test_read_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\n", "utf-8")
    with pytest.raises(AlignmentFormatError, match="expected 3 columns"):
        read_alignment(path)


@pytest.mark.parametrize("score", ["none", "", "0,5"])
def test_read_rejects_a_score_that_is_not_a_number(tmp_path, score):
    path = tmp_path / "bad.tsv"
    path.write_text(f"{FR}Film\t{EN}Movie\t1.0\n{FR}Livre\t{EN}Book\t{score}\n", "utf-8")
    with pytest.raises(AlignmentFormatError) as err:
        read_alignment(path)
    assert str(err.value) == f"bad.tsv:2: score is not a number: {score!r}"


def test_read_rejects_unknown_entity(tmp_path, onto_fr, onto_en):
    path = tmp_path / "bad.tsv"
    path.write_text(f"{FR}Ghost\t{EN}Book\t1.0\n", "utf-8")
    with pytest.raises(Exception, match="unknown entity"):
        read_alignment(path, onto_fr, onto_en)


def test_aggregate_keeps_max_and_stage_priority():
    left = EntityId("l", Kind.CLASS)
    right = EntityId("r", Kind.CLASS)
    (merged,) = greedy_one_to_one(
        [
            Correspondence(left, right, 0.95, "string"),
            Correspondence(left, right, 1.0, "structure"),
        ]
    )
    assert merged.score == 1.0 and merged.source == "structure"
    (tied,) = greedy_one_to_one(
        [
            Correspondence(left, right, 1.0, "structure"),
            Correspondence(left, right, 1.0, "string"),
        ]
    )
    assert tied.source == "string"


@st.composite
def proposals(draw):
    """Stage proposals over a few entities, with repeated pairs, tied
    scores and every source."""
    lefts = [EntityId(f"l{i}", Kind.CLASS) for i in range(3)]
    rights = [EntityId(f"r{i}", Kind.CLASS) for i in range(3)]
    proposal = st.builds(
        Correspondence,
        st.sampled_from(lefts),
        st.sampled_from(rights),
        st.sampled_from((0.5, 0.9, 1.0)),
        st.sampled_from((aligner.SOURCE_STRING, aligner.SOURCE_LEXICAL, aligner.SOURCE_STRUCTURE)),
    )
    return draw(st.lists(proposal, max_size=12))


@settings(max_examples=300, deadline=None)
@given(proposals(), st.randoms(use_true_random=False))
def test_greedy_one_to_one_is_the_two_pass_selection_in_any_order(correspondences, rng):
    chosen = greedy_one_to_one(correspondences)
    assert chosen == reference_greedy_one_to_one(correspondences)
    shuffled = list(correspondences)
    rng.shuffle(shuffled)
    assert greedy_one_to_one(shuffled) == chosen


def test_greedy_tie_break_is_byte_order():
    a1 = EntityId("a1", Kind.CLASS)
    a2 = EntityId("a2", Kind.CLASS)
    b = EntityId("b", Kind.CLASS)
    chosen = greedy_one_to_one(
        [Correspondence(a2, b, 1.0), Correspondence(a1, b, 1.0)]
    )
    assert chosen.pairs() == {("a1", "b")}


def test_correspondence_score_validated():
    with pytest.raises(AlignerError):
        Correspondence(EntityId("l", None), EntityId("r", None), 1.5)
    with pytest.raises(AlignerError, match="source"):
        Correspondence(EntityId("l", None), EntityId("r", None), 1.0, "guess")
