"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they pass. Everything here talks only to loopback and finishes well
under a minute.
"""

import random
from fractions import Fraction

import pytest

from conftest import (
    FIXTURES,
    IDIOM_ROWS,
    all_strings,
    brute_force_evaluate,
    exhaustive_local_alignment,
    random_query,
    store_of,
)
from lexalign.aligner import (
    Alignment,
    Correspondence,
    MatchConfig,
    NameTable,
    align,
    evaluate as evaluate_alignment,
    read_alignment,
    string_correspondences,
    _translated,
)
from lexalign.dictstore import ingest_tables
from lexalign.labelkit import DictionaryTranslator
from lexalign.lexiserve import ServiceConfig, client_sparql, client_translate, serve
from lexalign.ontomodel import EntityId, Kind
from lexalign.sparqlet import evaluate, parse_query
from lexalign.strsim import jaro, jaro_winkler, jaro_winkler_bound, smith_waterman
from lexalign.structsim import TreeNode, WeightedTree, tree_similarity
from lexalign.taxsim import jcn_similarity, lexical_match
from lexalign.triplemap import to_triples

FR = "http://example.org/biblio-fr#"
EN = "http://example.org/biblio-en#"


def passline(number: int, label: str) -> None:
    print(f"criterion {number} ({label}): PASS")


def test_criterion_1_translation_table_reproduction():
    store = ingest_tables(FIXTURES / "idioms_dict")
    query = parse_query((FIXTURES / "translations_query.rq").read_text("utf-8"))
    result = evaluate(query, to_triples(store))
    rows = set(result.rows)
    assert rows == IDIOM_ROWS  # exact string equality, zero tolerance
    assert ("fr", "French", "pleuvoir des cordes") in rows
    assert ("sv", "Swedish", "ösregna") in rows
    assert len(result.rows) == 7
    passline(1, "seven translation rows reproduced")


def test_criterion_2_sparql_oracle_equivalence(idioms_triples):
    tiny = to_triples(store_of({"language": [[1, "en", "English"]]}))
    rng = random.Random(443)
    checked = 0
    for store in (idioms_triples, tiny):
        assert len(store) <= 200
        count = 22 if store is idioms_triples else 5
        for _ in range(count):
            query = random_query(store, rng, max_patterns=4)
            assert len(query.patterns) <= 4
            fast = evaluate(query, store)
            slow = brute_force_evaluate(query, store)
            assert fast.header == slow.header
            assert fast.rows == slow.rows
            checked += 1
    assert checked >= 20
    passline(2, f"evaluator equals all-assignments oracle on {checked} random queries")


def test_criterion_3_http_transparency(idioms_store, biblio_store):
    query_text = (FIXTURES / "translations_query.rq").read_text("utf-8")
    for store in (idioms_store, biblio_store):
        with serve(ServiceConfig(port=0), store) as handle:
            codes = store.columns["language", "lang_code"]
            for title in store.columns["page", "page_title"]:
                for src in codes:
                    for tgt in codes:
                        assert client_translate(
                            handle.endpoint, title, src, tgt
                        ) == store.translations(title, src, tgt)
            if store is idioms_store:
                header, rows = client_sparql(handle.endpoint, query_text)
                assert {tuple(r) for r in rows} == IDIOM_ROWS
                assert len(rows) == 7
    passline(3, "HTTP client equals direct store on every fixture word")


def test_criterion_4_metric_arithmetic():
    def synthetic(a_count, r_count, common):
        lefts = [EntityId(f"l{i}", Kind.CLASS) for i in range(200)]
        rights = [EntityId(f"r{i}", Kind.CLASS) for i in range(200)]
        a = Alignment(Correspondence(lefts[i], rights[i], 1.0) for i in range(a_count))
        r_members = list(range(common)) + list(range(100, 100 + r_count - common))
        r = Alignment(Correspondence(lefts[i], rights[i], 1.0) for i in r_members)
        return evaluate_alignment(a, r)

    m1 = synthetic(54, 97, 53)
    assert abs(m1.precision - Fraction(53, 54)) < 1e-12
    assert abs(m1.recall - Fraction(53, 97)) < 1e-12
    assert f"{m1.precision:.2f}" == "0.98"
    assert f"{m1.recall:.2f}" == "0.55"

    m2 = synthetic(61, 97, 60)
    assert abs(m2.precision - Fraction(60, 61)) < 1e-12
    assert abs(m2.recall - Fraction(60, 97)) < 1e-12
    assert f"{m2.precision:.2f}" == "0.98"
    assert f"{m2.recall:.2f}" == "0.62"
    passline(4, "precision/recall arithmetic exact and display-rounded")


def test_criterion_5_jiang_conrath_target(thesaurus):
    assert thesaurus.ic["school-1"] - thesaurus.ic["institution-1"] == pytest.approx(0.8)
    value = jcn_similarity(thesaurus, "school-1", "institution-1")
    assert value == pytest.approx(1.25, abs=1e-9)
    assert value > 1.0
    word_level = lexical_match(thesaurus, "school", "institution")
    assert word_level == pytest.approx(1.25, abs=1e-9)
    assert word_level >= 1.0  # the lexical stage declares a match
    passline(5, "school/institution similarity 1.25 over threshold 1.0")


def test_criterion_6_string_metric_suite():
    assert jaro("MARTHA", "MARHTA") == pytest.approx(0.944444, abs=1e-6)
    assert jaro_winkler("MARTHA", "MARHTA") == pytest.approx(0.961111, abs=1e-6)

    rng = random.Random(251)
    pairs = 0
    while pairs < 1000:
        s1 = "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 9)))
        s2 = "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 9)))
        j, jw = jaro(s1, s2), jaro_winkler(s1, s2)
        assert j == jaro(s2, s1)
        assert jw == jaro_winkler(s2, s1)
        assert 0.0 <= j <= 1.0 and 0.0 <= jw <= 1.0
        assert jw >= j
        pairs += 1

    # exhaustive oracle comparison; the full 3-letter length-6 cross
    # product (1.19M pairs) does not fit the runtime budget, so cover
    # every pair to length 4, every 2-letter pair to length 6, and a
    # seeded sample of longer 3-letter pairs
    compared = 0
    for alphabet, max_len in (("abc", 4), ("ab", 6)):
        strings = all_strings(alphabet, max_len)
        for s1 in strings:
            for s2 in strings:
                assert smith_waterman(s1, s2) == exhaustive_local_alignment(s1, s2), (s1, s2)
                compared += 1
    for _ in range(2000):
        s1 = "".join(rng.choice("abc") for _ in range(rng.randint(5, 6)))
        s2 = "".join(rng.choice("abc") for _ in range(rng.randint(5, 6)))
        assert smith_waterman(s1, s2) == exhaustive_local_alignment(s1, s2), (s1, s2)
        compared += 1
    passline(6, f"metric values frozen; SW equals oracle on {compared} pairs")


@pytest.fixture(scope="module")
def pipeline(onto_fr, onto_en, biblio_store, thesaurus):
    translator = DictionaryTranslator(biblio_store)
    cfg = MatchConfig(source_lang="fr", target_lang="en")
    full = align(onto_fr, onto_en, translator, cfg, thesaurus)
    no_structure = align(
        onto_fr,
        onto_en,
        translator,
        MatchConfig(source_lang="fr", target_lang="en", structure_enabled=False),
        thesaurus,
    )
    return full, no_structure


def test_criterion_7_pipeline_behavior(pipeline):
    full, no_structure = pipeline
    pairs = full.pairs()
    assert (FR + "Film", EN + "MotionPicture") in pairs
    assert (FR + "Universite", EN + "School") in pairs
    assert (FR + "isbn", EN + "isbn") in pairs
    assert (FR + "nomCourt", EN + "shortName") not in pairs
    assert all(left != FR + "nomCourt" for left, _ in pairs)
    assert (FR + "Revue", EN + "Journal") in pairs
    assert (FR + "Revue", EN + "Journal") not in no_structure.pairs()
    assert all(left != FR + "Revue" for left, _ in no_structure.pairs())
    passline(7, "translation, fallback, negative and structural cases behave")


def test_criterion_8_end_to_end_precision(pipeline, onto_fr, onto_en):
    full, _ = pipeline
    expected = read_alignment(FIXTURES / "expected_alignment.tsv", onto_fr, onto_en)
    assert full.pairs() == expected.pairs()  # the committed hand-check
    reference = read_alignment(FIXTURES / "reference_alignment.tsv")
    metrics = evaluate_alignment(full, reference)
    assert metrics.precision >= 0.9
    passline(
        8,
        f"expected correspondence set reproduced; precision {metrics.precision:.2f}",
    )


def test_criterion_9_invariant_suites(pipeline, onto_fr, onto_en, biblio_store):
    full, _ = pipeline

    # alignment is one-to-one on both sides
    lefts = [left for left, _ in full.pairs()]
    rights = [right for _, right in full.pairs()]
    assert len(lefts) == len(set(lefts)) and len(rights) == len(set(rights))

    # expanding-tree asymmetry witness
    small = WeightedTree(root=None, nodes=[TreeNode("shared", 1, 3)])
    large = WeightedTree(
        root=None, nodes=[TreeNode("shared", 1, 3), TreeNode("extra", 1, 3)]
    )
    eq = lambda a, b: a == b
    assert tree_similarity(small, large, eq) == 1.0
    assert tree_similarity(large, small, eq) < 1.0

    # dictionary referential integrity (full scan)
    biblio_store.verify_integrity()
    ingest_tables(FIXTURES / "idioms_dict").verify_integrity()

    # raising the string threshold never adds string-stage pairs
    translator = DictionaryTranslator(biblio_store)
    sets = []
    for threshold in (0.7, 0.9, 0.99):
        cfg = MatchConfig(source_lang="fr", target_lang="en", jw_threshold=threshold)
        translations = _translated(onto_fr, translator, cfg)
        table = NameTable(jaro_winkler, threshold, jaro_winkler_bound)
        sets.append(
            {
                (c.left.iri, c.right.iri)
                for c in string_correspondences(onto_fr, onto_en, translations, cfg, table)
            }
        )
    assert sets[2] <= sets[1] <= sets[0]
    passline(9, "one-to-one, asymmetry, integrity and monotonicity invariants hold")
