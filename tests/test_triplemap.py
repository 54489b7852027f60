import itertools
import tracemalloc

import pytest

from conftest import FIXTURES, ORACLE_PREDICATES, brute_force_evaluate, oracle_triples, store_of, to_tables
from lexalign.dictstore import DictionaryStore, ingest_tables
from lexalign.sparqlet import evaluate, parse_query
from lexalign.triplemap import (
    Iri,
    Literal,
    TripleMapError,
    Variable,
    WIKPA_BASE,
    render,
    to_triples,
)

# columns per table, independent of the module under test
COLUMNS = {
    "language": 3,
    "page": 2,
    "lang_pos": 3,
    "meaning": 2,
    "translation": 3,
    "translation_entry": 4,
    "wiki_text": 2,
}


def test_one_language_row_gives_three_triples():
    store = store_of({"language": [[1, "en", "English"]]})
    ts = to_triples(store)
    assert len(ts) == 3
    rendered = {(render(t.predicate), render(t.object)) for t in ts.lookup()}
    assert rendered == {
        (WIKPA_BASE + "lang_id", "1"),
        (WIKPA_BASE + "lang_code", "en"),
        (WIKPA_BASE + "lang_name", "English"),
    }


@pytest.mark.parametrize("name", ["idioms_dict", "biblio_dict"])
def test_triple_count_equals_rows_times_columns(name):
    directory = FIXTURES / name
    expected = 0
    for table, columns in COLUMNS.items():
        lines = (directory / f"{table}.tsv").read_text("utf-8").splitlines()
        expected += len(lines) * columns
    assert len(to_triples(ingest_tables(directory))) == expected


def test_empty_store_maps_to_empty_triple_store():
    assert len(to_triples(DictionaryStore())) == 0


def test_lookup_all_unbound_returns_every_triple(idioms_triples):
    everything = idioms_triples.lookup()
    assert len(everything) == len(idioms_triples)
    assert len(set(everything)) == len(everything)


def test_lookup_by_lang_code_en(idioms_triples):
    found = idioms_triples.lookup(None, Iri(WIKPA_BASE + "lang_code"), Literal("en"))
    oracle = [
        t
        for t in idioms_triples.lookup()
        if render(t.predicate) == WIKPA_BASE + "lang_code" and t.object == Literal("en")
    ]
    assert found == oracle
    assert len(found) == 1
    assert found[0].subject == Iri(WIKPA_BASE + "language/1")


def test_lookup_fully_bound(idioms_triples):
    triple = idioms_triples.lookup()[0]
    assert idioms_triples.lookup(triple.subject, triple.predicate, triple.object) == [triple]
    assert idioms_triples.lookup(triple.subject, triple.predicate, Literal("no-such")) == []


def test_lookup_matches_filtered_full_scan(idioms_triples):
    everything = idioms_triples.lookup()
    samples = everything[:: max(1, len(everything) // 7)]
    for triple in samples:
        for mask in itertools.product([False, True], repeat=3):
            s = triple.subject if mask[0] else None
            p = triple.predicate if mask[1] else None
            o = triple.object if mask[2] else None
            expected = [
                t
                for t in everything
                if (s is None or t.subject == s)
                and (p is None or t.predicate == p)
                and (o is None or t.object == o)
            ]
            assert idioms_triples.lookup(s, p, o) == expected


def test_round_trip_reconstruction(idioms_store, idioms_triples):
    rebuilt = to_tables(idioms_triples)
    # rebuilt in id order, held in file order: compared as sets of rows
    for table in ORACLE_PREDICATES:
        assert sorted(rebuilt.rows(table)) == sorted(idioms_store.rows(table)), table


def test_term_constraints():
    with pytest.raises(TripleMapError):
        Variable("")


@pytest.mark.parametrize("name", ["idioms_dict", "biblio_dict"])
def test_view_equals_row_oracle(name):
    directory = FIXTURES / name
    graph = to_triples(ingest_tables(directory))
    expected = oracle_triples(directory)
    assert graph.lookup() == expected
    # predicate-bound lookups come out in byte order without a final sort
    for p, o in {(t.predicate, t.object) for t in expected}:
        assert graph.lookup(None, p, o) == [t for t in expected if (t.predicate, t.object) == (p, o)]
    for p in {t.predicate for t in expected}:
        assert graph.lookup(None, p, None) == [t for t in expected if t.predicate == p]


PAGE_ID = Iri(WIKPA_BASE + "page_id")
LANG_POS_PAGE_ID = Iri(WIKPA_BASE + "lang_pos_page_id")  # holds 1, but no other spelling of it


@pytest.mark.parametrize(
    "s, p, o",
    [
        (Iri(WIKPA_BASE + "page/01"), None, None),
        (Iri(WIKPA_BASE + "page/01"), PAGE_ID, Literal("1")),
        (Iri(WIKPA_BASE + "page/+1"), PAGE_ID, None),
        (Iri(WIKPA_BASE + "page/x"), None, None),
        (Iri(WIKPA_BASE + "page/x"), PAGE_ID, None),
        (Iri(WIKPA_BASE + "page/99"), PAGE_ID, None),
        (Iri(WIKPA_BASE + "nosuch/1"), None, None),
        (Iri(WIKPA_BASE + "language/1"), PAGE_ID, None),
        (Iri("http://example.org/page/1"), None, None),
        (Iri("http://example.org/page/1"), PAGE_ID, Literal("1")),
        (Literal(WIKPA_BASE + "page/1"), None, None),
        (Literal(WIKPA_BASE + "page/1"), PAGE_ID, Literal("1")),
        (None, PAGE_ID, Iri(WIKPA_BASE + "page/1")),
        (Iri(WIKPA_BASE + "page/1"), None, Iri(WIKPA_BASE + "page/1")),
        (None, None, Iri(WIKPA_BASE + "page/1")),
        (None, Iri(WIKPA_BASE + "no_such_column"), None),
        (Iri(WIKPA_BASE + "page/1"), Iri("http://example.org/page_id"), Literal("1")),
        (None, Literal(WIKPA_BASE + "page_id"), None),
        (None, PAGE_ID, Literal("01")),
        (None, PAGE_ID, Literal("+1")),
        (None, PAGE_ID, Literal(" 1")),
        (None, PAGE_ID, Literal("1_0")),
        (None, PAGE_ID, Literal("x")),
        (None, PAGE_ID, Literal("")),
        (None, PAGE_ID, Literal("99")),
        (None, PAGE_ID, Literal("9" * 5000)),
        (Iri(WIKPA_BASE + "page/1"), PAGE_ID, Literal("01")),
        (None, None, Literal("01")),
        *(
            (None, LANG_POS_PAGE_ID, Literal(text))
            for text in ("01", "+1", " 1", "1 ", "1_0", "\u0661", "1.0", "", "9" * 5000)
        ),
    ],
)
def test_hostile_lookups_match_nothing(idioms_triples, s, p, o):
    assert idioms_triples.lookup(s, p, o) == []
    assert idioms_triples.count(s, p, o) == 0


def test_count_equals_lookup_length(idioms_triples):
    everything = idioms_triples.lookup()
    assert idioms_triples.count() == len(everything) == len(idioms_triples)
    for triple in everything[::5]:
        for mask in itertools.product([False, True], repeat=3):
            terms = (triple.subject, triple.predicate, triple.object)
            args = [t if keep else None for t, keep in zip(terms, mask)]
            assert idioms_triples.count(*args) == len(idioms_triples.lookup(*args))
    # object-bound patterns on every table's key column, held and not held
    for predicates in ORACLE_PREDICATES.values():
        key = Iri(WIKPA_BASE + predicates[0])
        for text in ("1", "2", "3", "10", "99", "01", "-1", "x"):
            found = idioms_triples.lookup(None, key, Literal(text))
            assert idioms_triples.count(None, key, Literal(text)) == len(found)
            assert found == [t for t in everything if (t.predicate, t.object.text) == (key, text)]


@pytest.mark.parametrize(
    "text",
    [
        "SELECT ?x ?y ?z WHERE { ?x wikpa:lang_id ?y . ?y wikpa:lang_code ?z . }",
        "SELECT ?x ?l WHERE { ?x wikpa:translation_entry_lang_id ?y . ?l wikpa:lang_id ?y . }",
    ],
)
def test_cross_position_join_matches_brute_force(idioms_triples, text):
    query = parse_query(text)
    assert evaluate(query, idioms_triples).rows == brute_force_evaluate(query, idioms_triples).rows


def test_view_holds_no_copy_of_the_store(tmp_path):
    """The view reads the store's rows and column indexes; what building
    it leaves allocated is a small fraction of what the store holds."""
    pages = range(1, 1201)
    tables = {
        "language": [(1, "en", "English"), (2, "fr", "French"), (3, "sv", "Swedish")],
        "page": [(i, f"word {i}") for i in pages],
        "lang_pos": [(i, i, 1) for i in pages],
        "meaning": [(i, i) for i in pages],
        "translation": [(i, i, i) for i in pages],
        "translation_entry": [(2 * i + k, i, 2 + k, 2 * i + k) for i in pages for k in (0, 1)],
        "wiki_text": [(2 * i + k, f"mot {i % 300} {k}") for i in pages for k in (0, 1)],
    }
    for name, rows in tables.items():
        lines = ("\t".join(map(str, row)) + "\n" for row in rows)
        (tmp_path / f"{name}.tsv").write_text("".join(lines), "utf-8")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = ingest_tables(tmp_path)
        with_store = tracemalloc.get_traced_memory()[0]
        graph = to_triples(store)
        with_graph = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert graph.count() == sum(len(rows) * COLUMNS[name] for name, rows in tables.items())
    assert with_graph - with_store < (with_store - before) / 10
