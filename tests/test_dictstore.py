import gc
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, oracle_triples, reference_verify_integrity, store_of
from lexalign import dictstore
from lexalign.dictstore import (
    IngestError,
    SCHEMA,
    TABLE_NAMES,
    UnknownLanguageError,
    ingest_tables,
    load_snapshot,
    save_snapshot,
)
from lexalign.triplemap import WIKPA_BASE, Iri, Literal, to_triples

IDIOMS = FIXTURES / "idioms_dict"
BIBLIO = FIXTURES / "biblio_dict"


def _write_tables(directory, rows_by_table):
    for name in TABLE_NAMES:
        lines = rows_by_table.get(name, [])
        path = directory / f"{name}.tsv"
        path.write_text("".join("\t".join(map(str, row)) + "\n" for row in lines), "utf-8")
    return directory


def _read_raw(directory):
    """Independent flat read of the seven files, used as the join oracle."""
    raw = {}
    for name in TABLE_NAMES:
        lines = (directory / f"{name}.tsv").read_text("utf-8").splitlines()
        raw[name] = [line.split("\t") for line in lines]
    return raw


def oracle_translations(raw, headword, src_code, tgt_code):
    langs = {code: lid for lid, code, _ in raw["language"]}
    src, tgt = langs[src_code], langs[tgt_code]
    texts = {tid: text for tid, text in raw["wiki_text"]}
    out = set()
    for page_id, title in raw["page"]:
        if title != headword:
            continue
        for lp_id, lp_page, lp_lang in raw["lang_pos"]:
            if lp_page != page_id or lp_lang != src:
                continue
            for tr_id, tr_lp, _tr_meaning in raw["translation"]:
                if tr_lp != lp_id:
                    continue
                for _eid, e_tr, e_lang, e_text in raw["translation_entry"]:
                    if e_tr == tr_id and e_lang == tgt:
                        out.add(texts[e_text])
    return sorted(out)


def test_ingest_row_counts_match_files():
    store = ingest_tables(IDIOMS)
    raw = _read_raw(IDIOMS)
    for name in TABLE_NAMES:
        assert len(store.position[name]) == len(raw[name]), name


def test_single_language_fixture(tmp_path):
    _write_tables(tmp_path, {"language": [(1, "en", "English")]})
    store = ingest_tables(tmp_path)
    assert list(store.rows("language")) == [(1, "en", "English")]


def test_idioms_stats(idioms_store):
    stats = idioms_store.stats()
    assert stats.translation_entry_count == 7
    assert stats.entry_count == 1
    assert stats.entries_by_language == {"en": 1}
    assert stats.translation_pairs[("en", "fr")] == 3
    assert stats.translation_pairs[("en", "sv")] == 1


def test_empty_store_stats(tmp_path):
    store = ingest_tables(_write_tables(tmp_path, {}))
    stats = store.stats()
    assert stats.entry_count == 0
    assert stats.translation_entry_count == 0
    assert stats.entries_by_language == {}
    assert stats.translation_pairs == {}


def test_missing_file_is_ingest_error(tmp_path):
    (tmp_path / "language.tsv").write_text("1\ten\tEnglish\n", "utf-8")
    with pytest.raises(IngestError, match="missing table file"):
        ingest_tables(tmp_path)


def test_malformed_line_reports_file_and_line(tmp_path):
    _write_tables(tmp_path, {"language": [(1, "en", "English")]})
    (tmp_path / "page.tsv").write_text("1\tok\n2\n", "utf-8")
    with pytest.raises(IngestError, match=r"page\.tsv:2"):
        ingest_tables(tmp_path)


@pytest.mark.parametrize("text, line_no", [("1\tok\n\n2\tno\n", 2), ("\n1\tok\n", 1), ("1\tok\n\n", 2)])
def test_a_blank_line_in_a_table_is_refused_with_its_line(tmp_path, text, line_no):
    _write_tables(tmp_path, {"language": [(1, "en", "English")]})
    (tmp_path / "page.tsv").write_text(text, "utf-8")
    with pytest.raises(IngestError) as err:
        ingest_tables(tmp_path)
    assert str(err.value) == f"page.tsv:{line_no}: blank line"


def test_dangling_wiki_text_names_the_row(tmp_path):
    _write_tables(
        tmp_path,
        {
            "language": [(1, "en", "English"), (2, "fr", "French")],
            "page": [(1, "cat")],
            "lang_pos": [(1, 1, 1)],
            "meaning": [(1, 1)],
            "translation": [(1, 1, 1)],
            "translation_entry": [(1, 1, 2, 99)],
            "wiki_text": [(1, "chat")],
        },
    )
    with pytest.raises(IngestError, match="translation_entry 1: unknown wiki_text_id 99"):
        ingest_tables(tmp_path)


def test_duplicate_key_rejected(tmp_path):
    _write_tables(tmp_path, {"language": [(1, "en", "English"), (1, "fr", "French")]})
    with pytest.raises(IngestError, match="duplicate lang_id"):
        ingest_tables(tmp_path)


@pytest.mark.parametrize("spelling", ["05", "+5", " 5", "1_0", "٥", "-3"])
def test_an_id_has_one_spelling(tmp_path, spelling):
    _write_tables(tmp_path, {"page": [(1, "cat"), (spelling, "dog")]})
    if spelling == "-3":
        store = ingest_tables(tmp_path)
        assert list(store.rows("page")) == [(1, "cat"), (-3, "dog")]
        assert to_triples(store).lookup() == oracle_triples(tmp_path)
    else:
        message = f"page.tsv:2: page_id is not an integer: {spelling!r}"
        with pytest.raises(IngestError, match=re.escape(message) + "$"):
            ingest_tables(tmp_path)


def test_meaning_lang_pos_mismatch_rejected(tmp_path):
    _write_tables(
        tmp_path,
        {
            "language": [(1, "en", "English")],
            "page": [(1, "cat"), (2, "dog")],
            "lang_pos": [(1, 1, 1), (2, 2, 1)],
            "meaning": [(1, 2)],
            "translation": [(1, 1, 1)],  # meaning 1 belongs to lang_pos 2
        },
    )
    with pytest.raises(IngestError, match="belongs to lang_pos 2"):
        ingest_tables(tmp_path)


def test_translations_french(idioms_store):
    assert idioms_store.translations("rain cats and dogs", "en", "fr") == [
        "pleuvoir des cordes",
        "pleuvoir des hallebardes",
        "pleuvoir à verse",
    ]


def test_translations_swedish(idioms_store):
    assert idioms_store.translations("rain cats and dogs", "en", "sv") == ["ösregna"]


def test_translations_absent_headword(biblio_store):
    assert biblio_store.translations("isbn", "en", "fr") == []


def test_unknown_language_is_error_not_empty(idioms_store):
    with pytest.raises(UnknownLanguageError):
        idioms_store.translations("rain cats and dogs", "en", "zz")
    with pytest.raises(UnknownLanguageError):
        idioms_store.reverse_translations("ösregna", "zz", "en")


def test_reverse_translation_idiom(idioms_store):
    assert idioms_store.reverse_translations("pleuvoir des cordes", "fr", "en") == [
        "rain cats and dogs"
    ]


def test_reverse_translation_universite(biblio_store):
    assert biblio_store.reverse_translations("université", "fr", "en") == [
        "school",
        "university",
    ]


def test_reverse_translation_absent_term(biblio_store):
    assert biblio_store.reverse_translations("zzz", "fr", "en") == []


@pytest.mark.parametrize("directory", [IDIOMS, BIBLIO])
def test_translations_match_brute_force_join(directory):
    store = ingest_tables(directory)
    raw = _read_raw(directory)
    codes = [code for _, code, _ in raw["language"]]
    headwords = [title for _, title in raw["page"]]
    for headword in headwords:
        for src in codes:
            for tgt in codes:
                assert store.translations(headword, src, tgt) == oracle_translations(
                    raw, headword, src, tgt
                ), (headword, src, tgt)


def test_reverse_is_exact_inverse(biblio_store):
    store = biblio_store
    codes = list(code for code in ("en", "fr"))
    headwords = store.columns["page", "page_title"]
    terms = store.columns["wiki_text", "text"]
    for entry_lang in codes:
        for term_lang in codes:
            for h in headwords:
                for t in store.translations(h, entry_lang, term_lang):
                    assert h in store.reverse_translations(t, term_lang, entry_lang)
            for t in terms:
                for h in store.reverse_translations(t, term_lang, entry_lang):
                    assert t in store.translations(h, entry_lang, term_lang)


def test_ingest_deterministic():
    first = ingest_tables(IDIOMS)
    second = ingest_tables(IDIOMS)
    assert first.stats() == second.stats()
    assert first.translations("rain cats and dogs", "en", "fr") == second.translations(
        "rain cats and dogs", "en", "fr"
    )


def test_integrity_verified_after_ingest(biblio_store):
    biblio_store.verify_integrity()


def test_integrity_catches_doctored_store(idioms_store):
    records = {name: list(map(list, idioms_store.rows(name))) for name in TABLE_NAMES}
    records["lang_pos"] = [[1, 999, 1]]
    broken = store_of(records)
    with pytest.raises(IngestError, match="unknown page_id 999"):
        broken.verify_integrity()


@pytest.mark.parametrize(
    "records, message",
    [
        ({"language": [[1, "en", "English"], [3, "", "x"], [2, "", "y"]]}, "language 3: empty lang_code"),
        ({"language": [[1, "en", "English"], [3, "en", "x"]]}, "language 3: duplicate code 'en'"),
        ({"page": [[1, "cat"], [3, ""], [2, ""]]}, "page 3: empty page_title"),
        ({"wiki_text": [[1, "chat"], [3, ""], [2, ""]]}, "wiki_text 3: empty text"),
    ],
)
def test_each_text_check_names_the_first_faulty_row(records, message):
    with pytest.raises(IngestError, match=re.escape(message) + "$"):
        store_of(records).verify_integrity()


@st.composite
def small_stores(draw):
    """Records of 0-4 rows per table: unique keys in shuffled order, other
    int cells (all of them references) from 1-5, text cells from "", "a", "b"."""
    records = {}
    for name, schema in SCHEMA.items():
        keys = draw(st.permutations(range(1, 6)))[: draw(st.integers(0, 4))]
        cells = [st.integers(1, 5) if t is int else st.sampled_from(["", "a", "b"]) for _, t, _ in schema[1:]]
        records[name] = [[key] + [draw(cell) for cell in cells] for key in keys]
    return records


def _fault(check, store):
    try:
        check(store)
    except IngestError as exc:
        return str(exc)
    return None


def _variants(records):
    """The records as drawn, and then, since few drawn stores get past the
    first checks, stores that do: each text cell becomes its row's key in
    decimal, and then, table by table, each reference v becomes the
    (v mod n)-th of its target's n keys (a row whose target is empty is
    dropped). A store is yielded before each table's references are
    resolved, and one after the last."""
    yield records
    resolved = {
        name: [[row[0]] + [str(row[0]) if type(c) is str else c for c in row[1:]] for row in rows]
        for name, rows in records.items()
    }
    for name, schema in SCHEMA.items():
        keys = {t: [row[0] for row in resolved[t]] for _, _, t in schema if t}
        if keys:
            yield dict(resolved)
            resolved[name] = [
                [v if t is None else keys[t][v % len(keys[t])] for (_, _, t), v in zip(schema, row)]
                for row in resolved[name]
                if all(keys.values())
            ]
    yield resolved


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_stores())
def test_integrity_check_agrees_with_the_reference(records):
    for cells in _variants(records):
        store = store_of(cells)
        expected = _fault(reference_verify_integrity, store)
        assert _fault(dictstore.DictionaryStore.verify_integrity, store) == expected


def test_snapshot_round_trip(tmp_path, idioms_store):
    path = tmp_path / "store.json"
    save_snapshot(idioms_store, path)
    loaded = load_snapshot(path)
    assert loaded.stats() == idioms_store.stats()
    assert loaded.translations("rain cats and dogs", "en", "ru") == [
        "лить как из ведра"
    ]


# ids 9, 10 and 11 are in file order; their decimal strings sort 10, 11, 9
FILE_ORDER = {
    "language": [[9, "sv", "Swedish"], [10, "en", "English"]],
    "page": [[9, "ösregna"], [10, "rain"]],
    "lang_pos": [[9, 9, 9], [10, 10, 10], [11, 9, 9]],
    "meaning": [[9, 9], [10, 10]],
    "translation": [[9, 9, 9], [10, 10, 10]],
    "translation_entry": [[9, 9, 10, 10], [10, 10, 9, 9]],
    "wiki_text": [[9, "ösregna"], [10, "rain"]],
}


def _snapshot_text(payload):
    return json.dumps(payload, ensure_ascii=False, sort_keys=True)


def test_a_load_keeps_file_order(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(_snapshot_text(FILE_ORDER), "utf-8")
    store = load_snapshot(path)
    save_snapshot(store, tmp_path / "out.json")
    assert (tmp_path / "out.json").read_bytes() == path.read_bytes()
    assert list(store.stats().entries_by_language.items()) == [("sv", 2), ("en", 1)]
    for name in TABLE_NAMES:
        assert list(store.position[name]) == [row[0] for row in FILE_ORDER[name]], name
    assert list(store.index["lang_pos", "page_id"].items()) == [(9, [9, 11]), (10, [10])]
    assert list(store.index["lang_pos", "lang_id"].items()) == [(9, [9, 11]), (10, [10])]
    assert store.translations("rain", "en", "sv") == ["ösregna"]
    assert store.reverse_translations("rain", "en", "sv") == ["ösregna"]


def test_the_view_sorts_subjects_the_store_keeps_in_file_order(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(_snapshot_text(FILE_ORDER), "utf-8")
    store = load_snapshot(path)
    assert store.index["lang_pos", "page_id"][9] == [9, 11]  # file order, not byte order
    view = to_triples(store)
    page_id = Iri(WIKPA_BASE + "lang_pos_page_id")

    def subjects(*ids):
        return [WIKPA_BASE + f"lang_pos/{i}" for i in ids]

    assert [t.subject.value for t in view.lookup(None, page_id, Literal("9"))] == subjects(11, 9)
    assert [t.subject.value for t in view.lookup(None, page_id, None)] == subjects(10, 11, 9)
    assert view.count(None, page_id, Literal("9")) == 2
    assert view.count(None, page_id, None) == 3


@pytest.mark.parametrize("source", ["snapshot", "tables"])
def test_the_first_dangling_reference_in_the_file_is_named(tmp_path, source):
    payload = dict(FILE_ORDER, translation_entry=[[9, 9, 10, 99], [10, 10, 9, 98]])
    if source == "snapshot":
        path = tmp_path / "store.json"
        path.write_text(_snapshot_text(payload), "utf-8")
        with pytest.raises(IngestError, match="translation_entry 9: unknown wiki_text_id 99$"):
            load_snapshot(path)
    else:
        with pytest.raises(IngestError, match="translation_entry 9: unknown wiki_text_id 99$"):
            ingest_tables(_write_tables(tmp_path, payload))


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("malformed", [False, True], ids=["good", "malformed"])
@pytest.mark.parametrize("source", ["snapshot", "tables"])
def test_a_load_leaves_the_collector_as_it_found_it(
    tmp_path, monkeypatch, idioms_store, source, malformed, enabled
):
    if source == "snapshot":
        path = tmp_path / "store.json"
        save_snapshot(idioms_store, path)
        if malformed:
            path.write_text(path.read_text("utf-8").replace('"English"', "7"), "utf-8")
        load = load_snapshot
    else:
        path = _write_tables(tmp_path, {"page": [(1, "ok"), (2,)] if malformed else [(1, "ok")]})
        load = ingest_tables
    parse_rows = dictstore.parse_rows
    collecting = []  # the collector's state while each table is built

    def watched(*args, **kwargs):
        collecting.append(gc.isenabled())
        return parse_rows(*args, **kwargs)

    monkeypatch.setattr(dictstore, "parse_rows", watched)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if malformed:
            with pytest.raises(IngestError):
                load(path)
        else:
            load(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert collecting and not any(collecting)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["page"].append([2]), "page row 2: expected 2 columns, got 1"),
        (lambda p: p["page"].append("2 dog"), "page row 2: expected 2 columns, got '2 dog'"),
        (lambda p: p["page"].append([True, "dog"]), "page row 2: page_id is not an integer: True"),
        (lambda p: p["page"].append(["2", "dog"]), "page row 2: page_id is not an integer: '2'"),
        (lambda p: p["page"].append([2, None]), "page row 2: page_title is not a string: None"),
        (lambda p: p.pop("meaning"), "table 'meaning' is not a list"),
        (lambda p: p.update(language={}), "table 'language' is not a list"),
    ],
)
def test_malformed_snapshot_is_ingest_error(tmp_path, idioms_store, edit, message):
    path = tmp_path / "store.json"
    save_snapshot(idioms_store, path)
    payload = json.loads(path.read_text("utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), "utf-8")
    with pytest.raises(IngestError, match=re.escape(message)):
        load_snapshot(path)


def test_snapshot_that_is_not_an_object_is_ingest_error(tmp_path):
    path = tmp_path / "store.json"
    path.write_text("[]", "utf-8")
    with pytest.raises(IngestError, match="not a JSON object"):
        load_snapshot(path)
