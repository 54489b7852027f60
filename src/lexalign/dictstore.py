"""In-memory relational model of the machine-readable dictionary.

Seven linked tables (language, page, lang_pos, meaning, translation,
translation_entry, wiki_text) are ingested from headerless TSV files and
queried for translations in either direction. The store is immutable
after ingest; concurrent readers are safe.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from pathlib import Path

from .errors import LexalignError


class DictionaryError(LexalignError):
    pass


class IngestError(DictionaryError):
    """Raised on missing files, malformed lines or dangling references."""


class UnknownLanguageError(DictionaryError):
    """Raised when a lookup names a language code the store does not hold."""

    def __init__(self, code: str):
        super().__init__(f"unknown language code: {code!r}")
        self.code = code


@dataclass(frozen=True)
class LanguageRow:
    lang_id: int
    lang_code: str
    lang_name: str


@dataclass(frozen=True)
class PageRow:
    page_id: int
    page_title: str


@dataclass(frozen=True)
class LangPosRow:
    lang_pos_id: int
    page_id: int
    lang_id: int


@dataclass(frozen=True)
class MeaningRow:
    meaning_id: int
    lang_pos_id: int


@dataclass(frozen=True)
class TranslationRow:
    translation_id: int
    lang_pos_id: int
    meaning_id: int


@dataclass(frozen=True)
class TranslationEntryRow:
    translation_entry_id: int
    translation_id: int
    lang_id: int
    wiki_text_id: int


@dataclass(frozen=True)
class WikiTextRow:
    wiki_text_id: int
    text: str


# table name -> (row type, DictionaryStore field); the row type's fields
# are the table's columns in file order, the first one its key
TABLES: dict[str, tuple[type, str]] = {
    "language": (LanguageRow, "languages"),
    "page": (PageRow, "pages"),
    "lang_pos": (LangPosRow, "lang_pos"),
    "meaning": (MeaningRow, "meanings"),
    "translation": (TranslationRow, "translation_rows"),
    "translation_entry": (TranslationEntryRow, "translation_entries"),
    "wiki_text": (WikiTextRow, "wiki_texts"),
}
TABLE_NAMES = tuple(TABLES)


@dataclass(frozen=True)
class StoreStats:
    entry_count: int
    entries_by_language: dict[str, int]
    translation_entry_count: int
    translation_pairs: dict[tuple[str, str], int]


@dataclass
class DictionaryStore:
    """The seven row tables keyed by primary id, and their indexes.

    `ids[table]` lists a table's row ids, and `index[table, column]` maps
    each value of a non-key column, as the rows hold it (int or str), to
    the ids of the rows holding it. Every id list is in ascending
    decimal-string order, the byte order of the RDF view's subjects.
    """

    languages: dict[int, LanguageRow] = field(default_factory=dict)
    pages: dict[int, PageRow] = field(default_factory=dict)
    lang_pos: dict[int, LangPosRow] = field(default_factory=dict)
    meanings: dict[int, MeaningRow] = field(default_factory=dict)
    translation_rows: dict[int, TranslationRow] = field(default_factory=dict)
    translation_entries: dict[int, TranslationEntryRow] = field(default_factory=dict)
    wiki_texts: dict[int, WikiTextRow] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.ids: dict[str, list[int]] = {}
        self.index: dict[tuple[str, str], dict[int | str, list[int]]] = {}
        for name, rows in self.tables().items():
            ids = self.ids[name] = sorted(rows, key=str)
            ordered = [rows[i] for i in ids]
            for f in fields(TABLES[name][0])[1:]:
                index = self.index[name, f.name] = {}
                for row_id, value in zip(ids, map(attrgetter(f.name), ordered)):
                    index.setdefault(value, []).append(row_id)
        # held directly, since a read through `index` hashes its tuple key
        self._lang_ids_of_code = self.index["language", "lang_code"]
        self._page_ids_of_title = self.index["page", "page_title"]
        self._lang_pos_ids_of_page = self.index["lang_pos", "page_id"]
        self._translation_ids_of_lang_pos = self.index["translation", "lang_pos_id"]
        self._entry_ids_of_translation = self.index["translation_entry", "translation_id"]
        self._text_ids_of_text = self.index["wiki_text", "text"]
        self._entry_ids_of_text = self.index["translation_entry", "wiki_text_id"]

    @classmethod
    def from_tables(cls, tables: dict[str, dict[int, object]]) -> DictionaryStore:
        """A store over the row tables named as in TABLES."""
        return cls(**{attr: tables[name] for name, (_, attr) in TABLES.items()})

    def tables(self) -> dict[str, dict[int, object]]:
        """The row tables by table name, in TABLES order."""
        return {name: getattr(self, attr) for name, (_, attr) in TABLES.items()}

    def language_by_code(self, code: str) -> LanguageRow:
        return self.languages[self._lang_id(code)]

    def _lang_id(self, code: str) -> int:
        try:
            return self._lang_ids_of_code[code][0]
        except KeyError:
            raise UnknownLanguageError(code) from None

    def translations(self, headword: str, src_lang: str, tgt_lang: str) -> list[str]:
        """All target-language terms listed under `headword` in `src_lang`.

        Deduplicated and sorted by UTF-8 byte order. Unknown language
        codes raise; an absent headword yields an empty list.
        """
        src = self._lang_id(src_lang)
        tgt = self._lang_id(tgt_lang)
        terms: set[str] = set()
        for page_id in self._page_ids_of_title.get(headword, ()):
            for lp_id in self._lang_pos_ids_of_page.get(page_id, ()):
                if self.lang_pos[lp_id].lang_id != src:
                    continue
                for tr_id in self._translation_ids_of_lang_pos.get(lp_id, ()):
                    for entry_id in self._entry_ids_of_translation.get(tr_id, ()):
                        entry = self.translation_entries[entry_id]
                        if entry.lang_id == tgt:
                            terms.add(self.wiki_texts[entry.wiki_text_id].text)
        return sorted(terms)

    def reverse_translations(self, term: str, term_lang: str, entry_lang: str) -> list[str]:
        """All `entry_lang` headwords listing `term` as a `term_lang` translation.

        The exact inverse of translations(): h is returned iff term is in
        translations(h, entry_lang, term_lang).
        """
        tlang = self._lang_id(term_lang)
        elang = self._lang_id(entry_lang)
        headwords: set[str] = set()
        for text_id in self._text_ids_of_text.get(term, ()):
            for entry_id in self._entry_ids_of_text.get(text_id, ()):
                entry = self.translation_entries[entry_id]
                if entry.lang_id != tlang:
                    continue
                translation = self.translation_rows[entry.translation_id]
                lp = self.lang_pos[translation.lang_pos_id]
                if lp.lang_id != elang:
                    continue
                headwords.add(self.pages[lp.page_id].page_title)
        return sorted(headwords)

    def stats(self) -> StoreStats:
        entries_by_language: dict[str, int] = defaultdict(int)
        for lp in self.lang_pos.values():
            entries_by_language[self.languages[lp.lang_id].lang_code] += 1
        pairs: dict[tuple[str, str], int] = defaultdict(int)
        for entry in self.translation_entries.values():
            translation = self.translation_rows[entry.translation_id]
            src_lang = self.languages[self.lang_pos[translation.lang_pos_id].lang_id]
            tgt_lang = self.languages[entry.lang_id]
            pairs[(src_lang.lang_code, tgt_lang.lang_code)] += 1
        return StoreStats(
            entry_count=len(self.lang_pos),
            entries_by_language=dict(entries_by_language),
            translation_entry_count=len(self.translation_entries),
            translation_pairs=dict(pairs),
        )

    def verify_integrity(self) -> None:
        """Full-scan referential integrity check; raises IngestError on the
        first violation."""
        codes: set[str] = set()
        for lang in self.languages.values():
            if not lang.lang_code:
                raise IngestError(f"language {lang.lang_id}: empty lang_code")
            if lang.lang_code in codes:
                raise IngestError(f"language {lang.lang_id}: duplicate code {lang.lang_code!r}")
            codes.add(lang.lang_code)
        for page in self.pages.values():
            if not page.page_title:
                raise IngestError(f"page {page.page_id}: empty page_title")
        for wt in self.wiki_texts.values():
            if not wt.text:
                raise IngestError(f"wiki_text {wt.wiki_text_id}: empty text")
        for lp in self.lang_pos.values():
            if lp.page_id not in self.pages:
                raise IngestError(f"lang_pos {lp.lang_pos_id}: unknown page_id {lp.page_id}")
            if lp.lang_id not in self.languages:
                raise IngestError(f"lang_pos {lp.lang_pos_id}: unknown lang_id {lp.lang_id}")
        for meaning in self.meanings.values():
            if meaning.lang_pos_id not in self.lang_pos:
                raise IngestError(
                    f"meaning {meaning.meaning_id}: unknown lang_pos_id {meaning.lang_pos_id}"
                )
        for tr in self.translation_rows.values():
            if tr.lang_pos_id not in self.lang_pos:
                raise IngestError(
                    f"translation {tr.translation_id}: unknown lang_pos_id {tr.lang_pos_id}"
                )
            meaning = self.meanings.get(tr.meaning_id)
            if meaning is None:
                raise IngestError(
                    f"translation {tr.translation_id}: unknown meaning_id {tr.meaning_id}"
                )
            if meaning.lang_pos_id != tr.lang_pos_id:
                raise IngestError(
                    f"translation {tr.translation_id}: meaning {tr.meaning_id} belongs to "
                    f"lang_pos {meaning.lang_pos_id}, not {tr.lang_pos_id}"
                )
        for entry in self.translation_entries.values():
            eid = entry.translation_entry_id
            if entry.translation_id not in self.translation_rows:
                raise IngestError(
                    f"translation_entry {eid}: unknown translation_id {entry.translation_id}"
                )
            if entry.lang_id not in self.languages:
                raise IngestError(f"translation_entry {eid}: unknown lang_id {entry.lang_id}")
            if entry.wiki_text_id not in self.wiki_texts:
                raise IngestError(
                    f"translation_entry {eid}: unknown wiki_text_id {entry.wiki_text_id}"
                )


def parse_rows(name: str, records: list, where: str, *, text: bool = True) -> dict[int, object]:
    """Build table `name` from its records (lists of cells), keyed by id.

    Every source gets the same checks: the column count, each cell's
    type (int or str, as the row type declares) and unique ids; a
    failure raises IngestError naming record i as `where` + i, from 1.
    With `text`, cells are strings, as the TSV files hold them, and
    integer columns are parsed first.
    """
    row_type = TABLES[name][0]
    field_list = fields(row_type)
    types = [int if f.type == "int" else str for f in field_list]
    if text:
        records = [_parse_ints(cells, types) for cells in records]
    # checked a column at a time, which keeps a snapshot load fast; exact
    # types, since a JSON true is a Python int
    if (
        set(map(type, records)) - {list}
        or set(map(len, records)) - {len(types)}
        or any(set(map(type, map(itemgetter(j), records))) - {t} for j, t in enumerate(types))
    ):
        for i, cells in enumerate(records, start=1):
            if fault := _row_fault(field_list, types, cells):
                raise IngestError(f"{where}{i}: {fault}")
    rows = {cells[0]: row_type(*cells) for cells in records}
    if len(rows) != len(records):
        seen = set()
        for i, cells in enumerate(records, start=1):
            if cells[0] in seen:
                raise IngestError(f"{where}{i}: duplicate {field_list[0].name} {cells[0]}")
            seen.add(cells[0])
    return rows


def _parse_ints(cells: list[str], types: list[type]) -> list:
    """Text cells with each integer column parsed; a cell that is no
    integer, or a row of the wrong length, is left for the checks."""
    if len(cells) != len(types):
        return cells
    return [_parse_int(v) if t is int else v for v, t in zip(cells, types)]


def _parse_int(value: str) -> int | str:
    try:
        return int(value)
    except ValueError:
        return value


def _row_fault(field_list, types: list[type], cells: object) -> str | None:
    if type(cells) is not list or len(cells) != len(types):
        got = len(cells) if type(cells) is list else repr(cells)
        return f"expected {len(types)} columns, got {got}"
    for f, t, value in zip(field_list, types, cells):
        if type(value) is not t:
            return f"{f.name} is not {'an integer' if t is int else 'a string'}: {value!r}"
    return None


def _tsv_records(path: Path) -> list[list[str]]:
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    raise IngestError(f"{path.name}:{line_no}: blank line")
                records.append(line.split("\t"))
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read table {path}: {exc}") from exc
    return records


def ingest_tables(directory: str | Path) -> DictionaryStore:
    """Load the seven TSV tables from `directory` and verify integrity.

    Missing files, malformed lines and dangling references raise
    IngestError naming the file and line.
    """
    directory = Path(directory)
    paths = {name: directory / f"{name}.tsv" for name in TABLE_NAMES}
    for path in paths.values():
        if not path.is_file():
            raise IngestError(f"missing table file: {path}")
    store = DictionaryStore.from_tables(
        {name: parse_rows(name, _tsv_records(path), f"{path.name}:") for name, path in paths.items()}
    )
    store.verify_integrity()
    return store


def save_snapshot(store: DictionaryStore, path: str | Path) -> None:
    """Serialize the store to a single JSON file (the CLI's store format)."""
    payload = {
        name: [[getattr(row, f.name) for f in fields(row)] for row in rows.values()]
        for name, rows in store.tables().items()
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True)


def load_snapshot(path: str | Path) -> DictionaryStore:
    """Load a save_snapshot file with the row checks of ingest_tables."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IngestError(f"cannot read store snapshot {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise IngestError(f"malformed store snapshot {path}: not a JSON object")
    tables = {}
    for name in TABLE_NAMES:
        rows = payload.get(name)
        if not isinstance(rows, list):
            raise IngestError(f"malformed store snapshot {path}: table {name!r} is not a list")
        tables[name] = parse_rows(name, rows, f"{path.name}: {name} row ", text=False)
    store = DictionaryStore.from_tables(tables)
    store.verify_integrity()
    return store


def open_store(path: str | Path) -> DictionaryStore:
    """Open either a TSV table directory or a JSON snapshot file."""
    path = Path(path)
    if path.is_dir():
        return ingest_tables(path)
    return load_snapshot(path)
