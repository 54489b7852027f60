"""In-memory relational model of the machine-readable dictionary.

Seven linked tables (language, page, lang_pos, meaning, translation,
translation_entry, wiki_text) are ingested from headerless TSV files and
queried for translations in either direction. Each table is held as
one tuple per column, in file order, not as row objects. The store is
immutable after ingest; concurrent readers are safe.
"""

from __future__ import annotations

import gc
import json
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import LexalignError, read_text


class DictionaryError(LexalignError):
    pass


class IngestError(DictionaryError):
    """Raised on missing files, malformed lines or dangling references."""


class UnknownLanguageError(DictionaryError):
    """Raised when a lookup names a language code the store does not hold."""

    def __init__(self, code: str):
        super().__init__(f"unknown language code: {code!r}")
        self.code = code


# table name -> its columns in file order, as (column, cell type, the
# table the column references or None); the first column is the table's key
SCHEMA: dict[str, tuple[tuple[str, type, str | None], ...]] = {
    "language": (("lang_id", int, None), ("lang_code", str, None), ("lang_name", str, None)),
    "page": (("page_id", int, None), ("page_title", str, None)),
    "lang_pos": (("lang_pos_id", int, None), ("page_id", int, "page"), ("lang_id", int, "language")),
    "meaning": (("meaning_id", int, None), ("lang_pos_id", int, "lang_pos")),
    "translation": (
        ("translation_id", int, None),
        ("lang_pos_id", int, "lang_pos"),
        ("meaning_id", int, "meaning"),
    ),
    "translation_entry": (
        ("translation_entry_id", int, None),
        ("translation_id", int, "translation"),
        ("lang_id", int, "language"),
        ("wiki_text_id", int, "wiki_text"),
    ),
    "wiki_text": (("wiki_text_id", int, None), ("text", str, None)),
}
TABLE_NAMES = tuple(SCHEMA)


@dataclass(frozen=True)
class StoreStats:
    entry_count: int
    entries_by_language: dict[str, int]
    translation_entry_count: int
    translation_pairs: dict[tuple[str, str], int]


class DictionaryStore:
    """The seven tables held as columns, and their indexes.

    `columns[table, column]` is a tuple of the column's cells in file
    order, and `position[table]` maps each row id to its place in them.
    `index[table, column]` maps each value of a non-key column (int or
    str) to the ids of the rows holding it, in file order.
    """

    def __init__(self, tables: dict[str, tuple[tuple, ...]] | None = None):
        """A store over checked tables, each as parse_rows returns it, by
        table name; a table not named is empty."""
        tables = tables or {}
        self.columns: dict[tuple[str, str], tuple] = {}
        self.position: dict[str, dict[int, int]] = {}
        self.index: dict[tuple[str, str], dict[int | str, list[int]]] = {}
        for name, schema in SCHEMA.items():
            columns = tables.get(name) or ((),) * len(schema)
            for (column, _, _), cells in zip(schema, columns, strict=True):
                self.columns[name, column] = cells
            key = columns[0]
            self.position[name] = dict(zip(key, range(len(key))))
            for (column, _, _), cells in zip(schema[1:], columns[1:]):
                index = self.index[name, column] = {}
                for row_id, value in zip(key, cells):
                    index.setdefault(value, []).append(row_id)

    def rows(self, table: str) -> Iterator[tuple]:
        """The rows of `table` as tuples of cells, in file order."""
        return zip(*(self.columns[table, column] for column, _, _ in SCHEMA[table]))

    def _cell(self, table: str, column: str, row_id: int) -> int | str:
        return self.columns[table, column][self.position[table][row_id]]

    def _lang_id(self, code: str) -> int:
        try:
            return self.index["language", "lang_code"][code][0]
        except KeyError:
            raise UnknownLanguageError(code) from None

    def translations(self, headword: str, src_lang: str, tgt_lang: str) -> list[str]:
        """All target-language terms listed under `headword` in `src_lang`.

        Deduplicated and sorted by UTF-8 byte order. Unknown language
        codes raise; an absent headword yields an empty list.
        """
        src = self._lang_id(src_lang)
        tgt = self._lang_id(tgt_lang)
        index, cell = self.index, self._cell
        terms: set[str] = set()
        for page_id in index["page", "page_title"].get(headword, ()):
            for lp_id in index["lang_pos", "page_id"].get(page_id, ()):
                if cell("lang_pos", "lang_id", lp_id) != src:
                    continue
                for tr_id in index["translation", "lang_pos_id"].get(lp_id, ()):
                    for entry_id in index["translation_entry", "translation_id"].get(tr_id, ()):
                        if cell("translation_entry", "lang_id", entry_id) == tgt:
                            text_id = cell("translation_entry", "wiki_text_id", entry_id)
                            terms.add(cell("wiki_text", "text", text_id))
        return sorted(terms)

    def reverse_translations(self, term: str, term_lang: str, entry_lang: str) -> list[str]:
        """All `entry_lang` headwords listing `term` as a `term_lang` translation.

        The exact inverse of translations(): h is returned iff term is in
        translations(h, entry_lang, term_lang).
        """
        tlang = self._lang_id(term_lang)
        elang = self._lang_id(entry_lang)
        index, cell = self.index, self._cell
        headwords: set[str] = set()
        for text_id in index["wiki_text", "text"].get(term, ()):
            for entry_id in index["translation_entry", "wiki_text_id"].get(text_id, ()):
                if cell("translation_entry", "lang_id", entry_id) != tlang:
                    continue
                tr_id = cell("translation_entry", "translation_id", entry_id)
                lp_id = cell("translation", "lang_pos_id", tr_id)
                if cell("lang_pos", "lang_id", lp_id) != elang:
                    continue
                headwords.add(cell("page", "page_title", cell("lang_pos", "page_id", lp_id)))
        return sorted(headwords)

    def stats(self) -> StoreStats:
        cols = self.columns
        code = dict(zip(cols["language", "lang_id"], cols["language", "lang_code"])).__getitem__
        lp_lang = dict(zip(cols["lang_pos", "lang_pos_id"], cols["lang_pos", "lang_id"])).__getitem__
        tr_lp = dict(zip(cols["translation", "translation_id"], cols["translation", "lang_pos_id"])).__getitem__
        entries = cols["translation_entry", "translation_id"]
        sources = map(code, map(lp_lang, map(tr_lp, entries)))
        targets = map(code, cols["translation_entry", "lang_id"])
        return StoreStats(
            entry_count=len(self.position["lang_pos"]),
            entries_by_language=dict(Counter(map(code, cols["lang_pos", "lang_id"]))),
            translation_entry_count=len(entries),
            translation_pairs=dict(Counter(zip(sources, targets))),
        )

    def verify_integrity(self) -> None:
        """Full-scan integrity check; raises IngestError on the first
        violation, in file order within each table. SCHEMA's references
        are checked a column at a time, and a table's rows are scanned
        only to name the first fault of a table that has one."""
        codes: set[str] = set()
        for lang_id, lang_code, _ in self.rows("language"):
            if not lang_code:
                raise IngestError(f"language {lang_id}: empty lang_code")
            if lang_code in codes:
                raise IngestError(f"language {lang_id}: duplicate code {lang_code!r}")
            codes.add(lang_code)
        pos, index, cols = self.position, self.index, self.columns
        for table, column in (("page", "page_title"), ("wiki_text", "text")):
            empty = index[table, column].get("")  # the ids of the empty cells, in file order
            if empty:
                raise IngestError(f"{table} {empty[0]}: empty {column}")
        owner, at = cols["meaning", "lang_pos_id"], pos["meaning"]
        for table, schema in SCHEMA.items():
            if not all(index[table, c].keys() <= pos[t].keys() for c, _, t in schema if t) or (
                # each translation's meaning belongs to the translation's lang_pos
                table == "translation"
                and [owner[at[m]] for m in cols[table, "meaning_id"]] != list(cols[table, "lang_pos_id"])
            ):
                self._raise_first_faulty_row(table)

    def _raise_first_faulty_row(self, table: str) -> None:
        """Raise IngestError for the first row of `table` with a dangling
        reference or, in translation, another lang_pos's meaning."""
        schema, pos = SCHEMA[table], self.position
        for row in self.rows(table):
            for (column, _, target), value in zip(schema, row):
                if target and value not in pos[target]:
                    raise IngestError(f"{table} {row[0]}: unknown {column} {value}")
            if table == "translation":
                tr_id, lp_id, meaning_id = row
                owner = self._cell("meaning", "lang_pos_id", meaning_id)
                if owner != lp_id:
                    fault = f"meaning {meaning_id} belongs to lang_pos {owner}, not {lp_id}"
                    raise IngestError(f"translation {tr_id}: {fault}")


def parse_rows(name: str, records: list, where: str, *, text: bool = True) -> tuple[tuple, ...]:
    """Table `name` built from its records (lists of cells): one tuple of
    cells per column, in SCHEMA order, each in file order.

    Every source gets the same checks: the column count, each cell's
    type (int or str, as SCHEMA declares) and unique ids; a failure
    raises IngestError naming record i as `where` + i, from 1, for the
    first faulty record. With `text`, cells are strings, as the TSV files
    hold them, and integer columns are parsed first.
    """
    schema = SCHEMA[name]
    if text:
        records = [_parse_ints(cells, schema) for cells in records]
    # checked a column at a time, which keeps a snapshot load fast; exact
    # types, since a JSON true is a Python int
    if set(map(type, records)) - {list} or set(map(len, records)) - {len(schema)}:
        _raise_first_fault(schema, records, where)
    columns = tuple(zip(*records)) or ((),) * len(schema)
    if any(set(map(type, cells)) - {t} for (_, t, _), cells in zip(schema, columns)):
        _raise_first_fault(schema, records, where)
    key = columns[0]
    if len(set(key)) != len(key):
        seen = set()
        for i, row_id in enumerate(key, start=1):
            if row_id in seen:
                raise IngestError(f"{where}{i}: duplicate {schema[0][0]} {row_id}")
            seen.add(row_id)
    return columns


def _parse_ints(cells: list[str], schema: tuple[tuple[str, type, str | None], ...]) -> list:
    """Text cells with each integer column parsed; a cell that spells no
    id, or a row of the wrong length, is left for the checks."""
    if len(cells) != len(schema):
        return cells
    return [parse_id(v) if t is int else v for v, (_, t, _) in zip(cells, schema)]


def parse_id(text: str) -> int | str:
    """The id `text` spells, or `text` if it spells none: one spelling per
    id, so "05", "+5", " 5", "1_0" and "٥" spell none."""
    try:
        row_id = int(text)
    except ValueError:
        return text
    return row_id if str(row_id) == text else text


def _raise_first_fault(schema: tuple[tuple[str, type, str | None], ...], records: list, where: str) -> None:
    """Raise IngestError for the first record that is no list of
    len(schema) cells of the declared types."""
    for i, cells in enumerate(records, start=1):
        if type(cells) is not list or len(cells) != len(schema):
            got = len(cells) if type(cells) is list else repr(cells)
            raise IngestError(f"{where}{i}: expected {len(schema)} columns, got {got}")
        for (column, t, _), value in zip(schema, cells):
            if type(value) is not t:
                kind = "an integer" if t is int else "a string"
                raise IngestError(f"{where}{i}: {column} is not {kind}: {value!r}")


@contextmanager
def collector_paused() -> Iterator[None]:
    """Cyclic GC paused for a load, which makes containers by the hundred
    thousand and no cycles; the collector's prior state is restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _tsv_records(path: Path) -> list[list[str]]:
    lines = read_text(path, "table", IngestError).split("\n")
    if not lines[-1]:
        lines.pop()  # a final line end adds no line, and an empty file has none
    records = []
    for line_no, line in enumerate(lines, start=1):
        if not line:
            raise IngestError(f"{path.name}:{line_no}: blank line")
        records.append(line.split("\t"))
    return records


@collector_paused()
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
    store = DictionaryStore(
        {name: parse_rows(name, _tsv_records(path), f"{path.name}:") for name, path in paths.items()}
    )
    store.verify_integrity()
    return store


def save_snapshot(store: DictionaryStore, path: str | Path) -> None:
    """Serialize the store to a single JSON file (the CLI's store format)."""
    payload = {name: list(map(list, store.rows(name))) for name in TABLE_NAMES}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True)


@collector_paused()
def load_snapshot(path: str | Path) -> DictionaryStore:
    """Load a save_snapshot file with the row checks of ingest_tables."""
    path = Path(path)
    try:
        payload = json.loads(read_text(path, "store snapshot", IngestError))
    except (ValueError, RecursionError) as exc:  # bad JSON, an int past the digit limit, or too deep
        raise IngestError(f"cannot read store snapshot {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise IngestError(f"malformed store snapshot {path}: not a JSON object")
    tables = {}
    for name in TABLE_NAMES:
        if not isinstance(payload.get(name), list):
            raise IngestError(f"malformed store snapshot {path}: table {name!r} is not a list")
        # popped, so that a table's decoded records go once its columns are built
        tables[name] = parse_rows(name, payload.pop(name), f"{path.name}: {name} row ", text=False)
    store = DictionaryStore(tables)
    store.verify_integrity()
    return store


def open_store(path: str | Path) -> DictionaryStore:
    """Open either a TSV table directory or a JSON snapshot file."""
    path = Path(path)
    if path.is_dir():
        return ingest_tables(path)
    return load_snapshot(path)
