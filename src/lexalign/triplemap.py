"""The dictionary tables presented as a read-only RDF graph.

Each table row is one subject node `wikpa:<table>/<id>` with one triple
per column. Key columns map to integer-valued plain literals, text
columns to text literals. Triples are not stored: each lookup decodes
the subject to a row and the predicate to a column, and answers from the
tables (the "virtual RDF graph" of D2RQ, Bizer & Seaborne, ISWC 2004).
Lookups take full IRIs; prefixed names are resolved when a query is
parsed (sparqlet.parse_query, against DEFAULT_PREFIXES by default).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence, Union

from .dictstore import TABLES, DictionaryStore
from .errors import LexalignError

WIKPA_PREFIX = "wikpa"
WIKPA_BASE = "http://wikokit.example/wikt/"
DEFAULT_PREFIXES = {WIKPA_PREFIX: WIKPA_BASE}


class TripleMapError(LexalignError):
    pass


@dataclass(frozen=True)
class Iri:
    value: str


@dataclass(frozen=True)
class Literal:
    text: str


@dataclass(frozen=True)
class Variable:
    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise TripleMapError("variable name must be non-empty")


Term = Union[Iri, Literal, Variable]


def render(term: Term) -> str:
    """Stable text form of a term, used for result cells."""
    if isinstance(term, Iri):
        return term.value
    if isinstance(term, Literal):
        return term.text
    return f"?{term.name}"


class Triple(NamedTuple):
    subject: Iri
    predicate: Iri
    object: Literal


def _sort_key(triple: Triple) -> tuple[str, str, str]:
    return (triple.subject.value, triple.predicate.value, triple.object.text)


# column order mirrors the TSV files
TABLE_PREDICATES = {
    "language": ("lang_id", "lang_code", "lang_name"),
    "page": ("page_id", "page_page_title"),
    "lang_pos": ("lang_pos_id", "lang_pos_page_id", "lang_pos_lang_id"),
    "meaning": ("meaning_id", "meaning_lang_pos_id"),
    "translation": ("translation_id", "translation_lang_pos_id", "translation_meaning_id"),
    "translation_entry": (
        "translation_entry_id",
        "translation_entry_translation_id",
        "translation_entry_lang_id",
        "translation_entry_wiki_text_id",
    ),
    "wiki_text": ("wiki_text_id", "wiki_text_text"),
}


class _Column:
    """One predicate: the table it reads, the row field it reads, and,
    unless the field is the table's key, its value index (literal text ->
    row ids in subject byte order). A key literal decodes to its row as a
    subject IRI does."""

    def __init__(
        self, table: str, rows: dict[int, object], field_name: str, ids: list[int], key: bool
    ):
        self.rows = rows
        self.subject_prefix = f"{WIKPA_BASE}{table}/"
        self.cell = attrgetter(field_name)
        self.ids = ids
        self.values: dict[str, list[int]] | None = None
        if not key:
            self.values = {}
            for row_id in ids:
                self.values.setdefault(str(self.cell(rows[row_id])), []).append(row_id)

    def subject(self, row_id: int) -> Iri:
        return Iri(self.subject_prefix + str(row_id))

    def row(self, subject: Term) -> object | None:
        """The row a subject IRI `wikpa:<table>/<id>` names in this table."""
        if not isinstance(subject, Iri) or not subject.value.startswith(self.subject_prefix):
            return None
        row_id = _parse_id(subject.value[len(self.subject_prefix) :])
        return None if row_id is None else self.rows.get(row_id)

    def ids_with(self, text: str) -> Sequence[int]:
        """The ids of the rows whose cell reads `text`, in subject byte order."""
        if self.values is not None:
            return self.values.get(text, ())
        row_id = _parse_id(text)
        return (row_id,) if row_id in self.rows else ()


def _parse_id(text: str) -> int | None:
    """The id `text` spells; one spelling per id, so "01", "+1" and " 1" spell none."""
    try:
        row_id = int(text)
    except ValueError:
        return None
    return row_id if str(row_id) == text else None


class TableGraph:
    """The dictionary tables seen as RDF, without copying them.

    Each row is the subject `wikpa:<table>/<id>` of one triple per
    column, whose object is the cell's text as a plain literal. Triples
    are computed from the rows on each lookup; the only data kept beside
    the tables is one value index per non-key column, built here. Nothing is
    written after construction, so concurrent readers are safe.
    """

    def __init__(self, store: DictionaryStore):
        self._columns: dict[str, _Column] = {}  # predicate IRI -> column
        for table, rows in store.tables().items():
            ids = sorted(rows, key=str)  # subject byte order
            row_fields = fields(TABLES[table][0])  # the first is the key
            for pred_name, f in zip(TABLE_PREDICATES[table], row_fields, strict=True):
                column = _Column(table, rows, f.name, ids, key=f is row_fields[0])
                self._columns[WIKPA_BASE + pred_name] = column

    def __len__(self) -> int:
        return self.count()

    def _column(self, p: Term) -> _Column | None:
        return self._columns.get(p.value) if isinstance(p, Iri) else None

    def lookup(
        self,
        s: Optional[Term] = None,
        p: Optional[Term] = None,
        o: Optional[Term] = None,
    ) -> list[Triple]:
        """All triples matching the bound positions, byte-order sorted.

        Terms are matched as they are, so IRIs must be full; None leaves
        a position unbound. A term no triple can hold in its position
        matches nothing.
        """
        if p is None:
            found = [t for pred in self._columns for t in self._match(s, Iri(pred), o)]
            return sorted(found, key=_sort_key)
        return self._match(s, p, o)

    def _match(self, s: Term | None, p: Term, o: Term | None) -> list[Triple]:
        """lookup() with the predicate bound; already in byte order, since
        one predicate gives each subject one object."""
        column = self._column(p)
        if column is None or (o is not None and not isinstance(o, Literal)):
            return []
        if s is not None:
            row = column.row(s)
            if row is None:
                return []
            text = str(column.cell(row))
            if o is None:
                return [Triple(s, p, Literal(text))]
            return [Triple(s, p, o)] if text == o.text else []
        if o is not None:
            return [Triple(column.subject(i), p, o) for i in column.ids_with(o.text)]
        rows, cell = column.rows, column.cell
        return [Triple(column.subject(i), p, Literal(str(cell(rows[i])))) for i in column.ids]

    def count(self, s: Optional[Term] = None, p: Optional[Term] = None, o: Optional[Term] = None) -> int:
        """len(lookup(s, p, o)); from index and table sizes, building no
        triples, when the subject is unbound."""
        if s is not None:
            return len(self.lookup(s, p, o))
        if o is not None and not isinstance(o, Literal):
            return 0
        if p is None:
            columns = self._columns.values()
        else:
            column = self._column(p)
            columns = [column] if column is not None else []
        if o is None:
            return sum(len(c.ids) for c in columns)
        return sum(len(c.ids_with(o.text)) for c in columns)


def to_triples(store: DictionaryStore) -> TableGraph:
    """The `wikpa:` RDF view of the store's tables."""
    return TableGraph(store)
