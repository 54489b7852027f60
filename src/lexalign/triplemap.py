"""The dictionary tables presented as a read-only RDF graph.

Each table row is one subject node `wikpa:<table>/<id>` with one triple
per column. Id columns map to integer-valued plain literals, text
columns to text literals. Neither triples nor indexes are stored here:
each lookup decodes the subject to a row, the predicate to a column and
a bound object to a cell value, and answers from the tables and the
store's column indexes (the "virtual RDF graph" of D2RQ, Bizer &
Seaborne, ISWC 2004).
Lookups take full IRIs; prefixed names are resolved when a query is
parsed (sparqlet.parse_query, against DEFAULT_PREFIXES).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

from .dictstore import SCHEMA, DictionaryStore, parse_id
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


class _Column:
    """One predicate: the store's cells of the column it reads, its table's
    id -> position map and, unless the column is the table's key, the
    store's index of the column, all in file order. A literal's text is
    read as the cell type, an int column's through parse_id; a key
    literal decodes to its row as a subject IRI does."""

    def __init__(self, store: DictionaryStore, table: str, column: str, cell_type: type):
        self.cells = store.columns[table, column]
        self.position = store.position[table]
        self.subject_prefix = f"{WIKPA_BASE}{table}/"
        self.values = store.index.get((table, column))  # None for the key, which is not indexed
        self.ints = cell_type is int

    def subject(self, row_id: int) -> Iri:
        return Iri(self.subject_prefix + str(row_id))

    def position_of(self, subject: Term) -> int | None:
        """The position of the row a subject IRI `wikpa:<table>/<id>` names
        in this table."""
        if not isinstance(subject, Iri) or not subject.value.startswith(self.subject_prefix):
            return None
        return self.position.get(parse_id(subject.value[len(self.subject_prefix) :]))

    def ids_with(self, text: str) -> Sequence[int]:
        """The ids of the rows whose cell reads `text`, in file order."""
        value = parse_id(text) if self.ints else text
        if self.values is not None:
            return self.values.get(value, ())
        return (value,) if value in self.position else ()


class TableGraph:
    """The dictionary tables seen as RDF, without copying them.

    Each row is the subject `wikpa:<table>/<id>` of one triple per
    column, whose object is the cell's text as a plain literal. Triples
    are computed from the store's columns on each lookup, and
    object-bound lookups read the store's own column indexes: the view
    keeps neither triples nor indexes. The store is not written after construction, so
    concurrent readers are safe.
    """

    def __init__(self, store: DictionaryStore):
        self._columns: dict[str, _Column] = {}  # predicate IRI -> column
        for table, schema in SCHEMA.items():
            for i, (column, cell_type, _) in enumerate(schema):
                # the paper's D2R names, such as wikpa:lang_code and wikpa:page_page_title
                name = column if i == 0 or table == "language" else f"{table}_{column}"
                self._columns[WIKPA_BASE + name] = _Column(store, table, column, cell_type)

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
        """lookup() with the predicate bound; sorted by subject alone, since
        one predicate gives each subject one object, and by each id's
        decimal string, since a column's subjects share their prefix."""
        column = self._column(p)
        if column is None or (o is not None and not isinstance(o, Literal)):
            return []
        if s is not None:
            at = column.position_of(s)
            if at is None:
                return []
            text = str(column.cells[at])
            if o is None:
                return [Triple(s, p, Literal(text))]
            return [Triple(s, p, o)] if text == o.text else []
        if o is not None:
            return [Triple(column.subject(i), p, o) for i in sorted(column.ids_with(o.text), key=str)]
        cells, position = column.cells, column.position
        ids = sorted(position, key=str)
        return [Triple(column.subject(i), p, Literal(str(cells[position[i]]))) for i in ids]

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
            return sum(len(c.position) for c in columns)
        return sum(len(c.ids_with(o.text)) for c in columns)


def to_triples(store: DictionaryStore) -> TableGraph:
    """The `wikpa:` RDF view of the store's tables."""
    return TableGraph(store)
