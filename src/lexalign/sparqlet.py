"""Parser and evaluator for a small SPARQL subset.

Grammar (whitespace and newline insensitive):

    query  := "SELECT" var+ "WHERE" "{" group ("." group)* "."? "}" ("LIMIT" INT)?
    group  := subject pv (";" pv)*
    pv     := predicate object
    subject, object := var | prefixedName | literal   (subject never literal)
    predicate       := var | prefixedName
    var    := "?" NAME
    prefixedName := NAME ":" NAME
    literal := '"' chars '"'

A prefixed name is resolved to a full IRI when it is parsed, against
triplemap.DEFAULT_PREFIXES (wikpa), so evaluation sees only IRIs,
literals and variables. Predicate-object lists introduced by ";" are
expanded into full triple patterns sharing the group subject.
Evaluation is a natural join over shared variables. The graph lists
each triple at most once, and a solution fixes every term of every
pattern, so it matches exactly one tuple of triples, and no two
solutions are equal.
Projected rows are a bag. They are sorted lexicographically by cell
before LIMIT is applied, so results are deterministic.

Patterns are joined in a greedy order (plan_order): each step takes the
pattern with the most terms bound by constants or by the patterns
already joined, so a query whose patterns connect costs lookups in
proportion to its bindings, not to the size of the tables. evaluate()
takes an optional monotonic deadline and raises QueryTimeout once it
has passed.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Optional

from .errors import LexalignError
from .triplemap import DEFAULT_PREFIXES, Iri, Literal, TableGraph, Term, Variable, render


class QueryParseError(LexalignError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class QueryTimeout(LexalignError):
    """Evaluation passed the deadline it was given."""


@dataclass(frozen=True)
class TriplePattern:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self) -> None:
        if isinstance(self.predicate, Literal):
            raise LexalignError("triple pattern predicate must not be a literal")
        if isinstance(self.subject, Literal):
            raise LexalignError("triple pattern subject must not be a literal")


@dataclass(frozen=True)
class Query:
    select_vars: tuple[Variable, ...]
    patterns: tuple[TriplePattern, ...]
    limit: Optional[int] = None


@dataclass
class ResultTable:
    header: list[str]
    rows: list[tuple[str, ...]] = field(default_factory=list)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<pname>[A-Za-z_][A-Za-z0-9_]*:[A-Za-z_][A-Za-z0-9_]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<literal>"[^"]*")
  | (?P<punct>[{};.])
  | (?P<bad>.)
""",
    re.VERBOSE | re.DOTALL,
)

# a token: (kind, text, offset of its first character)
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    """The tokens of `text` without whitespace, ending with an "eof"
    token at the end of the text."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise _parse_error(f"unexpected character {m.group()!r}", text, m.start())
        if kind != "ws":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _parse_error(message: str, text: str, offset: int) -> QueryParseError:
    """The error for `offset` in `text`, with its 1-based line and column."""
    line = text.count("\n", 0, offset) + 1
    return QueryParseError(message, line, offset - text.rfind("\n", 0, offset))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None) -> None:
        raise _parse_error(message, self.text, (tok or self.peek())[2])

    def expect_keyword(self, word: str) -> None:
        tok = self.next()
        if tok[0] != "name" or tok[1].upper() != word:
            self.fail(f"expected {word}", tok)

    def expect_punct(self, char: str) -> None:
        tok = self.next()
        if tok[0] != "punct" or tok[1] != char:
            self.fail(f"expected {char!r}", tok)

    def at_keyword(self, word: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "name" and text.upper() == word

    def at_punct(self, char: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "punct" and text == char

    def parse_term(self, *, allow_literal: bool) -> Term:
        tok = self.next()
        kind, text, _ = tok
        if kind == "var":
            return Variable(text[1:])
        if kind == "pname":
            prefix, local = text.split(":", 1)
            if prefix not in DEFAULT_PREFIXES:
                self.fail(f"unknown prefix: {prefix!r}", tok)
            return Iri(DEFAULT_PREFIXES[prefix] + local)
        if kind == "literal":
            if not allow_literal:
                self.fail("literal not allowed here", tok)
            return Literal(text[1:-1])
        self.fail("expected variable, prefixed name or literal", tok)
        raise AssertionError("unreachable")

    def parse_group(self) -> list[TriplePattern]:
        subject = self.parse_term(allow_literal=False)
        patterns = []
        while True:
            predicate = self.parse_term(allow_literal=False)
            obj = self.parse_term(allow_literal=True)
            patterns.append(TriplePattern(subject, predicate, obj))
            if self.at_punct(";"):
                self.next()
                continue
            break
        return patterns

    def parse_query(self) -> Query:
        self.expect_keyword("SELECT")
        select_vars = []
        while self.peek()[0] == "var":
            select_vars.append(Variable(self.next()[1][1:]))
        if not select_vars:
            self.fail("SELECT needs at least one variable")
        self.expect_keyword("WHERE")
        self.expect_punct("{")
        patterns: list[TriplePattern] = []
        while not self.at_punct("}"):
            if self.peek()[0] == "eof":
                self.fail("unterminated WHERE block")
            patterns.extend(self.parse_group())
            if self.at_punct("."):
                self.next()
            elif not self.at_punct("}"):
                self.fail("expected '.' or '}' after group")
        self.expect_punct("}")
        limit = None
        if self.at_keyword("LIMIT"):
            self.next()
            tok = self.next()
            if tok[0] != "int":
                self.fail("expected integer after LIMIT", tok)
            try:
                limit = int(tok[1])
            except ValueError:  # more digits than int() converts
                self.fail("LIMIT has too many digits", tok)
            if limit <= 0:
                self.fail("LIMIT must be positive", tok)
        if self.peek()[0] != "eof":
            self.fail("trailing input after query")
        used = {
            term.name
            for p in patterns
            for term in (p.subject, p.predicate, p.object)
            if isinstance(term, Variable)
        }
        for var in select_vars:
            if var.name not in used:
                self.fail(f"select variable ?{var.name} not used in WHERE")
        return Query(tuple(select_vars), tuple(patterns), limit)


def parse_query(text: str) -> Query:
    """Parse `text`; prefixed names are resolved to full IRIs against the
    wikpa binding. Errors carry line and column."""
    return _Parser(text).parse_query()


def plan_order(query: Query, store: TableGraph | None = None) -> list[TriplePattern]:
    """The patterns in the order evaluate() joins them, chosen greedily.

    Each step takes the remaining pattern with the most bound terms,
    where a term is bound if it is a constant or a variable that an
    earlier pattern binds. Ties go to the pattern expected to match
    least, estimated without building triples: a bound subject first (at
    most one triple), then an object bound through a join (one index
    probe), then the fewest matches over the pattern's constants alone
    (`store.count`, when a store is given), then the smallest share of
    its predicate's triples, so that of two patterns naming one row each
    the one in the larger table, whose joins fan out less, starts the
    plan. The query's own order breaks what is left, so the plan is
    deterministic. Any order evaluates to the same result; this follows
    Stocker et al., "SPARQL basic graph pattern optimization using
    selectivity estimation", WWW 2008.

    Cost: each pattern's bound-term count and tier are updated when one
    of its variables is first bound, which is linear in the number of
    variable occurrences; each step then takes the least stored key
    over the remaining patterns. `store.count` is called only to break
    ties between tier-2 patterns, at most twice per pattern.
    """
    patterns = query.patterns
    # per pattern [-bound terms, tier]: tier 0 once its subject is bound,
    # 1 once its object is a bound variable, else 2; updated through the
    # occurrences of each variable when it is first bound
    keys = []
    occurrences: dict[str, list[tuple[int, int]]] = {}
    for idx, p in enumerate(patterns):
        constants = 0
        for position, term in enumerate(_terms(p)):
            if isinstance(term, Variable):
                occurrences.setdefault(term.name, []).append((idx, position))
            else:
                constants += 1
        keys.append([-constants, 2 if isinstance(p.subject, Variable) else 0])
    matches: dict[int, tuple[int, float]] = {}

    def estimate(idx: int) -> tuple[int, float]:
        # matches over the pattern's constants and their share of its
        # predicate's triples; asked only of tied tier-2 patterns
        if idx not in matches:
            _, pred, o = (None if isinstance(t, Variable) else t for t in _terms(patterns[idx]))
            found = store.count(None, pred, o)
            matches[idx] = (found, found / max(store.count(None, pred, None), 1))
        return matches[idx]

    remaining = list(range(len(patterns)))
    plan = []
    while remaining:
        best = min(keys[idx] for idx in remaining)
        tied = [idx for idx in remaining if keys[idx] == best]
        pick = tied[0]
        if len(tied) > 1 and best[1] == 2 and store is not None:
            pick = min(tied, key=lambda idx: (*estimate(idx), idx))
        remaining.remove(pick)
        plan.append(patterns[pick])
        for term in _terms(patterns[pick]):
            if isinstance(term, Variable):
                for idx, position in occurrences.pop(term.name, ()):
                    key = keys[idx]
                    key[0] -= 1
                    if position == 0:
                        key[1] = 0
                    elif position == 2:
                        key[1] = min(key[1], 1)
    return plan


def _terms(pattern: TriplePattern) -> tuple[Term, Term, Term]:
    return (pattern.subject, pattern.predicate, pattern.object)


def _match_pattern(
    pattern: TriplePattern, binding: dict[str, Term], store: TableGraph
) -> list[dict[str, Term]]:
    terms = _terms(pattern)
    s, p, o = (binding.get(t.name) if isinstance(t, Variable) else t for t in terms)
    extensions = []
    for triple in store.lookup(s, p, o):
        ext = dict(binding)
        for term, value in zip(terms, triple):
            if isinstance(term, Variable) and ext.setdefault(term.name, value) != value:
                break
        else:
            extensions.append(ext)
    return extensions


def evaluate(query: Query, store: TableGraph, deadline: float | None = None) -> ResultTable:
    """Solve the conjunctive pattern, project, sort rows, apply LIMIT.

    With a `deadline` (a `time.monotonic()` value), raise QueryTimeout
    once it has passed; it is checked before each binding is extended,
    so a query that multiplies bindings stops before it fills memory,
    and before each row is rendered.
    """
    solutions: list[dict[str, Term]] = [{}]
    for pattern in plan_order(query, store):
        next_solutions: list[dict[str, Term]] = []
        for binding in solutions:
            _check_deadline(deadline)
            next_solutions.extend(_match_pattern(pattern, binding, store))
        solutions = next_solutions
        if not solutions:
            break

    rows = []
    for sol in solutions:
        _check_deadline(deadline)
        rows.append(tuple(render(sol[v.name]) for v in query.select_vars))
    rows.sort()
    if query.limit is not None:
        rows = rows[: query.limit]
    return ResultTable(header=[v.name for v in query.select_vars], rows=rows)


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise QueryTimeout("query evaluation passed its deadline")
