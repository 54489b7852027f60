"""Label tokenization and translation through a pluggable translator.

Ontology labels are frequently concatenated ("dateDePublication",
"Extrait-Compilation"); tokenize() splits them at lower-to-upper case
boundaries, hyphens, underscores and spaces. translate_label() returns
a label's matching keys: the translations of the whole label, of its
lowercased form (dictionary headwords are lowercase lemmas) and of each
token. Candidates from different tokens are never recombined into new
compounds, and inflected forms are not reduced to lemmas; both
limitations are deliberate and covered by tests.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Protocol

from .dictstore import DictionaryStore
from .errors import LexalignError, read_text
from .lexiserve import DEFAULT_TIMEOUT_MS, client_reverse_translate, client_translate


class LabelError(LexalignError):
    pass


class Translator(Protocol):
    """Behavioral contract: a deduplicated candidate list, empty when the
    word is absent (never a fabricated echo of the input)."""

    def translate(self, word: str, from_lang: str, to_lang: str) -> list[str]: ...


def tokenize(label: str) -> list[str]:
    """Split at lower-to-upper boundaries, '-', '_' and spaces; lowercase.

    "dateDePublication" -> ["date", "de", "publication"]
    """
    if not label:
        raise LabelError("cannot tokenize an empty label")
    words: list[str] = []
    current: list[str] = []
    prev = ""
    for ch in label:
        if ch in "-_ \t":
            if current:
                words.append("".join(current))
                current = []
            prev = ""
            continue
        if prev and prev.islower() and ch.isupper() and current:
            words.append("".join(current))
            current = []
        current.append(ch)
        prev = ch
    if current:
        words.append("".join(current))
    return [w.lower() for w in words if w]


def translate_label(
    label: str, translate: Callable[[str, str, str], list[str]], from_lang: str, to_lang: str
) -> list[str]:
    """The label's matching keys: the candidates of the label, of its
    lowercase form and of each token, deduplicated in order of first
    appearance; the label itself when nothing translates, so that "isbn"
    still matches exactly. `translate` has the signature of
    `Translator.translate`, and each distinct word is looked up once."""
    words = dict.fromkeys([label, label.lower(), *tokenize(label)])
    keys = [key for word in words for key in translate(word, from_lang, to_lang)]
    return list(dict.fromkeys(keys)) or [label]


def token_sequence_match(
    tokens_a: list,
    tokens_b: list,
    pair_similarity,
    threshold: float,
) -> float | None:
    """Complete one-to-one cover of two token lists.

    Every token on each side must pair with a distinct token on the
    other side at similarity >= threshold; the returned score is the
    smallest pairwise similarity in the best such cover (None when no
    cover exists). Lists of different lengths never match, which is what
    keeps a lone candidate like "short" from claiming "shortName".

    The best cover is a bottleneck assignment (Gabow & Tarjan 1988): a
    binary search over the distinct similarities finds the highest floor
    that still admits a perfect matching, so the cost is polynomial in
    the list length. Items need not be strings.
    """
    if len(tokens_a) != len(tokens_b) or not tokens_a:
        return None
    sims = [[pair_similarity(a, b) for b in tokens_b] for a in tokens_a]
    floors = sorted({s for row in sims for s in row if s >= threshold})
    if not floors or not _perfect_matching(sims, floors[0]):
        return None
    lo, hi = 0, len(floors) - 1  # floors[lo] admits a cover; find the highest that does
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _perfect_matching(sims, floors[mid]):
            lo = mid
        else:
            hi = mid - 1
    return floors[lo]


def _perfect_matching(sims: list[list[float]], floor: float) -> bool:
    """Whether every row pairs with a distinct column at similarity >= floor.

    Kuhn's augmenting paths, searched breadth-first so that a long path
    needs no recursion.
    """
    n = len(sims)
    row_of = [-1] * n  # column -> matched row
    col_of = [-1] * n  # row -> matched column
    for root in range(n):
        reached_from = [-1] * n  # column -> row it was reached from
        queue = [root]
        free = -1
        for row in queue:  # the queue grows while it is read
            for col in range(n):
                if reached_from[col] < 0 and sims[row][col] >= floor:
                    reached_from[col] = row
                    if row_of[col] < 0:
                        free = col
                        break
                    queue.append(row_of[col])
            if free >= 0:
                break
        if free < 0:
            return False
        while free >= 0:  # flip the path; it ends at the root, whose col_of is -1
            row = reached_from[free]
            next_free = col_of[row]
            row_of[free] = row
            col_of[row] = free
            free = next_free
    return True


class DictionaryTranslator:
    """Dictionary-backed translator.

    Combines the forward lookup (headword in from_lang listing to_lang
    terms) with the reverse lookup (to_lang headwords listing the word as
    a from_lang translation), so it works no matter which side of the
    dictionary the requested direction lives on.
    """

    def __init__(self, store: DictionaryStore):
        self._store = store

    def translate(self, word: str, from_lang: str, to_lang: str) -> list[str]:
        forward = self._store.translations(word, from_lang, to_lang)
        backward = self._store.reverse_translations(word, from_lang, to_lang)
        return sorted(set(forward) | set(backward))


class EndpointTranslator:
    """Same contract as DictionaryTranslator, but over the HTTP service."""

    def __init__(self, endpoint: str, timeout_ms: int = DEFAULT_TIMEOUT_MS):
        self._endpoint = endpoint
        self._timeout_ms = timeout_ms

    def translate(self, word: str, from_lang: str, to_lang: str) -> list[str]:
        forward = client_translate(self._endpoint, word, from_lang, to_lang, self._timeout_ms)
        backward = client_reverse_translate(
            self._endpoint, word, from_lang, to_lang, self._timeout_ms
        )
        return sorted(set(forward) | set(backward))


class StaticTableTranslator:
    """Fixed lookup table, used in tests as the stand-in for an online
    translation API. Rows: from_lang, to_lang, word, translation."""

    def __init__(self, rows: list[tuple[str, str, str, str]]):
        self._table: dict[tuple[str, str, str], set[str]] = {}
        for from_lang, to_lang, word, translation in rows:
            self._table.setdefault((from_lang, to_lang, word), set()).add(translation)

    @classmethod
    def from_file(cls, path: str | Path) -> "StaticTableTranslator":
        rows = []
        path = Path(path)
        lines = read_text(path, "translation table", LabelError).split("\n")
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            cells = line.split("\t")
            if len(cells) != 4:
                raise LabelError(f"{path.name}:{line_no}: expected 4 columns, got {len(cells)}")
            if "" in cells:
                raise LabelError(f"{path.name}:{line_no}: empty cell")
            rows.append((cells[0], cells[1], cells[2], cells[3]))
        return cls(rows)

    def translate(self, word: str, from_lang: str, to_lang: str) -> list[str]:
        return sorted(self._table.get((from_lang, to_lang, word), ()))
