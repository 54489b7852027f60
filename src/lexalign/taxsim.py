"""Thesaurus taxonomy with information content and Jiang-Conrath similarity.

The file format is TSV with columns

    synset_id    word1|word2|...    hypernym_id1|...    value    mode    [gloss]

where mode is "freq" or "ic" and must be the same on every row; the
optional gloss column is ignored. In freq mode each synset's count is
propagated to all of its ancestors and IC(s) = -ln(cum(s) / cum(root));
freq mode therefore requires a single root. In ic mode the column is taken as the information content
directly. Either way the result must satisfy IC(root) = 0 and
IC(child) >= IC(parent) along every hypernym edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Optional

from .errors import LexalignError, read_text

JCN_MAX = 1e9
DENOM_EPS = 1e-9
_MONOTONE_EPS = 1e-12


class ThesaurusError(LexalignError):
    pass


@dataclass(frozen=True)
class Synset:
    id: str
    words: frozenset[str]
    hypernyms: tuple[str, ...]


class Thesaurus:
    def __init__(self, synsets: dict[str, Synset], ic: dict[str, float]):
        self.synsets = synsets
        self.ic = ic
        self.word_index: dict[str, set[str]] = {}
        for synset in synsets.values():
            for word in synset.words:
                self.word_index.setdefault(word, set()).add(synset.id)
        self.roots = sorted(s.id for s in synsets.values() if not s.hypernyms)
        # the synset and every synset above it, walked once per synset
        self.ancestors_or_self = cache(lambda sid: _walk_up(self.synsets, self.synset(sid).id))

    def synset(self, synset_id: str) -> Synset:
        try:
            return self.synsets[synset_id]
        except KeyError:
            raise ThesaurusError(f"unknown synset: {synset_id}") from None


def _walk_up(synsets: dict[str, Synset], synset_id: str) -> frozenset[str]:
    """The synset and every synset reachable through hypernym edges."""
    seen: set[str] = set()
    stack = [synset_id]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(synsets[current].hypernyms)
    return frozenset(seen)


def lcs(thesaurus: Thesaurus, a: str, b: str) -> Optional[str]:
    """Common subsumer of both synsets with maximal IC; ties break toward
    the smallest id; None when the synsets share no ancestor."""
    common = thesaurus.ancestors_or_self(a) & thesaurus.ancestors_or_self(b)
    if not common:
        return None
    return min(common, key=lambda sid: (-thesaurus.ic[sid], sid))


def jcn_similarity(thesaurus: Thesaurus, a: str, b: str) -> float:
    """1 / (IC(a) + IC(b) - 2 * IC(lcs)); JCN_MAX for a synset with itself
    and when the denominator vanishes, 0 when there is no common subsumer
    or the denominator is NaN (inf - inf, under a subsumer that counts 0)."""
    subsumer = lcs(thesaurus, a, b)
    if subsumer is None:
        return 0.0
    if a == b:
        return JCN_MAX
    denominator = thesaurus.ic[a] + thesaurus.ic[b] - 2 * thesaurus.ic[subsumer]
    if math.isnan(denominator):
        return 0.0
    if denominator <= DENOM_EPS:
        return JCN_MAX
    return 1.0 / denominator


def lexical_match(thesaurus: Thesaurus, w1: str, w2: str) -> float:
    """Best Jiang-Conrath score over all sense pairs of the two words;
    0 when either word is not in the thesaurus."""
    senses1 = thesaurus.word_index.get(w1)
    senses2 = thesaurus.word_index.get(w2)
    if not senses1 or not senses2:
        return 0.0
    return max(jcn_similarity(thesaurus, s1, s2) for s1 in senses1 for s2 in senses2)


def _parse_rows(path: Path) -> tuple[list[tuple[int, Synset, float]], str]:
    rows: list[tuple[int, Synset, float]] = []
    mode: Optional[str] = None
    lines = read_text(path, "thesaurus", ThesaurusError).split("\n")
    for line_no, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        cells = line.split("\t")
        if len(cells) not in (5, 6):
            raise ThesaurusError(f"{path.name}:{line_no}: expected 5 or 6 columns, got {len(cells)}")
        synset_id, words_cell, hypernyms_cell, value_cell, row_mode = cells[:5]
        if row_mode not in ("freq", "ic"):
            raise ThesaurusError(f"{path.name}:{line_no}: mode must be 'freq' or 'ic'")
        if mode is None:
            mode = row_mode
        elif row_mode != mode:
            raise ThesaurusError(f"{path.name}:{line_no}: mixed modes ({mode} vs {row_mode})")
        words = frozenset(w for w in words_cell.split("|") if w)
        if not words:
            raise ThesaurusError(f"{path.name}:{line_no}: synset {synset_id} has no words")
        hypernyms = tuple(h for h in hypernyms_cell.split("|") if h)
        try:
            value = float(value_cell)
        except ValueError:
            raise ThesaurusError(
                f"{path.name}:{line_no}: value is not a number: {value_cell!r}"
            ) from None
        if math.isnan(value) or (mode == "freq" and math.isinf(value)):
            raise ThesaurusError(f"{path.name}:{line_no}: {mode} value out of range: {value_cell!r}")
        rows.append((line_no, Synset(synset_id, words, hypernyms), value))
    if mode is None:
        raise ThesaurusError(f"{path.name}: empty thesaurus")
    return rows, mode


def load_thesaurus(path: str | Path) -> Thesaurus:
    path = Path(path)
    rows, mode = _parse_rows(path)

    synsets: dict[str, Synset] = {}
    values: dict[str, float] = {}
    for line_no, synset, value in rows:
        if synset.id in synsets:
            raise ThesaurusError(f"{path.name}:{line_no}: duplicate synset id {synset.id}")
        synsets[synset.id] = synset
        values[synset.id] = value
    for line_no, synset, _ in rows:
        for hypernym in synset.hypernyms:
            if hypernym not in synsets:
                raise ThesaurusError(
                    f"{path.name}:{line_no}: dangling hypernym {hypernym!r} on {synset.id}"
                )

    try:
        graph = {sid: s.hypernyms for sid, s in sorted(synsets.items())}
        order = list(TopologicalSorter(graph).static_order())  # hypernyms first
    except CycleError as exc:
        raise ThesaurusError(
            f"{path.name}: hypernym cycle: " + " -> ".join(exc.args[1])
        ) from None

    thesaurus = Thesaurus(synsets, values)
    if mode == "freq":
        thesaurus.ic = _ic_from_frequencies(thesaurus, values, order, path.name)
    ic = thesaurus.ic
    if not thesaurus.roots:
        raise ThesaurusError(f"{path.name}: no root synset")
    for root in thesaurus.roots:
        if abs(ic[root]) > _MONOTONE_EPS:
            raise ThesaurusError(f"{path.name}: root {root} must have IC 0, got {ic[root]}")
    for synset in synsets.values():
        if ic[synset.id] < 0:
            raise ThesaurusError(f"{path.name}: negative IC on {synset.id}")
        for hypernym in synset.hypernyms:
            if ic[synset.id] < ic[hypernym] - _MONOTONE_EPS:
                raise ThesaurusError(
                    f"{path.name}: IC({synset.id}) < IC({hypernym}) breaks monotonicity"
                )
    return thesaurus


def _ic_from_frequencies(
    thesaurus: Thesaurus, freqs: dict[str, float], order: list[str], filename: str
) -> dict[str, float]:
    """IC from each synset's count plus the counts of all its distinct
    descendants; `order` lists hypernyms before hyponyms.

    A synset with one hypernym path passes its running total up that one
    edge, hyponyms first, so a chain costs linear time. A synset below a
    second hypernym path would reach a shared ancestor twice that way, so
    it adds its own count to each of its ancestors instead, once.
    """
    for sid, freq in freqs.items():
        if freq < 0:
            raise ThesaurusError(f"{filename}: negative frequency on {sid}")
    if len(thesaurus.roots) != 1:
        raise ThesaurusError(
            f"{filename}: frequency mode requires exactly one root, found {len(thesaurus.roots)}"
        )

    synsets = thesaurus.synsets
    many_paths: dict[str, bool] = {}
    for sid in order:
        hypernyms = synsets[sid].hypernyms
        many_paths[sid] = len(hypernyms) > 1 or any(many_paths[h] for h in hypernyms)
    chained = {sid: 0.0 for sid in synsets}  # counts passed up single-path edges
    shared = {sid: 0.0 for sid in synsets}  # counts added from below a second path
    for sid in reversed(order):
        if many_paths[sid]:
            for ancestor in _walk_up(synsets, sid):
                shared[ancestor] += freqs[sid]
        else:
            chained[sid] += freqs[sid]
            for hypernym in synsets[sid].hypernyms:
                chained[hypernym] += chained[sid]
    cumulative = {sid: chained[sid] + shared[sid] for sid in synsets}

    total = cumulative[thesaurus.roots[0]]
    if total <= 0:
        raise ThesaurusError(f"{filename}: total frequency must be positive")
    ratios = {sid: count / total for sid, count in cumulative.items()}
    # a ratio under the smallest float is 0, as a count of 0 is
    return {sid: -math.log(ratio) if ratio > 0 else math.inf for sid, ratio in ratios.items()}
