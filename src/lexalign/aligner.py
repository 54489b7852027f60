"""End-to-end alignment pipeline and its evaluation.

Stages: translate every left-ontology display name, then run the string
stage (Jaro-Winkler over token sequences), the lexical stage (thesaurus
similarity on pairs the string stage left unmatched), and the structural
stage (shared-triple and subclass rules seeded by the earlier stages,
plus expanding-tree scores). A greedy one-to-one selection takes the
stages' proposals by descending score (ties by IRI byte order, then by
the earlier stage), so each pair counts at its best score, and produces
the final alignment. Everything is deterministic.

Only pairs of the same entity kind (class/class, property/property of
the same flavor, individual/individual) are ever compared, and each stage
scores only the pairs that can reach its threshold: a token cover needs
two names of equal length, a thesaurus score needs both words in the
thesaurus, and a tree score needs one matching node name. Every other
pair would score nothing, so skipping it changes no output. The string
stage and the tree walk find their covers with one search,
NameTable.covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, Optional

from .errors import LexalignError, read_text
from .labelkit import Translator, token_sequence_match, tokenize, translate_label
from .ontomodel import EntityId, Kind, Ontology
from .strsim import jaro_winkler, jaro_winkler_bound, shared_bound, sw_normalized, sw_normalized_bound
from .structsim import (
    LABEL_THRESHOLD,
    expand_tree,
    subclass_rule,
    tree_similarity,
    triple_rule,
)
from .taxsim import JCN_MAX, Thesaurus, lexical_match

SOURCE_STRING = "string"
SOURCE_LEXICAL = "lexical"
SOURCE_STRUCTURE = "structure"
_SOURCE_PRIORITY = {SOURCE_STRING: 0, SOURCE_LEXICAL: 1, SOURCE_STRUCTURE: 2}


class AlignerError(LexalignError):
    pass


class AlignmentFormatError(AlignerError):
    pass


@dataclass(frozen=True)
class Correspondence:
    left: EntityId
    right: EntityId
    score: float
    source: str = SOURCE_STRING

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise AlignerError(f"correspondence score out of range: {self.score}")
        if self.source not in _SOURCE_PRIORITY:  # the selection orders ties by it
            raise AlignerError(f"unknown correspondence source: {self.source!r}")


class Alignment:
    """A set of correspondences that is one-to-one on both sides."""

    def __init__(self, correspondences: Iterable[Correspondence] = ()):
        ordered = sorted(correspondences, key=lambda c: (c.left.iri, c.right.iri))
        lefts: set[str] = set()
        rights: set[str] = set()
        for corr in ordered:
            if corr.left.iri in lefts:
                raise AlignerError(f"entity aligned twice on the left: {corr.left.iri}")
            if corr.right.iri in rights:
                raise AlignerError(f"entity aligned twice on the right: {corr.right.iri}")
            lefts.add(corr.left.iri)
            rights.add(corr.right.iri)
        self.correspondences: tuple[Correspondence, ...] = tuple(ordered)

    def __iter__(self):
        return iter(self.correspondences)

    def __len__(self) -> int:
        return len(self.correspondences)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Alignment):
            return NotImplemented
        return self.correspondences == other.correspondences

    def __repr__(self) -> str:
        return f"Alignment({len(self.correspondences)} correspondences)"

    def pairs(self) -> set[tuple[str, str]]:
        return {(c.left.iri, c.right.iri) for c in self.correspondences}


@dataclass(frozen=True)
class MatchConfig:
    source_lang: str
    target_lang: str
    jw_threshold: float = 0.9
    jcn_threshold: float = 1.0
    sw_enabled: bool = False
    structure_enabled: bool = True

    def __post_init__(self) -> None:
        if not (self.jw_threshold > 0 and self.jcn_threshold > 0):  # NaN is neither
            raise AlignerError("thresholds must be positive")
        if self.jw_threshold > 1.0 or self.jcn_threshold > JCN_MAX:  # no score would reach it
            raise AlignerError(f"thresholds must not exceed the highest score: jw 1, jcn {JCN_MAX:g}")


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    aligned: int
    reference: int
    common: int

    def summary(self) -> str:
        return (
            f"precision={self.precision:.2f} recall={self.recall:.2f} "
            f"|A|={self.aligned} |R|={self.reference} |R∩A|={self.common}"
        )


def evaluate(alignment: Alignment, reference: Alignment) -> Metrics:
    """Precision |R∩A|/|A| and recall |R∩A|/|R| on exact IRI pairs,
    ignoring scores. Rounding happens only in summary()."""
    a_pairs = alignment.pairs()
    r_pairs = reference.pairs()
    common = len(a_pairs & r_pairs)
    precision = common / len(a_pairs) if a_pairs else 0.0
    recall = common / len(r_pairs) if r_pairs else 0.0
    return Metrics(precision, recall, len(a_pairs), len(r_pairs), common)


def _jw_or_sw(a: str, b: str) -> float:
    return max(jaro_winkler(a, b), sw_normalized(a, b))


def _jw_or_sw_bound(a: str, b: str, shared: int) -> float:
    return max(jaro_winkler_bound(a, b, shared), sw_normalized_bound(a, b, shared))


# A pair is skipped only when its bound is this far below the floor: the
# Winkler step's rounding is not provably monotone in the Jaro score.
_BOUND_MARGIN = 1e-9


class NameTable:
    """The name comparisons of one align() run, each computed once.

    A comparison is the token-sequence cover score of
    labelkit.token_sequence_match under the table's token similarity,
    keyed by the two token tuples. It is computed at `floor`, the lowest
    threshold any reader uses, so the table answers any threshold t >=
    floor: the cover at t is the score when that is >= t, none otherwise.
    `bound`, an upper bound on the token similarity called as
    bound(a, b, shared) with strsim.shared_bound of the two tokens'
    character masks, skips the token pairs that cannot reach the floor:
    they score 0.0, and a cover reads only similarities >= floor. A pair
    of one-token tuples needs no search: its cover is the token pair's
    similarity when that reaches the floor. Every answer is a pure
    function of its key, so reading the table gives the same answers as
    comparing afresh.
    """

    def __init__(
        self,
        similarity: Callable[[str, str], float],
        floor: float,
        bound: Callable[[str, str, int], float],
    ):
        # functools caches that close over these locals, not over the table,
        # so they go with the table when its run ends
        self._floor = floor
        bits: dict[str, int] = {}  # character -> its bit in every mask of this table

        @cache
        def mask_of(token: str) -> int:  # the bits of the token's distinct characters
            mask = 0
            for ch in token:
                bit = bits.get(ch)
                if bit is None:
                    bit = bits[ch] = 1 << len(bits)
                mask |= bit
            return mask

        @cache
        def pair_similarity(a: str, b: str) -> float:
            shared = shared_bound(a, b, mask_of(a), mask_of(b))
            return similarity(a, b) if bound(a, b, shared) >= floor - _BOUND_MARGIN else 0.0

        self.tokens: Callable[[str], tuple[str, ...]] = cache(lambda name: tuple(tokenize(name)))
        self._pair = pair_similarity
        self._cover = cache(lambda a, b: token_sequence_match(a, b, pair_similarity, floor))

    def cover(
        self, tokens_a: tuple[str, ...], tokens_b: tuple[str, ...], threshold: float
    ) -> Optional[float]:
        if threshold < self._floor:
            raise AlignerError(f"threshold {threshold} is below the table's floor {self._floor}")
        if len(tokens_a) == 1 == len(tokens_b):  # the one pair is the cover, if it reaches the floor
            score = self._pair(tokens_a[0], tokens_b[0])
            return score if score >= threshold else None
        score = self._cover(tokens_a, tokens_b)
        return score if score is not None and score >= threshold else None

    def covers(
        self, keys: Iterable[tuple[str, ...]], rights: dict[int, list[tuple]], threshold: float
    ) -> dict:
        """The best cover at `threshold` of each right item that one of
        `keys` covers. `rights` groups (item, tokens) pairs by token count,
        as _by_length does; a cover needs token tuples of equal length, so
        a key is compared only with the rights of its length."""
        found: dict = {}
        for tokens in keys:
            for item, right_tokens in rights.get(len(tokens), ()):
                score = self.cover(tokens, right_tokens, threshold)
                if score is not None:
                    found[item] = max(score, found.get(item, score))
        return found


def _by_length(named_tokens: Iterable[tuple]) -> dict[int, list[tuple]]:
    """(item, tokens) pairs grouped by token count, in the given order."""
    groups: dict[int, list[tuple]] = {}
    for item, tokens in named_tokens:
        groups.setdefault(len(tokens), []).append((item, tokens))
    return groups


def _translated(o1: Ontology, translator: Translator, cfg: MatchConfig) -> dict[str, list[str]]:
    """The matching keys of every left-entity display name; keyed by IRI.

    A word that recurs across labels is looked up once per call;
    translate_label does not mutate the lists it gets back, so they can
    be shared.
    """
    lookups = cache(translator.translate)
    out: dict[str, list[str]] = {}
    for iri, entity in o1.entities.items():
        name = o1.display_name(entity)
        out[iri] = translate_label(name, lookups, cfg.source_lang, cfg.target_lang)
    return out


def string_correspondences(
    o1: Ontology,
    o2: Ontology,
    translations: dict[str, list[str]],
    cfg: MatchConfig,
    table: NameTable,
) -> list[Correspondence]:
    """Best token-sequence score over all candidate keys per same-kind
    pair, from table.covers. `table` must compare tokens with the
    configured similarity.
    """
    out = []
    for kind in Kind:
        rights = o2.by_kind(kind)
        by_length = _by_length(
            (pos, table.tokens(o2.display_name(e2))) for pos, e2 in enumerate(rights)
        )
        for e1 in o1.by_kind(kind):
            keys = map(table.tokens, translations[e1.iri])
            best = table.covers(keys, by_length, cfg.jw_threshold)
            out.extend(
                Correspondence(e1, rights[pos], min(score, 1.0), SOURCE_STRING)
                for pos, score in sorted(best.items())
            )
    return out


def _jcn_to_score(value: float) -> float:
    # monotone map of the unbounded similarity into [0, 1)
    return value / (1.0 + value)


def lexical_correspondences(
    o1: Ontology,
    o2: Ontology,
    translations: dict[str, list[str]],
    cfg: MatchConfig,
    thesaurus: Thesaurus,
    skip: set[tuple[str, str]],
    table: NameTable,
) -> list[Correspondence]:
    """Thesaurus similarity for same-kind pairs the string stage did not
    cover.

    lexical_match scores 0 unless both words are in the thesaurus, and the
    threshold is positive, so only keys and names in its word index are
    paired.
    """
    words = thesaurus.word_index
    out = []
    for kind in Kind:
        rights = []
        for e2 in o2.by_kind(kind):
            name = " ".join(table.tokens(o2.display_name(e2)))
            if name in words:
                rights.append((e2, name))
        for e1 in o1.by_kind(kind):
            joined = (" ".join(table.tokens(key)) for key in translations[e1.iri])
            keys = [key for key in dict.fromkeys(joined) if key in words]
            for e2, name in rights:
                if (e1.iri, e2.iri) in skip:
                    continue
                best = 0.0
                for key in keys:
                    best = max(best, lexical_match(thesaurus, key, name))
                if best >= cfg.jcn_threshold:
                    out.append(Correspondence(e1, e2, _jcn_to_score(best), SOURCE_LEXICAL))
    return out


def structural_correspondences(
    o1: Ontology,
    o2: Ontology,
    seed: Alignment,
    table: NameTable,
    translations: dict[str, list[str]],
) -> list[Correspondence]:
    """Rule-based pairs at score 1.0, each listed once, plus
    expanding-tree scores for class pairs with any overlap.

    Names are compared through `table` at structsim.LABEL_THRESHOLD. For
    the rules, two entities are named alike when their display names
    cover, the left name untranslated, and they correspond when `seed`
    (the first two stages' greedy selection) holds the pair or they are
    named alike; two datatype ranges correspond only when they are the
    same IRI. The trees instead compare a left node's translated keys with
    a right node's name. A tree pair scores above 0 exactly when
    a node name of the left tree matches one of the right tree, so each
    distinct left node name's keys go through table.covers once against
    the right node names, an index maps each right node name to the
    classes whose tree holds it, and tree_similarity runs only on the
    class pairs that share a match, with a lookup in those covers as its
    matcher. Every other pair scores 0.
    """
    seed_pairs = seed.pairs()
    names1, names2 = (
        {e.iri: table.tokens(o.display_name(e)) for e in o.classes() + o.properties()}
        for o in (o1, o2)
    )

    def named(a: EntityId, b: EntityId) -> bool:
        return table.cover(names1[a.iri], names2[b.iri], LABEL_THRESHOLD) is not None

    def corresponds(a: EntityId, b: EntityId) -> bool:
        return (a.iri, b.iri) in seed_pairs or named(a, b)

    rule_pairs = triple_rule(o1, o2, corresponds, named) + subclass_rule(o1, o2, corresponds)
    out = [
        Correspondence(left, right, 1.0, SOURCE_STRUCTURE)
        for left, right in dict.fromkeys(rule_pairs)
    ]

    classes2 = o2.classes()
    trees2 = [expand_tree(o2, c) for c in classes2]
    holders: dict[str, set[int]] = {}
    for j, tree in enumerate(trees2):
        for node in tree.nodes:
            holders.setdefault(node.name, set()).add(j)
    keys_by_name = {  # entities named alike have the same keys
        o1.display_name(o1.entities[iri]): list(map(table.tokens, keys))
        for iri, keys in translations.items()
    }
    rights = _by_length((name, table.tokens(name)) for name in holders)

    @cache
    def matches(a_name: str) -> dict[str, float]:
        return table.covers(keys_by_name[a_name], rights, LABEL_THRESHOLD)

    def keys_match(a_name: str, b_name: str) -> bool:
        return b_name in matches(a_name)

    for c1 in o1.classes():
        tree1 = expand_tree(o1, c1)
        candidates = {j for node in tree1.nodes for b in matches(node.name) for j in holders[b]}
        for j in sorted(candidates):
            score = tree_similarity(tree1, trees2[j], keys_match)
            if score > 0:
                out.append(Correspondence(c1, classes2[j], score, SOURCE_STRUCTURE))
    return out


def greedy_one_to_one(correspondences: Iterable[Correspondence]) -> Alignment:
    """Select by descending score, ties by (left IRI, right IRI) bytes and
    then by the earlier pipeline stage. A pair's first proposal in this
    order is its best one; any later proposal of the pair is skipped,
    since its left or right entity is taken by then (or already was)."""
    pool = sorted(
        correspondences,
        key=lambda c: (-c.score, c.left.iri, c.right.iri, _SOURCE_PRIORITY[c.source]),
    )
    lefts: set[str] = set()
    rights: set[str] = set()
    chosen = []
    for corr in pool:
        if corr.left.iri in lefts or corr.right.iri in rights:
            continue
        lefts.add(corr.left.iri)
        rights.add(corr.right.iri)
        chosen.append(corr)
    return Alignment(chosen)


def align(
    o1: Ontology,
    o2: Ontology,
    translator: Translator,
    cfg: MatchConfig,
    thesaurus: Optional[Thesaurus] = None,
) -> Alignment:
    """Run the full pipeline and return the one-to-one alignment.

    One NameTable serves every Jaro-Winkler name comparison of the run.
    With Smith-Waterman on, the string stage scores a token pair by the
    larger of Jaro-Winkler and normalized Smith-Waterman, in a table of
    its own bounded by the larger of the two bounds. Each table skips the
    token pairs whose bound is below its floor.
    """
    table = NameTable(jaro_winkler, min(cfg.jw_threshold, LABEL_THRESHOLD), jaro_winkler_bound)
    string_table = table
    if cfg.sw_enabled:
        string_table = NameTable(_jw_or_sw, cfg.jw_threshold, _jw_or_sw_bound)
    translations = _translated(o1, translator, cfg)
    string_stage = string_correspondences(o1, o2, translations, cfg, string_table)
    lexical_stage: list[Correspondence] = []
    if thesaurus is not None:
        covered = {(c.left.iri, c.right.iri) for c in string_stage}
        lexical_stage = lexical_correspondences(
            o1, o2, translations, cfg, thesaurus, covered, table
        )
    structural_stage: list[Correspondence] = []
    if cfg.structure_enabled:
        seed = greedy_one_to_one(string_stage + lexical_stage)
        structural_stage = structural_correspondences(o1, o2, seed, table, translations)
    return greedy_one_to_one(string_stage + lexical_stage + structural_stage)


def write_alignment(alignment: Alignment, path: str | Path) -> None:
    """TSV rows `left<TAB>right<TAB>score` with 4-decimal scores, in the
    alignment's order: by left IRI, since it is one-to-one."""
    lines = [f"{c.left.iri}\t{c.right.iri}\t{c.score:.4f}" for c in alignment]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_alignment(
    path: str | Path,
    o1: Optional[Ontology] = None,
    o2: Optional[Ontology] = None,
) -> Alignment:
    """Read an alignment TSV back.

    With ontologies given, IRIs must resolve and entities keep their
    kinds; without them, bare EntityIds with kind None are built, which
    is all evaluation needs.
    """
    path = Path(path)
    lines = read_text(path, "alignment", AlignmentFormatError).split("\n")
    correspondences = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != 3:
            raise AlignmentFormatError(
                f"{path.name}:{line_no}: expected 3 columns, got {len(cells)}"
            )
        left_iri, right_iri, score_text = cells
        try:
            score = float(score_text)
        except ValueError:
            raise AlignmentFormatError(
                f"{path.name}:{line_no}: score is not a number: {score_text!r}"
            ) from None
        if not 0.0 <= score <= 1.0:
            raise AlignmentFormatError(
                f"{path.name}:{line_no}: score out of range: {score_text}"
            )
        if o1 is not None:
            left = o1.entity(left_iri)
        else:
            left = EntityId(left_iri, None)
        if o2 is not None:
            right = o2.entity(right_iri)
        else:
            right = EntityId(right_iri, None)
        correspondences.append(Correspondence(left, right, score))
    return Alignment(correspondences)
