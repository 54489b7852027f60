"""Structural matching strategies over loaded ontologies.

Three strategies: the shared-triple rule (same domain and range, or same
property name and range, implies the remaining element corresponds), the
equal-subclass-set rule, and a weighted expanding tree whose levels get
weights 3/2/1. Tree similarity is asymmetric by construction: a small
neighborhood fully contained in a large one scores 1.0 in that direction
only.

The rule functions take the already-found correspondences as a seed in
the form of (left IRI, right IRI) pairs and return entity pairs; scoring
is the caller's concern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection

from .errors import LexalignError
# tokenize and jaro_winkler are unused here; perfbench/tracing.py wraps them in this namespace
from .labelkit import token_sequence_match, tokenize  # noqa: F401
from .ontomodel import EntityId, Kind, Ontology
from .strsim import jaro_winkler  # noqa: F401


class StructureError(LexalignError):
    pass


LEVEL_WEIGHTS = (3, 2, 1)  # the tree's node weight at depth 1, 2, 3
LABEL_THRESHOLD = 0.9  # the token similarity at which two tree or rule names match

NameMatcher = Callable[[str, str], bool]


@dataclass
class TreeNode:
    name: str
    level: int
    weight: int


@dataclass
class WeightedTree:
    root: EntityId
    nodes: list[TreeNode] = field(default_factory=list)

    def total_weight(self) -> int:
        return sum(node.weight for node in self.nodes)


def expand_tree(onto: Ontology, cls: EntityId) -> WeightedTree:
    """Expand a class into its weighted neighborhood.

    Level 1: direct subclasses plus properties where the class is domain
    or range. Level 2: subclasses of level-1 classes plus class ranges of
    level-1 properties. Level 3: the same step applied to level 2. An
    entity reached twice stays at its shallowest level; the root itself
    is never a node.
    """
    if cls.iri not in onto.entities or onto.entities[cls.iri].kind != Kind.CLASS:
        raise StructureError(f"unknown class: {cls.iri}")

    seen: set[EntityId] = {cls}
    tree = WeightedTree(root=cls)
    frontier: list[EntityId] = [cls]
    for level, weight in enumerate(LEVEL_WEIGHTS, start=1):
        next_frontier: list[EntityId] = []
        for item in frontier:
            if item.kind == Kind.CLASS:
                expansion: list[EntityId] = sorted(
                    onto.direct_subclasses(item), key=lambda e: e.iri
                )
                if level == 1:
                    expansion.extend(sorted(onto.properties_of(item), key=lambda e: e.iri))
            else:
                target = onto.range.get(item)
                expansion = [target] if isinstance(target, EntityId) else []
            for entity in expansion:
                if entity in seen:
                    continue
                seen.add(entity)
                tree.nodes.append(TreeNode(onto.display_name(entity), level, weight))
                next_frontier.append(entity)
        frontier = next_frontier
    return tree


def tree_similarity(tx: WeightedTree, ty: WeightedTree, matcher: NameMatcher) -> float:
    """Matched-weight fraction of tx against ty.

    Each ty node may satisfy only one tx node; tx nodes are consumed by
    descending weight (name byte order on ties) so heavier concepts get
    first pick. Empty tx scores 0. sim(tx, ty) = 1 does not imply
    sim(ty, tx) = 1.
    """
    total = tx.total_weight()
    if total == 0:
        return 0.0
    available = sorted(range(len(ty.nodes)), key=lambda i: (ty.nodes[i].name, i))
    used: set[int] = set()
    matched_weight = 0
    for node in sorted(tx.nodes, key=lambda n: (-n.weight, n.name)):
        for idx in available:
            if idx in used:
                continue
            if matcher(node.name, ty.nodes[idx].name):
                used.add(idx)
                matched_weight += node.weight
                break
    return matched_weight / total


PairSeed = Collection[tuple[str, str]]


def _entities_match(
    left: EntityId,
    right: EntityId,
    left_onto: Ontology,
    right_onto: Ontology,
    seed: PairSeed,
    matcher: NameMatcher,
) -> bool:
    if (left.iri, right.iri) in seed:
        return True
    return matcher(left_onto.display_name(left), right_onto.display_name(right))


def _ranges_match(
    p1: EntityId,
    p2: EntityId,
    o1: Ontology,
    o2: Ontology,
    seed: PairSeed,
    matcher: NameMatcher,
) -> bool:
    r1 = o1.range.get(p1)
    r2 = o2.range.get(p2)
    if r1 is None or r2 is None:
        return False
    if isinstance(r1, str) or isinstance(r2, str):
        return r1 == r2  # datatype IRIs compare by identity
    return _entities_match(r1, r2, o1, o2, seed, matcher)


def triple_rule(
    o1: Ontology,
    o2: Ontology,
    seed: PairSeed,
    matcher: NameMatcher,
) -> list[tuple[EntityId, EntityId]]:
    """Shared-triple inference over property pairs.

    If both domain and range of two properties correspond, the
    properties are emitted. Dually, if the property names match and the
    ranges correspond, the two domains are emitted.
    """
    out: list[tuple[EntityId, EntityId]] = []
    emitted: set[tuple[str, str]] = set()

    def emit(left: EntityId, right: EntityId) -> None:
        if (left.iri, right.iri) not in emitted:
            emitted.add((left.iri, right.iri))
            out.append((left, right))

    properties2 = o2.properties()
    for p1 in o1.properties():
        for p2 in properties2:
            ranges_ok = _ranges_match(p1, p2, o1, o2, seed, matcher)
            if not ranges_ok:
                continue
            d1 = o1.domain.get(p1)
            d2 = o2.domain.get(p2)
            if (
                d1 is not None
                and d2 is not None
                and _entities_match(d1, d2, o1, o2, seed, matcher)
            ):
                emit(p1, p2)
            if matcher(o1.display_name(p1), o2.display_name(p2)) and d1 is not None and d2 is not None:
                emit(d1, d2)
    return out


def subclass_rule(
    o1: Ontology,
    o2: Ontology,
    seed: PairSeed,
    matcher: NameMatcher,
) -> list[tuple[EntityId, EntityId]]:
    """Classes whose direct-subclass sets pair off exactly are emitted.

    Both sets must be non-empty and admit a complete one-to-one matching
    under the seed or name comparison; strict subsets do not fire.
    """

    def same(a: EntityId, b: EntityId) -> float:
        return 1.0 if _entities_match(a, b, o1, o2, seed, matcher) else 0.0

    out: list[tuple[EntityId, EntityId]] = []
    subclasses2 = [(c2, sorted(o2.direct_subclasses(c2), key=lambda e: e.iri)) for c2 in o2.classes()]
    for c1 in o1.classes():
        subs1 = sorted(o1.direct_subclasses(c1), key=lambda e: e.iri)
        if not subs1:
            continue
        for c2, subs2 in subclasses2:
            if len(subs2) != len(subs1):
                continue
            if token_sequence_match(subs1, subs2, same, 1.0) is not None:
                out.append((c1, c2))
    return out
