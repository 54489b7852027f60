"""Structural matching strategies over loaded ontologies.

Three strategies: the shared-triple rule (same domain and range, or same
property name and range, implies the remaining element corresponds), the
equal-subclass-set rule, and a weighted expanding tree whose levels get
weights 3/2/1. Tree similarity is asymmetric by construction: a small
neighborhood fully contained in a large one scores 1.0 in that direction
only.

The rules take what counts as corresponding from the caller, as two
predicates on a (left, right) entity pair: `corresponds` for domains,
ranges and subclasses, `named` for two properties. Two datatype ranges
correspond only when they are the same IRI. The rules return entity
pairs; scoring is the caller's concern. In an alignment run,
aligner.structural_correspondences builds both predicates: two entities
are named alike when the tokens of their display names cover at
LABEL_THRESHOLD, the left name untranslated, and they correspond when
the first two stages' greedy selection chose the pair or they are named
alike. The trees, unlike the rules, compare a left node's translated
keys with a right node's name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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
                expansion = onto.direct_subclasses(item)
                if level == 1:
                    expansion += onto.properties_of(item)
            else:
                target = onto.range.get(item)
                expansion = (target,) if isinstance(target, EntityId) else ()
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
    free = sorted(node.name for node in ty.nodes)  # equal names are interchangeable
    matched_weight = 0
    for node in sorted(tx.nodes, key=lambda n: (-n.weight, n.name)):
        for i, name in enumerate(free):
            if matcher(node.name, name):
                del free[i]
                matched_weight += node.weight
                break
    return matched_weight / total


EntityPredicate = Callable[[EntityId, EntityId], bool]


def triple_rule(
    o1: Ontology,
    o2: Ontology,
    corresponds: EntityPredicate,
    named: EntityPredicate,
) -> list[tuple[EntityId, EntityId]]:
    """Shared-triple inference over property pairs whose domains and
    ranges are all given.

    The ranges must correspond: two classes by `corresponds`, two
    datatypes by being the same IRI. Then, if the domains correspond, the
    properties are emitted; if the properties are `named` alike, the
    domains are emitted. Pairs come in order of first emission.
    """
    found: dict[tuple[str, str], tuple[EntityId, EntityId]] = {}
    properties2 = [
        (p2, o2.domain[p2], o2.range[p2])
        for p2 in o2.properties()
        if p2 in o2.domain and p2 in o2.range
    ]
    for p1 in o1.properties():
        d1, r1 = o1.domain.get(p1), o1.range.get(p1)
        if d1 is None or r1 is None:
            continue
        for p2, d2, r2 in properties2:
            if isinstance(r1, str) or isinstance(r2, str):
                if r1 != r2:
                    continue
            elif not corresponds(r1, r2):
                continue
            if corresponds(d1, d2):
                found.setdefault((p1.iri, p2.iri), (p1, p2))
            if named(p1, p2):
                found.setdefault((d1.iri, d2.iri), (d1, d2))
    return list(found.values())


def subclass_rule(
    o1: Ontology, o2: Ontology, corresponds: EntityPredicate
) -> list[tuple[EntityId, EntityId]]:
    """Classes whose direct-subclass sets pair off exactly under
    `corresponds` are emitted.

    Both sets must be non-empty and admit a complete one-to-one matching;
    strict subsets do not fire.
    """

    def same(a: EntityId, b: EntityId) -> float:
        return 1.0 if corresponds(a, b) else 0.0

    out: list[tuple[EntityId, EntityId]] = []
    subclasses2 = [(c2, o2.direct_subclasses(c2)) for c2 in o2.classes()]
    for c1 in o1.classes():
        subs1 = o1.direct_subclasses(c1)
        if not subs1:
            continue
        for c2, subs2 in subclasses2:
            if len(subs2) != len(subs1):
                continue
            if token_sequence_match(subs1, subs2, same, 1.0) is not None:
                out.append((c1, c2))
    return out
