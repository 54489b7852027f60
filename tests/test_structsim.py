import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    per_call_name_matcher,
    reference_subclass_rule,
    reference_tree_similarity,
    reference_triple_rule,
    rule_predicates,
)
from lexalign.ontomodel import Ontology, load_ontology
from lexalign.structsim import (
    LEVEL_WEIGHTS,
    StructureError,
    TreeNode,
    WeightedTree,
    expand_tree,
    subclass_rule,
    tree_similarity,
    triple_rule,
)

names_match = per_call_name_matcher(0.9)


def triples(o1, o2, seed, matcher):
    """triple_rule over the predicates of a seed and a name matcher."""
    return triple_rule(o1, o2, *rule_predicates(o1, o2, seed, matcher))


def subclasses(o1, o2, seed, matcher):
    """subclass_rule over the predicates of a seed and a name matcher."""
    corresponds, _ = rule_predicates(o1, o2, seed, matcher)
    return subclass_rule(o1, o2, corresponds)


EX1 = "http://example.org/one#"
EX2 = "http://example.org/two#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
OWL_CLASS = "http://www.w3.org/2002/07/owl#Class"
OWL_OBJ = "http://www.w3.org/2002/07/owl#ObjectProperty"
OWL_DATA = "http://www.w3.org/2002/07/owl#DatatypeProperty"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
XSD = "http://www.w3.org/2001/XMLSchema#"
SUBCLASS = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
DOMAIN = "http://www.w3.org/2000/01/rdf-schema#domain"
RANGE = "http://www.w3.org/2000/01/rdf-schema#range"


def build(base, classes=(), subclasses=(), properties=()):
    """properties: (name, domain, range)"""
    lines = []
    for name in classes:
        lines.append(f"<{base}{name}> <{RDF_TYPE}> <{OWL_CLASS}> .")
    for sub, parent in subclasses:
        lines.append(f"<{base}{sub}> <{SUBCLASS}> <{base}{parent}> .")
    for name, dom, rng in properties:
        lines.append(f"<{base}{name}> <{RDF_TYPE}> <{OWL_OBJ}> .")
        if dom:
            lines.append(f"<{base}{name}> <{DOMAIN}> <{base}{dom}> .")
        if rng:
            lines.append(f"<{base}{name}> <{RANGE}> <{base}{rng}> .")
    return load_ontology("\n".join(lines) + "\n")


def name_eq(a, b):
    return a == b


def test_isolated_class_has_empty_tree():
    onto = build(EX1, classes=["Lonely"])
    tree = expand_tree(onto, onto.entity(EX1 + "Lonely"))
    assert tree.nodes == []


def test_expand_tree_revue_levels(onto_fr):
    tree = expand_tree(onto_fr, onto_fr.entity("http://example.org/biblio-fr#Revue"))
    by_name = {n.name: (n.level, n.weight) for n in tree.nodes}
    assert by_name["articles"] == (1, 3)
    assert by_name["Article"] == (2, 2)


def test_expand_tree_weight_sum():
    onto = build(
        EX1,
        classes=["Root", "A", "B", "A1", "B1"],
        subclasses=[("A", "Root"), ("B", "Root"), ("A1", "A"), ("B1", "B")],
    )
    tree = expand_tree(onto, onto.entity(EX1 + "Root"))
    assert tree.total_weight() == 2 * 3 + 2 * 2


def test_expand_tree_weighs_levels_3_2_1_and_stops_at_3():
    onto = build(
        EX1,
        classes=["Root", "A", "A1", "A2", "A3"],
        subclasses=[("A", "Root"), ("A1", "A"), ("A2", "A1"), ("A3", "A2")],
    )
    tree = expand_tree(onto, onto.entity(EX1 + "Root"))
    assert [(n.name, n.level, n.weight) for n in tree.nodes] == [("A", 1, 3), ("A1", 2, 2), ("A2", 3, 1)]


def test_expand_tree_weights_follow_config(onto_fr, onto_en):
    for onto in (onto_fr, onto_en):
        for cls in onto.classes():
            for node in expand_tree(onto, cls).nodes:
                assert node.weight == LEVEL_WEIGHTS[node.level - 1]
                assert 1 <= node.level <= len(LEVEL_WEIGHTS)


def test_expand_tree_duplicate_kept_at_shallowest():
    # property range points back at a level-1 subclass
    onto = build(
        EX1,
        classes=["Root", "A"],
        subclasses=[("A", "Root")],
        properties=[("p", "Root", "A")],
    )
    tree = expand_tree(onto, onto.entity(EX1 + "Root"))
    names = [(n.name, n.level) for n in tree.nodes]
    assert names.count(("A", 1)) == 1
    assert all(level == 1 for name, level in names if name == "A")


def test_expand_tree_unknown_class(onto_fr):
    with pytest.raises(StructureError):
        expand_tree(onto_fr, onto_fr.entity("http://example.org/biblio-fr#articles"))


def test_tree_similarity_subset_is_one_and_asymmetric():
    tx = WeightedTree(root=None, nodes=[TreeNode("a", 1, 3)])
    ty = WeightedTree(root=None, nodes=[TreeNode("a", 1, 3), TreeNode("b", 1, 3)])
    assert tree_similarity(tx, ty, name_eq) == 1.0
    assert tree_similarity(ty, tx, name_eq) == 0.5


def test_tree_similarity_no_match_and_empty():
    tx = WeightedTree(root=None, nodes=[TreeNode("a", 1, 3)])
    ty = WeightedTree(root=None, nodes=[TreeNode("z", 1, 3)])
    assert tree_similarity(tx, ty, name_eq) == 0.0
    assert tree_similarity(WeightedTree(root=None), ty, name_eq) == 0.0


def test_tree_similarity_partial_fraction():
    tx = WeightedTree(
        root=None,
        nodes=[TreeNode("hit1", 1, 3), TreeNode("miss", 2, 2), TreeNode("hit2", 3, 1)],
    )
    ty = WeightedTree(root=None, nodes=[TreeNode("hit1", 1, 3), TreeNode("hit2", 1, 3)])
    assert tree_similarity(tx, ty, name_eq) == pytest.approx(4 / 6)


def test_tree_similarity_each_target_used_once():
    tx = WeightedTree(root=None, nodes=[TreeNode("x", 1, 3), TreeNode("x", 2, 2)])
    ty = WeightedTree(root=None, nodes=[TreeNode("x", 1, 3)])
    assert tree_similarity(tx, ty, name_eq) == pytest.approx(3 / 5)


_NODE_NAMES = st.sampled_from(["a", "b", "ab", "ba", "c"])
_TREE_NODES = st.builds(
    lambda name, level: TreeNode(name, level, LEVEL_WEIGHTS[level - 1]), _NODE_NAMES, st.integers(1, 3)
)
_TREES = st.lists(_TREE_NODES, max_size=8).map(lambda nodes: WeightedTree(root=None, nodes=nodes))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_TREES, _TREES, st.sets(st.tuples(_NODE_NAMES, _NODE_NAMES)))
def test_tree_similarity_gives_the_indexed_scores_and_matcher_calls(tx, ty, related):
    calls: dict[str, list] = {}

    def recording(run):
        calls[run] = []

        def matcher(a, b):
            calls[run].append((a, b))
            return (a, b) in related

        return matcher

    assert tree_similarity(tx, ty, recording("free names")) == reference_tree_similarity(
        tx, ty, recording("indices")
    )
    assert calls["free names"] == calls["indices"]


def test_tree_similarity_on_fixture_pair(onto_fr, onto_en, dict_translator):
    livre = expand_tree(onto_fr, onto_fr.entity("http://example.org/biblio-fr#Livre"))
    book = expand_tree(onto_en, onto_en.entity("http://example.org/biblio-en#Book"))
    assert tree_similarity(livre, book, names_match) == 1.0  # isbn covered
    assert tree_similarity(book, livre, names_match) == 0.5  # shortName is not


def test_triple_rule_emits_domains_for_shared_property(onto_fr, onto_en):
    seed = {
        ("http://example.org/biblio-fr#Article", "http://example.org/biblio-en#Article")
    }
    pairs = triples(onto_fr, onto_en, seed, names_match)
    names = {(a.local_name(), b.local_name()) for a, b in pairs}
    assert ("Revue", "Journal") in names


def test_triple_rule_shared_domain_range_emits_properties():
    o1 = build(EX1, classes=["D", "R"], properties=[("p", "D", "R")])
    o2 = build(EX2, classes=["D", "R"], properties=[("q", "D", "R")])
    pairs = triples(o1, o2, set(), names_match)
    names = {(a.local_name(), b.local_name()) for a, b in pairs}
    assert ("p", "q") in names


def test_triple_rule_empty_without_shared_structure():
    o1 = build(EX1, classes=["A"], properties=[("p", "A", "A")])
    o2 = build(EX2, classes=["Z"], properties=[("q", "Z", "Z")])
    assert triples(o1, o2, set(), names_match) == []


def test_triple_rule_identical_ontologies(onto_en):
    pairs = triples(onto_en, onto_en, set(), names_match)
    names = {(a.local_name(), b.local_name()) for a, b in pairs}
    assert ("articles", "articles") in names
    assert ("Journal", "Journal") in names


def test_rule_outputs_in_entity_product_no_duplicates(onto_fr, onto_en):
    for rule in (triples, subclasses):
        pairs = rule(onto_fr, onto_en, set(), names_match)
        assert len(pairs) == len({(a.iri, b.iri) for a, b in pairs})
        for a, b in pairs:
            assert a.iri in onto_fr.entities
            assert b.iri in onto_en.entities


def test_subclass_rule_equal_sets():
    o1 = build(EX1, classes=["P", "a", "b"], subclasses=[("a", "P"), ("b", "P")])
    o2 = build(EX2, classes=["Q", "a", "b"], subclasses=[("a", "Q"), ("b", "Q")])
    pairs = subclasses(o1, o2, set(), names_match)
    assert {(a.local_name(), b.local_name()) for a, b in pairs} == {("P", "Q")}


def test_subclass_rule_disjoint_sets_not_emitted():
    o1 = build(EX1, classes=["P", "a"], subclasses=[("a", "P")])
    o2 = build(EX2, classes=["Q", "z"], subclasses=[("z", "Q")])
    assert subclasses(o1, o2, set(), names_match) == []


def test_subclass_rule_strict_subset_not_emitted():
    o1 = build(EX1, classes=["P", "a"], subclasses=[("a", "P")])
    o2 = build(EX2, classes=["Q", "a", "b"], subclasses=[("a", "Q"), ("b", "Q")])
    assert subclasses(o1, o2, set(), names_match) == []


def test_subclass_rule_uses_seed():
    o1 = build(EX1, classes=["P", "x1", "x2"], subclasses=[("x1", "P"), ("x2", "P")])
    o2 = build(EX2, classes=["Q", "y1", "y2"], subclasses=[("y1", "Q"), ("y2", "Q")])
    seed = {(EX1 + "x1", EX2 + "y1"), (EX1 + "x2", EX2 + "y2")}
    pairs = subclasses(o1, o2, seed, names_match)
    assert {(a.local_name(), b.local_name()) for a, b in pairs} == {("P", "Q")}


def test_subclass_rule_without_perfect_cover_returns_promptly():
    # every left subclass matches all right ones but "z", so "z" is left
    # over and no cover exists; a search over permutations needs minutes
    lefts = [f"x{i}" for i in range(12)]
    rights = [f"y{i}" for i in range(11)] + ["z"]
    o1 = build(EX1, classes=["P", *lefts], subclasses=[(x, "P") for x in lefts])
    o2 = build(EX2, classes=["Q", *rights], subclasses=[(y, "Q") for y in rights])
    start = time.perf_counter()
    assert subclasses(o1, o2, set(), lambda a, b: b != "z") == []
    assert time.perf_counter() - start < 1.0


# near-identical words, so that names collide and scores straddle the threshold
_WORDS = ("ab", "abc", "abd", "ba", "bab")
_LABELS = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=2).map(" ".join)
_DATATYPES = st.sampled_from((XSD + "string", XSD + "date", XSD + "integer"))


@st.composite
def rule_ontology(draw, base):
    """At most 5 classes in a subclass forest and 4 properties: object
    properties whose range is a class, datatype properties whose range is
    an xsd: datatype, and a quarter of the domains and of the ranges left
    out."""
    lines = []

    def triple(s, p, o, literal=False):
        lines.append(f"<{base}{s}> <{p}> " + (f'"{o}" .' if literal else f"<{o}> ."))

    classes = draw(st.integers(1, 5))
    for i in range(classes):
        triple(f"C{i}", RDF_TYPE, OWL_CLASS)
        triple(f"C{i}", RDFS_LABEL, draw(_LABELS), literal=True)
        if i and draw(st.booleans()):
            triple(f"C{i}", SUBCLASS, f"{base}C{draw(st.integers(0, i - 1))}")
    for j in range(draw(st.integers(0, 4))):
        datatype = draw(st.booleans())
        triple(f"p{j}", RDF_TYPE, OWL_DATA if datatype else OWL_OBJ)
        triple(f"p{j}", RDFS_LABEL, draw(_LABELS), literal=True)
        if draw(st.integers(0, 3)):
            triple(f"p{j}", DOMAIN, f"{base}C{draw(st.integers(0, classes - 1))}")
        if draw(st.integers(0, 3)):
            target = draw(_DATATYPES) if datatype else f"{base}C{draw(st.integers(0, classes - 1))}"
            triple(f"p{j}", RANGE, target)
    return load_ontology("\n".join(lines) + "\n")


@st.composite
def rule_case(draw):
    """Two ontologies and a seed of class pairs, of property pairs and of
    entity pairs of any kinds, drawn without regard to their names, so
    that it holds pairs no name matches."""
    o1, o2 = draw(rule_ontology(EX1)), draw(rule_ontology(EX2))
    seed = set()
    for pool in (Ontology.classes, Ontology.properties, lambda o: o.entities.values()):
        lefts, rights = ([e.iri for e in pool(o)] for o in (o1, o2))
        if lefts and rights:
            pair = st.tuples(st.sampled_from(lefts), st.sampled_from(rights))
            seed.update(draw(st.lists(pair, max_size=3)))
    return o1, o2, seed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rule_case())
def test_rules_agree_with_the_references(case):
    o1, o2, seed = case
    assert triples(o1, o2, seed, names_match) == reference_triple_rule(o1, o2, seed, names_match)
    assert subclasses(o1, o2, seed, names_match) == reference_subclass_rule(
        o1, o2, seed, names_match
    )
