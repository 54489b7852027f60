import pytest

from conftest import FIXTURES
from lexalign.ontomodel import (
    EntityId,
    Kind,
    OntologyError,
    load_ontology,
    load_ontology_file,
)

EX = "http://example.org/x#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
OWL_CLASS = "http://www.w3.org/2002/07/owl#Class"
OWL_OBJ = "http://www.w3.org/2002/07/owl#ObjectProperty"
LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
SUBCLASS = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
DOMAIN = "http://www.w3.org/2000/01/rdf-schema#domain"
RANGE = "http://www.w3.org/2000/01/rdf-schema#range"


def lines(*triples):
    return "\n".join(triples) + "\n"


def clazz(name):
    return f"<{EX}{name}> <{RDF_TYPE}> <{OWL_CLASS}> ."


def test_load_class_with_label():
    onto = load_ontology(lines(clazz("Book"), f'<{EX}Book> <{LABEL}> "Livre" .'))
    assert len(onto.classes()) == 1
    book = onto.entity(EX + "Book")
    assert book.kind is Kind.CLASS
    assert onto.display_name(book) == "Livre"


def test_fixture_counts_match_line_scan(onto_fr, onto_en):
    for onto, path in ((onto_fr, "biblio_fr.nt"), (onto_en, "biblio_en.nt")):
        text = (FIXTURES / path).read_text("utf-8")
        for marker, kind in (
            (OWL_CLASS, Kind.CLASS),
            (OWL_OBJ, Kind.OBJECT_PROPERTY),
            ("DatatypeProperty", Kind.DATA_PROPERTY),
        ):
            expected = sum(
                1 for line in text.splitlines() if RDF_TYPE in line and marker in line
            )
            assert len(onto.by_kind(kind)) == expected


def test_domain_and_range_of_articles(onto_fr):
    articles = onto_fr.entity("http://example.org/biblio-fr#articles")
    assert onto_fr.domain[articles].local_name() == "Revue"
    assert onto_fr.range[articles].local_name() == "Article"


def test_properties_of_revue_includes_articles(onto_fr):
    revue = onto_fr.entity("http://example.org/biblio-fr#Revue")
    names = {p.local_name() for p in onto_fr.properties_of(revue)}
    assert "articles" in names


def by_iri(entities):
    return tuple(sorted(entities, key=lambda e: e.iri))


def test_properties_of_matches_brute_scan(onto_fr, onto_en):
    for onto in (onto_fr, onto_en, load_ontology(subclass_chain(3000))):
        subclasses = {cls: set() for cls in onto.classes()}
        for sub, parent in onto.subclass_of:
            subclasses[parent].add(sub)
        for cls in onto.classes():
            expected = {
                p for p, d in onto.domain.items() if d == cls
            } | {p for p, r in onto.range.items() if r == cls}
            assert onto.properties_of(cls) == by_iri(expected)
            assert onto.direct_subclasses(cls) == by_iri(subclasses[cls])


def test_listings_come_in_iri_order_whatever_the_file_order():
    triples = [clazz(name) for name in ("Root", "C", "B", "A")]
    triples += [f"<{EX}{name}> <{SUBCLASS}> <{EX}Root> ." for name in ("C", "B", "A")]
    for name in ("p3", "p2", "p1"):
        triples.append(f"<{EX}{name}> <{RDF_TYPE}> <{OWL_OBJ}> .")
        triples.append(f"<{EX}{name}> <{DOMAIN}> <{EX}Root> .")
    triples.append(f"<{EX}p2> <{RANGE}> <{EX}Root> .")  # domain and range alike: listed once
    triples.append(f"<{EX}p3> <{RANGE}> <{EX}A> .")
    onto = load_ontology(lines(*triples))
    root, a = onto.entity(EX + "Root"), onto.entity(EX + "A")
    assert [c.local_name() for c in onto.classes()] == ["A", "B", "C", "Root"]
    assert [p.local_name() for p in onto.properties()] == ["p1", "p2", "p3"]
    assert [c.local_name() for c in onto.direct_subclasses(root)] == ["A", "B", "C"]
    assert [p.local_name() for p in onto.properties_of(root)] == ["p1", "p2", "p3"]
    assert [p.local_name() for p in onto.properties_of(a)] == ["p3"]
    assert list(onto.entities) == sorted(onto.entities)


def test_direct_subclasses():
    onto = load_ontology(
        lines(
            clazz("Root"),
            clazz("A"),
            clazz("B"),
            clazz("Leaf"),
            f"<{EX}A> <{SUBCLASS}> <{EX}Root> .",
            f"<{EX}B> <{SUBCLASS}> <{EX}Root> .",
            f"<{EX}Leaf> <{SUBCLASS}> <{EX}A> .",
        )
    )
    root = onto.entity(EX + "Root")
    assert {c.local_name() for c in onto.direct_subclasses(root)} == {"A", "B"}
    assert onto.direct_subclasses(onto.entity(EX + "Leaf")) == ()


def test_subclass_cycle_is_error():
    with pytest.raises(OntologyError, match="cycle"):
        load_ontology(
            lines(
                clazz("A"),
                clazz("B"),
                f"<{EX}A> <{SUBCLASS}> <{EX}B> .",
                f"<{EX}B> <{SUBCLASS}> <{EX}A> .",
            )
        )


def test_entity_ids_with_one_iri_and_two_kinds_stay_apart():
    # the hash reads the IRI alone; equality still reads the kind
    as_class, as_individual = EntityId(EX + "A", Kind.CLASS), EntityId(EX + "A", Kind.INDIVIDUAL)
    assert as_class != as_individual
    assert hash(as_class) == hash(as_individual)
    assert as_class == EntityId(EX + "A", Kind.CLASS)
    assert len({as_class, as_individual, EntityId(EX + "A", None)}) == 3
    named = {as_class: "class", as_individual: "individual"}
    assert named[as_class] == "class" and named[as_individual] == "individual"


def test_display_name_falls_back_to_iri_fragment():
    onto = load_ontology(lines(clazz("Book")))
    assert onto.display_name(onto.entity(EX + "Book")) == "Book"


def test_display_name_slash_fallback():
    onto = load_ontology(f"<http://example.org/things/Car> <{RDF_TYPE}> <{OWL_CLASS}> .\n")
    assert onto.display_name(onto.entity("http://example.org/things/Car")) == "Car"


def test_unknown_entity_is_error(onto_fr):
    with pytest.raises(OntologyError, match="unknown"):
        onto_fr.display_name(EntityId("http://nowhere/#X", Kind.CLASS))
    with pytest.raises(OntologyError, match="unknown"):
        onto_fr.entity("http://nowhere/#X")


def test_unknown_predicate_warns_not_fails():
    onto = load_ontology(
        lines(clazz("Book"), f'<{EX}Book> <http://example.org/mystery> "x" .')
    )
    assert len(onto.classes()) == 1
    assert any("unknown predicate" in w for w in onto.warnings)


def test_first_label_wins_with_warning():
    onto = load_ontology(
        lines(clazz("Book"), f'<{EX}Book> <{LABEL}> "first" .', f'<{EX}Book> <{LABEL}> "second" .')
    )
    assert onto.display_name(onto.entity(EX + "Book")) == "first"
    assert any("extra label" in w for w in onto.warnings)


def test_empty_label_skipped_with_warning():
    onto = load_ontology(lines(clazz("Book"), f'<{EX}Book> <{LABEL}> "" .'))
    assert onto.display_name(onto.entity(EX + "Book")) == "Book"
    assert any("empty label" in w for w in onto.warnings)
    onto = load_ontology(
        lines(clazz("Book"), f'<{EX}Book> <{LABEL}> "" .', f'<{EX}Book> <{LABEL}> "livre" .')
    )
    assert onto.display_name(onto.entity(EX + "Book")) == "livre"
    assert not any("extra label" in w for w in onto.warnings)


@pytest.mark.parametrize("iri", ["http://example.org/x#", "http://example.org/shelf/"])
@pytest.mark.parametrize("label", [None, ""])
def test_entity_without_a_name_is_rejected_naming_it(iri, label):
    triples = [clazz("Book"), f"<{iri}> <{RDF_TYPE}> <{OWL_CLASS}> ."]
    if label is not None:
        triples.append(f'<{iri}> <{LABEL}> "{label}" .')
    with pytest.raises(OntologyError, match=f"{iri} has an empty name"):
        load_ontology(lines(*triples))
    named = load_ontology(lines(*triples, f'<{iri}> <{LABEL}> "shelf" .'))
    assert named.display_name(named.entity(iri)) == "shelf"


def test_label_on_undeclared_entity_warns_not_fails():
    # an ontology header: its type is unrecognized, its label must not kill the load
    onto = load_ontology(
        lines(
            clazz("Book"),
            f"<{EX}onto> <{RDF_TYPE}> <http://www.w3.org/2002/07/owl#Ontology> .",
            f'<{EX}onto> <{LABEL}> "about books" .',
        )
    )
    assert len(onto.classes()) == 1
    assert any("label on undeclared" in w for w in onto.warnings)


def test_blank_node_lines_skipped_with_warning():
    onto = load_ontology(lines(clazz("Book"), f"_:b1 <{RDF_TYPE}> <{OWL_CLASS}> ."))
    assert len(onto.classes()) == 1
    assert any("blank node" in w for w in onto.warnings)


def test_comments_and_empty_lines_ignored():
    onto = load_ontology("# header\n\n" + clazz("Book") + "\n")
    assert len(onto.classes()) == 1


def test_malformed_line_is_error():
    with pytest.raises(OntologyError, match="malformed"):
        load_ontology("<a> <b>\n")


def test_domain_on_undeclared_property_is_error():
    with pytest.raises(OntologyError, match="undeclared property"):
        load_ontology(lines(clazz("Book"), f"<{EX}mystery> <{DOMAIN}> <{EX}Book> ."))


def test_range_on_undeclared_class_is_error():
    text = lines(
        f"<{EX}p> <{RDF_TYPE}> <{OWL_OBJ}> .",
        f"<{EX}p> <{RANGE}> <{EX}Ghost> .",
    )
    with pytest.raises(OntologyError, match="undeclared class"):
        load_ontology(text)


def test_datatype_range_is_kept_as_iri(onto_fr):
    isbn = onto_fr.entity("http://example.org/biblio-fr#isbn")
    assert onto_fr.range[isbn] == "http://www.w3.org/2001/XMLSchema#string"


def test_conflicting_kind_declaration_is_error():
    with pytest.raises(OntologyError, match="declared both"):
        load_ontology(
            lines(clazz("Thing"), f"<{EX}Thing> <{RDF_TYPE}> <{OWL_OBJ}> .")
        )


def test_declaration_order_does_not_matter():
    onto = load_ontology(
        lines(
            f"<{EX}p> <{DOMAIN}> <{EX}Book> .",
            f"<{EX}p> <{RDF_TYPE}> <{OWL_OBJ}> .",
            clazz("Book"),
        )
    )
    assert onto.domain[onto.entity(EX + "p")].local_name() == "Book"


def test_load_ontology_file_missing(tmp_path):
    with pytest.raises(OntologyError, match="cannot read"):
        load_ontology_file(tmp_path / "missing.nt")


def subclass_chain(depth, closed=False):
    """C0 below C1 below ... below C<depth>; closed adds C<depth> below C0."""
    triples = [clazz(f"C{i}") for i in range(depth + 1)]
    triples += [f"<{EX}C{i}> <{SUBCLASS}> <{EX}C{i + 1}> ." for i in range(depth)]
    if closed:
        triples.append(f"<{EX}C{depth}> <{SUBCLASS}> <{EX}C0> .")
    return lines(*triples)


def test_deep_subclass_chain_loads():
    onto = load_ontology(subclass_chain(3000))
    assert len(onto.subclass_of) == 3000


def test_deep_subclass_cycle_is_error():
    with pytest.raises(OntologyError, match="cycle") as err:
        load_ontology(subclass_chain(3000, closed=True))
    assert f"{EX}C1500" in str(err.value)


def test_subclass_self_loop_is_error():
    with pytest.raises(OntologyError, match=f"cycle: {EX}A -> {EX}A"):
        load_ontology(lines(clazz("A"), f"<{EX}A> <{SUBCLASS}> <{EX}A> ."))


def prop(name):
    return f"<{EX}{name}> <{RDF_TYPE}> <{OWL_OBJ}> ."


@pytest.mark.parametrize(
    "text, message",
    [
        (lines(f'<{EX}A> <{RDF_TYPE}> "Class" .'), "line 1: rdf:type object must be an IRI"),
        (lines(clazz("A"), f"<{EX}A> <{LABEL}> <{EX}B> ."), "line 2: rdfs:label object must be a literal"),
        (lines(f"<{EX}A> <{SUBCLASS}> <{EX}B> .", clazz("B")), f"line 1: subClassOf on undeclared class {EX}A"),
        (lines(prop("p"), f"<{EX}p> <{SUBCLASS}> <{EX}p> ."), f"line 2: subClassOf on undeclared class {EX}p"),
        (lines(clazz("A"), f"<{EX}A> <{SUBCLASS}> <{EX}B> ."), f"line 2: subClassOf references undeclared class {EX}B"),
        (lines(clazz("A"), f'<{EX}A> <{SUBCLASS}> "B" .'), "line 2: subClassOf references undeclared class B"),
        (lines(prop("p"), f"<{EX}p> <{DOMAIN}> <{EX}Ghost> ."), f"line 2: domain references undeclared class {EX}Ghost"),
        (lines(prop("p"), clazz("A"), f"<{EX}A> <{DOMAIN}> <{EX}A> ."), f"line 3: domain on undeclared property {EX}A"),
        (lines(clazz("A"), f"<{EX}q> <{RANGE}> <{EX}A> ."), f"line 2: range on undeclared property {EX}q"),
    ],
)
def test_refusals_name_their_line(text, message):
    with pytest.raises(OntologyError) as err:
        load_ontology(text)
    assert str(err.value) == message


def test_a_repeated_declaration_of_one_kind_is_accepted_once():
    onto = load_ontology(lines(clazz("A"), clazz("A"), f'<{EX}A> <{LABEL}> "a" .'))
    assert list(onto.entities) == [EX + "A"]
    assert onto.display_name(onto.entity(EX + "A")) == "a"
    assert onto.warnings == []


def test_listings_of_an_unknown_class_are_refused(onto_fr):
    ghost = EntityId("http://nowhere/#X", Kind.CLASS)
    with pytest.raises(OntologyError, match=r"^unknown class: http://nowhere/#X$"):
        onto_fr.direct_subclasses(ghost)
    with pytest.raises(OntologyError, match=r"^unknown class: http://nowhere/#X$"):
        onto_fr.properties_of(ghost)


def test_an_iri_with_no_separator_is_its_own_local_name():
    assert EntityId("urn:isbn:0451450523", Kind.CLASS).local_name() == "urn:isbn:0451450523"
    onto = load_ontology(f"<urn:x> <{RDF_TYPE}> <{OWL_CLASS}> .\n")
    assert onto.display_name(onto.entity("urn:x")) == "urn:x"
