"""Ontology loading from an N-Triples subset.

One triple per line, full IRIs in angle brackets, plain literals in
double quotes, `#` comments. Recognized predicates: rdf:type (with
owl:Class, owl:ObjectProperty, owl:DatatypeProperty, owl:NamedIndividual
objects), rdfs:subClassOf, rdfs:domain, rdfs:range and rdfs:label.
Anything else is skipped with a warning; blank-node lines likewise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Optional, Union

from .errors import LexalignError, read_text

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_SUBCLASS_OF = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
RDFS_DOMAIN = "http://www.w3.org/2000/01/rdf-schema#domain"
RDFS_RANGE = "http://www.w3.org/2000/01/rdf-schema#range"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
OWL_CLASS = "http://www.w3.org/2002/07/owl#Class"
OWL_OBJECT_PROPERTY = "http://www.w3.org/2002/07/owl#ObjectProperty"
OWL_DATATYPE_PROPERTY = "http://www.w3.org/2002/07/owl#DatatypeProperty"
OWL_NAMED_INDIVIDUAL = "http://www.w3.org/2002/07/owl#NamedIndividual"
XSD_NAMESPACE = "http://www.w3.org/2001/XMLSchema#"


class OntologyError(LexalignError):
    pass


class Kind(Enum):
    CLASS = "class"
    OBJECT_PROPERTY = "object_property"
    DATA_PROPERTY = "data_property"
    INDIVIDUAL = "individual"


_TYPE_TO_KIND = {
    OWL_CLASS: Kind.CLASS,
    OWL_OBJECT_PROPERTY: Kind.OBJECT_PROPERTY,
    OWL_DATATYPE_PROPERTY: Kind.DATA_PROPERTY,
    OWL_NAMED_INDIVIDUAL: Kind.INDIVIDUAL,
}

_PROPERTY_KINDS = (Kind.OBJECT_PROPERTY, Kind.DATA_PROPERTY)


@dataclass(frozen=True)
class EntityId:
    iri: str
    kind: Optional[Kind]

    def __hash__(self) -> int:
        # equality still compares the kind; hashing it would run Enum.__hash__, written in Python
        return hash(self.iri)

    def local_name(self) -> str:
        for sep in ("#", "/"):
            if sep in self.iri:
                return self.iri.rsplit(sep, 1)[1]
        return self.iri


# a property range is either a class or a datatype IRI string
RangeTarget = Union[EntityId, str]


@dataclass
class Ontology:
    entities: dict[str, EntityId] = field(default_factory=dict)  # in IRI order once loaded
    labels: dict[EntityId, str] = field(default_factory=dict)
    subclass_of: set[tuple[EntityId, EntityId]] = field(default_factory=set)
    domain: dict[EntityId, EntityId] = field(default_factory=dict)
    range: dict[EntityId, RangeTarget] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    # adjacency that load_ontology derives from subclass_of, domain and range, in IRI order
    subclasses: dict[EntityId, list[EntityId]] = field(default_factory=dict)
    properties_by_class: dict[EntityId, list[EntityId]] = field(default_factory=dict)

    def entity(self, iri: str) -> EntityId:
        try:
            return self.entities[iri]
        except KeyError:
            raise OntologyError(f"unknown entity: {iri}") from None

    def display_name(self, e: EntityId) -> str:
        if e.iri not in self.entities:
            raise OntologyError(f"unknown entity: {e.iri}")
        return self.labels.get(e, e.local_name())

    def direct_subclasses(self, c: EntityId) -> tuple[EntityId, ...]:
        if c.iri not in self.entities:
            raise OntologyError(f"unknown class: {c.iri}")
        return tuple(self.subclasses.get(c, ()))

    def properties_of(self, c: EntityId) -> tuple[EntityId, ...]:
        """Properties that have `c` as domain or range, each once."""
        if c.iri not in self.entities:
            raise OntologyError(f"unknown class: {c.iri}")
        return tuple(self.properties_by_class.get(c, ()))

    def by_kind(self, kind: Kind) -> list[EntityId]:
        return [e for e in self.entities.values() if e.kind == kind]

    def classes(self) -> list[EntityId]:
        return self.by_kind(Kind.CLASS)

    def properties(self) -> list[EntityId]:
        return [e for e in self.entities.values() if e.kind in _PROPERTY_KINDS]


_LINE_RE = re.compile(r"^<([^<>\s]+)>\s+<([^<>\s]+)>\s+(<[^<>\s]+>|\"[^\"]*\")\s*\.$")


def _parse_line(line: str, line_no: int) -> Optional[tuple[str, str, str, bool]]:
    """Returns (subject, predicate, object, object_is_iri)."""
    m = _LINE_RE.match(line)
    if m is None:
        raise OntologyError(f"line {line_no}: malformed triple: {line!r}")
    obj = m.group(3)
    if obj.startswith("<"):
        return m.group(1), m.group(2), obj[1:-1], True
    return m.group(1), m.group(2), obj[1:-1], False


def load_ontology(text: str) -> Ontology:
    """Parse the N-Triples subset and build a checked Ontology."""
    triples: list[tuple[int, str, str, str, bool]] = []
    onto = Ontology()
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("_:") or " _:" in line:
            onto.warnings.append(f"line {line_no}: blank node skipped")
            continue
        s, p, o, o_is_iri = _parse_line(line, line_no)
        triples.append((line_no, s, p, o, o_is_iri))

    # declarations first, then edges, so file order never matters
    for line_no, s, p, o, o_is_iri in triples:
        if p != RDF_TYPE:
            continue
        if not o_is_iri:
            raise OntologyError(f"line {line_no}: rdf:type object must be an IRI")
        kind = _TYPE_TO_KIND.get(o)
        if kind is None:
            onto.warnings.append(f"line {line_no}: unrecognized type {o} ignored")
            continue
        existing = onto.entities.get(s)
        if existing is not None:
            if existing.kind != kind:
                raise OntologyError(
                    f"line {line_no}: {s} declared both {existing.kind.value} and {kind.value}"
                )
            continue
        onto.entities[s] = EntityId(s, kind)

    for line_no, s, p, o, o_is_iri in triples:
        if p == RDF_TYPE:
            continue
        if p == RDFS_LABEL:
            if o_is_iri:
                raise OntologyError(f"line {line_no}: rdfs:label object must be a literal")
            entity = onto.entities.get(s)
            if entity is None:
                # e.g. a label on an ontology header whose type was skipped
                onto.warnings.append(f"line {line_no}: label on undeclared entity {s} ignored")
                continue
            if entity in onto.labels:
                onto.warnings.append(f"line {line_no}: extra label for {s} ignored")
                continue
            if not o:
                onto.warnings.append(f"line {line_no}: empty label for {s} ignored")
                continue
            onto.labels[entity] = o
        elif p == RDFS_SUBCLASS_OF:
            sub = onto.entities.get(s)
            parent = onto.entities.get(o) if o_is_iri else None
            if sub is None or sub.kind != Kind.CLASS:
                raise OntologyError(f"line {line_no}: subClassOf on undeclared class {s}")
            if parent is None or parent.kind != Kind.CLASS:
                raise OntologyError(f"line {line_no}: subClassOf references undeclared class {o}")
            onto.subclass_of.add((sub, parent))
        elif p == RDFS_DOMAIN:
            prop = onto.entities.get(s)
            if prop is None or prop.kind not in _PROPERTY_KINDS:
                raise OntologyError(f"line {line_no}: domain on undeclared property {s}")
            target = onto.entities.get(o) if o_is_iri else None
            if target is None or target.kind != Kind.CLASS:
                raise OntologyError(f"line {line_no}: domain references undeclared class {o}")
            onto.domain[prop] = target
        elif p == RDFS_RANGE:
            prop = onto.entities.get(s)
            if prop is None or prop.kind not in _PROPERTY_KINDS:
                raise OntologyError(f"line {line_no}: range on undeclared property {s}")
            if o_is_iri and o.startswith(XSD_NAMESPACE):
                onto.range[prop] = o
            else:
                target = onto.entities.get(o) if o_is_iri else None
                if target is None or target.kind != Kind.CLASS:
                    raise OntologyError(
                        f"line {line_no}: range references undeclared class {o}"
                    )
                onto.range[prop] = target
        else:
            onto.warnings.append(f"line {line_no}: unknown predicate {p} ignored")

    for entity in onto.entities.values():
        if not onto.display_name(entity):
            raise OntologyError(f"{entity.iri} has an empty name: no label and no local name")
    onto.entities = dict(sorted(onto.entities.items()))
    parents: dict[str, list[str]] = {}
    # in (sub, parent) order, so each parent's subclasses come in IRI order
    for sub, parent in sorted(onto.subclass_of, key=lambda edge: (edge[0].iri, edge[1].iri)):
        parents.setdefault(sub.iri, []).append(parent.iri)
        onto.subclasses.setdefault(parent, []).append(sub)
    for prop in onto.properties():  # in IRI order, and once per class it touches
        for target in dict.fromkeys((onto.domain.get(prop), onto.range.get(prop))):
            if isinstance(target, EntityId):
                onto.properties_by_class.setdefault(target, []).append(prop)
    try:
        TopologicalSorter(parents).prepare()
    except CycleError as exc:
        raise OntologyError("subclass cycle: " + " -> ".join(exc.args[1])) from None
    return onto


def load_ontology_file(path: str | Path) -> Ontology:
    return load_ontology(read_text(Path(path), "ontology", OntologyError))
