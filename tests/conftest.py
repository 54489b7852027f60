"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache
from pathlib import Path

import pytest

from lexalign import aligner, dictstore, labelkit, ontomodel, structsim, taxsim, triplemap
from lexalign.labelkit import token_sequence_match, tokenize
from lexalign.sparqlet import Query, ResultTable, TriplePattern
from lexalign.strsim import SW_GAP, SW_MATCH, SW_MISMATCH, jaro_winkler, sw_normalized
from lexalign.triplemap import WIKPA_BASE, Iri, Literal, TableGraph, Triple, Variable, render

FIXTURES = Path(__file__).parent / "fixtures"

# the seven answers to the rain-cats-and-dogs translation query
IDIOM_ROWS = {
    ("cmn", "Mandarin", "傾盆大雨"),
    ("cs", "Czech", "lít jako z konve"),
    ("fr", "French", "pleuvoir des cordes"),
    ("fr", "French", "pleuvoir à verse"),
    ("fr", "French", "pleuvoir des hallebardes"),
    ("ru", "Russian", "лить как из ведра"),
    ("sv", "Swedish", "ösregna"),
}


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def idioms_store():
    return dictstore.ingest_tables(FIXTURES / "idioms_dict")


@pytest.fixture(scope="session")
def biblio_store():
    return dictstore.ingest_tables(FIXTURES / "biblio_dict")


@pytest.fixture(scope="session")
def idioms_triples(idioms_store):
    return triplemap.to_triples(idioms_store)


@pytest.fixture(scope="session")
def translation_query_text() -> str:
    return (FIXTURES / "translations_query.rq").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def onto_fr():
    return ontomodel.load_ontology_file(FIXTURES / "biblio_fr.nt")


@pytest.fixture(scope="session")
def onto_en():
    return ontomodel.load_ontology_file(FIXTURES / "biblio_en.nt")


@pytest.fixture(scope="session")
def thesaurus():
    return taxsim.load_thesaurus(FIXTURES / "mini_thesaurus_ic.tsv")


@pytest.fixture(scope="session")
def dict_translator(biblio_store):
    return labelkit.DictionaryTranslator(biblio_store)


class IdentityTranslator:
    """Test double: every word is its own translation."""

    def translate(self, word, from_lang, to_lang):
        return [word]


# --------------------------------------------------------------------------
# independent oracles


def brute_force_evaluate(query: Query, store: TableGraph) -> ResultTable:
    """Enumerate every assignment of the query's variables to store terms
    and keep those satisfying all patterns. Variables are assigned one at
    a time, in order of first use, and a partial assignment is dropped as
    soon as a pattern whose variables it all assigns is not a fact; that
    keeps the same complete assignments as trying the whole product.
    Small stores only."""
    triples = store.lookup()
    facts = {(t.subject, t.predicate, t.object) for t in triples}
    terms = sorted(
        {t for tr in triples for t in (tr.subject, tr.predicate, tr.object)}, key=render
    )
    patterns = [(p.subject, p.predicate, p.object) for p in query.patterns]
    variables = list(
        dict.fromkeys(t.name for pattern in patterns for t in pattern if isinstance(t, Variable))
    )
    # each pattern is checked once its last variable is assigned
    position = {name: i for i, name in enumerate(variables)}
    checks: list[list[tuple]] = [[] for _ in variables]
    ground = []
    for pattern in patterns:
        used = [position[t.name] for t in pattern if isinstance(t, Variable)]
        (checks[max(used)] if used else ground).append(pattern)

    def holds(pattern: tuple, binding: dict) -> bool:
        return tuple(binding[t.name] if isinstance(t, Variable) else t for t in pattern) in facts

    rows = []

    def extend(binding: dict, depth: int) -> None:
        if depth == len(variables):
            rows.append(tuple(render(binding[v.name]) for v in query.select_vars))
            return
        for term in terms:
            binding[variables[depth]] = term
            if all(holds(p, binding) for p in checks[depth]):
                extend(binding, depth + 1)
        binding.pop(variables[depth], None)

    if all(holds(p, {}) for p in ground):
        extend({}, 0)
    rows.sort()
    if query.limit is not None:
        rows = rows[: query.limit]
    return ResultTable(header=[v.name for v in query.select_vars], rows=rows)


# the wikpa: vocabulary written out apart from triplemap's mapping code
ORACLE_BASE = "http://wikokit.example/wikt/"
ORACLE_PREDICATES = {
    "language": ("lang_id", "lang_code", "lang_name"),
    "page": ("page_id", "page_page_title"),
    "lang_pos": ("lang_pos_id", "lang_pos_page_id", "lang_pos_lang_id"),
    "meaning": ("meaning_id", "meaning_lang_pos_id"),
    "translation": ("translation_id", "translation_lang_pos_id", "translation_meaning_id"),
    "translation_entry": (
        "translation_entry_id",
        "translation_entry_translation_id",
        "translation_entry_lang_id",
        "translation_entry_wiki_text_id",
    ),
    "wiki_text": ("wiki_text_id", "wiki_text_text"),
}


def oracle_triples(directory: Path) -> list[Triple]:
    """Every triple of the RDF view of the TSV tables in `directory`, read
    straight from the files (one subject per line, one triple per cell),
    in byte order."""
    triples = []
    for table, predicates in ORACLE_PREDICATES.items():
        for line in (directory / f"{table}.tsv").read_text("utf-8").splitlines():
            cells = line.split("\t")
            subject = Iri(f"{ORACLE_BASE}{table}/{cells[0]}")
            for predicate, cell in zip(predicates, cells, strict=True):
                triples.append(Triple(subject, Iri(ORACLE_BASE + predicate), Literal(cell)))
    return sorted(triples, key=lambda t: (t.subject.value, t.predicate.value, t.object.text))


def to_tables(graph: TableGraph) -> dictstore.DictionaryStore:
    """Rebuild the dictionary tables from the triples a graph lists, with
    the vocabulary above; the inverse of triplemap.to_triples."""
    cells: dict[tuple[str, int], dict[str, str]] = {}
    for t in graph.lookup():
        table, _, row_id = t.subject.value.removeprefix(ORACLE_BASE).partition("/")
        predicate = t.predicate.value.removeprefix(ORACLE_BASE)
        cells.setdefault((table, int(row_id)), {})[predicate] = t.object.text
    records: dict[str, list[list[str]]] = {table: [] for table in ORACLE_PREDICATES}
    for (table, _), row in sorted(cells.items()):
        records[table].append([row[predicate] for predicate in ORACLE_PREDICATES[table]])
    return store_of(records, text=True)


def store_of(records: dict[str, list[list]], *, text: bool = False) -> dictstore.DictionaryStore:
    """A store over records (lists of cells) by table name; a table not
    named is empty. Cells are ints and strs, as a snapshot holds them, or
    with `text` all strs, as the TSV files hold them."""
    return dictstore.DictionaryStore(
        {name: dictstore.parse_rows(name, rows, f"{name} row ", text=text) for name, rows in records.items()}
    )


def print_query(query: Query) -> str:
    """Canonical one-pattern-per-group rendering; parse(print(q)) == q."""

    def term(t) -> str:
        if isinstance(t, Literal):
            return f'"{t.text}"'
        if isinstance(t, Iri) and t.value.startswith(WIKPA_BASE):
            return "wikpa:" + t.value.removeprefix(WIKPA_BASE)
        return render(t)

    parts = ["SELECT", *(f"?{v.name}" for v in query.select_vars), "WHERE {"]
    parts.extend(f"{term(p.subject)} {term(p.predicate)} {term(p.object)} ." for p in query.patterns)
    parts.append("}")
    if query.limit is not None:
        parts.append(f"LIMIT {query.limit}")
    return " ".join(parts)


def random_query(store: TableGraph, rng: random.Random, max_patterns: int = 4) -> Query:
    """Build a satisfiable-looking conjunctive query by sampling triples
    and variable-izing positions from a three-name pool."""
    triples = store.lookup()
    pattern_count = rng.randint(1, max_patterns)
    pool = ["v0", "v1", "v2"]
    # mostly 1-2 variables; the all-assignments oracle is cubic in terms
    var_budget = rng.choice([1, 1, 2, 2, 2, 3])
    names = pool[:var_budget]
    patterns = []
    used_vars: set[str] = set()
    for _ in range(pattern_count):
        triple = rng.choice(triples)
        subject, predicate, obj = triple.subject, triple.predicate, triple.object
        positions = []
        if rng.random() < 0.7:
            positions.append("s")
        if rng.random() < 0.3:
            positions.append("p")
        if rng.random() < 0.5:
            positions.append("o")
        for pos in positions:
            name = rng.choice(names)
            used_vars.add(name)
            if pos == "s":
                subject = Variable(name)
            elif pos == "p":
                predicate = Variable(name)
            else:
                obj = Variable(name)
        patterns.append(TriplePattern(subject, predicate, obj))
    if not used_vars:
        # force at least one variable so SELECT has something to bind
        name = names[0]
        used_vars.add(name)
        first = patterns[0]
        patterns[0] = TriplePattern(Variable(name), first.predicate, first.object)
    select = [Variable(n) for n in sorted(used_vars)]
    rng.shuffle(select)
    select = select[: rng.randint(1, len(select))]
    limit = rng.choice([None, None, None, 2, 5])
    return Query(tuple(select), tuple(patterns), limit)


def reference_plan_order(query: Query, store: TableGraph | None = None) -> list[TriplePattern]:
    """sparqlet.plan_order's greedy rule with every remaining pattern
    re-ranked at every step and every pattern's matches counted up
    front; the planner's oracle."""
    patterns = query.patterns
    matches: list[tuple[int, float]] = []
    for p in patterns:
        terms = (p.subject, p.predicate, p.object)
        s, pred, o = (None if isinstance(t, Variable) else t for t in terms)
        if store is None or s is not None:
            matches.append((0, 0.0))
        else:
            found = store.count(None, pred, o)
            matches.append((found, found / max(store.count(None, pred, None), 1)))
    bound: set[str] = set()

    def is_bound(term) -> bool:
        return not isinstance(term, Variable) or term.name in bound

    def rank(idx: int) -> tuple:
        p = patterns[idx]
        bound_terms = sum(map(is_bound, (p.subject, p.predicate, p.object)))
        if is_bound(p.subject):
            return (-bound_terms, 0, idx)
        if isinstance(p.object, Variable) and is_bound(p.object):
            return (-bound_terms, 1, idx)
        return (-bound_terms, 2, *matches[idx], idx)

    remaining = list(range(len(patterns)))
    plan = []
    while remaining:
        best = min(remaining, key=rank)
        remaining.remove(best)
        plan.append(patterns[best])
        p = patterns[best]
        bound.update(t.name for t in (p.subject, p.predicate, p.object) if isinstance(t, Variable))
    return plan


def brute_force_bottleneck_cover(tokens_a, tokens_b, pair_similarity, threshold):
    """Largest smallest-pair similarity over every complete one-to-one
    cover with all pairs >= threshold, trying each permutation of
    tokens_b; None when the lists differ in length, are empty or have no
    such cover. Short lists only."""
    if len(tokens_a) != len(tokens_b) or not tokens_a:
        return None
    best = None
    for perm in itertools.permutations(tokens_b):
        sims = [pair_similarity(a, b) for a, b in zip(tokens_a, perm)]
        if min(sims) >= threshold and (best is None or min(sims) > best):
            best = min(sims)
    return best


def reference_frequency_ic(thesaurus: taxsim.Thesaurus, freqs: dict) -> dict:
    """Freq-mode IC with each synset's count added to every one of its
    distinct ancestors, read off a full ancestor set per synset."""
    cumulative = {sid: 0.0 for sid in thesaurus.synsets}
    for sid, freq in freqs.items():
        seen, stack = set(), [sid]
        while stack:
            current = stack.pop()
            if current not in seen:
                seen.add(current)
                stack.extend(thesaurus.synsets[current].hypernyms)
        for ancestor in seen:
            cumulative[ancestor] += freq
    total = cumulative[thesaurus.roots[0]]
    return {
        sid: -math.log(count / total) if count / total > 0 else math.inf
        for sid, count in cumulative.items()
    }


@lru_cache(maxsize=None)
def _global_alignment(a: str, b: str) -> int:
    """Plain recursive Needleman-Wunsch score of two whole strings."""
    if not a:
        return len(b) * SW_GAP
    if not b:
        return len(a) * SW_GAP
    sub = SW_MATCH if a[0] == b[0] else SW_MISMATCH
    return max(
        sub + _global_alignment(a[1:], b[1:]),
        SW_GAP + _global_alignment(a[1:], b),
        SW_GAP + _global_alignment(a, b[1:]),
    )


def exhaustive_local_alignment(s1: str, s2: str) -> int:
    """Best global alignment over every pair of substrings; the slow but
    obviously-correct counterpart of the Smith-Waterman recurrence."""
    best = 0
    subs1 = {s1[i:j] for i in range(len(s1)) for j in range(i + 1, len(s1) + 1)}
    subs2 = {s2[i:j] for i in range(len(s2)) for j in range(i + 1, len(s2) + 1)}
    for a in subs1:
        for b in subs2:
            score = _global_alignment(a, b)
            if score > best:
                best = score
    return best


def all_strings(alphabet: str, max_len: int) -> list[str]:
    out = [""]
    for length in range(1, max_len + 1):
        out.extend("".join(chars) for chars in itertools.product(alphabet, repeat=length))
    return out


# --------------------------------------------------------------------------
# the aligner with every name comparison made afresh and every same-kind
# pair scored, as it was before the per-run name table and the candidate
# index


def per_call_name_matcher(threshold: float = 0.9):
    """Tokenized Jaro-Winkler comparison: every token must pair off at or
    above the threshold."""

    def matcher(a: str, b: str) -> bool:
        return (
            token_sequence_match(tokenize(a), tokenize(b), jaro_winkler, threshold) is not None
        )

    return matcher


def per_call_translated_matcher(o1, translations, threshold: float):
    """A left name matches a right name when one of its candidate keys does."""
    keys_by_name: dict[str, list[list[str]]] = {}
    for iri, keys in translations.items():
        name = o1.display_name(o1.entities[iri])
        keys_by_name.setdefault(name, [])
        for key in keys:
            keys_by_name[name].append(tokenize(key))

    def translated_matcher(a_name: str, b_name: str) -> bool:
        b_tokens = tokenize(b_name)
        for tokens in keys_by_name.get(a_name, [tokenize(a_name)]):
            if token_sequence_match(tokens, b_tokens, jaro_winkler, threshold) is not None:
                return True
        return False

    return translated_matcher


def kind_pairs(o1, o2):
    """Every same-kind (left, right) entity pair."""
    pairs = []
    for kind in ontomodel.Kind:
        rights = o2.by_kind(kind)
        pairs.extend((e1, e2) for e1 in o1.by_kind(kind) for e2 in rights)
    return pairs


def all_pairs_tree_scores(o1, o2, translations):
    """The tree score of every class pair, nonzero or not, in (left,
    right) class order: every class expanded, every pair scored through
    the per-call translated matcher."""
    matcher = per_call_translated_matcher(o1, translations, structsim.LABEL_THRESHOLD)
    classes1, classes2 = o1.classes(), o2.classes()
    trees1 = {c.iri: structsim.expand_tree(o1, c) for c in classes1}
    trees2 = {c.iri: structsim.expand_tree(o2, c) for c in classes2}
    return [
        (c1, c2, structsim.tree_similarity(trees1[c1.iri], trees2[c2.iri], matcher))
        for c1 in classes1
        for c2 in classes2
    ]


def per_call_structural(o1, o2, seed, translations):
    """aligner.structural_correspondences with both rules run through the
    per-call name matcher and a tree score for every class pair."""
    matcher = per_call_name_matcher(structsim.LABEL_THRESHOLD)
    seed_pairs = seed.pairs()
    out = []
    seen = set()
    for left, right in structsim.triple_rule(
        o1, o2, seed_pairs, matcher
    ) + structsim.subclass_rule(o1, o2, seed_pairs, matcher):
        if (left.iri, right.iri) not in seen:
            seen.add((left.iri, right.iri))
            out.append(aligner.Correspondence(left, right, 1.0, aligner.SOURCE_STRUCTURE))
    for c1, c2, score in all_pairs_tree_scores(o1, o2, translations):
        if score > 0:
            out.append(aligner.Correspondence(c1, c2, score, aligner.SOURCE_STRUCTURE))
    return out


def per_call_align(o1, o2, translator, cfg, thesaurus=None) -> aligner.Alignment:
    """aligner.align as it was before the per-run name table and the
    candidate index: every same-kind pair goes through the string and
    lexical stage loops, and every class pair through the tree walk, with
    each name comparison made afresh."""
    translations = aligner._translated(o1, translator, cfg)

    sim = jaro_winkler
    if cfg.sw_enabled:

        def sim(a: str, b: str) -> float:
            return max(jaro_winkler(a, b), sw_normalized(a, b))

    key_tokens = {
        iri: [tokenize(key) for key in keys] for iri, keys in translations.items()
    }
    name_tokens2 = {e.iri: tokenize(o2.display_name(e)) for e in o2.entities.values()}
    string_stage = []
    for e1, e2 in kind_pairs(o1, o2):
        best = None
        for tokens in key_tokens[e1.iri]:
            score = token_sequence_match(tokens, name_tokens2[e2.iri], sim, cfg.jw_threshold)
            if score is not None and (best is None or score > best):
                best = score
        if best is not None:
            string_stage.append(
                aligner.Correspondence(e1, e2, min(best, 1.0), aligner.SOURCE_STRING)
            )

    lexical_stage = []
    if thesaurus is not None:
        covered = {(c.left.iri, c.right.iri) for c in string_stage}
        name2 = {e.iri: " ".join(tokenize(o2.display_name(e))) for e in o2.entities.values()}
        for e1, e2 in kind_pairs(o1, o2):
            if (e1.iri, e2.iri) in covered:
                continue
            best = 0.0
            for key in translations[e1.iri]:
                value = taxsim.lexical_match(thesaurus, " ".join(tokenize(key)), name2[e2.iri])
                best = max(best, value)
            if best >= cfg.jcn_threshold:
                lexical_stage.append(
                    aligner.Correspondence(
                        e1, e2, aligner._jcn_to_score(best), aligner.SOURCE_LEXICAL
                    )
                )

    structural_stage = []
    if cfg.structure_enabled:
        seed = aligner.greedy_one_to_one(string_stage + lexical_stage)
        structural_stage = per_call_structural(o1, o2, seed, translations)
    return aligner.greedy_one_to_one(string_stage + lexical_stage + structural_stage)


def reference_greedy_one_to_one(correspondences) -> aligner.Alignment:
    """aligner.greedy_one_to_one as two passes: first keep each pair's
    maximum score (on ties, the earlier stage's proposal), then select by
    descending score with ties by (left IRI, right IRI) bytes."""
    priority = {aligner.SOURCE_STRING: 0, aligner.SOURCE_LEXICAL: 1, aligner.SOURCE_STRUCTURE: 2}
    best = {}
    for corr in correspondences:
        key = (corr.left.iri, corr.right.iri)
        current = best.get(key)
        if (
            current is None
            or corr.score > current.score
            or (corr.score == current.score and priority[corr.source] < priority[current.source])
        ):
            best[key] = corr
    pool = sorted(best.values(), key=lambda c: (-c.score, c.left.iri, c.right.iri))
    lefts, rights, chosen = set(), set(), []
    for corr in pool:
        if corr.left.iri not in lefts and corr.right.iri not in rights:
            lefts.add(corr.left.iri)
            rights.add(corr.right.iri)
            chosen.append(corr)
    return aligner.Alignment(chosen)
