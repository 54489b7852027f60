"""Seeded input generators for the benchmark.

Everything the program under test reads is made here from the workload
seed: the seven dictionary tables (as TSV files or a store snapshot),
ontology pairs with their planted reference alignment, and a thesaurus.
The same seed always gives the same bytes.

    python3 perfbench/gen.py --seed 7 --out DIR

writes a small set into DIR (a 600-page dictionary as tables and as a
snapshot, its thesaurus, two pairs of 20 classes), which is how the
self-test compares two generations byte for byte.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

LANGS = (
    ("en", "English"),
    ("fr", "French"),
    ("de", "German"),
    ("es", "Spanish"),
    ("it", "Italian"),
    ("ru", "Russian"),
)
SOURCE, TARGET = "fr", "en"
_LANG_ID = {code: i for i, (code, _) in enumerate(LANGS, start=1)}

_ONSETS = "b c d f g h j k l m n p r s t v w z br dr fl gr kl pl pr sk st tr".split()
_VOWELS = "a e i o u au ei ou".split()
_CODAS = ["", "", "", "n", "r", "s", "l", "m", "k"]

# label routes of an ontology pair, with their exact share of entities
ROUTES = (
    ("whole", 0.30),  # the whole label is a headword; right label is its translation
    ("token1", 0.20),  # one-token label, translated per token
    ("tokenN", 0.15),  # 2-3 tokens, each translated, the label as a whole not
    ("synonym", 0.10),  # one token whose translation is a thesaurus synonym of the right label
    ("code", 0.10),  # untranslatable identifier spelled the same on both sides
    ("none", 0.15),  # untranslatable word; the right label is unrelated
)

FREE_WORDS = 400
IC_STEP = 1.5  # IC gap per thesaurus level; any two distinct synsets score JCN < 1

ONTO_NS = "http://bench.example/onto/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
RDFS_SUBCLASS_OF = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
RDFS_DOMAIN = "http://www.w3.org/2000/01/rdf-schema#domain"
RDFS_RANGE = "http://www.w3.org/2000/01/rdf-schema#range"
OWL_CLASS = "http://www.w3.org/2002/07/owl#Class"
OWL_OBJECT_PROPERTY = "http://www.w3.org/2002/07/owl#ObjectProperty"


class _Words:
    """Unique lowercase pseudo-words, 2-3 syllables each."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._taken: set[str] = set()

    def word(self) -> str:
        rng = self._rng
        while True:
            syllables = rng.choice((2, 2, 3))
            w = "".join(
                rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                for _ in range(syllables)
            )
            if w not in self._taken:
                self._taken.add(w)
                return w

    def phrase(self, n: int) -> str:
        return " ".join(self.word() for _ in range(n))


@dataclass
class Dictionary:
    """The generated tables plus what the other generators draw on."""

    tables: dict[str, list[tuple]]
    fr_words: dict[str, str] = field(default_factory=dict)  # one-word fr headword -> en word
    fr_phrases: dict[str, str] = field(default_factory=dict)  # fr phrase headword -> en phrase
    synonyms: dict[str, str] = field(default_factory=dict)  # en word -> en synonym outside the tables
    free_words: list[str] = field(default_factory=list)  # in no table
    en_heads: list[str] = field(default_factory=list)  # en headwords, for the SPARQL workload

    def write_tables(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, rows in self.tables.items():
            text = "".join("\t".join(str(c) for c in row) + "\n" for row in rows)
            (directory / f"{name}.tsv").write_text(text, encoding="utf-8")

    def write_snapshot(self, path: Path) -> None:
        payload = {name: [list(row) for row in rows] for name, rows in self.tables.items()}
        path.write_text(json.dumps(payload, ensure_ascii=False, sort_keys=True), encoding="utf-8")


def make_dictionary(
    seed: int,
    pages: int,
    entries: tuple[int, int] = (4, 4),
    page_langs: tuple[str, ...] = tuple(code for code, _ in LANGS),
) -> Dictionary:
    """`pages` pages whose languages cycle through `page_langs`. Each page
    has one lang_pos, one meaning and one translation with
    entries[0]..entries[1] translation entries in distinct languages.
    Every entry has its own wiki_text row. fr pages always list an en
    translation; 30% of them are 2-3 word phrases whose tokens are not
    headwords. A fifth of the one-word fr headwords get an en synonym for
    the thesaurus, and FREE_WORDS words appear in no table."""
    rng = random.Random(f"dictionary:{seed}")
    words = _Words(rng)
    tables: dict[str, list[tuple]] = {
        "language": [(_LANG_ID[c], c, name) for c, name in LANGS],
        "page": [],
        "lang_pos": [],
        "meaning": [],
        "translation": [],
        "translation_entry": [],
        "wiki_text": [],
    }
    out = Dictionary(tables)
    for page_id in range(1, pages + 1):
        lang = page_langs[(page_id - 1) % len(page_langs)]
        others = [c for c, _ in LANGS if c != lang]
        tokens = rng.choice((2, 2, 3)) if lang == SOURCE and rng.random() < 0.3 else 1
        title = words.phrase(tokens)
        tables["page"].append((page_id, title))
        tables["lang_pos"].append((page_id, page_id, _LANG_ID[lang]))
        tables["meaning"].append((page_id, page_id))
        tables["translation"].append((page_id, page_id, page_id))
        k = min(rng.randint(*entries), len(others))
        if lang == SOURCE:
            targets = [TARGET] + rng.sample([c for c in others if c != TARGET], k - 1)
        else:
            targets = rng.sample(others, k)
        for target in targets:
            entry_id = len(tables["translation_entry"]) + 1
            text = words.phrase(tokens)
            tables["translation_entry"].append((entry_id, page_id, _LANG_ID[target], entry_id))
            tables["wiki_text"].append((entry_id, text))
            if lang == SOURCE and target == TARGET:
                if tokens > 1:
                    out.fr_phrases[title] = text
                else:
                    out.fr_words[title] = text
        if lang == TARGET:
            out.en_heads.append(title)
    for fr in list(out.fr_words)[::5]:
        out.synonyms[out.fr_words[fr]] = words.word()
    out.free_words = [words.word() for _ in range(FREE_WORDS)]
    return out


def _ntriple(s: str, p: str, o: str, literal: bool = False) -> str:
    obj = f'"{o}"' if literal else f"<{o}>"
    return f"<{s}> <{p}> {obj} .\n"


def make_pair(dictionary: Dictionary, seed: int, index: int, classes: int) -> tuple[str, str, str]:
    """One ontology pair: (left N-Triples, right N-Triples, reference TSV).

    `classes` classes in a random subclass tree and classes/2 object
    properties with distinct (domain, range). The right ontology mirrors
    the left under shuffled IRIs; labels follow ROUTES in exact shares,
    and every word is used once per pair. The reference pairs each left
    entity with its mirror image.
    """
    rng = random.Random(f"pair:{seed}:{index}")
    props = classes // 2
    total = classes + props
    routes: list[str] = []
    for name, share in ROUTES[:-1]:
        routes += [name] * round(share * total)
    routes += [ROUTES[-1][0]] * (total - len(routes))
    rng.shuffle(routes)

    plain = [w for w in dictionary.fr_words if dictionary.fr_words[w] not in dictionary.synonyms]
    with_synonym = [w for w in dictionary.fr_words if dictionary.fr_words[w] in dictionary.synonyms]
    pools = {
        "phrase": rng.sample(sorted(dictionary.fr_phrases), routes.count("whole")),
        "plain": rng.sample(plain, routes.count("token1") + 3 * routes.count("tokenN")),
        "synonym": rng.sample(with_synonym, routes.count("synonym")),
        "free": rng.sample(dictionary.free_words, routes.count("code") + 2 * routes.count("none")),
    }

    def labels(route: str) -> tuple[str, str]:
        if route == "whole":
            fr = pools["phrase"].pop()
            return fr, dictionary.fr_phrases[fr]
        if route in ("token1", "tokenN"):
            fr_tokens = [pools["plain"].pop() for _ in range(1 if route == "token1" else rng.choice((2, 3)))]
            return " ".join(fr_tokens), " ".join(dictionary.fr_words[t] for t in fr_tokens)
        if route == "synonym":
            fr = pools["synonym"].pop()
            return fr, dictionary.synonyms[dictionary.fr_words[fr]]
        if route == "code":
            code = pools["free"].pop()
            return code, code
        return pools["free"].pop(), pools["free"].pop()

    left_ns = f"{ONTO_NS}{seed}/{index}/src#"
    right_ns = f"{ONTO_NS}{seed}/{index}/tgt#"
    left_ids = rng.sample(range(total), total)
    right_ids = rng.sample(range(total), total)
    left_iri = [f"{left_ns}{'c' if i < classes else 'p'}{left_ids[i]:03d}" for i in range(total)]
    right_iri = [f"{right_ns}{'c' if i < classes else 'p'}{right_ids[i]:03d}" for i in range(total)]

    parent = [None] + [rng.randrange(i) for i in range(1, classes)]
    ends: set[tuple[int, int]] = set()
    while len(ends) < props:
        ends.add((rng.randrange(classes), rng.randrange(classes)))
    prop_ends = sorted(ends)
    rng.shuffle(prop_ends)

    left_lines: list[str] = []
    right_lines: list[str] = []
    for i in range(total):
        fr, en = labels(routes[i])
        if i < classes:
            fr, en = fr.capitalize(), en.capitalize()
        for lines, iris, label in ((left_lines, left_iri, fr), (right_lines, right_iri, en)):
            kind = OWL_CLASS if i < classes else OWL_OBJECT_PROPERTY
            lines.append(_ntriple(iris[i], RDF_TYPE, kind))
            lines.append(_ntriple(iris[i], RDFS_LABEL, label, literal=True))
            if i < classes and parent[i] is not None:
                lines.append(_ntriple(iris[i], RDFS_SUBCLASS_OF, iris[parent[i]]))
            if i >= classes:
                domain, range_ = prop_ends[i - classes]
                lines.append(_ntriple(iris[i], RDFS_DOMAIN, iris[domain]))
                lines.append(_ntriple(iris[i], RDFS_RANGE, iris[range_]))
    reference = sorted(f"{left_iri[i]}\t{right_iri[i]}\t1.0000\n" for i in range(total))
    return "".join(left_lines), "".join(right_lines), "".join(reference)


def make_thesaurus(dictionary: Dictionary, seed: int) -> str:
    """IC-mode thesaurus over the en vocabulary of the fr headwords.

    A root, two levels of category synsets and one leaf synset per en
    word; a word with a planted synonym shares its leaf with it. IC grows
    by IC_STEP per level, so two distinct synsets are at least IC_STEP
    apart and their Jiang-Conrath similarity stays below 1; only words of
    the same synset reach the lexical stage's threshold of 1.
    """
    rng = random.Random(f"thesaurus:{seed}")
    rows = ["root-0\tentity\t\t0.0\tic\n"]
    level1 = [f"cat-{i}" for i in range(8)]
    level2 = [f"sub-{i}" for i in range(32)]
    for sid in level1:
        rows.append(f"{sid}\t{sid.replace('-', '')}\troot-0\t{IC_STEP:.1f}\tic\n")
    for i, sid in enumerate(level2):
        rows.append(f"{sid}\t{sid.replace('-', '')}\t{level1[i % len(level1)]}\t{2 * IC_STEP:.1f}\tic\n")
    leaves = sorted(set(dictionary.fr_words.values()))
    for i, word in enumerate(leaves):
        members = [word] + ([dictionary.synonyms[word]] if word in dictionary.synonyms else [])
        rows.append(f"leaf-{i}\t{'|'.join(members)}\t{rng.choice(level2)}\t{3 * IC_STEP:.1f}\tic\n")
    return "".join(rows)


# the set the command line writes
CLI_PAGES, CLI_PAIRS, CLI_CLASSES = 600, 2, 20


def write_inputs(seed: int, out: Path) -> None:
    dictionary = make_dictionary(seed, CLI_PAGES)
    dictionary.write_tables(out / "dict")
    dictionary.write_snapshot(out / "store.json")
    (out / "thesaurus.tsv").write_text(make_thesaurus(dictionary, seed), encoding="utf-8")
    for index in range(CLI_PAIRS):
        left, right, reference = make_pair(dictionary, seed, index, CLI_CLASSES)
        (out / f"pair{index}_src.nt").write_text(left, encoding="utf-8")
        (out / f"pair{index}_tgt.nt").write_text(right, encoding="utf-8")
        (out / f"pair{index}_ref.tsv").write_text(reference, encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    write_inputs(args.seed, args.out)


if __name__ == "__main__":
    main()
