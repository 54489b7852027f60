"""Self-tests of the benchmark's generators.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GEN = HERE.parent / "gen.py"
sys.path.insert(0, str(HERE.parent))

import gen  # noqa: E402


def _generate(out: Path, seed: int) -> dict[str, str]:
    subprocess.run([sys.executable, str(GEN), "--seed", str(seed), "--out", str(out)], check=True)
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def test_same_seed_same_bytes(tmp_path):
    first = _generate(tmp_path / "a", 7)
    second = _generate(tmp_path / "b", 7)
    assert len(first) == 7 + 2 + 3 * gen.CLI_PAIRS  # tables, snapshot and thesaurus, three files per pair
    assert first == second


def test_other_seed_other_bytes(tmp_path):
    assert _generate(tmp_path / "a", 7) != _generate(tmp_path / "b", 8)


def test_pair_plants_each_route_in_exact_shares():
    dictionary = gen.make_dictionary(3, 1200)
    left, right, reference = gen.make_pair(dictionary, 3, 0, 40)
    assert len(reference.splitlines()) == 60  # 40 classes and 20 properties
    labels = [line.split('"')[1] for line in left.splitlines() if "rdf-schema#label" in line]
    whole = [l for l in labels if l.lower() in dictionary.fr_phrases]
    assert len(whole) == round(0.30 * 60)


def test_every_entry_has_its_own_wiki_text_row():
    tables = gen.make_dictionary(5, 500, (1, 3)).tables
    assert len(tables["wiki_text"]) == len(tables["translation_entry"])
    assert sorted(row[3] for row in tables["translation_entry"]) == [row[0] for row in tables["wiki_text"]]
