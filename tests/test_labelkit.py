import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, brute_force_bottleneck_cover
from lexalign.labelkit import (
    DictionaryTranslator,
    EndpointTranslator,
    LabelError,
    StaticTableTranslator,
    token_sequence_match,
    tokenize,
    translate_label,
)
from lexalign.lexiserve import ClientTransportError, ServiceConfig, serve
from lexalign.strsim import jaro_winkler


def test_tokenize_camel_case():
    assert tokenize("dateDePublication") == ["date", "de", "publication"]


def test_tokenize_hyphen():
    assert tokenize("Extrait-Compilation") == ["extrait", "compilation"]


def test_tokenize_no_boundary():
    assert tokenize("isbn") == ["isbn"]


@pytest.mark.parametrize(
    "label,expected",
    [
        ("MotionPicture", ["motion", "picture"]),
        ("shortName", ["short", "name"]),
        ("snake_case_name", ["snake", "case", "name"]),
        ("rain cats and dogs", ["rain", "cats", "and", "dogs"]),
        ("a  b", ["a", "b"]),
        ("nomÉcole", ["nom", "école"]),
        ("ISBN", ["isbn"]),
    ],
)
def test_tokenize_cases(label, expected):
    assert tokenize(label) == expected


def test_tokenize_empty_label_rejected():
    with pytest.raises(LabelError):
        tokenize("")


def test_tokenize_idempotent_on_its_output():
    rng = random.Random(99)
    alphabet = "abcdefgh"
    samples = ["dateDePublication", "Extrait-Compilation", "MotionPicture", "isbn"]
    samples += [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8))) for _ in range(50)
    ]
    for label in samples:
        tokens = tokenize(label)
        assert tokenize(" ".join(tokens)) == tokens


def test_translate_label_universite(dict_translator):
    assert translate_label("Université", dict_translator, "fr", "en") == ["school", "university"]


def test_translate_label_nomcourt_no_recombination(dict_translator):
    assert tokenize("nomCourt") == ["nom", "court"]
    # each token's candidates stand alone: no "short name" is made up
    keys = translate_label("nomCourt", dict_translator, "fr", "en")
    assert keys == ["name", "noun", "court", "short"]


def test_translate_label_fallback(dict_translator):
    assert translate_label("isbn", dict_translator, "fr", "en") == ["isbn"]


def test_translate_label_never_empty(dict_translator):
    for label in ("isbn", "Université", "nomCourt", "zzz-unknown"):
        assert translate_label(label, dict_translator, "fr", "en")


def test_dictionary_translator_union(biblio_store):
    translator = DictionaryTranslator(biblio_store)
    # reverse lookup: French word found among the English entries
    assert translator.translate("film", "fr", "en") == [
        "cinema",
        "film",
        "flick",
        "motion picture",
        "movie",
    ]
    # forward lookup: English headword to its French terms
    assert translator.translate("school", "en", "fr") == ["université", "école"]
    assert translator.translate("zzz", "fr", "en") == []


def test_static_table_exactness():
    translator = StaticTableTranslator.from_file(FIXTURES / "static_table.tsv")
    assert translator.translate("nomCourt", "fr", "en") == ["Shortname"]
    assert translator.translate("isbn", "fr", "en") == ["isbn"]
    assert translator.translate("absent", "fr", "en") == []
    assert translator.translate("nomCourt", "fr", "de") == []


def test_static_table_rejects_bad_rows(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("fr\ten\tword\n", "utf-8")
    with pytest.raises(LabelError, match="expected 4 columns"):
        StaticTableTranslator.from_file(path)


def test_static_table_drives_translate_label():
    translator = StaticTableTranslator([("fr", "en", "livre", "book")])
    assert translate_label("Livre", translator, "fr", "en") == ["book"]
    assert translate_label("Inconnu", translator, "fr", "en") == ["Inconnu"]


def test_endpoint_translator_equals_dictionary_translator(biblio_store):
    local = DictionaryTranslator(biblio_store)
    with serve(ServiceConfig(port=0), biblio_store) as handle:
        remote = EndpointTranslator(handle.endpoint)
        for word in ("film", "Université".lower(), "nomCourt", "nom", "zzz", "school"):
            for src, tgt in (("fr", "en"), ("en", "fr")):
                assert remote.translate(word, src, tgt) == local.translate(word, src, tgt)


def test_endpoint_translator_propagates_transport_errors():
    remote = EndpointTranslator("http://127.0.0.1:9", timeout_ms=300)
    with pytest.raises(ClientTransportError):
        remote.translate("word", "fr", "en")


def test_token_sequence_match_basics():
    jw = jaro_winkler
    assert token_sequence_match(["motion", "picture"], ["motion", "picture"], jw, 0.9) == 1.0
    assert token_sequence_match(["short"], ["short", "name"], jw, 0.9) is None
    assert token_sequence_match([], [], jw, 0.9) is None
    # order-insensitive complete cover
    assert token_sequence_match(["name", "short"], ["short", "name"], jw, 0.9) == 1.0
    assert token_sequence_match(["noun", "short"], ["short", "name"], jw, 0.9) is None


def test_token_sequence_match_returns_weakest_link():
    def sim(a, b):
        return 1.0 if a == b else 0.92

    score = token_sequence_match(["a", "b"], ["a", "x"], sim, 0.9)
    assert score == 0.92


_TOKENS = st.lists(st.sampled_from(["a", "ab", "abc", "b", "nam", "name", "names", "short"]), max_size=5)
_THRESHOLDS = st.sampled_from([0.0, 0.5, 0.9, 0.95, 1.0])


@settings(max_examples=300, deadline=None)
@given(_TOKENS, _TOKENS, _THRESHOLDS)
def test_token_sequence_match_equals_permutation_oracle(tokens_a, tokens_b, threshold):
    assert token_sequence_match(
        tokens_a, tokens_b, jaro_winkler, threshold
    ) == brute_force_bottleneck_cover(tokens_a, tokens_b, jaro_winkler, threshold)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.9, 0.95, 1.0]), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    _THRESHOLDS,
)
def test_token_sequence_match_on_tied_similarities_equals_oracle(matrix, threshold):
    def sim(i, j):
        return matrix[i][j]

    rows = list(range(len(matrix)))
    assert token_sequence_match(rows, rows, sim, threshold) == brute_force_bottleneck_cover(
        rows, rows, sim, threshold
    )


def test_token_sequence_match_on_repeated_tokens_is_polynomial():
    start = time.perf_counter()
    assert token_sequence_match(["a"] * 12, ["a"] * 12, jaro_winkler, 0.9) == 1.0
    assert token_sequence_match(["a"] * 11 + ["b"], ["a"] * 12, jaro_winkler, 0.9) is None
    assert time.perf_counter() - start < 1.0
