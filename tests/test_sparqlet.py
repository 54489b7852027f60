import random
from types import SimpleNamespace

import pytest

from conftest import (
    IDIOM_ROWS,
    brute_force_evaluate,
    print_query,
    random_query,
    reference_plan_order,
    store_of,
)
from lexalign.dictstore import TABLE_NAMES, DictionaryStore
from lexalign import sparqlet
from lexalign.sparqlet import (
    Query,
    QueryParseError,
    QueryTimeout,
    TriplePattern,
    evaluate,
    parse_query,
    plan_order,
)
from lexalign.triplemap import WIKPA_BASE, Iri, Literal, Variable, to_triples


def test_parse_translation_query(translation_query_text):
    query = parse_query(translation_query_text)
    assert [v.name for v in query.select_vars] == ["langCode", "langName", "translationWord"]
    assert len(query.patterns) == 21
    assert query.limit == 7


def test_parse_single_pattern():
    query = parse_query('SELECT ?x WHERE { ?x wikpa:lang_code "en" . }')
    assert len(query.patterns) == 1
    assert query.limit is None
    assert query.patterns[0] == TriplePattern(
        Variable("x"), Iri(WIKPA_BASE + "lang_code"), Literal("en")
    )


def test_select_var_unused_is_error():
    with pytest.raises(QueryParseError, match=r"\?x not used"):
        parse_query("SELECT ?x WHERE { }")


def test_syntax_error_carries_line_and_column():
    text = 'SELECT ?x WHERE {\n  ?x wikpa:lang_code\n}'
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert err.value.line == 3
    assert "3:" in str(err.value)


@pytest.mark.parametrize(
    "text, position, message",
    [
        pytest.param(
            'SELECT ?x @ WHERE {\n  ?x wikpa:lang_code "en" .\n}',
            (1, 11),
            "unexpected character '@'",
            id="bad-character-first-line",
        ),
        pytest.param(
            'SELECT ?x WHERE {\n  ?x wikpa:lang_code "en" .\n} LIMIT 3 #',
            (3, 11),
            "unexpected character '#'",
            id="bad-character-last-line",
        ),
        pytest.param(
            'SELECT ?x WHERE {\n  ?x wikpa:lang_code "en" .\n  ',
            (3, 3),
            "unterminated WHERE block",
            id="unterminated-where",
        ),
        pytest.param(
            'SELECT ?x WHERE {\n  ?x wikpa:wiki_text_text "two\nlines" ; "p" ?y .\n}',
            (3, 10),
            "literal not allowed here",
            id="after-multi-line-literal",
        ),
        pytest.param(
            'SELECT ?x WHERE {\n  ?x wikpa:wiki_text_text "two\nlines"; wikpa:wiki_text_id ?y ! }',
            (3, 31),
            "unexpected character '!'",
            id="bad-character-after-multi-line-literal",
        ),
        pytest.param(
            "SELECT ?x WHERE {\n  ?x wikpa:lang_code ?c ;\n     wikpa:lang_id ?i .\n"
            "  ?y nope:lang_id ?i .\n}",
            (4, 6),
            "unknown prefix: 'nope'",
            id="unknown-prefix-after-multi-line-group",
        ),
        pytest.param(
            'SELECT ?x WHERE { ?x wikpa:lang_code "en" . } LIMIT',
            (1, 52),
            "expected integer after LIMIT",
            id="limit-at-end-of-input",
        ),
        pytest.param(
            '\r\n\tSELECT ?x WHERE {\r\n\t?x wikpa:lang_code "en" .\r\n} LIMIT 0',
            (4, 9),
            "LIMIT must be positive",
            id="crlf-and-tabs",
        ),
        pytest.param(
            'SELECT ?x WHERE { ?x wikpa:lang_code "en" . }\nLIMIT ' + "9" * 5000,
            (2, 7),
            "LIMIT has too many digits",
            id="limit-beyond-int-conversion",
        ),
    ],
)
def test_parse_error_positions(text, position, message):
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert (err.value.line, err.value.column) == position
    assert str(err.value) == f"{position[0]}:{position[1]}: {message}"


def test_unknown_prefix_is_parse_error():
    with pytest.raises(QueryParseError, match="unknown prefix"):
        parse_query('SELECT ?x WHERE { ?x nope:p "v" . }')


def test_literal_predicate_rejected():
    with pytest.raises(QueryParseError, match="literal not allowed"):
        parse_query('SELECT ?x WHERE { ?x "p" ?y . }')


def test_literal_subject_rejected():
    with pytest.raises(QueryParseError, match="literal not allowed"):
        parse_query('SELECT ?x WHERE { "s" wikpa:p ?x . }')


def test_missing_limit_value():
    with pytest.raises(QueryParseError, match="integer after LIMIT"):
        parse_query('SELECT ?x WHERE { ?x wikpa:p "v" . } LIMIT x')


def test_trailing_garbage_rejected():
    with pytest.raises(QueryParseError, match="trailing input"):
        parse_query('SELECT ?x WHERE { ?x wikpa:p "v" . } nonsense')


def test_evaluate_translation_query(idioms_triples, translation_query_text):
    result = evaluate(parse_query(translation_query_text), idioms_triples)
    assert result.header == ["langCode", "langName", "translationWord"]
    assert set(result.rows) == IDIOM_ROWS
    assert len(result.rows) == 7


def test_evaluate_unsatisfiable_is_empty(idioms_triples):
    result = evaluate(
        parse_query('SELECT ?x WHERE { ?x wikpa:lang_code "martian" . }'), idioms_triples
    )
    assert result.rows == []


def test_evaluate_limit_two_keeps_sorted_prefix(idioms_triples, translation_query_text):
    unlimited = evaluate(
        parse_query(translation_query_text.replace("LIMIT 7", "")), idioms_triples
    )
    limited = evaluate(
        parse_query(translation_query_text.replace("LIMIT 7", "LIMIT 2")), idioms_triples
    )
    assert limited.rows == unlimited.rows[:2]
    assert limited.rows == [
        ("cmn", "Mandarin", "傾盆大雨"),
        ("cs", "Czech", "lít jako z konve"),
    ]


def test_plan_order_single_pattern():
    query = parse_query('SELECT ?x WHERE { ?x wikpa:p "v" . }')
    assert plan_order(query) == list(query.patterns)


def test_plan_order_joins_each_pattern_to_bound_variables(idioms_triples, translation_query_text):
    query = parse_query(translation_query_text)
    ordered = plan_order(query, idioms_triples)
    assert sorted(map(repr, ordered)) == sorted(map(repr, query.patterns))

    def variables(p):
        return {t.name for t in (p.subject, p.predicate, p.object) if isinstance(t, Variable)}

    seen = variables(ordered[0])
    for pattern in ordered[1:]:
        assert variables(pattern) & seen, pattern
        seen |= variables(pattern)
    position = {p: i for i, p in enumerate(ordered)}
    entry_lang = next(p for p in ordered if p.predicate.value == WIKPA_BASE + "translation_entry_lang_id")
    for pattern in ordered:
        if pattern.subject == Variable("langSource"):
            assert position[pattern] > position[entry_lang]
    assert all(plan_order(query, idioms_triples) == ordered for _ in range(3))


def test_plan_order_matches_the_reference_planner(idioms_triples, biblio_store):
    rng = random.Random(20260418)
    for graph in (idioms_triples, to_triples(biblio_store)):
        for max_patterns in range(1, 9):
            for _ in range(60):
                query = random_query(graph, rng, max_patterns)
                assert plan_order(query) == reference_plan_order(query), print_query(query)
                assert plan_order(query, graph) == reference_plan_order(query, graph), print_query(
                    query
                )


def test_paper_query_plan_matches_the_reference_planner(idioms_triples, translation_query_text):
    query = parse_query(translation_query_text)
    graphs = [idioms_triples] + [to_triples(shared_word_store(pages)) for pages in (25, 200)]
    for graph in graphs:
        assert plan_order(query, graph) == reference_plan_order(query, graph)
    assert plan_order(query) == reference_plan_order(query)


def test_planning_the_paper_query_counts_only_tied_patterns(idioms_store, translation_query_text):
    query = parse_query(translation_query_text)
    graph = to_triples(idioms_store)
    count = graph.count
    calls = []

    def counted(*args):
        calls.append(args)
        return count(*args)

    graph.count = counted
    assert plan_order(query, graph) == reference_plan_order(query, to_triples(idioms_store))
    assert 0 < len(calls) <= 8


def test_pattern_order_never_changes_result(idioms_triples, translation_query_text):
    query = parse_query(translation_query_text.replace("LIMIT 7", ""))
    baseline = evaluate(query, idioms_triples)
    rng = random.Random(7)
    for _ in range(10):
        patterns = list(query.patterns)
        rng.shuffle(patterns)
        shuffled = Query(query.select_vars, tuple(patterns), query.limit)
        assert evaluate(shuffled, idioms_triples).rows == baseline.rows


def test_printer_round_trip(translation_query_text):
    for text in (
        translation_query_text,
        'SELECT ?x WHERE { ?x wikpa:lang_code "en" . }',
        'SELECT ?a ?b WHERE { ?a wikpa:p ?b ; wikpa:q "x" . } LIMIT 3',
    ):
        query = parse_query(text)
        assert parse_query(print_query(query)) == query


def test_projection_soundness(idioms_triples):
    text = 'SELECT ?code WHERE { ?lang wikpa:lang_code ?code ; wikpa:lang_name ?name . }'
    query = parse_query(text)
    projected = evaluate(query, idioms_triples)
    all_vars = 'SELECT ?code ?lang ?name WHERE { ?lang wikpa:lang_code ?code ; wikpa:lang_name ?name . }'
    full = evaluate(parse_query(all_vars), idioms_triples)
    full_codes = {row[0] for row in full.rows}
    for row in projected.rows:
        assert row[0] in full_codes


def test_evaluate_matches_brute_force_on_fixed_queries(idioms_triples):
    queries = [
        'SELECT ?code ?name WHERE { ?lang wikpa:lang_code ?code ; wikpa:lang_name ?name . }',
        'SELECT ?s WHERE { ?s wikpa:translation_entry_lang_id "4" . }',
        'SELECT ?w WHERE { ?t wikpa:wiki_text_text ?w . } LIMIT 3',
    ]
    for text in queries:
        query = parse_query(text)
        fast = evaluate(query, idioms_triples)
        slow = brute_force_evaluate(query, idioms_triples)
        assert fast.rows == slow.rows, text


def test_evaluate_matches_brute_force_on_random_queries(idioms_triples):
    rng = random.Random(20110330)
    for _ in range(8):
        query = random_query(idioms_triples, rng)
        fast = evaluate(query, idioms_triples)
        slow = brute_force_evaluate(query, idioms_triples)
        assert fast.rows == slow.rows, print_query(query)


def shared_word_store(pages: int) -> DictionaryStore:
    """`pages` en pages, each with one meaning translated into fr, de and
    sv, except page 1, "rain cats and dogs", which has two. A page's fr
    and de entries share one wiki_text row, and its sv entry uses the next
    page's row, so entries outnumber wiki_text rows three to one."""
    tables = {name: [] for name in TABLE_NAMES}
    languages = [("en", "English"), ("fr", "French"), ("de", "German"), ("sv", "Swedish")]
    for lang_id, (code, name) in enumerate(languages, start=1):
        tables["language"].append([lang_id, code, name])
    for page in range(1, pages + 1):
        tables["page"].append([page, "rain cats and dogs" if page == 1 else f"word {page}"])
        tables["lang_pos"].append([page, page, 1])
        tables["wiki_text"].append([page, f"mot {page}"])
        for meaning in (1, 2) if page == 1 else (1,):
            meaning_id = 2 * page + meaning
            tables["meaning"].append([meaning_id, page])
            tables["translation"].append([meaning_id, page, meaning_id])
            for lang_id, text in ((2, page), (3, page), (4, page % pages + 1)):
                tables["translation_entry"].append([10 * meaning_id + lang_id, meaning_id, lang_id, text])
    return store_of(tables)


def test_query_cost_follows_result_not_store(translation_query_text):
    query = parse_query(translation_query_text.replace("LIMIT 7", ""))
    costs = []
    for pages in (25, 200):
        graph = to_triples(shared_word_store(pages))
        calls = examined = 0
        lookup = graph.lookup

        def counted(*args):  # sized answers, as perfbench's sparql-paper replay needs
            nonlocal calls, examined
            calls += 1
            found = lookup(*args)
            examined += len(found)
            return found

        graph.lookup = counted
        result = evaluate(query, graph)
        del graph.lookup
        costs.append((calls, examined))
        assert result.rows == [
            ("de", "German", "mot 1"),
            ("de", "German", "mot 1"),
            ("fr", "French", "mot 1"),
            ("fr", "French", "mot 1"),
            ("sv", "Swedish", "mot 2"),
            ("sv", "Swedish", "mot 2"),
        ]
        if pages == 25:
            assert result.rows == brute_force_evaluate(query, graph).rows
    assert costs[0] == costs[1]


def test_deadline_stops_row_rendering(monkeypatch):
    store = store_of({"wiki_text": [[i, f"word {i}"] for i in range(1, 201)]})
    query = parse_query("SELECT ?x WHERE { ?a wikpa:wiki_text_text ?x . }")
    render = sparqlet.render
    rendered = []
    now = [0.0]  # a clock that only rendering advances

    def slow_render(term):  # 200 rows take 200 ms to render
        rendered.append(term)
        now[0] += 0.001
        return render(term)

    graph = to_triples(store)
    monkeypatch.setattr(sparqlet, "render", slow_render)
    monkeypatch.setattr(sparqlet, "time", SimpleNamespace(monotonic=lambda: now[0]))
    with pytest.raises(QueryTimeout):
        evaluate(query, graph, deadline=0.02)
    assert 0 < len(rendered) < 200
