"""Query text: lexing, parsing, diagnostics, and the canonical printer."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcm.engine import IndexedEngine, SequentialScanEngine
from dvcm.model import SPATIAL_RELATIONS, Granularity
from dvcm.normalize import normalize_key
from dvcm.qlang import (
    FACETS,
    MAX_QUERY_TOKENS,
    STEP_CLASS_TERMS,
    And,
    FacetAtom,
    Or,
    Query,
    QueryParseError,
    SpatialRel,
    SpatioTemporal,
    TemporalRel,
    format_query,
    parse_query,
)
from dvcm.temporal import ALLEN_RELATIONS, DANCER_RELATIONS


# --------------------------------------------------------------------------
# Parsing


def test_simple_atom():
    query = parse_query('find shots where dancer = "Anitha"')
    assert query == Query(Granularity.SHOT, FacetAtom("dancer", "anitha"))


def test_values_are_normalized_at_parse():
    query = parse_query('find scenes where body_part = "  RIGHT   Hand "')
    assert query.body == FacetAtom("body_part", "right hand")


def test_granularity_words():
    assert parse_query('find shots where posture = "x"').granularity == Granularity.SHOT
    assert parse_query('find scenes where posture = "x"').granularity == Granularity.SCENE
    assert (
        parse_query('find cscenes where posture = "x"').granularity
        == Granularity.COMPOUND_SCENE
    )


def test_and_binds_tighter_than_or():
    query = parse_query(
        'find shots where dancer = "a" or posture = "b" and costume = "c"'
    )
    assert query.body == Or(
        FacetAtom("dancer", "a"),
        And(FacetAtom("posture", "b"), FacetAtom("costume", "c")),
    )


def test_parentheses_override_precedence():
    query = parse_query(
        'find shots where (dancer = "a" or posture = "b") and costume = "c"'
    )
    assert query.body == And(
        Or(FacetAtom("dancer", "a"), FacetAtom("posture", "b")),
        FacetAtom("costume", "c"),
    )


def test_operators_are_left_associative():
    query = parse_query(
        'find shots where dancer = "a" and dancer = "b" and dancer = "c"'
    )
    assert query.body == And(
        And(FacetAtom("dancer", "a"), FacetAtom("dancer", "b")),
        FacetAtom("dancer", "c"),
    )


def test_position_does_not_affect_equality():
    compact = parse_query('find shots where dancer = "a" and posture = "b"')
    spread = parse_query('find   shots\n  where\n dancer = "a"\n and posture = "b"')
    assert compact == spread


def test_parsed_nodes_are_hashable_and_immutable():
    texts = [
        'find shots where (dancer = "a" or posture = "b") and costume = "c"',
        'find scenes where follows(dancer = "a", dancer = "b", step = "x")'
        ' and spatial(dancer = "a", dancer = "b", relation = "near")',
    ]
    for text in texts:
        query = parse_query(text)
        again = parse_query(text.replace(" ", "  "))
        assert query == again and hash(query) == hash(again)
        nodes = [query, query.body]
        while nodes:
            node = nodes.pop()
            hash(node)
            field = dataclasses.fields(node)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, field, None)
            nodes += [child for child in vars(node).values() if dataclasses.is_dataclass(child)]
    assert len({parse_query(texts[0]), parse_query(texts[0]), parse_query(texts[1])}) == 2


def test_string_escapes():
    query = parse_query('find shots where costume = "a \\" b \\\\ c"')
    assert query.body == FacetAtom("costume", 'a " b \\ c')


def test_temporal_call():
    query = parse_query(
        'find shots where follows(dancer = "Mina", dancer = "Tara", step = "Gaze")'
    )
    assert query.body == TemporalRel("follows", "mina", "tara", step="gaze")


def test_allen_name_is_a_temporal_call():
    query = parse_query(
        'find scenes where during(dancer = "a", dancer = "b", step_class = "PY")'
    )
    assert query.body == TemporalRel("during", "a", "b", step_class="py")


def test_spatial_call_and_performing_flag():
    query = parse_query(
        'find shots where spatial(dancer = "a", dancer = "b", relation = "near")'
    )
    assert query.body == SpatialRel("near", "a", "b", performing=False)
    query = parse_query(
        "find shots where spatial(dancer = \"a\", dancer = \"b\","
        ' relation = "behind", performing = "TRUE")'
    )
    assert query.body == SpatialRel("behind", "a", "b", performing=True)


def test_spatiotemporal_keeps_written_order():
    temporal_first = parse_query(
        "find shots where equals(dancer = \"a\", dancer = \"b\")"
        ' and spatial(dancer = "a", dancer = "b", relation = "near")'
    )
    assert isinstance(temporal_first.body, SpatioTemporal)
    assert isinstance(temporal_first.body.first, TemporalRel)
    spatial_first = parse_query(
        "find shots where spatial(dancer = \"a\", dancer = \"b\", relation = \"near\")"
        ' and equals(dancer = "a", dancer = "b")'
    )
    assert isinstance(spatial_first.body.first, SpatialRel)
    assert temporal_first != spatial_first


# --------------------------------------------------------------------------
# Diagnostics


@pytest.mark.parametrize(
    "text, line, col, fragment",
    [
        ("", 1, 1, "expected 'find'"),
        ("shots where x", 1, 1, "expected 'find'"),
        ('FIND shots where dancer = "x"', 1, 1, "expected 'find'"),
        ('find videos where dancer = "x"', 1, 6, "'shots', 'scenes' or 'cscenes'"),
        ('find shots dancer = "x"', 1, 12, "expected 'where'"),
        ('find shots where dancer "x"', 1, 25, "expected '='"),
        ("find shots\nwhere dancer = oops", 2, 16, "a quoted string"),
        ('find shots where dancer = "x', 1, 27, "unterminated string"),
        ('find shots where dancer = "x\\', 1, 27, "unterminated string"),
        ('find shots where dancer = "x\\n"', 1, 29, "unknown escape"),
        ('find shots where dancer = "x" !', 1, 31, "unexpected character"),
        ('find shots where dancer = "x" dancer = "y"', 1, 31, "expected end of input"),
        ('find shots where color = "red"', 1, 18, "a facet name or '('"),
        ('find shots where step_class = "zz"', 1, 31, "unknown step class"),
        ('find shots where precedes(dancer = "a", dancer = "b")', 1, 18, "unknown relation"),
        ('find shots where follows(dancer = "a")', 1, 18, "exactly two dancer="),
        (
            'find shots where follows(dancer = "A", dancer = " a ")',
            1,
            40,
            "must differ",
        ),
        (
            "find shots where follows(dancer = \"a\", dancer = \"b\","
            ' step = "x", step_class = "py")',
            1,
            66,
            "at most one step=",
        ),
        (
            'find shots where follows(dancer = "a", dancer = "b", speed = "fast")',
            1,
            54,
            "unknown argument",
        ),
        (
            'find shots where spatial(dancer = "a", dancer = "b")',
            1,
            18,
            "needs a relation=",
        ),
        (
            "find shots where spatial(dancer = \"a\", dancer = \"b\","
            ' relation = "above")',
            1,
            54,
            "unknown spatial relation",
        ),
        (
            "find shots where spatial(dancer = \"a\", dancer = \"b\","
            ' relation = "near", performing = "maybe")',
            1,
            73,
            "performing=",
        ),
        (
            "find shots where follows(dancer = \"a\", dancer = \"b\")"
            ' and repeats(dancer = "a", dancer = "b")',
            1,
            54,
            "one temporal call with one spatial call",
        ),
        (
            "find shots where spatial(dancer = \"a\", dancer = \"b\", relation = \"near\")"
            ' and spatial(dancer = "a", dancer = "b", relation = "meets")',
            1,
            73,
            "one temporal call with one spatial call",
        ),
        (
            "find shots where follows(dancer = \"a\", dancer = \"b\")"
            " and spatial(dancer = \"a\", dancer = \"b\", relation = \"near\")"
            ' and equals(dancer = "a", dancer = "b")',
            1,
            113,
            "at most two relation calls",
        ),
    ],
)
def test_parse_errors(text, line, col, fragment):
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).startswith(f"line {line}, col {col}: ")


SAMPLE_TEXTS = [
    'find shots where dancer = "Anitha" and (costume = "a \\" b \\\\ c" or posture = "x")',
    'find scenes where follows(dancer = "a", dancer = "b", step_class = "py")',
    'find cscenes where spatial(dancer = "a", dancer = "b", relation = "near")'
    ' and\nmeets(dancer = "a", dancer = "b", step = "x")',
]
# characters that end, escape or break a string, or lie beyond the BMP
TROUBLE = ['"', "\\", "\n", "\U0001d518", "\U0001f600", "\u00b2"]


@st.composite
def damaged_texts(draw):
    text = draw(st.sampled_from(SAMPLE_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(TROUBLE)) + text[at:]
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@given(st.text() | damaged_texts())
@settings(max_examples=400)
def test_any_text_parses_or_raises_a_located_parse_error(text):
    try:
        parse_query(text)
    except QueryParseError as err:
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.col <= len(lines[err.line - 1]) + 1


ATOM = 'dancer = "Anitha"'  # three tokens


@pytest.mark.parametrize(
    "body",
    [
        # "find shots where" holds three tokens, each level two, the atom three
        "(" * 125 + ATOM + ")" * 125,
        "(" + " and ".join([ATOM] * 63) + ")",
        "(" + " or ".join([ATOM] * 63) + ")",
        "((" + " and (".join([ATOM] * 42) + ")" * 43,
    ],
    ids=["parentheses", "and-chain", "or-chain", "nested-and"],
)
def test_queries_at_the_token_limit_parse_print_and_evaluate(f1, body):
    text = f"find shots where {body}"
    query = parse_query(text)
    assert parse_query(format_query(query)) == query
    expected = SequentialScanEngine(f1).execute(query)
    assert expected and IndexedEngine(f1).execute(query) == expected
    with pytest.raises(QueryParseError) as err:
        parse_query(f"{text} )")
    assert (err.value.line, err.value.col) == (1, len(text) + 2)
    assert str(err.value).endswith(f"at most {MAX_QUERY_TOKENS} tokens")


def test_rel_call_arguments_are_order_insensitive_for_relation():
    query = parse_query(
        "find shots where spatial(relation = \"near\", dancer = \"a\","
        ' dancer = "b")'
    )
    assert query.body == SpatialRel("near", "a", "b")


# --------------------------------------------------------------------------
# Printer


A = FacetAtom("dancer", "a")
B = FacetAtom("posture", "b")
C = FacetAtom("costume", "c")


@pytest.mark.parametrize(
    "body, text",
    [
        (A, 'dancer = "a"'),
        (And(A, B), 'dancer = "a" and posture = "b"'),
        (And(Or(A, B), C), '(dancer = "a" or posture = "b") and costume = "c"'),
        (Or(A, And(B, C)), 'dancer = "a" or posture = "b" and costume = "c"'),
        (Or(And(A, B), C), 'dancer = "a" and posture = "b" or costume = "c"'),
        (And(A, Or(B, C)), 'dancer = "a" and (posture = "b" or costume = "c")'),
        (And(A, And(B, C)), 'dancer = "a" and (posture = "b" and costume = "c")'),
        (And(And(A, B), C), 'dancer = "a" and posture = "b" and costume = "c"'),
        (Or(Or(A, B), C), 'dancer = "a" or posture = "b" or costume = "c"'),
        (Or(A, Or(B, C)), 'dancer = "a" or (posture = "b" or costume = "c")'),
    ],
)
def test_printer_emits_minimal_parentheses(body, text):
    rendered = format_query(Query(Granularity.SHOT, body))
    assert rendered == f"find shots where {text}"
    assert parse_query(rendered) == Query(Granularity.SHOT, body)


def test_printer_renders_relation_calls():
    query = Query(Granularity.SHOT, TemporalRel("follows", "mina", "tara"))
    assert format_query(query) == (
        'find shots where follows(dancer = "mina", dancer = "tara")'
    )
    query = Query(
        Granularity.SCENE,
        SpatioTemporal(
            SpatialRel("near", "a", "b", performing=True),
            TemporalRel("equals", "a", "b", step_class="cs"),
        ),
    )
    assert format_query(query) == (
        "find scenes where spatial(dancer = \"a\", dancer = \"b\","
        ' relation = "near", performing = "true")'
        ' and equals(dancer = "a", dancer = "b", step_class = "cs")'
    )


def test_printer_escapes_strings():
    query = Query(Granularity.SHOT, FacetAtom("costume", 'a " b \\ c'))
    assert parse_query(format_query(query)) == query


# --------------------------------------------------------------------------
# Round trip property


VALUE_ALPHABET = "abcdefghij XYZ'\"\\éß09_-"
values = st.text(alphabet=VALUE_ALPHABET, max_size=10).map(normalize_key)

plain_atoms = st.builds(
    FacetAtom,
    st.sampled_from([f for f in FACETS if f != "step_class"]),
    values,
)
class_atoms = st.builds(
    FacetAtom, st.just("step_class"), st.sampled_from(STEP_CLASS_TERMS)
)
atoms = plain_atoms | class_atoms
nodes = st.recursive(
    atoms,
    lambda children: st.builds(And, children, children)
    | st.builds(Or, children, children),
    max_leaves=6,
)

names = st.text(alphabet="abcde ", max_size=6).map(normalize_key)
dancer_pairs = st.tuples(names, names).filter(lambda pair: pair[0] != pair[1])

step_constraints = st.one_of(
    st.just((None, None)),
    values.map(lambda v: (v, None)),
    st.sampled_from(STEP_CLASS_TERMS).map(lambda c: (None, c)),
)
temporals = st.builds(
    lambda relation, pair, constraint: TemporalRel(
        relation, pair[0], pair[1], step=constraint[0], step_class=constraint[1]
    ),
    st.sampled_from(DANCER_RELATIONS + ALLEN_RELATIONS),
    dancer_pairs,
    step_constraints,
)
spatials = st.builds(
    lambda relation, pair, performing: SpatialRel(
        relation, pair[0], pair[1], performing
    ),
    st.sampled_from(sorted(SPATIAL_RELATIONS)),
    dancer_pairs,
    st.booleans(),
)
spatiotemporals = st.tuples(temporals, spatials).map(
    lambda t: SpatioTemporal(t[0], t[1])
) | st.tuples(spatials, temporals).map(lambda t: SpatioTemporal(t[0], t[1]))

queries = st.builds(
    Query,
    st.sampled_from(list(Granularity)),
    st.one_of(nodes, temporals, spatials, spatiotemporals),
)


@given(queries)
@settings(max_examples=400)
def test_format_then_parse_is_identity(query):
    assert parse_query(format_query(query)) == query
