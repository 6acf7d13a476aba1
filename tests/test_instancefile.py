import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from holant import (
    InstanceParseError,
    brute_force_hol,
    cycle_graph,
    parse_instance,
    parse_instance_document,
    path_graph,
    prism_graph,
    serialize_instance,
    tractable_search,
)
from holant.exact import auto_hol
from holant.models import MODEL_KINDS, ModelSpec, build_model

SAMPLE = """\
holant 1
q 2
vertices 3
edge 0 1
edge 1 2
function 0 builtin at_most_one
function 1 builtin at_most_one
function 2 table 1 1
"""


def test_parse_sample():
    inst = parse_instance(SAMPLE)
    assert inst.q == 2 and inst.graph.n == 3 and inst.graph.m == 2
    assert brute_force_hol(inst) == 3  # matchings of P3


def test_round_trip_preserves_builtin_forms():
    doc = parse_instance_document(SAMPLE)
    text = serialize_instance(doc)
    assert text == SAMPLE  # identity modulo whitespace, which is already canonical
    assert "builtin at_most_one" in text
    doc2 = parse_instance_document(text)
    assert serialize_instance(doc2) == text
    assert doc2.functions == doc.functions


def test_round_trip_random_instances():
    rng = random.Random(7)
    for _ in range(50):
        inst = random_instance(rng, max_n=6, max_edges=8)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again.q == inst.q
        assert again.graph.edges == inst.graph.edges
        assert all(a is b for a, b in zip(again.functions, inst.functions))
        assert serialize_instance(again) == text


def test_round_trip_gaussian_values():
    text = """\
holant 1
q 2
vertices 2
edge 0 1
function 0 table 1/2+3/4i 2
function 1 table 0 -1/3-2/5i
"""
    inst = parse_instance(text)
    assert inst.functions[0].table[0].im == Fraction(3, 4)
    assert inst.functions[1].table[1].im == Fraction(-2, 5)
    assert parse_instance(serialize_instance(inst)).functions == inst.functions


def test_model_provenance_round_trip():
    inst = build_model(
        ModelSpec("subgraphs_world", {"lambda": Fraction(1, 2), "mu": Fraction(1, 3)}),
        cycle_graph(3),
    )
    text = serialize_instance(inst)
    assert "\nmodel subgraphs_world lambda=1/2 mu=1/3\n" in text
    again = parse_instance(text)
    assert again.model.kind == "subgraphs_world"
    assert again.graph.edges == inst.graph.edges
    assert tractable_search(again, {}) is not None
    # older files carry base_vertices=<n>: an ordinary parameter that nothing reads
    old = parse_instance(text.replace("mu=1/3", "mu=1/3 base_vertices=3"))
    assert old.model.params["base_vertices"] == 3
    assert tractable_search(old, {2: 1}) == tractable_search(again, {2: 1})


def _model_params(kind, graph):
    return {
        "matchings": {},
        "perfect_matchings": {},
        "weighted_matchings": {"edge_weights": [Fraction(k + 1, 2) for k in range(graph.m)]},
        "colorings": {"q": 4},
        "potts": {"q": 3, "lambda": 2},
        "subgraphs_world": {"lambda": Fraction(1, 2), "mu": Fraction(1, 3)},
        "ising": {"beta": Fraction(1, 3), "B": Fraction(1, 4)},
    }[kind]


@pytest.mark.parametrize("graph", [path_graph(3), cycle_graph(4), prism_graph()], ids=["path3", "cycle4", "prism"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_every_model_kind_round_trips(kind, graph):
    inst = build_model(ModelSpec(kind, _model_params(kind, graph)), graph)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert serialize_instance(again) == text
    assert (again.model.kind, again.model.params) == (inst.model.kind, inst.model.params)
    assert auto_hol(again) == auto_hol(inst)
    assert again.graph.edges == inst.graph.edges
    assert tractable_search(again, {}) == tractable_search(inst, {})


@pytest.mark.parametrize("weights", [[], [3]])
def test_short_list_parameters_round_trip(weights):
    # a list of fewer than two items ends in a comma, so it reads back as a list
    graph = path_graph(len(weights) + 1)
    text = serialize_instance(build_model(ModelSpec("weighted_matchings", {"edge_weights": weights}), graph))
    again = parse_instance(text)
    assert again.model.params == {"edge_weights": weights}
    assert serialize_instance(again) == text


def test_parse_errors_carry_line_numbers():
    bad = SAMPLE.replace("function 2 table 1 1", "function 2 table 1 1 1")
    with pytest.raises(InstanceParseError) as info:
        parse_instance(bad)
    assert info.value.line_no == 8
    assert "vertex 2" in str(info.value)


@pytest.mark.parametrize("old, new, line_no", [
    ("edge 1 2\n", "edge 1 2\nedge 2 7\n", 6),
    ("edge 1 2\n", "edge 1 0\n", 5),
    ("edge 1 2\n", "edge 2 2\n", 5),
    ("q 2\nvertices 3\n", "vertices 3\nq 1\n", 3),
    ("vertices 3\n", "vertices -1\n", 3),
], ids=["edge_out_of_range", "parallel_edge", "self_loop", "q", "vertices"])
def test_parse_errors_name_the_line_at_fault(old, new, line_no):
    with pytest.raises(InstanceParseError) as exc:
        parse_instance_document(SAMPLE.replace(old, new))
    assert exc.value.line_no == line_no


def test_parse_builtin_without_kind():
    with pytest.raises(InstanceParseError) as info:
        parse_instance(SAMPLE.replace("function 0 builtin at_most_one", "function 0 builtin"))
    assert info.value.line_no == 6


def test_parse_missing_header():
    with pytest.raises(InstanceParseError):
        parse_instance("q 2\nvertices 1\nfunction 0 table 1\n")


def test_parse_unknown_directive():
    with pytest.raises(InstanceParseError) as info:
        parse_instance(SAMPLE + "banana 1\n")
    assert info.value.line_no == 9


def test_parse_duplicate_function():
    bad = SAMPLE + "function 0 table 1 1\n"
    with pytest.raises(InstanceParseError):
        parse_instance(bad)


def test_parse_missing_function():
    bad = "\n".join(SAMPLE.splitlines()[:-1]) + "\n"
    with pytest.raises(InstanceParseError) as info:
        parse_instance(bad)
    assert "vertex 2" in str(info.value)


def test_comments_and_blank_lines():
    text = SAMPLE.replace("edge 0 1", "# a comment\n\nedge 0 1  # trailing")
    inst = parse_instance(text)
    assert inst.graph.m == 2


BUILTIN_FORMS = """\
holant 1
q 2
vertices 4
edge 0 1
edge 1 2
edge 2 3
edge 3 0
function 0 builtin cyclic 2 1 1/2
function 1 builtin cyclic_with_exceptions 2 1 0 0=3 2=1/2
function 2 builtin equality 2 3
function 3 builtin explicit_boolean_weights 1 2 0
"""
FUZZ_TEXTS = [SAMPLE, BUILTIN_FORMS] + [
    serialize_instance(build_model(ModelSpec(kind, params), graph))
    for kind, params, graph in (
        ("subgraphs_world", {"lambda": Fraction(1, 2), "mu": Fraction(1, 3)}, path_graph(3)),
        ("potts", {"q": 3, "lambda": 2}, cycle_graph(3)),
    )
]
FUZZ_TOKENS = ("", "0", "1", "2", "3", "9", "-1", "1/0", "1/2+1/3i", "x", "=", "0=", "=1",
               "builtin", "table", "function", "edge", "model", "q", "vertices",
               "base_vertices=0", "base_vertices=9", "base_vertices=-1", "lambda=1/0")


@st.composite
def mutated_texts(draw):
    """A valid instance text with a few tokens replaced, inserted or deleted, or lines dropped or copied."""
    lines = [line.split() for line in draw(st.sampled_from(FUZZ_TEXTS)).splitlines()]
    pool = sorted({tok for line in lines for tok in line}) + list(FUZZ_TOKENS)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "insert", "delete", "drop_line", "copy_line"]))
        if op in ("drop_line", "copy_line"):
            i = draw(st.integers(0, len(lines) - 1))
            if op == "drop_line":
                del lines[i]
            else:
                lines.insert(draw(st.integers(0, len(lines))), list(lines[i]))
        else:
            i, j = draw(st.sampled_from([(i, j) for i, line in enumerate(lines) for j in range(len(line))]))
            if op == "insert":
                lines[i].insert(j, draw(st.sampled_from(pool)))
            elif op == "replace":
                lines[i][j] = draw(st.sampled_from(pool))
            else:
                del lines[i][j]
        if not any(lines):
            break
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(mutated_texts())
def test_parse_fuzz_raises_only_parse_errors(text):
    try:
        parse_instance_document(text)
    except InstanceParseError:
        pass
    else:
        heads = [line.split()[0] for line in text.splitlines() if line.split()]
        assert all(heads.count(head) <= 1 for head in ("q", "vertices", "model"))


@pytest.mark.parametrize("extra", [["q 2"], ["vertices 3"], ["model matchings", "model matchings"]])
def test_parse_rejects_repeated_single_lines(extra):
    # a second q, vertices or model line is an error at that line, not a silent replacement
    lines = SAMPLE.splitlines()
    text = "\n".join(lines[:5] + extra + lines[5:]) + "\n"
    with pytest.raises(InstanceParseError, match="repeated") as exc:
        parse_instance_document(text)
    assert exc.value.line_no == 5 + len(extra)
