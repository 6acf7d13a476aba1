"""The line-oriented instance file format.

    holant 1
    q <int>
    vertices <n>
    edge <u> <v>                 # one line per edge, vertices 0-indexed
    model <kind> [key=value ...] # optional provenance
    function <v> builtin <kind> <params...>
    function <v> table <v_0> <v_1> ...

Table values are listed in lexicographic composition order and written as
``a/b`` rationals (or ``a/b+c/di`` Gaussian rationals, no spaces inside a
token).  A model parameter is a rational, or a list of rationals written
with commas (``edge_weights=1,2``; a list of fewer than two items ends in a
comma).  Parsing and serialization round-trip, preserving builtin forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InstanceParseError, InvalidArgumentError
from .graphcore import Graph, HolantInstance
from .models import ModelSpec
from .symfun import SymmetricFunction, builtin, composition_count
from .values import format_value, parse_value

FORMAT_VERSION = "1"


@dataclass
class InstanceDocument:
    q: int
    graph: Graph
    functions: list
    function_sources: list  # token tuples after "function <v>", for round-tripping
    model_spec: Optional[ModelSpec] = None

    def to_instance(self) -> HolantInstance:
        return HolantInstance(self.graph, self.q, self.functions, model=self.model_spec)


def _parse_builtin_tokens(q, d, tokens, line_no):
    if not tokens:
        raise InstanceParseError(line_no, "builtin needs a kind")
    kind = tokens[0]
    args = tokens[1:]
    try:
        if kind == "equality":
            if len(args) != q:
                raise InvalidArgumentError(f"equality needs {q} weights")
            return builtin("equality", q, d, weights=[parse_value(t) for t in args])
        if kind in ("at_most_one", "exact_one"):
            if args:
                raise InvalidArgumentError(f"{kind} takes no parameters")
            return builtin(kind, q, d)
        if kind in ("cyclic", "cyclic_with_exceptions"):
            c = int(args[0])
            values = [parse_value(t) for t in args[1:1 + c]]
            rest = args[1 + c:]
            if kind == "cyclic":
                if rest:
                    raise InvalidArgumentError("unexpected extra cyclic parameters")
                return builtin("cyclic", q, d, c=c, values=values)
            overrides = {}
            for tok in rest:
                if "=" not in tok:
                    raise InvalidArgumentError(f"override {tok!r} must be index=value")
                k, v = tok.split("=", 1)
                overrides[int(k)] = parse_value(v)
            return builtin("cyclic_with_exceptions", q, d, c=c, values=values, overrides=overrides)
        if kind == "explicit_boolean_weights":
            return builtin("explicit_boolean_weights", q, d, values=[parse_value(t) for t in args])
        raise InvalidArgumentError(f"unknown builtin kind {kind!r}")
    except (InvalidArgumentError, ValueError, IndexError) as exc:
        raise InstanceParseError(line_no, str(exc)) from exc


def parse_instance_document(text: str) -> InstanceDocument:
    q = q_line = None
    n = n_line = None
    edges = []
    function_lines = []  # (line_no, vertex, tokens)
    model_tokens = None
    model_line = None
    seen = set()  # the directives that may appear once
    saw_header = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head in ("q", "vertices", "model"):
            if head in seen:
                raise InstanceParseError(line_no, f"repeated {head!r} line")
            seen.add(head)
        if head == "holant":
            if len(tokens) != 2 or tokens[1] != FORMAT_VERSION:
                raise InstanceParseError(line_no, f"unsupported format version {line!r}")
            saw_header = True
        elif head == "q":
            try:
                q, q_line = int(tokens[1]), line_no
            except (IndexError, ValueError):
                raise InstanceParseError(line_no, "q needs one integer")
        elif head == "vertices":
            try:
                n, n_line = int(tokens[1]), line_no
            except (IndexError, ValueError):
                raise InstanceParseError(line_no, "vertices needs one integer")
        elif head == "edge":
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except (IndexError, ValueError):
                raise InstanceParseError(line_no, "edge needs two integers")
            edges.append((line_no, u, v))
        elif head == "model":
            if len(tokens) < 2:
                raise InstanceParseError(line_no, "model needs a kind")
            model_tokens = tuple(tokens[1:])
            model_line = line_no
        elif head == "function":
            try:
                v = int(tokens[1])
            except (IndexError, ValueError):
                raise InstanceParseError(line_no, "function needs a vertex id")
            if len(tokens) < 3:
                raise InstanceParseError(line_no, "function needs a form (builtin/table)")
            function_lines.append((line_no, v, tuple(tokens[2:])))
        else:
            raise InstanceParseError(line_no, f"unknown directive {head!r}")

    if not saw_header:
        raise InstanceParseError(1, "missing 'holant 1' header")
    if q is None or q < 2:
        raise InstanceParseError(q_line or 1, "missing or invalid q")
    if n is None:
        raise InstanceParseError(1, "missing vertex count")
    edge_line = n_line  # Graph checks the count, then each edge as it is drawn

    def numbered_edges():
        nonlocal edge_line
        for edge_line, u, v in edges:
            yield u, v

    try:
        graph = Graph(n, numbered_edges())
    except InvalidArgumentError as exc:
        raise InstanceParseError(edge_line, str(exc)) from exc

    functions: list = [None] * n
    sources: list = [None] * n
    for line_no, v, tokens in function_lines:
        if not 0 <= v < n:
            raise InstanceParseError(line_no, f"function vertex {v} out of range")
        if functions[v] is not None:
            raise InstanceParseError(line_no, f"duplicate function for vertex {v}")
        d = graph.degree(v)
        form = tokens[0]
        if form == "builtin":
            fn = _parse_builtin_tokens(q, d, tokens[1:], line_no)
        elif form == "table":
            vals = tokens[1:]
            if len(vals) != composition_count(q, d):
                raise InstanceParseError(
                    line_no,
                    f"vertex {v}: table needs {composition_count(q, d)} values "
                    f"for arity {d}, got {len(vals)}",
                )
            try:
                fn = SymmetricFunction(q, d, [parse_value(t) for t in vals])
            except InvalidArgumentError as exc:
                raise InstanceParseError(line_no, f"vertex {v}: {exc}") from exc
        else:
            raise InstanceParseError(line_no, f"unknown function form {form!r}")
        functions[v] = fn
        sources[v] = tokens
    missing = [v for v in range(n) if functions[v] is None]
    if missing:
        raise InstanceParseError(1, f"no function given for vertex {missing[0]}")

    model_spec = _parse_model(model_tokens, model_line) if model_tokens else None
    return InstanceDocument(q, graph, functions, sources, model_spec)


def _parse_model(tokens, line_no) -> ModelSpec:
    kind = tokens[0]
    params = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise InstanceParseError(line_no, f"model parameter {tok!r} must be key=value")
        key, val = tok.split("=", 1)
        try:
            if "," in val:
                items = val.removesuffix(",")
                params[key] = [Fraction(t) for t in items.split(",")] if items else []
            else:
                params[key] = Fraction(val)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceParseError(line_no, f"bad model parameter {tok!r}: {exc}") from exc
    try:
        return ModelSpec(kind, params)
    except InvalidArgumentError as exc:
        raise InstanceParseError(line_no, str(exc)) from exc


def parse_instance(text: str) -> HolantInstance:
    return parse_instance_document(text).to_instance()


def serialize_instance(obj) -> str:
    """Serialize an InstanceDocument (preserving builtin forms) or a HolantInstance."""
    if isinstance(obj, InstanceDocument):
        doc = obj
    elif isinstance(obj, HolantInstance):
        doc = InstanceDocument(
            obj.q,
            obj.graph,
            list(obj.functions),
            [None] * obj.graph.n,
            obj.model,
        )
    else:
        raise InvalidArgumentError(f"cannot serialize {type(obj).__name__}")
    lines = [f"holant {FORMAT_VERSION}", f"q {doc.q}", f"vertices {doc.graph.n}"]
    for u, v in doc.graph.edges:
        lines.append(f"edge {u} {v}")
    if doc.model_spec is not None:
        parts = [doc.model_spec.kind]
        for key, val in sorted(doc.model_spec.params.items()):
            if isinstance(val, list):
                val = ",".join(map(str, val)) + "," * (len(val) < 2)
            parts.append(f"{key}={val}")
        lines.append("model " + " ".join(parts))
    for v in range(doc.graph.n):
        src = doc.function_sources[v]
        if src is not None:
            lines.append(f"function {v} " + " ".join(src))
        else:
            vals = " ".join(format_value(x) for x in doc.functions[v].table)
            lines.append(f"function {v} table {vals}")
    return "\n".join(lines) + "\n"
