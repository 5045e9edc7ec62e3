"""Query text: lexer, AST, recursive-descent parser and printer.

A query names a result granularity and a body:

    query   := "find" gran "where" body
    gran    := "shots" | "scenes" | "cscenes"
    body    := relCall [ "and" relCall ] | orExpr
    orExpr  := andExpr { "or" andExpr }
    andExpr := atom { "and" atom }
    atom    := facet "=" STRING | "(" orExpr ")"
    relCall := NAME "(" ARG "=" STRING { "," ARG "=" STRING } ")"

Facets are dancer, body_part, posture, reflexion, instrument, background,
costume, step and step_class. relCall names are the nine dancer relations,
the thirteen interval relations (all taking two dancer= arguments and an
optional step= or step_class= constraint) and "spatial" (two dancer=
arguments, a relation= argument, optional performing=). A body of two
relCalls joined by "and" must pair one temporal call with one spatial call.

"and" binds tighter than "or"; parentheses group. Facet values are
normalized (casefold, whitespace collapse) while parsing, so two spellings
of a term produce equal ASTs. Atom positions are kept for diagnostics but
excluded from equality, and printing an AST re-parses to an equal AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import SPATIAL_RELATIONS, STEP_CLASSES, Granularity
from .normalize import normalize_key
from .temporal import ALLEN_RELATIONS, DANCER_RELATIONS

FACETS = (
    "dancer",
    "body_part",
    "posture",
    "reflexion",
    "instrument",
    "background",
    "costume",
    "step",
    "step_class",
)

STEP_CLASS_TERMS = tuple(c.casefold() for c in STEP_CLASSES)

_GRAN_WORDS = {
    "shots": Granularity.SHOT,
    "scenes": Granularity.SCENE,
    "cscenes": Granularity.COMPOUND_SCENE,
}

_TEMPORAL_NAMES = frozenset(DANCER_RELATIONS) | frozenset(ALLEN_RELATIONS)

# The parser, the evaluators and the printer recurse once per nesting level
# or per chained operator; this bound keeps them far below Python's
# recursion limit.
MAX_QUERY_TOKENS = 256


class QueryParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class FacetAtom:
    facet: str
    value: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Or:
    left: "Node"
    right: "Node"
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class TemporalRel:
    """A dancer relation or interval relation between two dancers."""

    relation: str
    dancer_a: str
    dancer_b: str
    step: str | None = None
    step_class: str | None = None
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SpatialRel:
    relation: str
    dancer_a: str
    dancer_b: str
    performing: bool = False
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SpatioTemporal:
    """Conjunction of one temporal and one spatial call, in written order."""

    first: "TemporalRel | SpatialRel"
    second: "TemporalRel | SpatialRel"
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


Node = FacetAtom | And | Or
Body = Node | TemporalRel | SpatialRel | SpatioTemporal


@dataclass(frozen=True)
class Query:
    granularity: Granularity
    body: Body


# --------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | string | punct | eof
    value: str
    line: int
    col: int

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        if self.kind == "string":
            return f'"{self.value}"'
        return repr(self.value)


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "=(),":
            tokens.append(_Token("punct", ch, line, col))
            col += 1
            i += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf: list[str] = []
            while i < n and text[i] != '"':
                c = text[i]
                if c == "\\":
                    if i + 1 >= n:
                        break
                    nxt = text[i + 1]
                    if nxt not in ('"', "\\"):
                        raise QueryParseError(
                            line, col, f"unknown escape sequence \\{nxt}"
                        )
                    buf.append(nxt)
                    i += 2
                    col += 2
                    continue
                if c == "\n":
                    raise QueryParseError(
                        start_line, start_col, "unterminated string"
                    )
                buf.append(c)
                i += 1
                col += 1
            if i >= n:
                raise QueryParseError(start_line, start_col, "unterminated string")
            i += 1  # closing quote
            col += 1
            tokens.append(_Token("string", "".join(buf), start_line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start_col = col
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise QueryParseError(line, col, f"unexpected character {ch!r}")
    tokens.append(_Token("eof", "", line, col))
    return tokens


# --------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.i = 0
        if len(self.tokens) > MAX_QUERY_TOKENS + 1:  # + the end-of-input token
            tok = self.tokens[MAX_QUERY_TOKENS]
            raise QueryParseError(
                tok.line, tok.col, f"a query may hold at most {MAX_QUERY_TOKENS} tokens"
            )

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def fail(self, expected: str) -> QueryParseError:
        tok = self.cur
        return QueryParseError(
            tok.line, tok.col, f"expected {expected}, found {tok.describe()}"
        )

    def expect_word(self, word: str) -> _Token:
        if self.cur.kind == "ident" and self.cur.value == word:
            return self.advance()
        raise self.fail(f"'{word}'")

    def expect_punct(self, ch: str) -> _Token:
        if self.cur.kind == "punct" and self.cur.value == ch:
            return self.advance()
        raise self.fail(f"'{ch}'")

    def expect_string(self) -> _Token:
        if self.cur.kind == "string":
            return self.advance()
        raise self.fail("a quoted string")

    def at_word(self, word: str) -> bool:
        return self.cur.kind == "ident" and self.cur.value == word

    def parse_query(self) -> Query:
        self.expect_word("find")
        if self.cur.kind != "ident" or self.cur.value not in _GRAN_WORDS:
            raise self.fail("'shots', 'scenes' or 'cscenes'")
        gran = _GRAN_WORDS[self.advance().value]
        self.expect_word("where")
        body = self.parse_body()
        if self.cur.kind != "eof":
            raise self.fail("end of input")
        return Query(gran, body)

    def parse_body(self) -> Body:
        # A relation call looks like NAME "(", an atom like FACET "=".
        if (
            self.cur.kind == "ident"
            and self.tokens[self.i + 1].kind == "punct"
            and self.tokens[self.i + 1].value == "("
        ):
            first = self.parse_rel_call()
            if not self.at_word("and"):
                return first
            and_tok = self.advance()
            second = self.parse_rel_call()
            kinds = {type(first), type(second)}
            if kinds != {TemporalRel, SpatialRel}:
                raise QueryParseError(
                    and_tok.line,
                    and_tok.col,
                    "a relation conjunction must pair one temporal call "
                    "with one spatial call",
                )
            if self.at_word("and"):
                raise QueryParseError(
                    self.cur.line, self.cur.col,
                    "at most two relation calls may be joined",
                )
            return SpatioTemporal(first, second, pos=(and_tok.line, and_tok.col))
        return self.parse_or()

    def parse_or(self) -> Node:
        node = self.parse_and()
        while self.at_word("or"):
            tok = self.advance()
            right = self.parse_and()
            node = Or(node, right, pos=(tok.line, tok.col))
        return node

    def parse_and(self) -> Node:
        node = self.parse_atom()
        while self.at_word("and"):
            tok = self.advance()
            right = self.parse_atom()
            node = And(node, right, pos=(tok.line, tok.col))
        return node

    def parse_atom(self) -> Node:
        tok = self.cur
        if tok.kind == "punct" and tok.value == "(":
            self.advance()
            node = self.parse_or()
            self.expect_punct(")")
            return node
        if tok.kind == "ident":
            if tok.value not in FACETS:
                raise self.fail("a facet name or '('")
            self.advance()
            self.expect_punct("=")
            value_tok = self.expect_string()
            value = normalize_key(value_tok.value)
            if tok.value == "step_class" and value not in STEP_CLASS_TERMS:
                raise QueryParseError(
                    value_tok.line,
                    value_tok.col,
                    f"unknown step class {value_tok.value!r}; "
                    f"expected one of {list(STEP_CLASS_TERMS)}",
                )
            return FacetAtom(tok.value, value, pos=(tok.line, tok.col))
        raise self.fail("a facet name or '('")

    def parse_rel_call(self) -> TemporalRel | SpatialRel:
        if self.cur.kind != "ident":
            raise self.fail("a relation name")
        name_tok = self.advance()
        name = name_tok.value
        if name != "spatial" and name not in _TEMPORAL_NAMES:
            raise QueryParseError(
                name_tok.line, name_tok.col, f"unknown relation {name!r}"
            )
        self.expect_punct("(")
        args: list[tuple[str, str, _Token]] = []
        while True:
            if self.cur.kind != "ident":
                raise self.fail("an argument name")
            arg_tok = self.advance()
            self.expect_punct("=")
            val_tok = self.expect_string()
            args.append((arg_tok.value, val_tok.value, arg_tok))
            if self.cur.kind == "punct" and self.cur.value == ",":
                self.advance()
                continue
            break
        self.expect_punct(")")
        pos = (name_tok.line, name_tok.col)
        if name == "spatial":
            return self._build_spatial(args, pos)
        return self._build_temporal(name, args, pos)

    def _take_dancers(
        self, args: list[tuple[str, str, _Token]], pos: tuple[int, int]
    ) -> tuple[str, str, list[tuple[str, str, _Token]]]:
        dancers = [a for a in args if a[0] == "dancer"]
        rest = [a for a in args if a[0] != "dancer"]
        if len(dancers) != 2:
            raise QueryParseError(
                pos[0], pos[1],
                f"a relation call needs exactly two dancer= arguments, got {len(dancers)}",
            )
        dancer_a = normalize_key(dancers[0][1])
        dancer_b = normalize_key(dancers[1][1])
        if dancer_a == dancer_b:
            tok = dancers[1][2]
            raise QueryParseError(
                tok.line, tok.col, "the two dancer= arguments must differ"
            )
        return dancer_a, dancer_b, rest

    def _build_temporal(
        self, name: str, args: list[tuple[str, str, _Token]], pos: tuple[int, int]
    ) -> TemporalRel:
        dancer_a, dancer_b, rest = self._take_dancers(args, pos)
        step: str | None = None
        step_class: str | None = None
        for arg_name, value, tok in rest:
            if arg_name == "step" and step is None and step_class is None:
                step = normalize_key(value)
            elif arg_name == "step_class" and step is None and step_class is None:
                step_class = normalize_key(value)
                if step_class not in STEP_CLASS_TERMS:
                    raise QueryParseError(
                        tok.line, tok.col, f"unknown step class {value!r}"
                    )
            elif arg_name in ("step", "step_class"):
                raise QueryParseError(
                    tok.line, tok.col, "at most one step= or step_class= constraint"
                )
            else:
                raise QueryParseError(
                    tok.line, tok.col,
                    f"unknown argument {arg_name!r} for {name}()",
                )
        return TemporalRel(name, dancer_a, dancer_b, step, step_class, pos=pos)

    def _build_spatial(
        self, args: list[tuple[str, str, _Token]], pos: tuple[int, int]
    ) -> SpatialRel:
        dancer_a, dancer_b, rest = self._take_dancers(args, pos)
        relation: str | None = None
        performing = False
        for arg_name, value, tok in rest:
            if arg_name == "relation" and relation is None:
                relation = normalize_key(value)
                if relation not in SPATIAL_RELATIONS:
                    raise QueryParseError(
                        tok.line, tok.col,
                        f"unknown spatial relation {value!r}; expected one of "
                        f"{sorted(SPATIAL_RELATIONS)}",
                    )
            elif arg_name == "performing":
                norm = normalize_key(value)
                if norm not in ("true", "false"):
                    raise QueryParseError(
                        tok.line, tok.col, "performing= must be \"true\" or \"false\""
                    )
                performing = norm == "true"
            else:
                raise QueryParseError(
                    tok.line, tok.col, f"unknown argument {arg_name!r} for spatial()"
                )
        if relation is None:
            raise QueryParseError(pos[0], pos[1], "spatial() needs a relation= argument")
        return SpatialRel(relation, dancer_a, dancer_b, performing, pos=pos)


def parse_query(text: str) -> Query:
    """Parse query text; raises QueryParseError with line/col diagnostics."""
    return _Parser(text).parse_query()


# --------------------------------------------------------------------------
# Printer


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render(node: Node) -> tuple[str, int]:
    """Text and precedence (or=1, and=2, atom=3); parens where needed."""
    if isinstance(node, FacetAtom):
        return f"{node.facet} = {_quote(node.value)}", 3
    if isinstance(node, And):
        op, prec = " and ", 2
    elif isinstance(node, Or):
        op, prec = " or ", 1
    else:
        raise TypeError(f"not a containment node: {node!r}")
    left_text, left_prec = _render(node.left)
    right_text, right_prec = _render(node.right)
    if left_prec < prec:
        left_text = f"({left_text})"
    if right_prec <= prec:
        right_text = f"({right_text})"
    return left_text + op + right_text, prec


def _render_rel(call: TemporalRel | SpatialRel) -> str:
    if isinstance(call, TemporalRel):
        parts = [f"dancer = {_quote(call.dancer_a)}", f"dancer = {_quote(call.dancer_b)}"]
        if call.step is not None:
            parts.append(f"step = {_quote(call.step)}")
        if call.step_class is not None:
            parts.append(f"step_class = {_quote(call.step_class)}")
        return f"{call.relation}({', '.join(parts)})"
    parts = [
        f"dancer = {_quote(call.dancer_a)}",
        f"dancer = {_quote(call.dancer_b)}",
        f"relation = {_quote(call.relation)}",
    ]
    if call.performing:
        parts.append('performing = "true"')
    return f"spatial({', '.join(parts)})"


def format_query(query: Query) -> str:
    """Canonical text of a query; parsing it back gives an equal AST."""
    gran_word = {v: k for k, v in _GRAN_WORDS.items()}[query.granularity]
    body = query.body
    if isinstance(body, SpatioTemporal):
        body_text = f"{_render_rel(body.first)} and {_render_rel(body.second)}"
    elif isinstance(body, (TemporalRel, SpatialRel)):
        body_text = _render_rel(body)
    else:
        body_text, _ = _render(body)
    return f"find {gran_word} where {body_text}"
