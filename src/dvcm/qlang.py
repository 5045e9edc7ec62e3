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

The lexer reads the text with one regular expression. Whitespace separates
tokens. A word is a letter or "_" followed by letters, digits and "_"; a
string is double-quoted and on one line, and a backslash in it escapes
only a double quote or a backslash; a string left open (by a line end,
the end of the text or a final backslash) is an error. "=", "(", ")" and
"," stand alone, and any other character is an error. Tokens record their
offset in the text; an error turns it into a line and a column.

"and" binds tighter than "or"; parentheses group. Facet values are
normalized (casefold, whitespace collapse) while parsing, so two spellings
of a term produce equal ASTs, and printing an AST re-parses to an equal AST.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .normalize import normalize_key
from .temporal import ALLEN_RELATIONS, DANCER_RELATIONS
from .vocab import SPATIAL_RELATIONS, STEP_CLASSES, Granularity, QueryParseError

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


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class FacetAtom:
    facet: str
    value: str


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Or:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class TemporalRel:
    """A dancer relation or interval relation between two dancers."""

    relation: str
    dancer_a: str
    dancer_b: str
    step: str | None = None
    step_class: str | None = None


@dataclass(frozen=True)
class SpatialRel:
    relation: str
    dancer_a: str
    dancer_b: str
    performing: bool = False


@dataclass(frozen=True)
class SpatioTemporal:
    """Conjunction of one temporal and one spatial call, in written order."""

    first: "TemporalRel | SpatialRel"
    second: "TemporalRel | SpatialRel"


Node = FacetAtom | And | Or
Body = Node | TemporalRel | SpatialRel | SpatioTemporal


@dataclass(frozen=True)
class Query:
    granularity: Granularity
    body: Body


# --------------------------------------------------------------------------
# Lexer

# A token is (kind, value, offset), kind one of ident, string, punct, eof.
_Tok = tuple[str, str, int]

# One match per token, after any whitespace. A string's closing quote is
# optional so that a string left open still matches, up to where it stops;
# a character that starts no token matches as "bad".
_TOKEN = re.compile(
    r"""\s*(?:
        (?P<punct>[=(),])
      | (?P<string>"(?:[^"\\\n]|\\["\\])*(?P<close>")?)
      | (?P<ident>\w+)
      | (?P<eof>\Z)
      | (?P<bad>.)
    )""",
    re.VERBOSE | re.DOTALL,
)


def _error(text: str, offset: int, message: str) -> QueryParseError:
    """An error at the line and column of an offset into the text."""
    line = text.count("\n", 0, offset) + 1
    return QueryParseError(line, offset - text.rfind("\n", 0, offset), message)


def _lex(text: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    end = 0
    while True:
        m = _TOKEN.match(text, end)
        kind = m.lastgroup
        value, offset, end = m[kind], m.start(kind), m.end()
        if kind == "string":
            if m["close"] is None:
                # the body stopped at a line end, the end of the text or a
                # backslash that escapes neither '"' nor '\'
                if text.startswith("\\", end) and end + 1 < len(text):
                    raise _error(text, end, f"unknown escape sequence {text[end:end + 2]!r}")
                raise _error(text, offset, "unterminated string")
            # the body holds only \" and \\ escapes, so undoing \" first
            # cannot split a \\ pair
            value = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        elif kind == "bad" or (kind == "ident" and not (value[0].isalpha() or value[0] == "_")):
            raise _error(text, offset, f"unexpected character {value[0]!r}")
        tokens.append((kind, value, offset))
        if kind == "eof":
            return tokens


# --------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.i = 0
        if len(self.tokens) > MAX_QUERY_TOKENS + 1:  # + the end-of-input token
            raise self.error(
                self.tokens[MAX_QUERY_TOKENS],
                f"a query may hold at most {MAX_QUERY_TOKENS} tokens",
            )

    @property
    def cur(self) -> _Tok:
        return self.tokens[self.i]

    def advance(self) -> _Tok:
        tok = self.cur
        self.i += 1
        return tok

    def error(self, tok: _Tok, message: str) -> QueryParseError:
        return _error(self.text, tok[2], message)

    def fail(self, expected: str) -> QueryParseError:
        kind, value, _ = tok = self.cur
        if kind == "eof":
            found = "end of input"
        elif kind == "string":
            found = f'"{value}"'
        else:
            found = repr(value)
        return self.error(tok, f"expected {expected}, found {found}")

    def expect(self, kind: str, value: str | None = None) -> _Tok:
        """Consume a token of this kind and, unless None, this value."""
        tok = self.cur
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise self.fail("a quoted string" if value is None else f"'{value}'")
        self.i += 1
        return tok

    def at_word(self, word: str) -> bool:
        return self.cur[:2] == ("ident", word)

    def parse_query(self) -> Query:
        self.expect("ident", "find")
        if self.cur[0] != "ident" or self.cur[1] not in _GRAN_WORDS:
            raise self.fail("'shots', 'scenes' or 'cscenes'")
        gran = _GRAN_WORDS[self.advance()[1]]
        self.expect("ident", "where")
        body = self.parse_body()
        if self.cur[0] != "eof":
            raise self.fail("end of input")
        return Query(gran, body)

    def parse_body(self) -> Body:
        # A relation call looks like NAME "(", an atom like FACET "=".
        if self.cur[0] == "ident" and self.tokens[self.i + 1][:2] == ("punct", "("):
            first = self.parse_rel_call()
            if not self.at_word("and"):
                return first
            and_tok = self.advance()
            second = self.parse_rel_call()
            if {type(first), type(second)} != {TemporalRel, SpatialRel}:
                raise self.error(
                    and_tok,
                    "a relation conjunction must pair one temporal call "
                    "with one spatial call",
                )
            if self.at_word("and"):
                raise self.error(self.cur, "at most two relation calls may be joined")
            return SpatioTemporal(first, second)
        return self.parse_or()

    def parse_or(self) -> Node:
        node = self.parse_and()
        while self.at_word("or"):
            self.advance()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Node:
        node = self.parse_atom()
        while self.at_word("and"):
            self.advance()
            node = And(node, self.parse_atom())
        return node

    def parse_atom(self) -> Node:
        kind, facet, _ = self.cur
        if (kind, facet) == ("punct", "("):
            self.advance()
            node = self.parse_or()
            self.expect("punct", ")")
            return node
        if kind != "ident" or facet not in FACETS:
            raise self.fail("a facet name or '('")
        self.advance()
        self.expect("punct", "=")
        value_tok = self.expect("string")
        value = normalize_key(value_tok[1])
        if facet == "step_class" and value not in STEP_CLASS_TERMS:
            raise self.error(
                value_tok,
                f"unknown step class {value_tok[1]!r}; "
                f"expected one of {list(STEP_CLASS_TERMS)}",
            )
        return FacetAtom(facet, value)

    def parse_rel_call(self) -> TemporalRel | SpatialRel:
        if self.cur[0] != "ident":
            raise self.fail("a relation name")
        name_tok = self.advance()
        name = name_tok[1]
        if name != "spatial" and name not in _TEMPORAL_NAMES:
            raise self.error(name_tok, f"unknown relation {name!r}")
        self.expect("punct", "(")
        args: list[tuple[str, str, _Tok]] = []
        while True:
            if self.cur[0] != "ident":
                raise self.fail("an argument name")
            arg_tok = self.advance()
            self.expect("punct", "=")
            args.append((arg_tok[1], self.expect("string")[1], arg_tok))
            if self.cur[:2] != ("punct", ","):
                break
            self.advance()
        self.expect("punct", ")")
        if name == "spatial":
            return self._build_spatial(args, name_tok)
        return self._build_temporal(name, args, name_tok)

    def _take_dancers(
        self, args: list[tuple[str, str, _Tok]], name_tok: _Tok
    ) -> tuple[str, str, list[tuple[str, str, _Tok]]]:
        dancers = [a for a in args if a[0] == "dancer"]
        rest = [a for a in args if a[0] != "dancer"]
        if len(dancers) != 2:
            raise self.error(
                name_tok,
                f"a relation call needs exactly two dancer= arguments, got {len(dancers)}",
            )
        dancer_a = normalize_key(dancers[0][1])
        dancer_b = normalize_key(dancers[1][1])
        if dancer_a == dancer_b:
            raise self.error(dancers[1][2], "the two dancer= arguments must differ")
        return dancer_a, dancer_b, rest

    def _build_temporal(
        self, name: str, args: list[tuple[str, str, _Tok]], name_tok: _Tok
    ) -> TemporalRel:
        dancer_a, dancer_b, rest = self._take_dancers(args, name_tok)
        step: str | None = None
        step_class: str | None = None
        for arg_name, value, tok in rest:
            if arg_name == "step" and step is None and step_class is None:
                step = normalize_key(value)
            elif arg_name == "step_class" and step is None and step_class is None:
                step_class = normalize_key(value)
                if step_class not in STEP_CLASS_TERMS:
                    raise self.error(tok, f"unknown step class {value!r}")
            elif arg_name in ("step", "step_class"):
                raise self.error(tok, "at most one step= or step_class= constraint")
            else:
                raise self.error(tok, f"unknown argument {arg_name!r} for {name}()")
        return TemporalRel(name, dancer_a, dancer_b, step, step_class)

    def _build_spatial(
        self, args: list[tuple[str, str, _Tok]], name_tok: _Tok
    ) -> SpatialRel:
        dancer_a, dancer_b, rest = self._take_dancers(args, name_tok)
        relation: str | None = None
        performing = False
        for arg_name, value, tok in rest:
            if arg_name == "relation" and relation is None:
                relation = normalize_key(value)
                if relation not in SPATIAL_RELATIONS:
                    raise self.error(
                        tok,
                        f"unknown spatial relation {value!r}; expected one of "
                        f"{sorted(SPATIAL_RELATIONS)}",
                    )
            elif arg_name == "performing":
                norm = normalize_key(value)
                if norm not in ("true", "false"):
                    raise self.error(tok, "performing= must be \"true\" or \"false\"")
                performing = norm == "true"
            else:
                raise self.error(tok, f"unknown argument {arg_name!r} for spatial()")
        if relation is None:
            raise self.error(name_tok, "spatial() needs a relation= argument")
        return SpatialRel(relation, dancer_a, dancer_b, performing)


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
