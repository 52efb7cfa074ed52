"""Surface syntax parser.

Grammar, loosest to tightest:

    term   := "\\" ident "." term
            | "let" "<" ident "," ident ">" "=" term "in" term
            | choice
    choice := app ("(+)" (app | lambda | let))*      left-associative
    app    := atom atom*                             left-associative
    atom   := "(" term ")" | "<" term "," term ">" | "omega" | "I" | ident

"I" abbreviates the identity combinator. Binders are alpha-renamed to fresh
internal names during parsing; free variables keep their written names.

Lists share the term tokens, plus ";" and natural numbers:

    terms  := empty | term ("," term)*               parse_terms
    names  := empty | ident ("," ident)*             parse_terms, read_name
    items  := "eps" | item (";" item)*               parse_items

An item reader (the trace and tuple-trace actions) takes the token stream
and may call read_term. A stray, trailing or doubled separator is an error.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, TypeVar

from .errors import ParseError
from .terms import OMEGA, Abs, App, Choice, LetPair, Pair, Term, Var, fresh, identity

# One match per token; finditer skips the whitespace between tokens, and
# any other character falls to "bad".
_TOKEN_RE = re.compile(
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_']*)|(?P<nat>[0-9]+)"
    r"|(?P<sym>\(\+\)|[\\().<>,;=])|(?P<bad>\S)"
)
_KEYWORDS = frozenset({"let", "in", "omega", "I"})
_ATOM_STARTS = frozenset({"(", "<", "omega", "I", "ident"})

T = TypeVar("T")


class Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []  # (kind, value, position)
        for m in _TOKEN_RE.finditer(text):
            group, tok, pos = m.lastgroup, m.group(), m.start()
            if group == "bad":
                raise ParseError(f"unexpected character {tok!r}", pos)
            kind = tok if group == "sym" or tok in _KEYWORDS else group
            self.toks.append((kind, tok, pos))
        self.toks.append(("eof", "", len(text)))
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i][0]

    def next(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> str:
        k, v, pos = self.toks[self.i]
        if k != kind:
            found = repr(v) if k != "eof" else "end of input"
            raise ParseError(f"expected {kind!r}, found {found}", pos)
        self.i += 1
        return v

    def separated(self, sep: str, read: Callable[[Tokens], T]) -> list[T]:
        """One or more reads separated by sep."""
        out = [read(self)]
        while self.peek() == sep:
            self.next()
            out.append(read(self))
        return out

    def end(self) -> None:
        k, v, pos = self.toks[self.i]
        if k != "eof":
            raise ParseError(f"trailing input {v!r}", pos)


def parse(text: str) -> Term:
    """Parse a term; raises ParseError with the offending offset."""
    ts = Tokens(text)
    t = read_term(ts)
    ts.end()
    return t


def parse_terms(text: str, read_item: Callable[[Tokens], T] | None = None) -> list:
    """Parse a comma-separated list of terms, or of what read_item reads;
    empty text is the empty list."""
    ts = Tokens(text)
    out = [] if ts.peek() == "eof" else ts.separated(",", read_item or read_term)
    ts.end()
    return out


def read_name(ts: Tokens) -> str:
    """Read one bare identifier, a free variable's name."""
    return ts.expect("ident")


def parse_items(text: str, read_item: Callable[[Tokens], T]) -> list[T]:
    """Parse "eps" as the empty list, or items separated by ";", each read
    from the token stream by read_item."""
    ts = Tokens(text)
    if len(ts.toks) == 2 and ts.toks[0][1] == "eps":
        return []
    out = ts.separated(";", read_item)
    ts.end()
    return out


def format_items(items: Iterable[T], show: Callable[[T], str]) -> str:
    """Inverse of parse_items: "eps" for no items, else each item written
    by show, separated by "; "."""
    parts = [show(item) for item in items]
    return "; ".join(parts) if parts else "eps"


def read_term(ts: Tokens) -> Term:
    """Read one term from the stream, stopping before the first token that
    cannot continue it."""
    return _term(ts, {})


def _term(ts: Tokens, env: dict[str, str]) -> Term:
    k = ts.peek()
    if k == "\\":
        ts.next()
        name = ts.expect("ident")
        ts.expect(".")
        internal = fresh(name)
        return Abs(internal, _term(ts, {**env, name: internal}))
    if k == "let":
        ts.next()
        ts.expect("<")
        n1 = ts.expect("ident")
        ts.expect(",")
        n2 = ts.expect("ident")
        if n1 == n2:
            _, _, pos = ts.toks[ts.i - 1]
            raise ParseError(f"pair pattern reuses {n1!r}", pos)
        ts.expect(">")
        ts.expect("=")
        scrutinee = _term(ts, env)
        ts.expect("in")
        i1, i2 = fresh(n1), fresh(n2)
        body = _term(ts, {**env, n1: i1, n2: i2})
        return LetPair(i1, i2, scrutinee, body)
    return _choice(ts, env)


def _choice(ts: Tokens, env: dict[str, str]) -> Term:
    t = _app(ts, env)
    while ts.peek() == "(+)":
        ts.next()
        if ts.peek() in ("\\", "let"):
            # a trailing lambda or let swallows the rest of the expression
            return Choice(t, _term(ts, env))
        t = Choice(t, _app(ts, env))
    return t


def _app(ts: Tokens, env: dict[str, str]) -> Term:
    t = _atom(ts, env)
    while ts.peek() in _ATOM_STARTS:
        t = App(t, _atom(ts, env))
    return t


def _atom(ts: Tokens, env: dict[str, str]) -> Term:
    k, v, pos = ts.next()
    if k == "(":
        t = _term(ts, env)
        ts.expect(")")
        return t
    if k == "<":
        first = _term(ts, env)
        ts.expect(",")
        second = _term(ts, env)
        ts.expect(">")
        return Pair(first, second)
    if k == "omega":
        return OMEGA
    if k == "I":
        return identity()
    if k == "ident":
        return Var(env.get(v, v))
    found = repr(v) if k != "eof" else "end of input"
    raise ParseError(f"expected a term, found {found}", pos)
