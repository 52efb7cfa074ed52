"""Surface syntax parser.

Grammar, loosest to tightest:

    term   := "\\" ident "." term
            | "let" "<" ident "," ident ">" "=" term "in" term
            | choice
    choice := app ("(+)" (app | lambda | let))*      left-associative
    app    := atom atom*                             left-associative
    atom   := "(" term ")" | "<" term "," term ">" | "omega" | "I" | ident

"I" abbreviates the identity combinator. Every name is kept as written,
binders and free variables alike: terms are equal up to alpha, so a
binder may shadow another, and only substitution renames a binder, when
it would capture.

Lists share the term tokens, plus ";" and natural numbers:

    terms  := empty | term ("," term)*               parse_terms
    names  := empty | ident ("," ident)*             parse_names, no name twice
    items  := "eps" | item (";" item)*               parse_items

An item reader (the trace and tuple-trace actions) takes the token stream
and may call read_term. A stray, trailing or doubled separator is an error.

Tokens splits the text into words with one regex pass and gives each word
its kind: a symbol or keyword is its own kind, any other word is "ident"
or "nat" by its first character, and a stray character is an error. The
readers step through the words by index; a token's offset in the text is
found only when a ParseError reports it.
"""

from __future__ import annotations

import itertools
import re
import string
from typing import Callable, Iterable, TypeVar

from .errors import ParseError
from .terms import OMEGA, Abs, App, Choice, LetPair, Pair, Term, Var, identity

# One match per token, in this order of preference; findall skips the
# whitespace between tokens, and any other character is a token of its own.
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|[0-9]+|\(\+\)|[\\().<>,;=]|\S")
# A fixed word is its own kind; any other word takes its first character's.
_FIXED_KINDS = {
    w: w for w in ("(+)", "\\", "(", ")", ".", "<", ">", ",", ";", "=", "let", "in", "omega", "I")
}
_FIRST_KINDS = dict.fromkeys(string.ascii_letters + "_", "ident")
_FIRST_KINDS |= dict.fromkeys(string.digits, "nat")
_ATOM_STARTS = frozenset({"(", "<", "omega", "I", "ident"})

T = TypeVar("T")


class Tokens:
    """The words of a text and their kinds, ending in an "eof" token whose
    word is empty; i is the index of the next token to read."""

    def __init__(self, text: str):
        self.text = text
        self.words = _TOKEN_RE.findall(text)
        self.kinds = [_FIXED_KINDS.get(w) or _FIRST_KINDS.get(w[0], "bad") for w in self.words]
        if "bad" in self.kinds:
            i = self.kinds.index("bad")
            raise ParseError(f"unexpected character {self.words[i]!r}", self.offset(i))
        self.words.append("")
        self.kinds.append("eof")
        self.i = 0

    def offset(self, i: int) -> int:
        """The offset of token i in the text; the end of the text for eof."""
        m = next(itertools.islice(_TOKEN_RE.finditer(self.text), i, None), None)
        return m.start() if m else len(self.text)

    def next(self) -> int:
        """Step past the current token; returns its index."""
        self.i += 1
        return self.i - 1

    def expect(self, kind: str) -> str:
        i = self.i
        if self.kinds[i] != kind:
            raise ParseError(f"expected {kind!r}, found {self._found(i)}", self.offset(i))
        self.i = i + 1
        return self.words[i]

    def _found(self, i: int) -> str:
        return repr(self.words[i]) if self.kinds[i] != "eof" else "end of input"

    def separated(self, sep: str, read: Callable[[Tokens], T]) -> list[T]:
        """One or more reads separated by sep."""
        out = [read(self)]
        while self.kinds[self.i] == sep:
            self.i += 1
            out.append(read(self))
        return out

    def end(self) -> None:
        i = self.i
        if self.kinds[i] != "eof":
            raise ParseError(f"trailing input {self.words[i]!r}", self.offset(i))


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
    out = [] if ts.kinds[0] == "eof" else ts.separated(",", read_item or read_term)
    ts.end()
    return out


def parse_names(text: str) -> list[str]:
    """Parse a comma-separated list of distinct bare identifiers, the free
    variables of a context; empty text is the empty list. A repeated name
    is an error at its second entry."""
    names: list[str] = []

    def read_new_name(ts: Tokens) -> str:
        i = ts.i
        name = ts.expect("ident")
        if name in names:
            raise ParseError(f"repeated name {name!r}", ts.offset(i))
        names.append(name)
        return name

    return parse_terms(text, read_new_name)


def parse_items(text: str, read_item: Callable[[Tokens], T]) -> list[T]:
    """Parse "eps" as the empty list, or items separated by ";", each read
    from the token stream by read_item."""
    ts = Tokens(text)
    if ts.words == ["eps", ""]:
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
    k = ts.kinds[ts.i]
    if k == "\\":
        ts.i += 1
        name = ts.expect("ident")
        ts.expect(".")
        return Abs(name, read_term(ts))
    if k == "let":
        ts.i += 1
        ts.expect("<")
        n1 = ts.expect("ident")
        ts.expect(",")
        n2 = ts.expect("ident")
        if n1 == n2:
            raise ParseError(f"pair pattern reuses {n1!r}", ts.offset(ts.i - 1))
        ts.expect(">")
        ts.expect("=")
        scrutinee = read_term(ts)
        ts.expect("in")
        return LetPair(n1, n2, scrutinee, read_term(ts))
    return _choice(ts)


def _choice(ts: Tokens) -> Term:
    t = _app(ts)
    kinds = ts.kinds
    while kinds[ts.i] == "(+)":
        ts.i += 1
        if kinds[ts.i] in ("\\", "let"):
            # a trailing lambda or let swallows the rest of the expression
            return Choice(t, read_term(ts))
        t = Choice(t, _app(ts))
    return t


def _app(ts: Tokens) -> Term:
    t = _atom(ts)
    kinds = ts.kinds
    while kinds[ts.i] in _ATOM_STARTS:
        t = App(t, _atom(ts))
    return t


def _atom(ts: Tokens) -> Term:
    i = ts.i
    k = ts.kinds[i]
    ts.i = i + 1
    if k == "ident":
        return Var(ts.words[i])
    if k == "(":
        t = read_term(ts)
        ts.expect(")")
        return t
    if k == "<":
        first = read_term(ts)
        ts.expect(",")
        second = read_term(ts)
        ts.expect(">")
        return Pair(first, second)
    if k == "omega":
        return OMEGA
    if k == "I":
        return identity()
    raise ParseError(f"expected a term, found {ts._found(i)}", ts.offset(i))
