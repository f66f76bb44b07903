"""Message terms with a canonical AC representation.

Terms are names, variables, constructor applications (pub, sign, blind,
pair, enc) or equational-symbol applications.  The two reserved AC symbols
``+`` and ``*`` are stored flattened with their argument multiset in a fixed
total order, so structural identity coincides with equality modulo AC.
Terms are hash-consed: building the same canonical term twice yields the
same object, which makes term sets behave like shared-DAG node sets.  A
node's variable set and size are computed once, from its children's, when
the node is interned, and kept in its ``vars`` and ``size`` slots.
"""
from __future__ import annotations

import re
import threading
from typing import Iterable

NAME, VAR, CAPP, EAPP = range(4)  # also the major sort rank of a head

CONSTRUCTOR_ARITY = {"pub": 1, "sign": 2, "blind": 2, "pair": 2, "enc": 2}
AC_SYMBOLS = ("+", "*")
E_FUNCTION_ARITY = {"+": 2, "*": 2, "inv": 1, "0": 0, "1": 0}

_IDENT = re.compile(r"[a-z][a-zA-Z0-9_]*")


class Term:
    """A hash-consed term node.

    ``kind`` is one of NAME, VAR, CAPP, EAPP; ``sym`` the identifier or head
    symbol; ``args`` the (canonically ordered, flattened for AC) argument
    tuple.  ``key`` is a precomputed structural sort key giving the total
    order used everywhere deterministic output matters.  ``vars`` is the
    frozenset of variables occurring in the term and ``size`` its number of
    symbol, name and variable occurrences (see ``size``); both are filled
    when the node is interned.
    """

    __slots__ = ("kind", "sym", "args", "key", "vars", "size")

    kind: int
    sym: str
    args: tuple[Term, ...]
    key: tuple
    vars: frozenset[Term]
    size: int

    def __lt__(self, other: Term) -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return f"Term({format_term(self)})"

    def __str__(self) -> str:
        return format_term(self)


_intern: dict[tuple, Term] = {}
_intern_lock = threading.Lock()
_NO_VARS: frozenset[Term] = frozenset()  # shared by every ground term


def _vars_of(args: tuple[Term, ...]) -> frozenset[Term]:
    """Union of the children's variable sets; a lone non-empty one is reused."""
    sets = [a.vars for a in args if a.vars]
    if not sets:
        return _NO_VARS
    if len(sets) == 1:
        return sets[0]
    return sets[0].union(*sets[1:])


def _mk(kind: int, sym: str, args: tuple[Term, ...]) -> Term:
    ident = (kind, sym, args)
    t = _intern.get(ident)
    if t is None:
        # double-checked: the dict is the only shared mutable state
        with _intern_lock:
            t = _intern.get(ident)
            if t is None:
                t = object.__new__(Term)
                t.kind = kind
                t.sym = sym
                t.args = args
                t.key = (kind, sym, len(args), tuple(a.key for a in args))
                t.vars = frozenset((t,)) if kind == VAR else _vars_of(args)
                # a flattened AC node stands for n-1 binary applications
                own = len(args) - 1 if kind == EAPP and sym in AC_SYMBOLS else 1
                t.size = own + sum(a.size for a in args)
                _intern[ident] = t
    return t


def name(ident: str) -> Term:
    return _mk(NAME, ident, ())


def var(ident: str) -> Term:
    return _mk(VAR, ident, ())


def capp(sym: str, args: Iterable[Term]) -> Term:
    args = tuple(args)
    arity = CONSTRUCTOR_ARITY.get(sym)
    if arity is None:
        raise ValueError(f"unknown constructor {sym!r}")
    if len(args) != arity:
        raise ValueError(f"{sym} expects {arity} arguments, got {len(args)}")
    return _mk(CAPP, sym, args)


def eapp(sym: str, args: Iterable[Term]) -> Term:
    """Build an equational-symbol application, flattening and sorting AC heads."""
    args = tuple(args)
    if sym in AC_SYMBOLS:
        flat: list[Term] = []
        for a in args:
            if a.kind == EAPP and a.sym == sym:
                flat.extend(a.args)
            else:
                flat.append(a)
        if not flat:
            raise ValueError(f"AC symbol {sym!r} needs at least one argument")
        if len(flat) == 1:
            return flat[0]
        return _mk(EAPP, sym, tuple(sorted(flat, key=lambda t: t.key)))
    return _mk(EAPP, sym, args)


def pub(k: Term) -> Term:
    return capp("pub", (k,))


def sign(m: Term, k: Term) -> Term:
    return capp("sign", (m, k))


def blind(m: Term, r: Term) -> Term:
    return capp("blind", (m, r))


def pair(a: Term, b: Term) -> Term:
    return capp("pair", (a, b))


def enc(m: Term, k: Term) -> Term:
    return capp("enc", (m, k))


def subterms(t: Term) -> frozenset[Term]:
    """All subterms of ``t``, with AC arguments read from the flattened node."""
    seen: set[Term] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(u.args)
    return frozenset(seen)


def size(t: Term) -> int:
    """Number of symbol, name and variable occurrences.

    A flattened AC node with n arguments counts as the n-1 binary
    applications it abbreviates, so size agrees with the unflattened tree.
    """
    return t.size


def variables(t: Term) -> frozenset[Term]:
    return t.vars


def substitute(t: Term, mapping: dict[Term, Term]) -> Term:
    """Apply a variable substitution, re-canonicalizing on the way up."""
    if not mapping or not t.vars:
        return t
    if t.kind == VAR:
        return mapping.get(t, t)
    args = tuple(substitute(a, mapping) for a in t.args)
    if args == t.args:
        return t
    if t.kind == CAPP:
        return capp(t.sym, args)
    return eapp(t.sym, args)


# --- theory-relative structure ---------------------------------------------


def is_e_alien(t: Term, theory) -> bool:
    """True if ``t`` is headed by a symbol outside the theory's signature.

    Names and variables are not headed by any symbol, hence never alien.
    """
    if t.kind == CAPP:
        return True
    if t.kind == EAPP:
        return t.sym not in theory.symbols
    return False


def e_factors(t: Term, theory) -> frozenset[Term]:
    """Alien immediate subterms of the theory-headed subterms of ``t``."""
    out: set[Term] = set()
    for u in subterms(t):
        if u.kind == EAPP and u.sym in theory.symbols:
            for a in u.args:
                if is_e_alien(a, theory):
                    out.add(a)
    return frozenset(out)


# --- concrete syntax --------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


# identifiers, punctuation, variables, 0 and 1; any other visible
# character is a token of its own that no rule accepts
_TOKEN = re.compile(r"\s*([a-z][a-zA-Z0-9_]*|[(),+*]|\?[a-z][a-zA-Z0-9_]*|[01]|\S)")
_ONE_CHAR_TOKENS = frozenset("abcdefghijklmnopqrstuvwxyz(),+*01")

# deepest nesting of applications and parentheses that parse_term accepts;
# format_term, normalize, substitute and deduce recurse once or twice per
# level, so this bound keeps them within the default recursion limit
MAX_DEPTH = 300


class _Failure(Exception):
    """A parse error at a token index, before its column is worked out."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index


class _Parser:
    """Recursive descent over the token strings, ending in "" (end of input).

    sum := product ('+' product)*, product := atom ('*' atom)*; an atom not
    followed by + or * is returned without entering the operator levels.
    """

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def parse(self) -> Term:
        t = self.sum()
        if self.tokens[self.i]:
            raise _Failure(f"unexpected trailing input {self.tokens[self.i]!r}", self.i)
        return t

    def expect(self, value: str) -> None:
        text = self.tokens[self.i]
        if text != value:
            raise _Failure(f"expected {value!r}, found {text or 'end of input'!r}", self.i)
        self.i += 1

    def sum(self) -> Term:
        t = self.atom()
        op = self.tokens[self.i]
        if op != "+" and op != "*":
            return t
        parts = [self.product(t)]
        while self.tokens[self.i] == "+":
            self.i += 1
            parts.append(self.product(self.atom()))
        return parts[0] if len(parts) == 1 else eapp("+", parts)

    def product(self, first: Term) -> Term:
        parts = [first]
        while self.tokens[self.i] == "*":
            self.i += 1
            parts.append(self.atom())
        return parts[0] if len(parts) == 1 else eapp("*", parts)

    def nested(self, at: int) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _Failure("term nested too deep to parse", at)

    def atom(self) -> Term:
        at = self.i
        text = self.tokens[at]
        self.i = at + 1
        if "a" <= text[:1] <= "z":
            if self.tokens[self.i] != "(":
                return _mk(NAME, text, ())
            self.i += 1
            self.nested(at)
            args = [self.sum()]
            while self.tokens[self.i] == ",":
                self.i += 1
                args.append(self.sum())
            self.expect(")")
            self.depth -= 1
            arity = CONSTRUCTOR_ARITY.get(text)
            if arity is not None:
                if len(args) != arity:
                    raise _Failure(f"{text} expects {arity} arguments, got {len(args)}", at)
                return _mk(CAPP, text, tuple(args))
            if text == "inv":
                if len(args) != 1:
                    raise _Failure(f"inv expects 1 argument, got {len(args)}", at)
                return eapp("inv", args)
            raise _Failure(f"unknown function {text!r}", at)
        if text[:1] == "?" and len(text) > 1:
            return var(text[1:])
        if text == "0" or text == "1":
            return eapp(text, ())
        if text == "(":
            self.nested(at)
            t = self.sum()
            self.expect(")")
            self.depth -= 1
            return t
        raise _Failure(f"unexpected {text or 'end of input'!r}", at)


def parse_term(text: str) -> Term:
    """Parse the concrete term grammar; raises ParseError with a column.

    The text is split into tokens by one regular-expression scan.  A term
    nested more than MAX_DEPTH levels deep is an error in the input, and so
    is one that the interpreter's recursion limit stops first.
    """
    parser = _Parser(_TOKEN.findall(text) + [""])
    try:
        return parser.parse()
    except _Failure as e:
        failure = e
    except RecursionError:
        failure = _Failure("term nested too deep to parse",
                           min(parser.i, len(parser.tokens) - 1))
    # a character that starts no token is reported before any other error
    columns = []
    for m in _TOKEN.finditer(text):
        token = m.group(1)
        if len(token) == 1 and token not in _ONE_CHAR_TOKENS:
            raise ParseError(f"unexpected character {token!r}", m.start(1)) from None
        columns.append(m.start(1))
    columns.append(len(text))
    raise ParseError(failure.message, columns[failure.index]) from None


_PRECEDENCE = {"+": 1, "*": 2}


def format_term(t: Term) -> str:
    """Print a term so that parse_term(format_term(t)) is t."""
    if t.kind in (NAME, VAR):
        return t.sym if t.kind == NAME else "?" + t.sym
    if t.kind == EAPP and t.sym in AC_SYMBOLS:
        parts = []
        for a in t.args:
            s = format_term(a)
            if a.kind == EAPP and a.sym in AC_SYMBOLS and _PRECEDENCE[a.sym] < _PRECEDENCE[t.sym]:
                s = f"({s})"
            parts.append(s)
        return t.sym.join(parts)
    if not t.args:
        return t.sym
    return f"{t.sym}({','.join(format_term(a) for a in t.args)})"
