"""Message terms with a canonical AC representation.

Terms are names, variables, constructor applications (pub, sign, blind,
pair, enc) or equational-symbol applications.  The two reserved AC symbols
``+`` and ``*`` are stored flattened with their argument multiset in a fixed
total order, so structural identity coincides with equality modulo AC.
Terms are hash-consed: building the same canonical term twice yields the
same object while the first is alive, which makes term sets behave like
shared-DAG node sets.  The intern table holds its terms weakly, so a term
lives exactly as long as something references it.  Variables are the
exception: a variable's own variable set holds it, a cycle that only the
cyclic collector could free, so variables are pinned for the life of the
process.  Every other term is freed by reference counting as soon as its
last user drops it.  A node's variable set and size are computed once, from
its children's, when the node is interned, and kept in its ``vars`` and
``size`` slots.  Its normal form, once computed, is kept in ``nf`` with the
evaluation map it holds under in ``nf_of``; ``nf`` is None when the term is
its own normal form, so no term references itself.
"""
from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from operator import attrgetter
from typing import Iterable

NAME, VAR, CAPP, EAPP = range(4)  # also the major sort rank of a head

CONSTRUCTOR_ARITY = {"pub": 1, "sign": 2, "blind": 2, "pair": 2, "enc": 2}
AC_SYMBOLS = ("+", "*")

_IDENT = re.compile(r"[a-z][a-zA-Z0-9_]*")


class Term:
    """A hash-consed term node.

    ``kind`` is one of NAME, VAR, CAPP, EAPP; ``sym`` the identifier or head
    symbol; ``args`` the (canonically ordered, flattened for AC) argument
    tuple.  ``key`` is a precomputed structural sort key giving the total
    order used everywhere deterministic output matters.  ``vars`` is the
    frozenset of variables occurring in the term and ``size`` its number of
    symbol, name and variable occurrences, where a flattened AC node with n
    arguments counts as the n-1 binary applications it abbreviates, so size
    agrees with the unflattened tree; both are filled when the node is
    interned.  ``nf`` is the normal form under the evaluation map ``nf_of``
    (None when the term is its own); rewriting.normalize fills both, and
    ``nf_of`` is None until it first reaches the term.
    """

    __slots__ = ("kind", "sym", "args", "key", "vars", "size", "nf_of", "nf", "__weakref__")

    kind: int
    sym: str
    args: tuple[Term, ...]
    key: tuple
    vars: frozenset[Term]
    size: int
    nf_of: dict | None
    nf: Term | None

    def __lt__(self, other: Term) -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return f"Term({format_term(self)})"

    def __str__(self) -> str:
        return format_term(self)


# the sort key of the term order: sorted(terms, key=term_key)
term_key = attrgetter("key")


class _Ref(weakref.ref):
    """A weak reference that knows its table key, as weakref.KeyedRef does.

    KeyedRef's constructor runs in Python and costs more than the rest of
    interning a term; this one is built by weakref.ref's own and ``key`` is
    set after.
    """

    __slots__ = ("key",)


# (kind, sym, args) -> weak reference to the one live term of that structure
_intern: dict[tuple, _Ref] = {}
_pinned: list[Term] = []  # every variable ever built, kept alive
_NO_VARS: frozenset[Term] = frozenset()  # shared by every ground term


def _drop(ref: _Ref, _remove=_remove_dead_weakref, _table=_intern) -> None:
    # a term died: forget its entry, unless a new term already took the slot.
    # One atomic call, since a term can die while another is being interned.
    _remove(_table, ref.key)


def _mk(kind: int, sym: str, args: tuple[Term, ...]) -> Term:
    ident = (kind, sym, args)
    ref = _intern.get(ident)
    if ref is not None:
        t = ref()
        if t is not None:
            return t
    t = object.__new__(Term)
    t.kind = kind
    t.sym = sym
    t.args = args
    t.nf_of = None
    if args:
        # a flattened AC node stands for n-1 binary applications
        n = len(args) - 1 if kind == EAPP and sym in AC_SYMBOLS else 1
        vs = _NO_VARS
        keys = []
        for a in args:
            keys.append(a.key)
            n += a.size
            av = a.vars
            if av and av is not vs:
                vs = av if not vs else vs | av
        t.key = (kind, sym, len(args), tuple(keys))
        t.vars = vs
        t.size = n
    else:
        t.key = (kind, sym, 0, ())
        t.size = 1
        t.vars = frozenset((t,)) if kind == VAR else _NO_VARS
    new = _Ref(t, _drop)
    new.key = ident
    # Each call below is atomic, so builders racing on one structure agree
    # on one term without a lock: the first entry stays, and a dead entry
    # whose callback has not run yet is cleared and the slot taken again.
    while True:
        ref = _intern.setdefault(ident, new)
        if ref is new:
            break
        first = ref()
        if first is not None:
            return first
        _remove_dead_weakref(_intern, ident)
    if kind == VAR:
        _pinned.append(t)
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
        return _mk(EAPP, sym, tuple(sorted(flat, key=term_key)))
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


def _parse_tokens(tokens: list[str], i: int = 0, sep: str = "") -> tuple[Term, int]:
    """Parse a term from token i of token strings ending in "" (end of
    input), without recursing; returns the term and the index of the token
    that ends it, which is "" or, when sep is ",", a comma outside every
    application and parenthesis.

    sum := product ('+' product)*, product := atom ('*' atom)*, and an atom
    is a name, a variable, 0, 1, f(sum, ..., sum) or (sum).  Each open
    application or parenthesis is a frame on ``stack`` that saves the sum
    and product parts of the level around it; errors are raised at the
    token indices a recursive descent would raise them at.
    """
    mk = _mk
    stack: list[tuple] = []  # (head or None for "(", its token index, args, sums, prods)
    sums: list[Term] = []    # finished products of the innermost open sum
    prods: list[Term] = []   # atoms of its open product
    while True:
        # an atom starts at token i
        at = i
        text = tokens[at]
        i = at + 1
        if "a" <= text[:1] <= "z":
            if tokens[i] != "(":
                t = mk(NAME, text, ())
            else:
                if len(stack) == MAX_DEPTH:
                    raise _Failure("term nested too deep to parse", at)
                stack.append((text, at, [], sums, prods))
                sums, prods = [], []
                i += 1
                continue
        elif text[:1] == "?" and len(text) > 1:
            t = mk(VAR, text[1:], ())
        elif text == "0" or text == "1":
            t = mk(EAPP, text, ())
        elif text == "(":
            if len(stack) == MAX_DEPTH:
                raise _Failure("term nested too deep to parse", at)
            stack.append((None, at, None, sums, prods))
            sums, prods = [], []
            continue
        else:
            raise _Failure(f"unexpected {text or 'end of input'!r}", at)
        # t is a whole atom: close every level the next token ends
        while True:
            op = tokens[i]
            if op == "*":
                prods.append(t)
                i += 1
                break
            if prods:
                prods.append(t)
                t = eapp("*", prods)
                prods = []
            if op == "+":
                sums.append(t)
                i += 1
                break
            if sums:
                sums.append(t)
                t = eapp("+", sums)
                sums = []
            # t is a whole sum
            if not stack:
                if op and op != sep:
                    raise _Failure(f"unexpected trailing input {op!r}", i)
                return t, i
            head, at, args, sums, prods = stack[-1]
            if op == "," and head is not None:
                args.append(t)
                sums, prods = [], []
                i += 1
                break
            if op != ")":
                raise _Failure(f"expected ')', found {op or 'end of input'!r}", i)
            i += 1
            stack.pop()
            if head is None:
                continue  # (sum) is an atom of the level around it
            args.append(t)
            arity = CONSTRUCTOR_ARITY.get(head)
            if arity is not None:
                if len(args) != arity:
                    raise _Failure(f"{head} expects {arity} arguments, got {len(args)}", at)
                t = mk(CAPP, head, tuple(args))
            elif head == "inv":
                if len(args) != 1:
                    raise _Failure(f"inv expects 1 argument, got {len(args)}", at)
                t = mk(EAPP, "inv", (args[0],))
            else:
                raise _Failure(f"unknown function {head!r}", at)


def _parse_error(text: str, message: str, index: int) -> ParseError:
    """The error to report for a failure at token ``index`` of ``text``.

    A character that starts no token is reported before any other error.
    """
    columns = []
    for m in _TOKEN.finditer(text):
        token = m.group(1)
        if len(token) == 1 and token not in _ONE_CHAR_TOKENS:
            return ParseError(f"unexpected character {token!r}", m.start(1))
        columns.append(m.start(1))
    columns.append(len(text))
    return ParseError(message, columns[index])


def parse_term(text: str) -> Term:
    """Parse the concrete term grammar; raises ParseError with a column.

    The text is split into tokens by one regular-expression scan and parsed
    in one loop over them.  A term nested more than MAX_DEPTH levels deep is
    an error in the input.
    """
    tokens = _TOKEN.findall(text)
    tokens.append("")
    try:
        return _parse_tokens(tokens)[0]
    except _Failure as e:
        message, index = e.message, e.index
    # raised outside the handler, so the error holds no parser frame
    raise _parse_error(text, message, index)


def parse_term_list(text: str) -> list[Term]:
    """Parse comma-separated terms; empty parts (a,,b or a trailing comma)
    are skipped.

    The list is read in one scan, split at the commas outside every
    application and parenthesis.  Text that does not parse is read again
    part by part, split at the commas outside parentheses, so an error
    names the column within its part, as parse_term on that part would.
    """
    tokens = _TOKEN.findall(text)
    tokens.append("")
    out = []
    i = 0
    try:
        while True:
            while tokens[i] == ",":
                i += 1
            if not tokens[i]:
                return out
            t, i = _parse_tokens(tokens, i, ",")
            out.append(t)
    except _Failure:
        pass
    return [parse_term(part) for part in _split_top(text) if part.strip()]


def _split_top(text: str) -> list[str]:
    """text cut at each comma outside parentheses; a stray ")" leaves the
    commas after it uncut until a "(" makes up for it."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


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
