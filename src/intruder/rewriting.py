"""Equational theories and their normal forms.

A theory bundles a signature, at most one AC symbol and a backend tag
(BACKENDS), which names both its elementary-deduction backend and its
arithmetic.  normalize() computes normal forms by evaluation: a sum under
xor or an abelian group is read as a vector of atom counts (mod 2, or signed
integers), reduced and rebuilt, and plain AC terms are canonical already in
the flattened representation.  The same vectors (theory_vector,
vector_term) serve the elementary backends and the engine's reference
closure.  The rule-based rewriter that normalize() is tested against, with
the xor and ag rule sets, is a test oracle (tests/oracles.py).
"""
from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .terms import AC_SYMBOLS, EAPP, NAME, VAR, Term, capp, eapp, term_key, var

BACKENDS = ("empty", "ac", "xor", "ag")


class Theory:
    """One equational constituent: name, signature, AC symbol, backend tag.

    The name is what a witness cites, so the constituents of one
    combination have distinct names.  xor and ag terms are normalized by
    vector evaluation; ac and empty terms are canonical as the term
    representation builds them.
    """

    def __init__(self, name: str, symbols: dict[str, int], ac_symbol: str | None,
                 backend: str):
        if ac_symbol is not None and ac_symbol not in AC_SYMBOLS:
            raise ValueError(f"{ac_symbol!r} is not a reserved AC symbol")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r} for theory {name!r}")
        self.name = name
        self.symbols = dict(symbols)
        self.ac_symbol = ac_symbol
        self.backend = backend

    def __repr__(self) -> str:
        return f"Theory({self.name})"


@lru_cache(maxsize=None)
def empty_theory() -> Theory:
    return Theory("empty", {}, None, "empty")


@lru_cache(maxsize=None)
def ac_theory(op: str = "+") -> Theory:
    return Theory("ac", {op: 2}, op, "ac")


@lru_cache(maxsize=None)
def xor_theory(op: str = "+") -> Theory:
    return Theory("xor", {op: 2, "0": 0}, op, "xor")


@lru_cache(maxsize=None)
def ag_theory(op: str = "+") -> Theory:
    return Theory("ag", {op: 2, "1": 0, "inv": 1}, op, "ag")


@lru_cache(maxsize=None)
def _renamed(th: Theory, name: str) -> Theory:
    return Theory(name, th.symbols, th.ac_symbol, th.backend)


THEORY_BUILDERS = {
    "empty": empty_theory,
    "ac": ac_theory,
    "xor": xor_theory,
    "ag": ag_theory,
}


def make_theories(names: Sequence[str]) -> tuple[Theory, ...]:
    """Instantiate builtin theories, assigning + then * to the AC users.

    The constituents of a combination must have pairwise disjoint signatures.
    Each keeps its builtin name, which witnesses cite, except where two would
    share it: the empty theory listed twice is one theory, and of two AC
    theories the one on * is named ac*.
    """
    theories = []
    ops = iter(AC_SYMBOLS)
    for n in names:
        builder = THEORY_BUILDERS.get(n)
        if builder is None:
            raise ValueError(f"unknown theory {n!r}")
        if n == "empty":
            if empty_theory() not in theories:
                theories.append(empty_theory())
            continue
        try:
            op = next(ops)
        except StopIteration:
            raise ValueError("at most two AC theories can be combined") from None
        th = builder(op)
        if any(t.name == th.name for t in theories):
            th = _renamed(th, th.name + op)
        theories.append(th)
    seen: set[str] = set()
    for th in theories:
        overlap = seen & th.symbols.keys()
        if overlap:
            raise ValueError(f"combined signatures overlap on {sorted(overlap)}")
        seen |= th.symbols.keys()
    return tuple(theories)


def as_theories(theories) -> tuple[Theory, ...]:
    if isinstance(theories, Theory):
        return (theories,)
    out = tuple(theories)
    return out if out else (empty_theory(),)


# --- matching modulo AC -----------------------------------------------------
# Only the rewriting oracle in tests/ matches; this leaves src/ with ROADMAP item 1.


def match_mod_ac(pattern: Term, subject: Term) -> list[dict[Term, Term]]:
    """The complete set of substitutions s with pattern*s equal to subject mod AC."""
    return [dict(env) for env in _match_cached(pattern, subject)]


@lru_cache(maxsize=65536)
def _match_cached(pattern: Term, subject: Term) -> tuple[tuple[tuple[Term, Term], ...], ...]:
    seen: set[tuple] = set()
    out = []
    for env in _match(pattern, subject, {}):
        frozen = tuple(sorted(env.items(), key=lambda kv: kv[0].key))
        if frozen not in seen:
            seen.add(frozen)
            out.append(frozen)
    return tuple(out)


def _match(p: Term, s: Term, env: dict[Term, Term]) -> Iterator[dict[Term, Term]]:
    if p.kind == VAR:
        bound = env.get(p)
        if bound is not None:
            if bound is s:
                yield env
        else:
            ext = dict(env)
            ext[p] = s
            yield ext
        return
    if p.kind == NAME:
        if p is s:
            yield env
        return
    if p.kind == EAPP and p.sym in AC_SYMBOLS:
        if s.kind == EAPP and s.sym == p.sym:
            yield from _match_ac(p.sym, p.args, Counter(s.args), env)
        return
    if p.kind == s.kind and p.sym == s.sym and len(p.args) == len(s.args):
        envs = [env]
        for pa, sa in zip(p.args, s.args):
            envs = [e2 for e1 in envs for e2 in _match(pa, sa, e1)]
            if not envs:
                return
        yield from envs


def _match_ac(sym: str, pargs: tuple[Term, ...], sargs: Counter,
              env: dict[Term, Term]) -> Iterator[dict[Term, Term]]:
    # ground-unfriendly arguments first: structural patterns, then bound
    # variables, then free variables absorbing submultisets
    order = sorted(pargs, key=lambda t: (t.kind == VAR, t.key))
    yield from _match_ac_rec(sym, order, sargs, env)


def _match_ac_rec(sym: str, pargs: list[Term], sargs: Counter,
                  env: dict[Term, Term]) -> Iterator[dict[Term, Term]]:
    if not pargs:
        if not +sargs:
            yield env
        return
    p, rest = pargs[0], pargs[1:]
    if p.kind == VAR and p in env:
        parts = _ac_parts(sym, env[p])
        if all(sargs[u] >= c for u, c in parts.items()):
            yield from _match_ac_rec(sym, rest, sargs - parts, env)
        return
    if p.kind == VAR:
        remaining = +sargs
        if not remaining:
            return
        if not rest:
            ext = dict(env)
            ext[p] = _ac_join(sym, remaining)
            yield ext
            return
        for sub in _nonempty_submultisets(remaining):
            ext = dict(env)
            ext[p] = _ac_join(sym, sub)
            yield from _match_ac_rec(sym, rest, sargs - sub, ext)
        return
    for u in sorted(+sargs, key=term_key):
        for env2 in _match(p, u, env):
            yield from _match_ac_rec(sym, rest, sargs - Counter((u,)), env2)


def _ac_parts(sym: str, t: Term) -> Counter:
    if t.kind == EAPP and t.sym == sym:
        return Counter(t.args)
    return Counter((t,))


def _ac_join(sym: str, parts: Counter) -> Term:
    flat = list(parts.elements())
    return flat[0] if len(flat) == 1 else eapp(sym, flat)


def _nonempty_submultisets(bag: Counter) -> Iterator[Counter]:
    items = sorted(bag.items(), key=lambda kv: kv[0].key)
    ranges = [range(c + 1) for _, c in items]
    for counts in itertools.product(*ranges):
        if not any(counts):
            continue
        yield Counter({u: c for (u, _), c in zip(items, counts) if c})


# --- normalization by evaluation --------------------------------------------


def _unit(theory: Theory) -> Term | None:
    for sym, arity in theory.symbols.items():
        if arity == 0:
            return eapp(sym, ())
    return None


def _read(t: Term, sgn: int, theory: Theory, out: dict[Term, int]) -> None:
    """Add ``sgn`` times the atom vector of ``t`` to ``out``, left to right."""
    stack = [(t, sgn)]
    while stack:
        u, s = stack.pop()
        if u.kind == EAPP and u.sym in theory.symbols:
            if u.sym == theory.ac_symbol:
                stack.extend((a, s) for a in reversed(u.args))
                continue
            if u.sym == "inv":
                stack.append((u.args[0], -s))
                continue
            if not u.args:  # the unit
                continue
        out[u] = out.get(u, 0) + s


def _reduced(counts: dict[Term, int], theory: Theory) -> dict[Term, int]:
    if theory.backend == "xor":
        return {a: 1 for a, c in counts.items() if c % 2}
    return {a: c for a, c in counts.items() if c}


def theory_vector(t: Term, theory: Theory) -> dict[Term, int]:
    """The atoms of ``t`` in the theory's arithmetic, with their multiplicities.

    The AC symbol adds, ``inv`` negates (abelian groups), units vanish and
    every other term is an atom.  Counts are reduced: mod 2 for xor, signed
    integers for ag, naturals for ac; atoms that cancel are dropped.  Atoms
    come in order of first occurrence, depth first and left to right.
    """
    out: dict[Term, int] = {}
    _read(t, 1, theory, out)
    return _reduced(out, theory)


def vector_term(counts: dict[Term, int], theory: Theory) -> Term | None:
    """The normal term of an atom vector: a sum of atoms, ``inv`` for negative
    counts (mod 2 for xor).  An empty vector gives the theory's unit, or None
    when it has none (plain AC)."""
    parts: list[Term] = []
    for atom, c in _reduced(counts, theory).items():
        parts.extend([atom] * c if c > 0 else [eapp("inv", (atom,))] * -c)
    if not parts:
        return _unit(theory)
    return parts[0] if len(parts) == 1 else eapp(theory.ac_symbol, parts)


@lru_cache(maxsize=None)
def _evaluation(theories: tuple[Theory, ...]) -> dict[str, Theory]:
    """Head symbol -> the xor or ag theory that evaluates it.

    Plain AC and empty theories evaluate nothing: their terms are canonical
    as they stand.
    """
    evaluated: dict[str, Theory] = {}
    for th in theories:
        if th.backend not in ("xor", "ag"):
            continue
        heads = (th.ac_symbol, "inv") if th.backend == "ag" else (th.ac_symbol,)
        for sym in heads:
            if sym in evaluated:
                raise ValueError(f"theories {evaluated[sym].name} and {th.name} "
                                 f"both interpret {sym!r}")
            evaluated[sym] = th
    return evaluated


def normalize(t: Term, theories) -> Term:
    """The unique normal form of ``t`` modulo AC, computed by evaluation.

    Bottom-up, each node headed by an xor or ag symbol (or ``inv``) reads
    its normalized arguments as an atom vector, reduces it and rebuilds the
    term (theory_vector, vector_term); every other node is rebuilt from its
    normalized arguments, which re-flattens AC symbols.  Results are
    remembered per term and evaluation map (the term's ``nf_of`` and ``nf``
    slots), each normal form as its own, so a known normal form costs O(1)
    and a shared subterm is evaluated once.  Raises ValueError when two
    constituents both interpret one symbol.
    """
    evaluated = _evaluation(as_theories(theories))
    if not evaluated:
        return t
    return _eval(t, evaluated)


def _eval(t: Term, evaluated: dict[str, Theory]) -> Term:
    if t.nf_of is evaluated:
        return t.nf or t
    out = t
    if t.args:
        args = tuple(_eval(a, evaluated) for a in t.args)
        th = evaluated.get(t.sym) if t.kind == EAPP else None
        if th is not None:
            counts: dict[Term, int] = {}
            sgn = -1 if t.sym == "inv" else 1
            for a in args:
                _read(a, sgn, th, counts)
            out = vector_term(counts, th)
        elif args != t.args:
            out = eapp(t.sym, args) if t.kind == EAPP else capp(t.sym, args)
        # nf_of before nf: replacing nf can free a term and run Python code,
        # and another thread must not find nf_of new and nf old
        if out is not t:
            out.nf_of, out.nf = evaluated, None
    t.nf_of, t.nf = evaluated, None if out is t else out
    return out


# --- variable abstraction ---------------------------------------------------


class Abstraction:
    """The v_E table: one fresh variable per equivalence class of alien terms.

    Keys are normal forms under the combined theory, so two terms get the
    same variable exactly when they are equal modulo E.  One table serves
    all constituents of one problem instance, and memoizes per term the
    abstracted vector, so each term is read once per problem.  It also
    holds the elementary backends' spans of the problem's context (see
    elementary).
    """

    def __init__(self, theories):
        self.theories = as_theories(theories)
        self.table: dict[Term, Term] = {}
        self._vec: dict[tuple[Term, Theory], Mapping[Term, int]] = {}
        self.spans: dict[Theory, object] = {}  # theory -> elementary's span

    def var_for(self, t: Term) -> Term:
        key = normalize(t, self.theories)
        v = self.table.get(key)
        if v is None:
            v = self.table[key] = var(f"v{len(self.table) + 1}")
        return v

    def vector(self, t: Term, theory: Theory) -> Mapping[Term, int]:
        """theory_vector of ``t`` with alien atoms replaced by class variables.

        Names stay atoms.  The result is shared between callers: read-only.
        """
        key = (t, theory)
        vec = self._vec.get(key)
        if vec is None:
            counts: dict[Term, int] = {}
            for atom, c in theory_vector(t, theory).items():
                if atom.kind != NAME:
                    atom = self.var_for(atom)
                counts[atom] = counts.get(atom, 0) + c
            vec = self._vec[key] = MappingProxyType(_reduced(counts, theory))
        return vec
