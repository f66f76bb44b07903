"""Equational theories, normal forms and AC rewriting.

A theory bundles a signature, at most one AC symbol, an AC-convergent rule
set and the tag of its elementary-deduction backend.  normalize() computes
normal forms by evaluation: a sum under xor or an abelian group is read as a
vector of atom counts (mod 2, or signed integers), reduced and rebuilt, and
plain AC terms are canonical already in the flattened representation.  The
same vectors (theory_vector, vector_term) serve the elementary backends and
the engine's reference closure.

rewrite_normalize() rewrites with the rules plus their AC extensions
(lhs + z -> rhs + z for AC-headed left sides), which realizes class
rewriting on the flattened representation.  It is exponential in the width
of a sum and serves as the test oracle for normalize().
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .terms import (
    AC_SYMBOLS, CAPP, EAPP, NAME, VAR, Term, capp, eapp, substitute, var,
)


class NormalizationBudgetExceeded(RuntimeError):
    """Raised when normalize() spends its step budget; suspect non-termination."""


@dataclass(frozen=True)
class RewriteRule:
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if not self.rhs.vars <= self.lhs.vars:
            raise ValueError("rewrite rule introduces variables on the right")


class Theory:
    """One equational constituent: signature, AC symbol, rules, backend tag."""

    def __init__(self, name: str, symbols: dict[str, int], ac_symbol: str | None,
                 rules: Sequence[RewriteRule], backend: str):
        if ac_symbol is not None and ac_symbol not in AC_SYMBOLS:
            raise ValueError(f"{ac_symbol!r} is not a reserved AC symbol")
        self.name = name
        self.symbols = dict(symbols)
        self.ac_symbol = ac_symbol
        self.rules = tuple(rules)
        self.backend = backend

    def __repr__(self) -> str:
        return f"Theory({self.name})"


def _x() -> Term:
    return var("x")


def _y() -> Term:
    return var("y")


@lru_cache(maxsize=None)
def empty_theory() -> Theory:
    return Theory("empty", {}, None, (), "empty")


@lru_cache(maxsize=None)
def ac_theory(op: str = "+") -> Theory:
    return Theory("ac", {op: 2}, op, (), "ac")


@lru_cache(maxsize=None)
def xor_theory(op: str = "+") -> Theory:
    zero = eapp("0", ())
    rules = (
        RewriteRule(eapp(op, (_x(), _x())), zero),
        RewriteRule(eapp(op, (_x(), zero)), _x()),
    )
    return Theory("xor", {op: 2, "0": 0}, op, rules, "xor")


@lru_cache(maxsize=None)
def ag_theory(op: str = "+") -> Theory:
    one = eapp("1", ())
    inv_x = eapp("inv", (_x(),))
    rules = (
        RewriteRule(eapp(op, (_x(), one)), _x()),
        RewriteRule(eapp(op, (_x(), inv_x)), one),
        RewriteRule(eapp("inv", (one,)), one),
        RewriteRule(eapp("inv", (inv_x,)), _x()),
        RewriteRule(eapp("inv", (eapp(op, (_x(), _y())),)),
                    eapp(op, (inv_x, eapp("inv", (_y(),))))),
        RewriteRule(eapp(op, (_x(), inv_x, _y())), _y()),
    )
    return Theory("ag", {op: 2, "1": 0, "inv": 1}, op, rules, "ag")


THEORY_BUILDERS = {
    "empty": empty_theory,
    "ac": ac_theory,
    "xor": xor_theory,
    "ag": ag_theory,
}


def make_theories(names: Sequence[str]) -> tuple[Theory, ...]:
    """Instantiate builtin theories, assigning + then * to the AC users.

    The constituents of a combination must have pairwise disjoint signatures.
    """
    theories = []
    ops = iter(AC_SYMBOLS)
    for n in names:
        builder = THEORY_BUILDERS.get(n)
        if builder is None:
            raise ValueError(f"unknown theory {n!r}")
        if n == "empty":
            theories.append(builder())
            continue
        try:
            theories.append(builder(next(ops)))
        except StopIteration:
            raise ValueError("at most two AC theories can be combined") from None
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
    for u in sorted(+sargs, key=lambda t: t.key):
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
def _evaluation(theories: tuple[Theory, ...]) -> tuple[dict[str, Theory], frozenset[str]]:
    """(head symbol -> the theory that evaluates it, symbols no evaluator covers).

    Only the built-in xor and ag rule sets are evaluated; a theory without
    rules is canonical as it stands (plain AC, empty).  Any other rule set
    blocks the symbols it owns or rewrites at.
    """
    evaluated: dict[str, Theory] = {}
    blocked: set[str] = set()
    for th in theories:
        if not th.rules:
            continue
        if (th.backend in ("xor", "ag") and th.ac_symbol in AC_SYMBOLS
                and th.rules == THEORY_BUILDERS[th.backend](th.ac_symbol).rules):
            heads = (th.ac_symbol, "inv") if th.backend == "ag" else (th.ac_symbol,)
            for sym in heads:
                if sym in evaluated:
                    raise ValueError(f"theories {evaluated[sym].name} and {th.name} "
                                     f"both interpret {sym!r}")
                evaluated[sym] = th
            continue
        if any(r.lhs.kind in (NAME, VAR) for r in th.rules):
            raise ValueError(f"cannot evaluate the rules of theory {th.name!r}")
        blocked |= th.symbols.keys() | {r.lhs.sym for r in th.rules}
    return evaluated, frozenset(blocked)


def normalizes_nothing(theories) -> bool:
    """Whether every term is its own normal form: no theory has rules."""
    evaluated, blocked = _evaluation(as_theories(theories))
    return not evaluated and not blocked


def normalize(t: Term, theories) -> Term:
    """The unique normal form of ``t`` modulo AC, computed by evaluation.

    Bottom-up, each node headed by an xor or ag symbol (or ``inv``) reads
    its normalized arguments as an atom vector, reduces it and rebuilds the
    term (theory_vector, vector_term); every other node is rebuilt from its
    normalized arguments, which re-flattens AC symbols.  Raises ValueError
    when ``t`` contains a symbol of a theory whose rules are not a built-in
    set, since those rules cannot be evaluated.  rewrite_normalize computes
    the same normal form with the rules themselves.
    """
    theories = as_theories(theories)
    if normalizes_nothing(theories):
        return t
    evaluated, blocked = _evaluation(theories)
    return _eval(t, evaluated, blocked, {})


def _eval(t: Term, evaluated: dict[str, Theory], blocked: frozenset[str],
          memo: dict[Term, Term]) -> Term:
    done = memo.get(t)
    if done is not None:
        return done
    if t.kind in (CAPP, EAPP) and t.sym in blocked:
        raise ValueError(f"cannot evaluate the rules for {t.sym!r}; "
                         f"use rewrite_normalize")
    out = t
    if t.args:
        args = tuple(_eval(a, evaluated, blocked, memo) for a in t.args)
        th = evaluated.get(t.sym) if t.kind == EAPP else None
        if th is not None:
            counts: dict[Term, int] = {}
            sgn = -1 if t.sym == "inv" else 1
            for a in args:
                _read(a, sgn, th, counts)
            out = vector_term(counts, th)
        elif args != t.args:
            out = eapp(t.sym, args) if t.kind == EAPP else capp(t.sym, args)
    memo[t] = out
    return out


def is_normal(t: Term, theories) -> bool:
    return normalize(t, theories) is t


# --- rule-based rewriting (the test oracle) -----------------------------------

_EXT_VAR = var("_z")  # reserved: the parser cannot produce a leading underscore

DEFAULT_MAX_STEPS = 10 ** 6


def _compiled_rules(theories: tuple[Theory, ...]) -> tuple[tuple[Term, Term], ...]:
    out = []
    for th in theories:
        for rule in th.rules:
            out.append((rule.lhs, rule.rhs))
            lhs = rule.lhs
            if lhs.kind == EAPP and lhs.sym in AC_SYMBOLS:
                out.append((eapp(lhs.sym, lhs.args + (_EXT_VAR,)),
                            eapp(lhs.sym, (rule.rhs, _EXT_VAR))))
    return tuple(out)


def _root_step(t: Term, rules) -> Term | None:
    for lhs, rhs in rules:
        for env in _match_cached(lhs, t):
            return substitute(rhs, dict(env))
    return None


def rewrite_normalize(t: Term, theories, max_steps: int = DEFAULT_MAX_STEPS,
                      strategy: str = "innermost") -> Term:
    """The normal form of ``t`` by rewriting with the rules plus their AC
    extensions (lhs + z -> rhs + z for AC-headed left sides).

    This is the reference that normalize() is tested against; AC matching
    makes it exponential in the width of a sum.  Convergence makes the
    redex strategy irrelevant for the result, and both strategies exist so
    tests can check exactly that.  Raises NormalizationBudgetExceeded after
    max_steps rule applications.
    """
    theories = as_theories(theories)
    rules = _compiled_rules(theories)
    if not rules:
        return t
    budget = [max_steps]
    if strategy == "innermost":
        return _norm_inner(t, rules, budget, {})
    if strategy == "outermost":
        cur = t
        while True:
            nxt = _step_outer(cur, rules)
            if nxt is None:
                return cur
            _spend(budget)
            cur = nxt
    raise ValueError(f"unknown strategy {strategy!r}")


def _spend(budget: list[int]) -> None:
    budget[0] -= 1
    if budget[0] < 0:
        raise NormalizationBudgetExceeded("normalization step budget exhausted")


def _norm_inner(t: Term, rules, budget, cache: dict[Term, Term]) -> Term:
    done = cache.get(t)
    if done is not None:
        return done
    cur = t
    if cur.args:
        args = tuple(_norm_inner(a, rules, budget, cache) for a in cur.args)
        if args != cur.args:
            cur = eapp(cur.sym, args) if cur.kind == EAPP else capp(cur.sym, args)
    while True:
        red = _root_step(cur, rules)
        if red is None:
            break
        _spend(budget)
        if red.args:
            args = tuple(_norm_inner(a, rules, budget, cache) for a in red.args)
            red = eapp(red.sym, args) if red.kind == EAPP else capp(red.sym, args)
        cur = red
    cache[t] = cur
    cache[cur] = cur
    return cur


def _step_outer(t: Term, rules) -> Term | None:
    red = _root_step(t, rules)
    if red is not None:
        return red
    for i, a in enumerate(t.args):
        sub = _step_outer(a, rules)
        if sub is not None:
            args = t.args[:i] + (sub,) + t.args[i + 1:]
            return eapp(t.sym, args) if t.kind == EAPP else capp(t.sym, args)
    return None


def one_step_rewrites(t: Term, theories) -> frozenset[Term]:
    """Every term reachable from ``t`` by a single rewrite step modulo AC."""
    rules = _compiled_rules(as_theories(theories))
    out: set[Term] = set()
    for lhs, rhs in rules:
        for env in _match_cached(lhs, t):
            out.add(substitute(rhs, dict(env)))
    for i, a in enumerate(t.args):
        for sub in one_step_rewrites(a, theories):
            args = t.args[:i] + (sub,) + t.args[i + 1:]
            out.add(eapp(t.sym, args) if t.kind == EAPP else capp(t.sym, args))
    return frozenset(out)


# --- variable abstraction ---------------------------------------------------


class Abstraction:
    """The v_E table: one fresh variable per equivalence class of alien terms.

    Keys are normal forms under the combined theory, so two terms get the
    same variable exactly when they are equal modulo E.  One table serves
    all constituents of one problem instance, and memoizes per term the
    class variable and the abstracted vector, so each term is normalized
    and read once per problem.  It also holds the elementary backends'
    spans of the problem's context (see elementary).
    """

    def __init__(self, theories):
        self.theories = as_theories(theories)
        self.table: dict[Term, Term] = {}
        self._var: dict[Term, Term] = {}
        self._vec: dict[tuple[Term, Theory], Mapping[Term, int]] = {}
        self.spans: dict[Theory, object] = {}  # theory -> elementary's span

    def var_for(self, t: Term) -> Term:
        v = self._var.get(t)
        if v is None:
            key = normalize(t, self.theories)
            v = self.table.get(key)
            if v is None:
                v = var(f"v{len(self.table) + 1}")
                self.table[key] = v
            self._var[t] = v
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


def abstract(t: Term, theory: Theory, table: Abstraction) -> Term:
    """Replace maximal alien subterms of a ground term by class variables.

    Symbols of the given constituent are kept; everything else headed by a
    symbol collapses to the table's variable for its class.
    """
    if t.kind == NAME:
        return t
    if t.kind == EAPP and t.sym in theory.symbols:
        if not t.args:
            return t
        return eapp(t.sym, tuple(abstract(a, theory, table) for a in t.args))
    return table.var_for(t)
