"""Slow reference implementations and proof measures the tests check against.

rescan_deduce is the saturation sweep that engine.deduce's worklist
replaced: every pass re-lists and retries every left-rule candidate of the
whole context, until a pass adds nothing.  It shares the rule semantics
(engine._apply_left, engine._right) with the engine, so a disagreement
points at the worklist's scheduling and parking, not at the rules.

nd_closure_oracle is independent of the engine: a forward closure over the
natural-deduction rules inside the saturated subterm set (saturate), with
equational steps done by atom-vector arithmetic rather than by the
elementary solvers.  applicable asks whether one left rule instance fires.
left_rule_count and sequents_of measure a derivation for the structural
bounds in conftest.assert_structural.

exhaustive_successors, step and exhaustive_solve are the constraint search
that constraints.successors and solve replaced: every rule is tried at every
member of every constraint (full_reductions_at), not only the edges that
solve needs at the first unsolved one, so every interleaving of commuting
reductions and every C1 binding is explored.  step lists all one-step
reducts of a system and asserts that each child of a well-formed system is
well formed, so every rule at every index stays checked; exhaustive_solve
returns every solved form that search reaches.

walked_variables and recursive_size are the term metadata that the
``vars`` and ``size`` slots replaced: a fresh walk of the term on every
call.

multiset_less is the termination order that constraints.measure_less's
tuple comparison replaced: the Dershowitz-Manna multiset order, computed on
Counters from its definition.

decide_xor and decide_ag are the elementary deciders that the xor and ag
spans replaced: GF(2) and exact integer elimination over the whole of a
sorted Gamma on every call (solve_gf2, solve_int), each returning its own
witness.  reference_solve_nat is the AC search that elementary._decide_ac's
pruned one replaced: every member of Gamma in order, each count tried
largest first down to 0, with the residual copied for every count.

reference_seq_to_nd and reference_nd_to_seq are the proof translations
that proofs.seq_to_nd and nd_to_seq replaced.  They recurse once per node
and rebuild subproofs: the first translates each S node over its own Gamma
and rebuilds its continuation's N proof over the smaller Gamma below every
cut and left rule (_regraft); the second normalizes Gamma at every N node
and copies premises into a larger Gamma with weaken.  height measures a
derivation for the weaken tests.

reference_parse_term is the recursive-descent parser that terms.parse_term's
token loop replaced: one method call per grammar level and node, with the
same messages, columns and depth bound.  reference_parse_term_list reads a
comma-separated list the way terms.parse_term_list's one scan replaced: cut
at the commas outside parentheses (terms._split_top, which parse_term_list
also reads for text that fails), each part parsed on its own.

reference_to_json, reference_dumps and reference_from_json are the proof
serialization that proofs.dumps and from_json replaced: a writer that builds
a dict per node and a dict per context, written entry by entry with
json.dumps, and a reader that checks each field through proofs._field,
_required and _index.  They read and write the same bytes and raise the
same messages.

rewrite_normalize is the rule-based rewriter that rewriting.normalize's
vector evaluation replaced: the AC-convergent xor and ag rule sets
(theory_rules, read off a theory's backend and AC symbol) plus their AC
extensions, applied by matching modulo AC under an innermost or outermost
strategy.  one_step_rewrites lists every one-step reduct, for confluence
checks, and abstract replaces alien subterms by the class variables of an
Abstraction table, for the simulation property of variable abstraction.
"""
from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Iterable, Iterator, Mapping

from intruder.constraints import (ConstraintSystem, Solution, Substitution, _apply,
                                  _first_unsolved, _originating, system_measure,
                                  well_formed)
from intruder.elementary import ElemWitness
from intruder.engine import _apply_left, _linear_proof, _right, _rules_for
from intruder.proofs import S_LEFT_RULES, Derivation, Sequent
from intruder.rewriting import (Abstraction, Theory, as_theories, match_mod_ac,
                                normalize, theory_vector, vector_term)
from intruder import proofs, terms
from intruder.terms import (AC_SYMBOLS, CAPP, CONSTRUCTOR_ARITY, EAPP, MAX_DEPTH, NAME,
                            VAR, Term, capp, e_factors, eapp, format_term, sign,
                            substitute, subterms, term_key, var)


def rescan_deduce(gamma: Iterable[Term], goal: Term, theories,
                  rng: Random | None = None) -> Derivation | None:
    """engine.deduce by full rescans: same verdict, same proof without rng."""
    theories = as_theories(theories)
    delta = frozenset(normalize(t, theories) for t in gamma)
    goal = normalize(goal, theories)
    table = Abstraction(theories)
    memo: dict = {}
    steps: list = []

    rp = _right(delta, goal, table, memo)
    if rp is not None:
        return _linear_proof(steps, delta, goal, rp)

    while True:
        grew = False
        candidates = []
        for t in sorted(delta, key=lambda u: u.key):
            for rule in _rules_for(t):
                candidates.append((rule, t))
        factor_seen = set()
        for th in theories:
            if not th.symbols:
                continue
            for t in sorted(delta | {goal}, key=lambda u: u.key):
                for a in sorted(e_factors(t, th), key=lambda u: u.key):
                    if a not in delta and (a, th.name) not in factor_seen:
                        factor_seen.add((a, th.name))
                        candidates.append(("ls", a))
        if rng is not None:
            rng.shuffle(candidates)
        for rule, principal in candidates:
            hit = _apply_left(rule, principal, delta, table, memo)
            if hit is None:
                continue
            added, side = hit
            new = frozenset(added) - delta
            if not new:
                continue
            steps.append((rule, principal, side, delta))
            delta = delta | new
            grew = True
            rp = _right(delta, goal, table, memo)
            if rp is not None:
                return _linear_proof(steps, delta, goal, rp)
        if not grew:
            return None


# --- rule-based rewriting --------------------------------------------------------


class NormalizationBudgetExceeded(RuntimeError):
    """Raised when rewrite_normalize spends its step budget; suspect non-termination."""


@dataclass(frozen=True)
class RewriteRule:
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if not self.rhs.vars <= self.lhs.vars:
            raise ValueError("rewrite rule introduces variables on the right")


_X, _Y = var("x"), var("y")
_EXT_VAR = var("_z")  # reserved: the parser cannot produce a leading underscore

DEFAULT_MAX_STEPS = 10 ** 6


def _xor_rules(op: str) -> tuple[RewriteRule, ...]:
    zero = eapp("0", ())
    return (RewriteRule(eapp(op, (_X, _X)), zero),
            RewriteRule(eapp(op, (_X, zero)), _X))


def _ag_rules(op: str) -> tuple[RewriteRule, ...]:
    one = eapp("1", ())
    inv_x = eapp("inv", (_X,))
    return (
        RewriteRule(eapp(op, (_X, one)), _X),
        RewriteRule(eapp(op, (_X, inv_x)), one),
        RewriteRule(eapp("inv", (one,)), one),
        RewriteRule(eapp("inv", (inv_x,)), _X),
        RewriteRule(eapp("inv", (eapp(op, (_X, _Y)),)),
                    eapp(op, (inv_x, eapp("inv", (_Y,))))),
        RewriteRule(eapp(op, (_X, inv_x, _Y)), _Y),
    )


_RULE_SETS = {"xor": _xor_rules, "ag": _ag_rules}


@lru_cache(maxsize=None)
def theory_rules(th: Theory) -> tuple[RewriteRule, ...]:
    """The AC-convergent rule set of a theory, by backend and AC symbol.

    Plain AC and the empty theory have none.
    """
    make = _RULE_SETS.get(th.backend)
    return make(th.ac_symbol) if make is not None else ()


def _compiled_rules(theories, rules: Iterable[RewriteRule] | None
                    ) -> tuple[tuple[Term, Term], ...]:
    if rules is None:
        rules = [r for th in as_theories(theories) for r in theory_rules(th)]
    out = []
    for rule in rules:
        out.append((rule.lhs, rule.rhs))
        lhs = rule.lhs
        if lhs.kind == EAPP and lhs.sym in AC_SYMBOLS:
            out.append((eapp(lhs.sym, lhs.args + (_EXT_VAR,)),
                        eapp(lhs.sym, (rule.rhs, _EXT_VAR))))
    return tuple(out)


def _root_step(t: Term, rules) -> Term | None:
    for lhs, rhs in rules:
        for env in match_mod_ac(lhs, t):
            return substitute(rhs, env)
    return None


def rewrite_normalize(t: Term, theories=(), max_steps: int = DEFAULT_MAX_STEPS,
                      strategy: str = "innermost",
                      rules: Iterable[RewriteRule] | None = None) -> Term:
    """The normal form of ``t`` by rewriting with the theories' rules, or
    with ``rules`` when given, plus their AC extensions (lhs + z -> rhs + z
    for AC-headed left sides), which realizes class rewriting on the
    flattened representation.

    rewriting.normalize is tested against this; AC matching makes it
    exponential in the width of a sum.  Convergence makes the redex
    strategy irrelevant for the result, and both strategies exist so tests
    can check exactly that.  Raises NormalizationBudgetExceeded after
    max_steps rule applications.
    """
    compiled = _compiled_rules(theories, rules)
    if not compiled:
        return t
    budget = [max_steps]
    if strategy == "innermost":
        return _norm_inner(t, compiled, budget, {})
    if strategy == "outermost":
        cur = t
        while True:
            nxt = _step_outer(cur, compiled)
            if nxt is None:
                return cur
            _spend(budget)
            cur = nxt
    raise ValueError(f"unknown strategy {strategy!r}")


def _spend(budget: list[int]) -> None:
    budget[0] -= 1
    if budget[0] < 0:
        raise NormalizationBudgetExceeded("normalization step budget exhausted")


def _rebuild(t: Term, args: tuple[Term, ...]) -> Term:
    return eapp(t.sym, args) if t.kind == EAPP else capp(t.sym, args)


def _norm_inner(t: Term, rules, budget, cache: dict[Term, Term]) -> Term:
    done = cache.get(t)
    if done is not None:
        return done
    cur = t
    if cur.args:
        args = tuple(_norm_inner(a, rules, budget, cache) for a in cur.args)
        if args != cur.args:
            cur = _rebuild(cur, args)
    while True:
        red = _root_step(cur, rules)
        if red is None:
            break
        _spend(budget)
        if red.args:
            red = _rebuild(red, tuple(_norm_inner(a, rules, budget, cache)
                                      for a in red.args))
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
            return _rebuild(t, t.args[:i] + (sub,) + t.args[i + 1:])
    return None


def one_step_rewrites(t: Term, theories) -> frozenset[Term]:
    """Every term reachable from ``t`` by a single rewrite step modulo AC."""
    return _one_step(t, _compiled_rules(theories, None))


def _one_step(t: Term, rules) -> frozenset[Term]:
    out: set[Term] = set()
    for lhs, rhs in rules:
        for env in match_mod_ac(lhs, t):
            out.add(substitute(rhs, env))
    for i, a in enumerate(t.args):
        for sub in _one_step(a, rules):
            out.add(_rebuild(t, t.args[:i] + (sub,) + t.args[i + 1:]))
    return frozenset(out)


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


# --- term metadata by walking the term ------------------------------------------


def walked_variables(t: Term) -> frozenset[Term]:
    return frozenset(u for u in subterms(t) if u.kind == VAR)


def recursive_size(t: Term) -> int:
    """Symbol, name and variable occurrences; an AC node of n arguments
    counts as n-1 binary applications."""
    if not t.args:
        return 1
    own = len(t.args) - 1 if t.sym in AC_SYMBOLS and t.kind == EAPP else 1
    return own + sum(recursive_size(a) for a in t.args)


# --- the termination order from its definition ---------------------------------


def multiset_less(a, b) -> bool:
    """Whether (variable count, constraint measures) a lies below b: fewer
    variables, or as many and a smaller multiset of measures in the
    Dershowitz-Manna order (Dershowitz and Manna, CACM 1979).

    M < N iff M != N and every element M has beyond N is below some element
    N has beyond M. The measures may come in any order.
    """
    if a[0] != b[0]:
        return a[0] < b[0]
    m, n = Counter(a[1]), Counter(b[1])
    if m == n:
        return False
    gained = m - n
    lost = n - m
    return all(any(y > x for y in lost) for x in gained)


# --- the saturated subterm set ------------------------------------------------


def proper_subterms(t: Term) -> frozenset[Term]:
    return subterms(t) - {t}


class TermIndex:
    """The saturated node set of a deduction problem.

    Holds St(Gamma ∪ {goal}): the problem terms, their proper subterms, and
    every sign(A, B) over pairs of proper subterms.  Nodes carry their
    origin tags through ``in_gamma`` / ``is_goal``.
    """

    __slots__ = ("gamma", "goal", "nodes")

    def __init__(self, gamma: frozenset[Term], goal: Term, nodes: frozenset[Term]):
        self.gamma = gamma
        self.goal = goal
        self.nodes = nodes

    @property
    def size(self) -> int:
        return len(self.nodes)

    def __contains__(self, t: Term) -> bool:
        return t in self.nodes

    def __iter__(self) -> Iterator[Term]:
        return iter(sorted(self.nodes, key=lambda t: t.key))

    def in_gamma(self, t: Term) -> bool:
        return t in self.gamma

    def is_goal(self, t: Term) -> bool:
        return t is self.goal


def saturate(gamma: Iterable[Term], goal: Term) -> TermIndex:
    gamma = frozenset(gamma)
    base = gamma | {goal}
    pst: set[Term] = set()
    for t in base:
        pst |= proper_subterms(t)
    # sst exists to absorb the sign terms the signature-extraction rule can
    # create; only that rule introduces them and it needs one to start from,
    # so a sign-free problem never leaves base ∪ pst.
    sst: set[Term] = set()
    if any(t.kind == CAPP and t.sym == "sign" for t in base | pst):
        sorted_pst = sorted(pst, key=lambda t: t.key)
        sst = {sign(a, b) for a in sorted_pst for b in sorted_pst}
    return TermIndex(gamma, goal, frozenset(base | pst | sst))


# --- measures of a derivation -------------------------------------------------


def left_rule_count(d: Derivation) -> int:
    own = 0
    if d.system == "L" and d.rule != "r":
        own = 1
    if d.system == "S" and d.rule in S_LEFT_RULES:
        own = 1
    return own + sum(left_rule_count(p) for p in d.premises)


def sequents_of(d: Derivation) -> frozenset[Sequent]:
    out = {d.conclusion}
    for p in d.premises:
        out |= sequents_of(p)
    emb = d.aux.get("right")
    if isinstance(emb, Derivation):
        out |= sequents_of(emb)
    return frozenset(out)


# --- left-rule applicability --------------------------------------------------


def applicable(rule: str, principal: Term, gamma: Iterable[Term], goal: Term,
               theories) -> Sequent | None:
    """The premise sequent of a left rule instance, or None if it cannot fire."""
    theories = as_theories(theories)
    gamma = frozenset(gamma)
    if rule == "ls" and not _is_factor(principal, gamma | {goal}, theories):
        return None
    table = Abstraction(theories)
    hit = _apply_left(rule, principal, gamma, table, {})
    if hit is None:
        return None
    added, _ = hit
    return Sequent(gamma | set(added), goal)


def _is_factor(a: Term, over: frozenset[Term], theories) -> bool:
    return any(a in e_factors(t, th) for t in over for th in theories)


# --- independent reference closure --------------------------------------------


class OracleBoundExceeded(RuntimeError):
    """The reference closure hit an enumeration or depth limit."""


_ORACLE_COMBO_CAP = 200_000


def nd_closure_oracle(gamma: Iterable[Term], goal: Term, theories,
                      depth_bound: int | None = None,
                      coeff_bound: int = 4) -> bool:
    """Forward closure over the natural-deduction rules, for cross-checking.

    Analysis rules run unrestricted inside the known set; introduction rules
    only target saturated subterms, which keeps the closure finite. Equational
    steps enumerate small coefficient combinations of known terms as atom
    vectors (rewriting.theory_vector and vector_term, the arithmetic that
    normalize evaluates and that the tests check against rule-based
    rewriting), so nothing here depends on the elementary solvers. Exact for
    the empty theory and exclusive-or; for AC it is exact whenever coeff_bound
    is at least the largest multiplicity appearing in the saturated set, and
    for abelian groups coefficients beyond coeff_bound are out of reach.
    Raises OracleBoundExceeded when an enumeration would explode or the depth
    bound runs out before the fixpoint.
    """
    theories = as_theories(theories)
    known = {normalize(t, theories) for t in gamma}
    goal = normalize(goal, theories)
    if not known:
        return False
    index = saturate(known, goal)
    targets = frozenset(index)

    rounds = 0
    while True:
        if goal in known:
            return True
        new = _close_once(known, targets, theories, coeff_bound)
        if not new:
            return goal in known
        known |= new
        rounds += 1
        if depth_bound is not None and rounds >= depth_bound:
            raise OracleBoundExceeded(f"no fixpoint within {depth_bound} rounds")


def _close_once(known: set[Term], targets: frozenset[Term], theories,
                coeff_bound: int) -> set[Term]:
    new: set[Term] = set()

    def add(t: Term) -> None:
        if t not in known:
            new.add(t)

    for t in known:
        if t.kind != CAPP:
            continue
        if t.sym == "pair":
            add(t.args[0])
            add(t.args[1])
        elif t.sym == "enc":
            if t.args[1] in known:
                add(t.args[0])
        elif t.sym == "sign":
            payload, key = t.args
            if capp("pub", (key,)) in known:
                add(payload)
            if payload.kind == CAPP and payload.sym == "blind" and payload.args[1] in known:
                add(sign(payload.args[0], key))
        elif t.sym == "blind":
            if t.args[1] in known:
                add(t.args[0])

    for st in targets:
        if st in known or st.kind != CAPP or st.sym == "pub":
            continue
        if all(a in known for a in st.args):
            add(st)

    for th in theories:
        for t in _equational_step(known, targets, th, theories, coeff_bound):
            add(t)
    return new


def _equational_step(known: set[Term], targets: frozenset[Term], th: Theory,
                     theories, coeff_bound: int) -> Iterable[Term]:
    if th.backend == "empty":
        return
    members = sorted(known, key=lambda t: t.key)
    vectors = [theory_vector(m, th) for m in members]
    n = len(members)
    if th.backend == "xor":
        lo, hi = 0, 1
        unit = eapp("0", ())
    elif th.backend == "ac":
        lo, hi = 0, coeff_bound
        unit = None
    else:  # ag
        lo, hi = -coeff_bound, coeff_bound
        unit = eapp("1", ())
    if unit is not None and unit in targets and members:
        # m+m (xor) or m+inv(m) (ag): one coefficient per member cannot say it
        yield unit
    width = hi - lo + 1
    if width ** n > _ORACLE_COMBO_CAP:
        raise OracleBoundExceeded(f"{width}^{n} coefficient vectors is too many")
    for coeffs in itertools.product(range(lo, hi + 1), repeat=n):
        if not any(coeffs):
            continue
        acc: dict[Term, int] = {}
        for vec, c in zip(vectors, coeffs):
            if c:
                for atom, k in vec.items():
                    acc[atom] = acc.get(atom, 0) + c * k
        t = vector_term(acc, th)
        if t is not None and t in targets:
            yield t


# --- exhaustive constraint search ---------------------------------------------


def full_reductions_at(s: ConstraintSystem, i: int):
    """Every edge of the full calculus that reduces constraint i: each rule
    tried at each member, in a fixed rule order, with none of the cuts of
    constraints._reductions_at."""
    members = sorted(s.constraints[i].sigma, key=lambda t: t.key)
    parent = (system_measure(s), _originating(s))
    for n in members:
        hit = _apply(s, "C1", i, n, *parent)
        if hit is not None:
            yield ("C1", i, n) + hit
    for rule in ("C2", "C3"):
        hit = _apply(s, rule, i, None, *parent)
        if hit is not None:
            yield (rule, i, None) + hit
    for n in members:
        for rule in ("C4", "C5"):
            hit = _apply(s, rule, i, n, *parent)
            if hit is not None:
                yield (rule, i, n) + hit


def exhaustive_successors(s: ConstraintSystem):
    """The full calculus's reduction edges of every constraint, solved or
    not, in index order."""
    for i in range(len(s.constraints)):
        yield from full_reductions_at(s, i)


def step(s: ConstraintSystem) -> list[tuple[str, Substitution, ConstraintSystem]]:
    """(rule, substitution, reduct) for every one-step reduct of a system.

    Reduction acts on arbitrary constraint lists; well-formedness is only
    promised, and asserted, for the reducts of a well-formed system.
    """
    parent_ok = not well_formed(s)
    out = []
    for rule, _index, _member, nxt, theta in exhaustive_successors(s):
        if parent_ok:
            assert not well_formed(nxt), f"{rule} produced an ill-formed system"
        out.append((rule, theta, nxt))
    return out


def exhaustive_solve(s: ConstraintSystem, max_nodes: int = 200_000) -> list[Solution]:
    """Every distinct solved form that exhaustive_successors reaches from s."""
    problems = well_formed(s)
    if problems:
        raise ValueError("; ".join(problems))
    orig_vars = s.variables()
    seen: set = set()
    found: list[Solution] = []
    stack = [(s, Substitution())]
    while stack:
        current, theta = stack.pop()
        theta = theta.restrict(orig_vars)
        key = (current.constraints, theta)
        if key in seen:
            continue
        seen.add(key)
        if len(seen) > max_nodes:
            raise RuntimeError(f"gave up after exploring {max_nodes} systems")
        if _first_unsolved(current) == len(current.constraints):
            found.append(Solution(current, theta))
            continue
        for _rule, _i, _n, nxt, delta in exhaustive_successors(current):
            stack.append((nxt, theta.compose(delta)))
    return found


# --- elimination from scratch ---------------------------------------------------


def decide_xor(theory: Theory, gamma: list[Term], goal: Term,
               table: Abstraction) -> ElemWitness | None:
    target = table.vector(goal, theory)
    if not target:  # the goal is the zero constant
        if gamma:
            g = gamma[0]
            return ElemWitness(theory.name, "xor", (g, g))
        return None
    atoms = sorted(set(target) | {a for g in gamma for a in table.vector(g, theory)},
                   key=lambda t: t.key)
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    masks = []
    for g in gamma:
        m = 0
        for a in table.vector(g, theory):
            m |= bit[a]
        masks.append(m)
    want = 0
    for a in target:
        want |= bit[a]
    combo = solve_gf2(masks, want)
    if combo is None:
        return None
    return ElemWitness(theory.name, "xor", tuple(gamma[i] for i in combo))


def solve_gf2(masks: list[int], target: int) -> list[int] | None:
    """Indices of a subset of masks whose xor equals target, by elimination."""
    basis: list[tuple[int, int]] = []  # (vector, index-set bitmap)
    for i, m in enumerate(masks):
        combo = 1 << i
        v = m
        for bv, bc in basis:
            pivot = bv & -bv
            if v & pivot:
                v ^= bv
                combo ^= bc
        if v:
            basis.append((v, combo))
    v, combo = target, 0
    for bv, bc in basis:
        pivot = bv & -bv
        if v & pivot:
            v ^= bv
            combo ^= bc
    if v:
        return None
    return [i for i in range(len(masks)) if combo >> i & 1]


def decide_ag(theory: Theory, gamma: list[Term], goal: Term,
              table: Abstraction) -> ElemWitness | None:
    target = table.vector(goal, theory)
    if not target:  # the goal is the group unit
        if gamma:
            g = gamma[0]
            return ElemWitness(theory.name, "ag", ((g, 1), (g, -1)))
        return None
    vecs = [table.vector(g, theory) for g in gamma]
    atoms = sorted(set(target) | {a for v in vecs for a in v}, key=lambda t: t.key)
    rows = [[v.get(a, 0) for v in vecs] for a in atoms]
    b = [target.get(a, 0) for a in atoms]
    coeffs = solve_int(rows, b)
    if coeffs is None:
        return None
    entries = tuple((g, c) for g, c in zip(gamma, coeffs) if c)
    return ElemWitness(theory.name, "ag", entries)


def solve_int(rows: list[list[int]], b: list[int]) -> list[int] | None:
    """An integer solution x of A x = b, by column elimination (Hermite style).

    Column operations are accumulated in a unimodular transform so a solution
    of the triangular system pulls back to the original variables.  Exact
    integer arithmetic throughout.  Raises RuntimeError if the solution does
    not satisfy the original system, which would be a bug here.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    a = [row[:] for row in rows]
    u = [[int(i == j) for j in range(n)] for i in range(n)]  # column transform

    def col_sub(j: int, k: int, q: int) -> None:
        for i in range(m):
            a[i][j] -= q * a[i][k]
        for i in range(n):
            u[i][j] -= q * u[i][k]

    def col_swap(j: int, k: int) -> None:
        for i in range(m):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        for i in range(n):
            u[i][j], u[i][k] = u[i][k], u[i][j]

    lead = 0
    pivots: list[tuple[int, int]] = []
    for r in range(m):
        while True:
            cols = [j for j in range(lead, n) if a[r][j]]
            if not cols:
                break
            j0 = min(cols, key=lambda j: abs(a[r][j]))
            if j0 != lead:
                col_swap(lead, j0)
            done = True
            for j in range(lead + 1, n):
                if a[r][j]:
                    col_sub(j, lead, a[r][j] // a[r][lead])
                    if a[r][j]:
                        done = False
            if done:
                break
        if lead < n and a[r][lead]:
            pivots.append((r, lead))
            lead += 1
    y = [0] * n
    used = set()
    for r, j in pivots:
        resid = b[r] - sum(a[r][k] * y[k] for k in used)
        if resid % a[r][j]:
            return None
        y[j] = resid // a[r][j]
        used.add(j)
    # rows without a pivot must be consistent
    pivot_rows = {r for r, _ in pivots}
    for r in range(m):
        if r not in pivot_rows and sum(a[r][k] * y[k] for k in range(n)) != b[r]:
            return None
    x = [sum(u[i][j] * y[j] for j in range(n)) for i in range(n)]
    for r in range(m):  # exactness check is cheap at this scale
        if sum(rows[r][i] * x[i] for i in range(n)) != b[r]:
            raise RuntimeError("integer elimination returned an inexact solution")
    return x


def reference_solve_nat(vecs: list[Mapping[Term, int]], i: int,
                        remaining: dict[Term, int]) -> list[int] | None:
    """Counts for vecs[i:] that sum to ``remaining``, largest first."""
    if not remaining:
        return [0] * (len(vecs) - i)
    if i == len(vecs):
        return None
    v = vecs[i]
    bound = min((remaining.get(a, 0) // c for a, c in v.items()), default=0)
    for c in range(bound, -1, -1):
        rest = dict(remaining)
        ok = True
        for a, n in v.items():
            rest[a] = rest.get(a, 0) - c * n
            if rest[a] < 0:
                ok = False
                break
            if not rest[a]:
                del rest[a]
        if not ok:
            continue
        tail = reference_solve_nat(vecs, i + 1, rest)
        if tail is not None:
            return [c] + tail
    return None


# --- reference proof translations ----------------------------------------------


def height(d: Derivation) -> int:
    """The number of nodes on the longest premise path from d, on a stack."""
    heights: dict[int, int] = {}
    stack = [(d, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            heights[id(node)] = 1 + max((heights[id(p)] for p in node.premises), default=0)
        elif id(node) not in heights:
            stack.append((node, True))
            stack.extend((p, False) for p in node.premises)
    return heights[id(d)]


def weaken(d: Derivation, extra: Iterable[Term]) -> Derivation:
    """The same derivation over Gamma extended with extra terms (same height)."""
    extra = frozenset(extra)
    if not extra:
        return d
    return _weaken(d, extra, {})


def _weaken(d: Derivation, extra: frozenset[Term], memo: dict[int, Derivation]) -> Derivation:
    # memo maps each node weakened so far (by identity) to its result, so a
    # proof that shares subtrees costs its nodes, not its paths
    out = memo.get(id(d))
    if out is None:
        aux = dict(d.aux)
        emb = aux.get("right")
        if isinstance(emb, Derivation):
            aux["right"] = _weaken(emb, extra, memo)
        out = memo[id(d)] = Derivation(
            d.system, d.rule, Sequent(d.conclusion.gamma | extra, d.conclusion.goal),
            tuple([_weaken(p, extra, memo) for p in d.premises]), aux)
    return out


def _shared(d: Derivation) -> dict[int, None]:
    """A memo with an empty slot for each node below d that is the premise
    of more than one node, or twice of one."""
    seen: set[int] = set()
    memo: dict[int, None] = {}
    stack = [d]
    while stack:
        for p in stack.pop().premises:
            if id(p) in seen:
                memo[id(p)] = None
            else:
                seen.add(id(p))
                stack.append(p)
    return memo


def reference_nd_to_seq(d: Derivation, theories) -> Derivation:
    """proofs.nd_to_seq by recursion: each N node is translated over the
    root's Gamma, normalized again at every node, and a premise used over a
    larger Gamma is copied there by weaken."""
    theories = as_theories(theories)
    err = proofs.find_error(d, theories)
    if err is not None:
        raise ValueError(f"input proof is invalid: {err}")
    return _n2s(d, theories, _shared(d))


def _norm_sequent(s: Sequent, theories) -> Sequent:
    return Sequent(frozenset(normalize(t, theories) for t in s.gamma),
                   normalize(s.goal, theories))


def _n2s(d: Derivation, theories, memo: dict) -> Derivation:
    out = memo.get(id(d))
    if out is None:
        out = _n2s_node(d, theories, memo)
        if id(d) in memo:
            memo[id(d)] = out
    return out


def _n2s_node(d: Derivation, theories, memo: dict) -> Derivation:
    conc = _norm_sequent(d.conclusion, theories)
    g, m = conc.gamma, conc.goal
    rule = d.rule
    id_node, cut = proofs._id_node, proofs._cut
    if rule == "id":
        return id_node(g, m, theories)
    if rule == "approx":
        return _n2s(d.premises[0], theories, memo)
    if rule in ("p_I", "e_I", "sign_I", "blind_I"):
        left = _n2s(d.premises[0], theories, memo)
        right = _n2s(d.premises[1], theories, memo)
        return Derivation("S", proofs._RIGHT_FOR[m.sym], conc, (left, right))
    if rule == "f_I":
        return _n2s_fi(d, conc, theories, memo)
    big = _n2s(d.premises[0], theories, memo)
    principal = big.conclusion.goal
    g1 = g | {principal}
    if rule == "p_E":
        a, b = principal.args
        inner = Derivation("S", "p_L", Sequent(g1, m),
                           (id_node(g1 | {a, b}, m, theories),),
                           {"principal": principal})
        return cut(big, inner)
    side = _n2s(d.premises[1], theories, memo)
    if rule == "e_E":
        a, k = principal.args
        inner = Derivation("S", "e_L", Sequent(g1, m),
                           (weaken(side, {principal}), id_node(g1 | {a, k}, m, theories)),
                           {"principal": principal})
        return cut(big, inner)
    if rule == "sign_E":
        g2 = g1 | {side.conclusion.goal}
        inner = Derivation("S", "sign_L", Sequent(g2, m),
                           (id_node(g2 | {m}, m, theories),),
                           {"principal": principal})
        return cut(big, cut(weaken(side, {principal}), inner))
    if rule == "blind_E1":
        a, r = principal.args
        inner = Derivation("S", "blind_L1", Sequent(g1, m),
                           (weaken(side, {principal}), id_node(g1 | {a, r}, m, theories)),
                           {"principal": principal})
        return cut(big, inner)
    if rule == "blind_E2":
        r = side.conclusion.goal
        inner = Derivation("S", "blind_L2", Sequent(g1, m),
                           (weaken(side, {principal}), id_node(g1 | {m, r}, m, theories)),
                           {"principal": principal})
        return cut(big, inner)
    raise ValueError(f"unknown N rule {rule!r}")


def _n2s_fi(d: Derivation, conc: Sequent, theories, memo: dict) -> Derivation:
    g, m = conc.gamma, conc.goal
    subs = [_n2s(p, theories, memo) for p in d.premises]
    goals = [s.conclusion.goal for s in subs]
    th = proofs._owner_theory(d.conclusion.goal, theories)
    witness = proofs._fold_witness(th, d.conclusion.goal.sym, goals)
    added: list[Term] = []
    for i, s in enumerate(subs):
        subs[i] = weaken(s, added)
        if goals[i] not in g and goals[i] not in added:
            added.append(goals[i])
    node = Derivation("S", "id", Sequent(g | set(goals), m), (), {"witness": witness})
    for s in reversed(subs):
        node = proofs._cut(s, node)
    return node


def reference_seq_to_nd(d: Derivation, theories) -> Derivation:
    """proofs.seq_to_nd by recursion: each S node is translated over its own
    Gamma, and every cut and left rule rebuilds its continuation's N proof
    over the smaller Gamma below it, grafting the derivations of the terms
    it adds onto the id leaves that cite them (_regraft)."""
    theories = as_theories(theories)
    err = proofs.find_error(d, theories)
    if err is not None:
        raise ValueError(f"input proof is invalid: {err}")
    return _s2n(d, theories, _shared(d))


def _regraft(d: Derivation, g: frozenset[Term], grafts: dict[Term, Derivation],
             memo: dict[int, Derivation]) -> Derivation:
    """Rebuild an N derivation over a smaller Gamma, replacing broken id
    leaves; memo as in _weaken."""
    out = memo.get(id(d))
    if out is not None:
        return out
    goal = d.conclusion.goal
    if d.rule != "id":
        out = Derivation("N", d.rule, Sequent(g, goal),
                         tuple([_regraft(p, g, grafts, memo) for p in d.premises]), dict(d.aux))
    elif goal in g:
        out = proofs._nd_id(g, goal)
    else:
        out = grafts.get(goal)
        if out is None:
            raise ValueError(f"no graft for id leaf {goal}")
    memo[id(d)] = out
    return out


def _s2n(d: Derivation, theories, memo: dict) -> Derivation:
    out = memo.get(id(d))
    if out is None:
        out = _s2n_node(d, theories, memo)
        if id(d) in memo:
            memo[id(d)] = out
    return out


def _s2n_node(d: Derivation, theories, memo: dict) -> Derivation:
    g, m = d.conclusion.gamma, d.conclusion.goal
    rule = d.rule
    nd_id = proofs._nd_id
    if rule == "id":
        return proofs._witness_tree(d.aux["witness"], g, m, theories,
                                    lambda e: nd_id(g, e))
    if rule in proofs.S_RIGHT_RULES:
        return Derivation("N", proofs._INTRO_FOR[proofs._RIGHT_SYM[rule]], Sequent(g, m),
                          tuple([_s2n(p, theories, memo) for p in d.premises]))
    if rule in ("cut", "acut"):
        a = d.premises[0].conclusion.goal
        left = _s2n(d.premises[0], theories, memo)
        right = _s2n(d.premises[1], theories, memo)
        return _regraft(right, g, {a: left}, {})
    principal = d.aux["principal"]
    if rule == "p_L":
        a, b = principal.args
        body = _s2n(d.premises[0], theories, memo)
        graft_a = Derivation("N", "p_E", Sequent(g, a), (nd_id(g, principal),))
        graft_b = Derivation("N", "p_E", Sequent(g, b), (nd_id(g, principal),))
        return _regraft(body, g, {a: graft_a, b: graft_b}, {})
    if rule == "sign_L":
        a, k = principal.args
        body = _s2n(d.premises[0], theories, memo)
        payload = Derivation("N", "sign_E", Sequent(g, a),
                             (nd_id(g, principal), nd_id(g, capp("pub", (k,)))))
        return _regraft(body, g, {a: payload}, {})
    side = _s2n(d.premises[0], theories, memo)
    body = _s2n(d.premises[1], theories, memo)
    if rule == "e_L":
        a, k = principal.args
        payload = Derivation("N", "e_E", Sequent(g, a), (nd_id(g, principal), side))
        return _regraft(body, g, {a: payload, k: side}, {})
    if rule == "blind_L1":
        a, r = principal.args
        payload = Derivation("N", "blind_E1", Sequent(g, a), (nd_id(g, principal), side))
        return _regraft(body, g, {a: payload, r: side}, {})
    if rule == "blind_L2":
        blinded, k = principal.args
        a, r = blinded.args
        unblinded = sign(a, k)
        payload = Derivation("N", "blind_E2", Sequent(g, unblinded),
                             (nd_id(g, principal), side))
        return _regraft(body, g, {unblinded: payload, r: side}, {})
    raise ValueError(f"unknown S rule {rule!r}")


# --- reference term parser -------------------------------------------------------


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
            raise terms._Failure(f"unexpected trailing input {self.tokens[self.i]!r}", self.i)
        return t

    def expect(self, value: str) -> None:
        text = self.tokens[self.i]
        if text != value:
            raise terms._Failure(f"expected {value!r}, found {text or 'end of input'!r}",
                                 self.i)
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
            raise terms._Failure("term nested too deep to parse", at)

    def atom(self) -> Term:
        at = self.i
        text = self.tokens[at]
        self.i = at + 1
        if "a" <= text[:1] <= "z":
            if self.tokens[self.i] != "(":
                return terms._mk(NAME, text, ())
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
                    raise terms._Failure(f"{text} expects {arity} arguments, got {len(args)}",
                                         at)
                return terms._mk(CAPP, text, tuple(args))
            if text == "inv":
                if len(args) != 1:
                    raise terms._Failure(f"inv expects 1 argument, got {len(args)}", at)
                return eapp("inv", args)
            raise terms._Failure(f"unknown function {text!r}", at)
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
        raise terms._Failure(f"unexpected {text or 'end of input'!r}", at)


def reference_parse_term(text: str) -> Term:
    """terms.parse_term by recursive descent: the same term or the same error."""
    parser = _Parser(terms._TOKEN.findall(text) + [""])
    try:
        return parser.parse()
    except terms._Failure as e:
        message, index = e.message, e.index
    except RecursionError:
        message, index = ("term nested too deep to parse",
                          min(parser.i, len(parser.tokens) - 1))
    raise terms._parse_error(text, message, index)


def reference_parse_term_list(text: str) -> list[Term]:
    """terms.parse_term_list part by part: the same terms or the same error."""
    return [reference_parse_term(part) for part in terms._split_top(text) if part.strip()]


# --- reference proof serialization -------------------------------------------------


def reference_to_json(d: Derivation) -> dict:
    """proofs.to_json by building the tables as dicts."""
    w = _Writer()
    root = w.walk(d)
    return {"system": d.system, "version": proofs.FORMAT_VERSION, "terms": w.terms,
            "contexts": w.contexts, "nodes": w.nodes, "root": root}


def reference_dumps(d: Derivation) -> str:
    """proofs.dumps by json.dumps, one call per table entry."""
    fields = []
    for key, v in reference_to_json(d).items():
        if isinstance(v, list) and v:
            v = "[\n    " + ",\n    ".join(map(json.dumps, v)) + "\n  ]"
        else:
            v = json.dumps(v)
        fields.append(f'  "{key}": {v}')
    return "{\n" + ",\n".join(fields) + "\n}"


def reference_from_json(obj) -> Derivation:
    """proofs.from_json by one checking call per field."""
    return _Reader().proof(obj)


def _children(d: Derivation) -> list[Derivation]:
    return [*d.premises, *(v for v in d.aux.values() if isinstance(v, Derivation))]


class _Writer:
    """Writes the tables of one proof.  Nodes are keyed by identity, so a
    subtree shared in memory is written once; a context is written as the
    context of the node it was first reached from plus the terms it adds."""

    def __init__(self):
        self.terms: list[str] = []
        self.contexts: list[dict] = []
        self.nodes: list[dict] = []
        self.term_index: dict[Term, int] = {}
        self.context_index: dict[frozenset[Term], int] = {}

    def term(self, t: Term) -> int:
        i = self.term_index.get(t)
        if i is None:
            i = self.term_index[t] = len(self.terms)
            self.terms.append(format_term(t))
        return i

    def context(self, g: frozenset[Term], above: frozenset[Term] | None) -> None:
        if g in self.context_index:
            return
        if above is not None and above <= g:
            parent, added = self.context_index[above], g - above
        else:
            parent, added = None, g
        self.context_index[g] = len(self.contexts)
        self.contexts.append({"parent": parent,
                              "add": [self.term(t) for t in sorted(added, key=term_key)]})

    def walk(self, root: Derivation) -> int:
        """Write every node below root, premises first; root's index."""
        index: dict[int, int] = {}
        active: set[int] = set()
        # (node, Gamma of the node it was reached from, premises written)
        stack: list[tuple] = [(root, None, False)]
        while stack:
            node, above, expanded = stack.pop()
            key = id(node)
            if expanded:
                active.discard(key)
                index[key] = len(self.nodes)
                self.nodes.append(self.node(node, index))
                continue
            if key in index:
                continue
            if key in active:
                raise ValueError("a derivation that is its own premise cannot be written")
            active.add(key)
            g = node.conclusion.gamma
            self.context(g, above)
            stack.append((node, None, True))
            stack.extend((c, g, False) for c in reversed(_children(node)))
        return index[id(root)]

    def node(self, d: Derivation, index: dict[int, int]) -> dict:
        aux: dict = {}
        for k, v in d.aux.items():
            if isinstance(v, Term):
                aux[k] = self.term(v)
            elif isinstance(v, ElemWitness):
                aux[k] = self.witness(v)
            elif isinstance(v, Derivation):
                aux[k] = index[id(v)]
            else:
                aux[k] = v
        return {
            "system": d.system,
            "rule": d.rule,
            "context": self.context_index[d.conclusion.gamma],
            "goal": self.term(d.conclusion.goal),
            "aux": aux,
            "premises": [index[id(p)] for p in d.premises],
        }

    def witness(self, w: ElemWitness) -> dict:
        if w.kind in ("empty", "xor"):
            entries = [self.term(e) for e in w.entries]
        else:
            entries = [[self.term(e), c] for e, c in w.entries]
        return {"theory": w.theory, "kind": w.kind, "entries": entries}


_field, _index, _malformed, _required = (proofs._field, proofs._index, proofs._malformed,
                                         proofs._required)


class _Reader:
    """Reads one proof object, checking the JSON type of every field it
    interprets and that every index is a non-negative integer naming an
    earlier entry of its table (any entry of the term table).  Each distinct
    term string is parsed once, and each context built once, so nodes with
    the same context share one frozenset."""

    def __init__(self):
        self.parsed: dict[str, Term] = {}
        self.terms: list[Term] = []
        self.nodes: list[Derivation] = []

    def proof(self, obj) -> Derivation:
        if not isinstance(obj, dict):
            raise _malformed(f"a proof must be an object, found {type(obj).__name__}")
        version = obj.get("version")
        if type(version) is not int or version != proofs.FORMAT_VERSION:
            found = "no version" if "version" not in obj else f"version {version!r}"
            raise _malformed(f"expected version {proofs.FORMAT_VERSION}, found {found}")
        system = _field(obj, "system", str)
        self.terms = [self.term(i, s) for i, s in enumerate(_field(obj, "terms", list))]
        contexts: list[frozenset[Term]] = []
        for c in _field(obj, "contexts", list):
            if not isinstance(c, dict):
                raise _malformed(f"a context must be an object, found {type(c).__name__}")
            parent = _required(c, "parent")
            base = (frozenset() if parent is None
                    else contexts[_index(parent, len(contexts), "a context parent")])
            added = [self.term_at(j) for j in _field(c, "add", list)]
            contexts.append(base.union(added) if added else base)
        for obj_node in _field(obj, "nodes", list):
            self.nodes.append(self.node(obj_node, contexts))
        root = self.nodes[_index(_required(obj, "root"), len(self.nodes), "root")]
        if root.system != system:
            raise _malformed(f"the proof says system {system!r}, its root is {root.system!r}")
        return root

    def term(self, i: int, s) -> Term:
        if not isinstance(s, str):
            raise _malformed(f"term {i} must be a string, found {type(s).__name__}")
        t = self.parsed.get(s)
        if t is None:
            try:
                t = self.parsed[s] = terms.parse_term(s)
            except ValueError as e:
                raise _malformed(f"term {i} does not parse: {e}") from None
        return t

    def term_at(self, i) -> Term:
        return self.terms[_index(i, len(self.terms), "a term index")]

    def node(self, obj, contexts: list[frozenset[Term]]) -> Derivation:
        if not isinstance(obj, dict):
            raise _malformed(f"a node must be an object, found {type(obj).__name__}")
        earlier = len(self.nodes)
        system = _field(obj, "system", str)
        rule = _field(obj, "rule", str)
        gamma = contexts[_index(_required(obj, "context"), len(contexts), "a node context")]
        goal = self.term_at(_required(obj, "goal"))
        premises = tuple([self.nodes[_index(p, earlier, "a premise")]
                          for p in _field(obj, "premises", list)])
        aux: dict = {}
        for k, v in _field(obj, "aux", dict).items():
            if k in ("principal", "abstracted"):  # "abstracted": an older acut's key
                aux["principal"] = self.term_at(v)
            elif k == "witness":
                aux[k] = self.witness(v)
            elif k == "right":
                aux[k] = self.nodes[_index(v, earlier, "aux.right")]
            else:
                aux[k] = v
        return Derivation(system, rule, Sequent(gamma, goal), premises, aux)

    def witness(self, obj) -> ElemWitness:
        if not isinstance(obj, dict):
            raise _malformed(f"a witness must be an object, found {type(obj).__name__}")
        kind = _field(obj, "kind", str)
        theory = _field(obj, "theory", str)
        raw = _field(obj, "entries", list)
        if kind in ("empty", "xor"):
            return ElemWitness(theory, kind, tuple([self.term_at(e) for e in raw]))
        entries = []
        for e in raw:
            if not (isinstance(e, list) and len(e) == 2 and type(e[1]) is int):
                raise _malformed(f"a {kind} witness entry must be [term, count], found {e!r}")
            entries.append((self.term_at(e[0]), e[1]))
        return ElemWitness(theory, kind, tuple(entries))
