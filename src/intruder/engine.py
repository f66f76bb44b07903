"""The deduction engine.

right_deduce builds sequent proofs that use only id and right-introduction
rules. deduce saturates the context of the linear system: it grows the
context with left-rule conclusions drawn from the saturated subterm set until
the goal becomes right-deducible or nothing new can be added, and returns the
resulting one-branch derivation. It works from a queue of left-rule
candidates, each made once, when its term enters the context; a candidate
whose side condition fails is parked until the context grows in a way that
can change the answer. nd_closure_oracle is a slow, independent closure over
the natural-deduction rules used to cross-check the engine; the full-rescan
sweep the worklist replaced is the test oracle tests/oracles.py.
"""
from __future__ import annotations

import heapq
import itertools
from random import Random
from typing import Iterable

from .elementary import elem_deduce
from .proofs import Derivation, Sequent
from .rewriting import (Abstraction, Theory, as_theories, normalize, theory_vector,
                        vector_term)
from .terms import CAPP, Term, capp, e_factors, eapp, saturate, sign, subterms

_RIGHT_RULE = {"pair": "p_R", "enc": "e_R", "sign": "sign_R", "blind": "blind_R"}


class OracleBoundExceeded(RuntimeError):
    """The reference closure hit an enumeration or depth limit."""


def right_deduce(gamma: Iterable[Term], goal: Term, theories,
                 table: Abstraction | None = None,
                 memo: dict | None = None) -> Derivation | None:
    """An S proof of gamma |- goal from id and right rules alone, or None.

    Inputs are assumed normalized; deduce() and the CLI normalize first.
    """
    theories = as_theories(theories)
    gamma = frozenset(gamma)
    if table is None:
        table = Abstraction(theories)
    if memo is None:
        memo = {}
    return _right(gamma, goal, theories, table, memo)


def _right(gamma, goal, theories, table, memo):
    key = (gamma, goal)
    if key in memo:
        return memo[key]
    found = None
    for th in theories:
        w = elem_deduce(th, gamma, goal, table, theories)
        if w is not None:
            found = Derivation("S", "id", Sequent(gamma, goal), (),
                               {"witness": w, "theory": th.name})
            break
    if found is None and goal.kind == CAPP and goal.sym in _RIGHT_RULE:
        left = _right(gamma, goal.args[0], theories, table, memo)
        if left is not None:
            right = _right(gamma, goal.args[1], theories, table, memo)
            if right is not None:
                found = Derivation("S", _RIGHT_RULE[goal.sym], Sequent(gamma, goal),
                                   (left, right))
    memo[key] = found
    return found


# --- left-rule applicability ---------------------------------------------------


def _rules_for(t: Term):
    if t.kind != CAPP:
        return ()
    if t.sym == "pair":
        return ("lp",)
    if t.sym == "enc":
        return ("le",)
    if t.sym == "blind":
        return ("blind1",)
    if t.sym == "sign":
        if t.args[0].kind == CAPP and t.args[0].sym == "blind":
            return ("sign", "blind2")
        return ("sign",)
    return ()


def _apply_left(rule: str, principal: Term, gamma: frozenset[Term], goal: Term,
                theories, table, memo):
    """(added terms, side proof or None) when the rule fires, else None.

    For the principal-based rules the principal must already be in gamma; for
    ls the principal is the alien factor being abstracted into the context.
    """
    if rule == "ls":
        if principal in gamma:
            return None
        side = _right(gamma, principal, theories, table, memo)
        if side is None:
            return None
        return (principal,), side
    if principal not in gamma:
        return None
    if rule == "lp":
        return principal.args, None
    if rule == "le":
        payload, key = principal.args
        side = _right(gamma, key, theories, table, memo)
        if side is None:
            return None
        return (payload, key), side
    if rule == "sign":
        payload, key = principal.args
        if capp("pub", (key,)) not in gamma:
            return None
        return (payload,), None
    if rule == "blind1":
        payload, factor = principal.args
        side = _right(gamma, factor, theories, table, memo)
        if side is None:
            return None
        return (payload, factor), side
    if rule == "blind2":
        blinded, key = principal.args
        payload, factor = blinded.args
        side = _right(gamma, factor, theories, table, memo)
        if side is None:
            return None
        return (sign(payload, key), factor), side
    raise ValueError(f"unknown left rule {rule!r}")


def applicable(rule: str, principal: Term, gamma: Iterable[Term], goal: Term,
               theories) -> Sequent | None:
    """The premise sequent of a left rule instance, or None if it cannot fire."""
    theories = as_theories(theories)
    gamma = frozenset(gamma)
    if rule == "ls" and not _is_factor(principal, gamma | {goal}, theories):
        return None
    table = Abstraction(theories)
    hit = _apply_left(rule, principal, gamma, goal, theories, table, {})
    if hit is None:
        return None
    added, _ = hit
    return Sequent(gamma | set(added), goal)


def _is_factor(a: Term, over: frozenset[Term], theories) -> bool:
    return any(a in e_factors(t, th) for t in over for th in theories)


# --- saturation by worklist -------------------------------------------------------


def _side_goal(rule: str, principal: Term) -> Term:
    """The term whose deducibility from the context gates the rule.

    For sign it is pub(k), which must be a member of the context.
    """
    if rule == "ls":
        return principal
    if rule == "sign":
        return capp("pub", (principal.args[1],))
    if rule == "blind2":
        return principal.args[0].args[1]
    return principal.args[1]  # le, blind1


def _linear_proof(steps, delta: frozenset[Term], goal: Term,
                  right_proof: Derivation) -> Derivation:
    """The one-branch L derivation: the recorded left steps above an r leaf."""
    node = Derivation("L", "r", Sequent(delta, goal), (), {"right": right_proof})
    for rule, principal, th_name, side, before in reversed(steps):
        aux: dict = {"principal": principal}
        if th_name is not None:
            aux["theory"] = th_name
        if side is not None:
            aux["right"] = side
        node = Derivation("L", rule, Sequent(before, goal), (node,), aux)
    return node


def deduce(gamma: Iterable[Term], goal: Term, theories,
           rng: Random | None = None) -> Derivation | None:
    """A linear-system derivation of gamma |- goal, or None if underivable.

    The context Δ starts as gamma and only ever grows by members of the
    saturated subterm set, one left-rule step at a time, so the number of
    steps is bounded by its size.  A candidate is a left rule with its
    principal: the decomposition rules of each member of Δ, and an ls for
    each alien factor of Δ ∪ {goal} not yet in Δ.  A term's candidates are
    made once, when it enters Δ, and tried from a queue.  One that fires is
    done; one whose side condition fails is parked until Δ grows in a way
    that can change the answer.  When every theory is free, that answer
    depends only on which subterms of the side goal are in Δ, so a
    candidate is parked under the missing ones and woken only when one of
    them arrives.  Under an equational theory any growth wakes every parked
    candidate.  The search stops at the goal or when the queue is empty:
    then Δ is closed under every rule and the goal is not derivable.

    Without rng the queue runs in passes: each pass tries its candidates
    in term order, and a woken candidate is tried later in the same pass if
    its place has not gone by, else in the next one; candidates of new terms
    wait for the next pass.  This is the order of a full rescan of Δ after
    each pass, without the rescan.  With rng each new batch of candidates
    is shuffled instead, which changes the proof but never the verdict.
    """
    theories = as_theories(theories)
    delta = frozenset(normalize(t, theories) for t in gamma)
    goal = normalize(goal, theories)
    table = Abstraction(theories)
    memo: dict = {}
    steps: list[tuple[str, Term, str | None, Derivation | None, frozenset[Term]]] = []

    rp = _right(delta, goal, theories, table, memo)
    if rp is not None:
        return _linear_proof(steps, delta, goal, rp)

    equational = [(i, th) for i, th in enumerate(theories) if th.symbols]
    free = not equational
    place: dict[tuple, tuple] = {}   # candidate -> its place in the current pass
    earlier: dict[tuple, tuple] = {}  # ls candidate -> its place from the next pass
    tick = itertools.count()
    done: set[tuple] = set()
    parked: set[tuple] = set()
    waiting: dict[Term, list[tuple]] = {}  # free theory: missing subterm -> parked

    def batch(terms, hosts) -> list[tuple]:
        """New candidates: the left rules of terms, the ls of hosts' factors."""
        out = []
        for t in terms:
            for i, rule in enumerate(_rules_for(t)):
                cand = (rule, t, None)
                place[cand] = (0, t.key, i)
                out.append(cand)
        for i, th in equational:
            for t in sorted(hosts, key=lambda u: u.key):  # a factor's first host
                for a in e_factors(t, th):
                    if a in delta:
                        continue
                    cand = ("ls", a, th.name)
                    at = (1, i, t.key, a.key)
                    if cand not in place:
                        place[cand] = at
                        out.append(cand)
                    elif rng is None and at < earlier.get(cand, place[cand]):
                        earlier[cand] = at
        if rng is not None:
            rng.shuffle(out)
            for cand in out:
                place[cand] = (next(tick),)
        return out

    def park(cand: tuple) -> None:
        parked.add(cand)
        if free:
            for u in subterms(_side_goal(cand[0], cand[1])) - delta:
                waiting.setdefault(u, []).append(cand)

    def wake(new: frozenset[Term]) -> list[tuple]:
        if not free:
            out = list(parked)
            parked.clear()
            return out
        out = []
        for u in new:
            for cand in waiting.pop(u, ()):
                if cand in parked:
                    parked.remove(cand)
                    out.append(cand)
        return out

    following = batch(delta, delta | {goal})
    while following:
        queue = [(place[cand], cand) for cand in following]
        heapq.heapify(queue)
        following = []
        while queue:
            at, cand = heapq.heappop(queue)
            if cand in done:
                continue
            rule, principal, th_name = cand
            hit = _apply_left(rule, principal, delta, goal, theories, table, memo)
            if hit is None:
                park(cand)
                continue
            done.add(cand)
            added, side = hit
            new = frozenset(added) - delta
            if not new:
                continue
            steps.append((rule, principal, th_name, side, delta))
            delta = delta | new
            rp = _right(delta, goal, theories, table, memo)
            if rp is not None:
                return _linear_proof(steps, delta, goal, rp)
            for u in new:  # an ls of a term already in Δ has nothing to add
                for _, th in equational:
                    done.add(("ls", u, th.name))
                    parked.discard(("ls", u, th.name))
            following.extend(batch(new, new))
            for cand in wake(new):
                if place[cand] > at:
                    heapq.heappush(queue, (place[cand], cand))
                else:
                    following.append(cand)
        place.update(earlier)
        earlier.clear()
    return None


def deducible(gamma: Iterable[Term], goal: Term, theories) -> bool:
    return deduce(gamma, goal, theories) is not None


# --- independent reference closure ------------------------------------------------


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
