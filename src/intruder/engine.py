"""The deduction engine.

right_deduce builds sequent proofs that use only id and right-introduction
rules. deduce saturates the context of the linear system: it grows the
context with left-rule conclusions drawn from the saturated subterm set until
the goal becomes right-deducible or nothing new can be added, and returns the
resulting one-branch derivation, each side condition proved by the right
proof it embeds. It works from a queue of left-rule candidates, each made
once, when its term enters the context; a candidate whose side condition
fails is parked until the context grows in a way that can change the answer.
What a left rule needs and adds is read from proofs.left_parts, the one
definition of the rules that the checker and the translations also read.
The slow references the engine is tested against (the full-rescan sweep the
worklist replaced, and a closure over the natural-deduction rules) are in
tests/oracles.py.
"""
from __future__ import annotations

import itertools
from heapq import heappop, heappush
from operator import attrgetter
from random import Random
from typing import Iterable

from .elementary import elem_deduce
from .proofs import _RIGHT_FOR, LEFT_RULES, Derivation, Sequent, left_parts
from .rewriting import Abstraction, as_theories, normalize
from .terms import CAPP, CONSTRUCTOR_ARITY, Term, e_factors, subterms, term_key


def right_deduce(gamma: Iterable[Term], goal: Term, theories) -> Derivation | None:
    """An S proof of gamma |- goal from id and right rules alone, or None.

    Each id leaf's witness cites the one theory whose context builds its
    goal.  Inputs are assumed normalized; deduce() and the CLI normalize
    first.
    """
    return _right(frozenset(gamma), goal, Abstraction(theories), {})


def _right(gamma, goal, table, memo):
    """right_deduce over the problem's table, which holds its theories."""
    key = (gamma, goal)
    if key in memo:
        return memo[key]
    found = None
    for th in table.theories:
        w = elem_deduce(th, gamma, goal, table)
        if w is not None:
            found = Derivation("S", "id", Sequent(gamma, goal), (), {"witness": w})
            break
    if found is None and goal.kind == CAPP and goal.sym in _RIGHT_FOR:
        left = _right(gamma, goal.args[0], table, memo)
        if left is not None:
            right = _right(gamma, goal.args[1], table, memo)
            if right is not None:
                found = Derivation("S", _RIGHT_FOR[goal.sym], Sequent(gamma, goal),
                                   (left, right))
    memo[key] = found
    return found


# --- left-rule applicability ---------------------------------------------------


# the L rule that takes apart each constructor head, from its row of LEFT_RULES
_TAKES_APART = {kind: (l_rule,) for kind, _, _, l_rule in LEFT_RULES
                if kind in CONSTRUCTOR_ARITY}


def _rules_for(t: Term):
    """The L rules that take t apart; unblinding needs a signed blind term."""
    if t.kind != CAPP:
        return ()
    if t.sym == "sign" and t.args[0].kind == CAPP and t.args[0].sym == "blind":
        return ("sign", "blind2")
    return _TAKES_APART.get(t.sym, ())


def _apply_left(rule: str, principal: Term, gamma: frozenset[Term], table, memo,
                parts=None):
    """(added terms, side proof or None) when the rule fires, else None.

    For the principal-based rules the principal must already be in gamma; for
    ls the principal is the alien factor being abstracted into the context.
    parts is left_parts(rule, principal, build=False), when the caller has
    it already; the added terms are built only once the rule fires.
    """
    if (principal in gamma) == (rule == "ls"):
        return None
    side, added, held = parts or left_parts(rule, principal, build=False)
    if held is not None and held not in gamma:
        return None
    proof = None
    if side is not None:
        proof = _right(gamma, side, table, memo)
        if proof is None:
            return None
    if added is None:
        added = left_parts(rule, principal)[1]
    return added, proof


# --- saturation by worklist -------------------------------------------------------


class _Candidate:
    """A left rule at a principal (for ls, an alien factor), with where the
    search has it: its place in the current pass, a lower place an ls moves
    to for the next pass, and, once tried, what the rule needs (left_parts
    with build False).  Places are distinct."""

    __slots__ = ("rule", "principal", "place", "next_place", "needs")

    def __init__(self, rule: str, principal: Term, place) -> None:
        self.rule = rule
        self.principal = principal
        self.place = place
        self.next_place = None
        self.needs = None


_place = attrgetter("place")


def _linear_proof(steps, delta: frozenset[Term], goal: Term,
                  right_proof: Derivation) -> Derivation:
    """The one-branch L derivation: the recorded left steps above an r leaf."""
    node = Derivation("L", "r", Sequent(delta, goal), (), {"right": right_proof})
    for rule, principal, side, before in reversed(steps):
        aux: dict = {"principal": principal}
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

    The goal is decided again after a step only when the step can change
    the answer: in the free theory when one of its subterms missing from Δ
    arrives, under an equational theory after every step.

    Without rng the queue runs in passes: each pass tries its candidates
    in term order, and a woken candidate is tried later in the same pass if
    its place has not gone by, else in the next one; candidates of new terms
    wait for the next pass.  This is the order of a full rescan of Δ after
    each pass, without the rescan.  A pass sorts its candidates once and
    reads them with a cursor; those woken ahead of the cursor wait in a heap
    that is merged with it by place.  With rng each new batch of candidates
    is shuffled instead, which changes the proof but never the verdict.
    """
    theories = as_theories(theories)
    delta = frozenset(normalize(t, theories) for t in gamma)
    goal = normalize(goal, theories)
    table = Abstraction(theories)
    memo: dict = {}
    steps: list[tuple[str, Term, Derivation | None, frozenset[Term]]] = []

    rp = _right(delta, goal, table, memo)
    if rp is not None:
        return _linear_proof(steps, delta, goal, rp)

    equational = [(i, th) for i, th in enumerate(theories) if th.symbols]
    free = not equational
    factors: dict[tuple[Term, str], _Candidate] = {}  # ls candidates by factor, theory
    moving: list[_Candidate] = []  # ls candidates with a next_place
    tick = itertools.count()
    done: set[_Candidate] = set()
    parked: set[_Candidate] = set()
    waiting: dict[Term, list[_Candidate]] = {}  # free theory: missing subterm -> parked
    goal_waits = set(subterms(goal) - delta)  # free theory: what the goal lacks

    def batch(terms, hosts) -> list[_Candidate]:
        """New candidates: the left rules of terms, the ls of hosts' factors."""
        out = []
        for t in terms:
            for i, rule in enumerate(_rules_for(t)):
                out.append(_Candidate(rule, t, (0, t.key, i)))
        for i, th in equational:
            for t in sorted(hosts, key=term_key):  # a factor's first host
                for a in e_factors(t, th):
                    if a in delta:
                        continue
                    at = (1, i, t.key, a.key)
                    cand = factors.get((a, th.name))
                    if cand is None:
                        cand = factors[a, th.name] = _Candidate("ls", a, at)
                        out.append(cand)
                    elif rng is None and at < (cand.place if cand.next_place is None
                                               else cand.next_place):
                        if cand.next_place is None:
                            moving.append(cand)
                        cand.next_place = at
        if rng is not None:
            rng.shuffle(out)
            for cand in out:
                cand.place = next(tick)
        return out

    def park(cand: _Candidate) -> None:
        parked.add(cand)
        if free:
            side, _, held = cand.needs
            need = held if side is None else side
            for u in subterms(need) if need.args else (need,):
                if u not in delta:
                    waiting.setdefault(u, []).append(cand)

    def wake(new: frozenset[Term]) -> list[_Candidate]:
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
        # a pass: its candidates sorted once and read by a cursor, merged by
        # place with a heap of those woken ahead of the cursor
        order = sorted(following, key=_place)
        following = []
        ahead: list[tuple] = []
        pos = 0
        while True:
            if ahead and (pos == len(order) or ahead[0][0] < order[pos].place):
                at, cand = heappop(ahead)
            elif pos < len(order):
                cand = order[pos]
                at = cand.place
                pos += 1
            else:
                break
            if cand in done:
                continue
            rule, principal = cand.rule, cand.principal
            needs = cand.needs
            if needs is None:
                needs = cand.needs = left_parts(rule, principal, build=False)
            hit = _apply_left(rule, principal, delta, table, memo, needs)
            if hit is None:
                park(cand)
                continue
            done.add(cand)
            added, side = hit
            new = frozenset(added) - delta
            if not new:
                continue
            steps.append((rule, principal, side, delta))
            delta = delta | new
            if not free or not goal_waits.isdisjoint(new):
                goal_waits.difference_update(new)
                rp = _right(delta, goal, table, memo)
                if rp is not None:
                    return _linear_proof(steps, delta, goal, rp)
            for _, th in equational:  # an ls of a term in Δ has nothing to add
                for u in new:
                    ls = factors.get((u, th.name))
                    if ls is not None:
                        done.add(ls)
                        parked.discard(ls)
            following.extend(batch(new, new))
            for cand in wake(new):
                if cand.place > at:
                    heappush(ahead, (cand.place, cand))
                else:
                    following.append(cand)
        for cand in moving:
            cand.place, cand.next_place = cand.next_place, None
        moving.clear()
    return None


def deducible(gamma: Iterable[Term], goal: Term, theories) -> bool:
    return deduce(gamma, goal, theories) is not None
