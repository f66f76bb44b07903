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

import heapq
import itertools
from random import Random
from typing import Iterable

from .elementary import elem_deduce
from .proofs import _RIGHT_FOR, Derivation, Sequent, left_parts
from .rewriting import Abstraction, as_theories, normalize
from .terms import CAPP, Term, e_factors, subterms


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
    if found is None and goal.kind == CAPP and goal.sym in _RIGHT_FOR:
        left = _right(gamma, goal.args[0], theories, table, memo)
        if left is not None:
            right = _right(gamma, goal.args[1], theories, table, memo)
            if right is not None:
                found = Derivation("S", _RIGHT_FOR[goal.sym], Sequent(gamma, goal),
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
                theories, table, memo, parts=None):
    """(added terms, side proof or None) when the rule fires, else None.

    For the principal-based rules the principal must already be in gamma; for
    ls the principal is the alien factor being abstracted into the context.
    parts is left_parts(rule, principal), when the caller has it already.
    """
    if (principal in gamma) == (rule == "ls"):
        return None
    side, added, held = parts or left_parts(rule, principal)
    if held is not None and held not in gamma:
        return None
    if side is None:
        return added, None
    proof = _right(gamma, side, theories, table, memo)
    if proof is None:
        return None
    return added, proof


# --- saturation by worklist -------------------------------------------------------


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
    parts: dict[tuple, tuple] = {}   # candidate -> left_parts of its rule
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
                parts[cand] = left_parts(rule, t)
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
                        parts[cand] = left_parts("ls", a)
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
            side, _, held = parts[cand]
            for u in subterms(held if side is None else side) - delta:
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
            hit = _apply_left(rule, principal, delta, goal, theories, table, memo,
                              parts[cand])
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
