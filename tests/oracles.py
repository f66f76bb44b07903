"""Slow reference implementations that the fast paths are checked against.

rescan_deduce is the saturation sweep that engine.deduce's worklist
replaced: every pass re-lists and retries every left-rule candidate of the
whole context, until a pass adds nothing.  It shares the rule semantics
(engine._apply_left, engine._right) with the engine, so a disagreement
points at the worklist's scheduling and parking, not at the rules.
"""
from __future__ import annotations

from random import Random
from typing import Iterable

from intruder.engine import _apply_left, _linear_proof, _right, _rules_for
from intruder.proofs import Derivation
from intruder.rewriting import Abstraction, as_theories, normalize
from intruder.terms import Term, e_factors


def rescan_deduce(gamma: Iterable[Term], goal: Term, theories,
                  rng: Random | None = None) -> Derivation | None:
    """engine.deduce by full rescans: same verdict, same proof without rng."""
    theories = as_theories(theories)
    delta = frozenset(normalize(t, theories) for t in gamma)
    goal = normalize(goal, theories)
    table = Abstraction(theories)
    memo: dict = {}
    steps: list = []

    rp = _right(delta, goal, theories, table, memo)
    if rp is not None:
        return _linear_proof(steps, delta, goal, rp)

    while True:
        grew = False
        candidates = []
        for t in sorted(delta, key=lambda u: u.key):
            for rule in _rules_for(t):
                candidates.append((rule, t, None))
        factor_seen = set()
        for th in theories:
            if not th.symbols:
                continue
            for t in sorted(delta | {goal}, key=lambda u: u.key):
                for a in sorted(e_factors(t, th), key=lambda u: u.key):
                    if a not in delta and (a, th.name) not in factor_seen:
                        factor_seen.add((a, th.name))
                        candidates.append(("ls", a, th.name))
        if rng is not None:
            rng.shuffle(candidates)
        for rule, principal, th_name in candidates:
            hit = _apply_left(rule, principal, delta, goal, theories, table, memo)
            if hit is None:
                continue
            added, side = hit
            new = frozenset(added) - delta
            if not new:
                continue
            steps.append((rule, principal, th_name, side, delta))
            delta = delta | new
            grew = True
            rp = _right(delta, goal, theories, table, memo)
            if rp is not None:
                return _linear_proof(steps, delta, goal, rp)
        if not grew:
            return None
