"""Elementary deduction: can one theory's contexts build the goal from Gamma?

A witness cites the context, one theory at a time: a matching member for the
empty theory, hole multiplicities for plain AC, the cited members of a sum
for exclusive-or, and signed integer coefficients for abelian groups.
Contexts must contain at least one hole, so the group unit is only deducible
from a non-empty Gamma, through the paired context x + inv(x) filled twice
with the least member (and x + x for exclusive-or).

All decisions run on variable-abstracted problems: each term is read once
per problem as an atom vector whose alien atoms are class variables
(Abstraction.vector), after which membership, a natural-number multiset
equation, or linear algebra over GF(2) or the integers settles the question.
Inputs are expected in normal form.

For xor and abelian groups the problem's table keeps a span per theory: an
echelon basis of the vectors of the Gamma members seen so far (GF(2)
bitmask rows; integer rows kept a basis of the same lattice by extended-gcd
steps).  Each row carries the combination of members it equals, updated by
the same steps as the row, so the reduction that decides a goal also yields
its witness, which cites its members in term order.  A call adds only the
members the span has not seen, and rebuilds it when Gamma is not a superset
of them; the engine's context only grows, so there it never does.  A
witness can therefore depend on the order in which Gamma grew, not only on
Gamma and the goal.

replay checks a witness in the same arithmetic: it sums each cited member's
atom vector times its coefficient, in time linear in the witness's support,
never in the size of its coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .rewriting import (Abstraction, Theory, _eval, _evaluation, _reduced, as_theories,
                        theory_vector, vector_term)
from .terms import Term, term_key


@dataclass(frozen=True)
class ElemWitness:
    """A checkable context certificate for one elementary judgement."""

    theory: str
    kind: str  # backend tag: empty | ac | xor | ag
    entries: tuple


def elem_deduce(theory: Theory, gamma: Iterable[Term], goal: Term,
                table: Abstraction | None = None,
                theories: Sequence[Theory] | None = None) -> ElemWitness | None:
    """Decide whether some context over the theory maps Gamma members to goal.

    Under xor and ag the goal is reduced against the table's span of Gamma,
    which answers and, for a "yes", gives the witness.
    """
    if theory.backend == "empty":
        if goal in gamma:
            return ElemWitness(theory.name, "empty", (goal,))
        return None
    theories = as_theories(theories) if theories is not None else (theory,)
    if table is None:
        table = Abstraction(theories)
    if theory.backend == "ac":
        # the search reads Gamma in term order, so one problem has one answer
        return _decide_ac(theory, sorted(set(gamma), key=term_key), goal, table)
    gamma = frozenset(gamma)
    target = table.vector(goal, theory)
    if target:
        entries = _span(table, theory, gamma).witness(target)
        if entries is None:
            return None
    elif gamma:  # the unit: the paired context, filled twice with one member
        g = min(gamma, key=term_key)
        entries = (g, g) if theory.backend == "xor" else ((g, 1), (g, -1))
    else:
        return None
    return ElemWitness(theory.name, theory.backend, entries)


def replay(witness: ElemWitness, gamma: Iterable[Term], theories,
           goal: Term | None = None) -> Term:
    """The normal form of the witnessed context filled from Gamma.

    The value is summed as atom vectors, so the cost is linear in the
    witness's support, not in its coefficients.  Given a goal, the sum is
    compared with the goal's vector and the goal is returned, so a large
    coefficient is never written out as a term.  Raises ValueError on a
    malformed witness, and, given a goal, when the value is another term.
    A set or frozenset Gamma is read as it is; only another iterable is
    copied into a set.
    """
    if not isinstance(gamma, (set, frozenset)):
        gamma = set(gamma)
    theories = as_theories(theories)
    evaluated = _evaluation(theories)  # read once, not per cited member
    by_name = {th.name: th for th in theories}
    th = by_name.get(witness.theory)
    if th is None:
        raise ValueError(f"witness cites unknown theory {witness.theory!r}")
    if witness.kind == "empty":
        (elem,) = witness.entries
        _cited(elem, gamma)
        value = _eval(elem, evaluated) if evaluated else elem
        if goal is not None and value is not goal:
            raise ValueError(f"the witness gives {value}, not the goal")
        return value
    if witness.kind != th.backend:
        raise ValueError(f"a {witness.kind} witness cannot fill a context "
                         f"of theory {th.name!r}")
    sums: dict[Term, int] = {}
    for elem, coeff in _holes(witness):
        _cited(elem, gamma)
        value = _eval(elem, evaluated) if evaluated else elem
        for atom, n in theory_vector(value, th).items():
            sums[atom] = sums.get(atom, 0) + coeff * n
    value = _reduced(sums, th)
    if goal is None:
        return vector_term(value, th)
    want = theory_vector(goal, th)
    if value != want or vector_term(want, th) is not goal:
        raise ValueError("the witness gives another term than the goal")
    return goal


def _holes(witness: ElemWitness) -> Iterator[tuple[Term, int]]:
    """(member, signed multiplicity) per entry; raises on an invalid one."""
    if not witness.entries:
        raise ValueError("contexts must contain at least one hole")
    if witness.kind == "xor":
        for elem in witness.entries:
            yield elem, 1
        return
    for elem, coeff in witness.entries:
        if witness.kind == "ac" and coeff < 1:
            raise ValueError("AC witness multiplicities must be positive")
        if coeff == 0:
            raise ValueError("AG witness coefficients must be non-zero")
        yield elem, coeff


def _cited(elem: Term, gamma: set[Term] | frozenset[Term]) -> None:
    if elem not in gamma:
        raise ValueError(f"witness cites {elem} outside Gamma")


# --- spans --------------------------------------------------------------------


def _span(table: Abstraction, theory: Theory, gamma: frozenset[Term]) -> "_Span":
    """The table's span for the theory, grown to hold exactly Gamma's vectors."""
    span = table.spans.get(theory)
    if span is None:
        span = table.spans[theory] = _SPANS[theory.backend]()
    if gamma is not span.members:
        new = gamma - span.members
        if len(new) + len(span.members) != len(gamma):  # Gamma is no superset
            span.clear()
            new = gamma
        # in term order, so neither class variables nor witnesses depend
        # on the iteration order of a set
        for g in sorted(new, key=term_key):
            span.add(g, table.vector(g, theory))
        span.members = gamma
    return span


class _Span:
    """An echelon basis of the vectors of the Gamma members added so far.

    A vector lies in their span (a lattice, for ag) exactly when it reduces
    to zero against the basis; each row carries the member combination it
    equals, so the reduction adds up the witness.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.members: frozenset[Term] = frozenset()


class _XorSpan(_Span):
    """GF(2) rows as bitmasks, one per lowest set bit, each paired with the
    bitmask of the members it sums (bit i for the i-th member added)."""

    def clear(self) -> None:
        super().clear()
        self.bit: dict[Term, int] = {}  # atom -> its bit, fixed when first seen
        self.added: list[Term] = []  # members, in the order they were added
        self.rows: dict[int, tuple[int, int]] = {}  # lowest set bit -> (row, members)

    def add(self, member: Term, vec: Mapping[Term, int]) -> None:
        m = 0
        for a in vec:
            b = self.bit.get(a)
            if b is None:
                b = self.bit[a] = 1 << len(self.bit)
            m |= b
        m, combo = self._reduce(m, 1 << len(self.added))
        self.added.append(member)
        if m:
            self.rows[m & -m] = (m, combo)

    def witness(self, vec: Mapping[Term, int]) -> tuple[Term, ...] | None:
        m = 0
        for a in vec:
            b = self.bit.get(a)
            if b is None:  # no member has the atom
                return None
            m |= b
        m, combo = self._reduce(m, 0)
        if m:
            return None
        return tuple(sorted((g for i, g in enumerate(self.added) if combo >> i & 1),
                            key=term_key))

    def _reduce(self, m: int, combo: int) -> tuple[int, int]:
        # a row's bits all lie at or above its key, so each step raises m's lowest bit
        rows = self.rows
        while m:
            row = rows.get(m & -m)
            if row is None:
                break
            m ^= row[0]
            combo ^= row[1]
        return m, combo


class _AgSpan(_Span):
    """Integer rows in echelon form, one per leading atom in term order,
    each paired with the member coefficients that sum to it.

    Rows are combined only by unimodular steps, so they stay a basis of the
    lattice the added vectors generate.
    """

    def clear(self) -> None:
        super().clear()
        # leading atom -> (row, {member: coefficient})
        self.rows: dict[Term, tuple[dict[Term, int], dict[Term, int]]] = {}

    def add(self, member: Term, vec: Mapping[Term, int]) -> None:
        v, w = dict(vec), {member: 1}
        while v:
            lead = min(v, key=term_key)
            got = self.rows.get(lead)
            if got is None:
                self.rows[lead] = (v, w)
                return
            row, rw = got
            a, b = v[lead], row[lead]
            if a % b:
                # s*b + t*a = g: row and v become a row led by g and a
                # vector without the lead, a unimodular change of basis
                g, s, t = _xgcd(b, a)
                self.rows[lead] = (_combine(s, row, t, v), _combine(s, rw, t, w))
                p, q = a // g, -(b // g)
                v, w = _combine(p, row, q, v), _combine(p, rw, q, w)
            else:
                q = -(a // b)
                v, w = _combine(1, v, q, row), _combine(1, w, q, rw)

    def witness(self, vec: Mapping[Term, int]) -> tuple[tuple[Term, int], ...] | None:
        # each step zeroes v's leading atom; rows led by later atoms hold no earlier one
        v: dict[Term, int] = dict(vec)
        w: dict[Term, int] = {}
        while v:
            lead = min(v, key=term_key)
            got = self.rows.get(lead)
            if got is None or v[lead] % got[0][lead]:
                return None
            q = v[lead] // got[0][lead]
            v, w = _combine(1, v, -q, got[0]), _combine(1, w, q, got[1])
        return tuple((g, w[g]) for g in sorted(w, key=term_key))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) > 0, for a, b not both zero."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def _combine(p: int, u: Mapping[Term, int], q: int, v: Mapping[Term, int]) -> dict[Term, int]:
    """p*u + q*v, without zero entries (u and v have none)."""
    if p == 1:
        out = dict(u)
    else:  # p == 0 when an extended-gcd step keeps none of u
        out = {x: p * c for x, c in u.items()} if p else {}
    for x, c in v.items():
        n = out.get(x, 0) + q * c
        if n:
            out[x] = n
        else:
            out.pop(x, None)
    return out


_SPANS = {"xor": _XorSpan, "ag": _AgSpan}


# --- plain AC ----------------------------------------------------------------


def _decide_ac(theory: Theory, gamma: list[Term], goal: Term,
               table: Abstraction) -> ElemWitness | None:
    """Hole multiplicities: a natural-number solution of
    sum(c_i * vector(gamma_i)) = vector(goal), exact and with total >= 1.

    A member whose vector holds an atom the goal's vector lacks can only
    take count 0, so it is dropped before the search, which runs over the
    rest in Gamma's order and finds the solution a search over all of
    Gamma finds first.
    """
    target = table.vector(goal, theory)
    gamma = [g for g in gamma if table.vector(g, theory).keys() <= target.keys()]
    counts = _nat_from([table.vector(g, theory) for g in gamma], target)
    if counts is None or not any(counts):
        return None
    entries = tuple((g, c) for g, c in zip(gamma, counts) if c)
    return ElemWitness(theory.name, "ac", entries)


def _nat_from(vecs: list[Mapping[Term, int]], target: Mapping[Term, int]) -> list[int] | None:
    """Counts for vecs that sum to ``target``: the first solution of a
    depth-first search that tries each count largest first, on a stack of
    its own, so the number of members is not bounded by the recursion limit.
    The vectors are those _decide_ac kept, each within the goal's atoms, and
    a count never exceeds what the residual holds of each atom of its
    vector, so no residual goes negative."""
    counts: list[int] = []  # the count of each of vecs[:len(counts)]
    rests = [target]        # rests[i]: what vecs[i:] must sum to
    while rests[-1]:
        if len(counts) < len(vecs):
            v = vecs[len(counts)]
            c = min((rests[-1].get(a, 0) // n for a, n in v.items()), default=0)
        else:  # a dead end: lower the deepest count that is not 0
            while counts and not counts[-1]:
                counts.pop()
                rests.pop()
            if not counts:
                return None
            rests.pop()
            c = counts.pop() - 1
            v = vecs[len(counts)]
        counts.append(c)
        rest = rests[-1]
        if c:  # count 0 passes the residual on as it is
            rest = dict(rest)
            for a, n in v.items():
                rest[a] -= c * n
                if not rest[a]:
                    del rest[a]
        rests.append(rest)
    return counts + [0] * (len(vecs) - len(counts))
