"""Elementary deduction: can one theory's contexts build the goal from Gamma?

A witness cites the context, one theory at a time: a matching member for the
empty theory, hole multiplicities for plain AC, a fold of cited members for
exclusive-or, and signed integer coefficients for abelian groups.  Contexts
must contain at least one hole, so the group unit is only deducible from a
non-empty Gamma, through the paired context x + inv(x) filled twice with the
same member (and x + x for exclusive-or).

All decisions run on variable-abstracted problems: each term is read once
per problem as an atom vector whose alien atoms are class variables
(Abstraction.vector), after which membership, a natural-number multiset
equation, GF(2) elimination, or exact integer elimination settles the
question.  Inputs are expected in normal form.

For xor and abelian groups the problem's table also keeps a span per
theory: an echelon basis of the vectors of the Gamma members seen so far
(GF(2) bitmask rows; integer rows kept a basis of the same lattice by
extended-gcd steps).  A call adds only the members the span has not seen,
and rebuilds it when Gamma is not a superset of them; the engine's context
only grows, so there it never does.  A goal that does not reduce to zero
against the span is answered "no" at once.  Only a "yes" runs the
elimination over the sorted Gamma, which builds the witness exactly as it
would without the span; should it find none, that is a bug, and
RuntimeError says so.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .rewriting import Abstraction, Theory, as_theories, normalize
from .terms import Term, eapp


@dataclass(frozen=True)
class ElemWitness:
    """A checkable context certificate for one elementary judgement."""

    theory: str
    kind: str  # backend tag: empty | ac | xor | ag
    entries: tuple

    def holes(self) -> int:
        if self.kind == "empty":
            return 1
        if self.kind == "xor":
            return len(self.entries)
        return sum(abs(c) for _, c in self.entries)


def elem_deduce(theory: Theory, gamma: Iterable[Term], goal: Term,
                table: Abstraction | None = None,
                theories: Sequence[Theory] | None = None) -> ElemWitness | None:
    """Decide whether some context over the theory maps Gamma members to goal.

    Under xor and ag the goal is first reduced against the table's span of
    Gamma; elimination runs only when it is in the span, for the witness.
    """
    if theory.backend == "empty":
        if goal in gamma:
            return ElemWitness(theory.name, "empty", (goal,))
        return None
    theories = as_theories(theories) if theories is not None else (theory,)
    if table is None:
        table = Abstraction(theories)
    if theory.backend == "ac":
        return _decide_ac(theory, _in_order(gamma), goal, table)
    decide = _WITNESS.get(theory.backend)
    if decide is None:
        raise ValueError(f"theory {theory.name!r} has no elementary backend")
    gamma = frozenset(gamma)
    target = table.vector(goal, theory)
    if target and not _span(table, theory, gamma).holds(target):
        return None
    w = decide(theory, _in_order(gamma), goal, table)
    if w is None and target:
        raise RuntimeError(f"the {theory.name} span holds {goal} "
                           "but elimination finds no witness")
    return w


def _in_order(gamma: Iterable[Term]) -> list[Term]:
    # witnesses list Gamma in term order, so the same problem has one answer
    return sorted(set(gamma), key=_key)


def _key(t: Term) -> tuple:
    return t.key


def replay(witness: ElemWitness, gamma: Iterable[Term], theories) -> Term:
    """Instantiate the witnessed context and normalize; raises on malformed input."""
    gamma = set(gamma)
    theories = as_theories(theories)
    by_name = {th.name: th for th in theories}
    th = by_name.get(witness.theory)
    if th is None:
        raise ValueError(f"witness cites unknown theory {witness.theory!r}")
    if witness.kind == "empty":
        (elem,) = witness.entries
        _cited(elem, gamma)
        return normalize(elem, theories)
    op = th.ac_symbol
    if op is None:
        raise ValueError(f"theory {witness.theory!r} has no AC symbol to fold with")
    parts: list[Term] = []
    if witness.kind == "xor":
        for elem in witness.entries:
            _cited(elem, gamma)
            parts.append(elem)
    elif witness.kind == "ac":
        for elem, count in witness.entries:
            _cited(elem, gamma)
            if count < 1:
                raise ValueError("AC witness multiplicities must be positive")
            parts.extend([elem] * count)
    elif witness.kind == "ag":
        for elem, coeff in witness.entries:
            _cited(elem, gamma)
            if coeff == 0:
                raise ValueError("AG witness coefficients must be non-zero")
            piece = elem if coeff > 0 else eapp("inv", (elem,))
            parts.extend([piece] * abs(coeff))
    else:
        raise ValueError(f"unknown witness kind {witness.kind!r}")
    if not parts:
        raise ValueError("contexts must contain at least one hole")
    folded = parts[0] if len(parts) == 1 else eapp(op, parts)
    return normalize(folded, theories)


def _cited(elem: Term, gamma: set[Term]) -> None:
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
        # in term order, as elimination reads them, so class variables
        # are numbered as they would be without the span
        for g in sorted(new, key=_key):
            span.add(table.vector(g, theory))
        span.members = gamma
    return span


class _Span:
    """An echelon basis of the vectors of the Gamma members added so far.

    A vector lies in their span (a lattice, for ag) exactly when it reduces
    to zero against the basis, so a target is decided without elimination.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.members: frozenset[Term] = frozenset()


class _XorSpan(_Span):
    """GF(2) rows as bitmasks, one per lowest set bit."""

    def clear(self) -> None:
        super().clear()
        self.bit: dict[Term, int] = {}  # atom -> its bit, fixed when first seen
        self.rows: dict[int, int] = {}  # lowest set bit -> row

    def add(self, vec: Mapping[Term, int]) -> None:
        m = 0
        for a in vec:
            b = self.bit.get(a)
            if b is None:
                b = self.bit[a] = 1 << len(self.bit)
            m |= b
        m = self._reduce(m)
        if m:
            self.rows[m & -m] = m

    def holds(self, vec: Mapping[Term, int]) -> bool:
        m = 0
        for a in vec:
            b = self.bit.get(a)
            if b is None:  # no member has the atom
                return False
            m |= b
        return not self._reduce(m)

    def _reduce(self, m: int) -> int:
        # a row's bits all lie at or above its key, so each step raises m's lowest bit
        rows = self.rows
        while m:
            row = rows.get(m & -m)
            if row is None:
                return m
            m ^= row
        return 0


class _AgSpan(_Span):
    """Integer rows in echelon form, one per leading atom in term order.

    Rows are combined only by unimodular steps, so they stay a basis of the
    lattice the added vectors generate.
    """

    def clear(self) -> None:
        super().clear()
        self.rows: dict[Term, dict[Term, int]] = {}  # leading atom -> row

    def add(self, vec: Mapping[Term, int]) -> None:
        v = dict(vec)
        while v:
            lead = min(v, key=_key)
            row = self.rows.get(lead)
            if row is None:
                self.rows[lead] = v
                return
            a, b = v[lead], row[lead]
            if a % b:
                # s*b + t*a = g: row and v become a row led by g and a
                # vector without the lead, a unimodular change of basis
                g, s, t = _xgcd(b, a)
                self.rows[lead] = _combine(s, row, t, v)
                v = _combine(a // g, row, -(b // g), v)
            else:
                v = _combine(1, v, -(a // b), row)

    def holds(self, vec: Mapping[Term, int]) -> bool:
        # each step zeroes v's leading atom; rows led by later atoms hold no earlier one
        v = dict(vec)
        while v:
            lead = min(v, key=_key)
            row = self.rows.get(lead)
            if row is None or v[lead] % row[lead]:
                return False
            v = _combine(1, v, -(v[lead] // row[lead]), row)
        return True


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


# --- backends ----------------------------------------------------------------


def _decide_ac(theory: Theory, gamma: list[Term], goal: Term,
               table: Abstraction) -> ElemWitness | None:
    target = table.vector(goal, theory)
    vecs = [table.vector(g, theory) for g in gamma]
    counts = _solve_nat(vecs, target)
    if counts is None:
        return None
    entries = tuple((g, c) for g, c in zip(gamma, counts) if c)
    return ElemWitness(theory.name, "ac", entries)


def _solve_nat(vecs: list[Mapping[Term, int]], target: Mapping[Term, int]) -> list[int] | None:
    """Natural-number solution of sum(c_i * vec_i) = target, exact and total >= 1."""

    def rec(i: int, remaining: dict[Term, int]) -> list[int] | None:
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
            tail = rec(i + 1, rest)
            if tail is not None:
                return [c] + tail
        return None

    sol = rec(0, dict(target))
    if sol is None or not any(sol):
        return None
    return sol


def _decide_xor(theory: Theory, gamma: list[Term], goal: Term,
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
    combo = _solve_gf2(masks, want)
    if combo is None:
        return None
    return ElemWitness(theory.name, "xor", tuple(gamma[i] for i in combo))


def _solve_gf2(masks: list[int], target: int) -> list[int] | None:
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


def _decide_ag(theory: Theory, gamma: list[Term], goal: Term,
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
    coeffs = _solve_int(rows, b)
    if coeffs is None:
        return None
    entries = tuple((g, c) for g, c in zip(gamma, coeffs) if c)
    return ElemWitness(theory.name, "ag", entries)


def _solve_int(rows: list[list[int]], b: list[int]) -> list[int] | None:
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


_WITNESS = {"xor": _decide_xor, "ag": _decide_ag}
