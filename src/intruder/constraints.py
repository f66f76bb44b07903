"""Deducibility constraints for the pair/enc intruder and their reduction.

A system is a sequence of constraints Sigma |- M (proper) or Sigma |-R M
(right, synthesis only) over terms built from names, variables, pairing and
symmetric encryption, together with a public name the intruder holds in
every Sigma. Reduction rules C1 to C5 rewrite a system while instantiating
variables, terminating because a measure drops at every step; systems whose
constraints are all right constraints with variable goals are solved, and
any assignment of deducible values to those variables (the public name is
always one) yields a solution.

The measure of a system is its variable count, then the multiset of its
constraints' measures: (0, size of the goal) for a right constraint and
(1, total size of the knowledge) for a proper one. Each Constraint computes
its measure and the variables of its knowledge once, when it is built, and
a substitution that binds none of a constraint's variables hands the same
constraint back, so a child system shares its untouched constraints, and
their cached fields, with its parent. system_measure writes the multiset as
its elements sorted in decreasing order, and measure_less is tuple order:
see measure_less for why that is the multiset order.

solve searches only the edges it needs: it reduces the first unsolved
constraint, splits known pairs at once and in one order, and skips C1 on a
variable member whose value the rest of the knowledge already rebuilds
(_reductions_at gives the argument). Every solution is still an instance of
a solved form it returns.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from . import engine
from .rewriting import make_theories
from .terms import (CAPP, NAME, VAR, Term, format_term, parse_term, parse_term_list,
                    substitute, subterms, term_key, variables)

PROPER = "proper"
RIGHT = "right"

_SPLITTABLE = ("pair", "enc")
_EMPTY = make_theories(("empty",))


@dataclass(frozen=True)
class Constraint:
    """Sigma |- goal (kind PROPER) or Sigma |-R goal (kind RIGHT).

    sigma_vars, the variables of sigma, measure, the constraint's part of
    the termination measure, solved, whether it is a right constraint with a
    variable goal, and the hash are filled at construction and take no part
    in equality or repr.  The hash is that of (kind, sigma, goal).
    """
    kind: str
    sigma: frozenset[Term]
    goal: Term
    sigma_vars: frozenset[Term] = field(init=False, compare=False, hash=False, repr=False)
    measure: tuple[int, int] = field(init=False, compare=False, hash=False, repr=False)
    solved: bool = field(init=False, compare=False, hash=False, repr=False)
    _hash: int = field(init=False, compare=False, hash=False, repr=False)

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        set_(self, "sigma_vars", frozenset().union(*[t.vars for t in self.sigma]))
        set_(self, "measure", (0, self.goal.size) if self.kind == RIGHT
             else (1, sum(t.size for t in self.sigma)))
        set_(self, "solved", self.kind == RIGHT and self.goal.kind == VAR)
        set_(self, "_hash", hash((self.kind, self.sigma, self.goal)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        left = ", ".join(format_term(t) for t in sorted(self.sigma, key=term_key))
        sep = "|-" if self.kind == PROPER else "|-R"
        return f"{left} {sep} {format_term(self.goal)}"


@dataclass(frozen=True)
class ConstraintSystem:
    """A sequence of constraints and the public name that grounds them.

    A public_name left as None is filled at construction with the least
    name, in term order, that every knowledge set holds; it stays None when
    no name is shared. An explicit public_name is kept as given.
    """
    constraints: tuple[Constraint, ...]
    public_name: Term | None = None

    def __post_init__(self) -> None:
        if self.public_name is None:
            shared = shared_names(self)
            if shared:
                object.__setattr__(self, "public_name", min(shared, key=term_key))

    def __repr__(self) -> str:
        head = [f"public {format_term(self.public_name)}"] if self.public_name else []
        return "\n".join(head + [repr(c) for c in self.constraints])

    def variables(self) -> frozenset[Term]:
        out: set[Term] = set()
        for c in self.constraints:
            out |= c.goal.vars
            out |= c.sigma_vars
        return frozenset(out)

    def replace(self, constraints: tuple[Constraint, ...]) -> ConstraintSystem:
        return ConstraintSystem(constraints, self.public_name)


def proper(sigma: Iterable[Term], goal: Term) -> Constraint:
    return Constraint(PROPER, frozenset(sigma), goal)


def right(sigma: Iterable[Term], goal: Term) -> Constraint:
    return Constraint(RIGHT, frozenset(sigma), goal)


def system(*constraints: Constraint, public_name: Term | None = None) -> ConstraintSystem:
    return ConstraintSystem(tuple(constraints), public_name)


@dataclass(frozen=True)
class Substitution:
    pairs: tuple[tuple[Term, Term], ...] = ()

    @staticmethod
    def of(mapping: dict[Term, Term]) -> Substitution:
        items = tuple(sorted(((v, t) for v, t in mapping.items() if v is not t),
                             key=lambda vt: vt[0].key))
        return Substitution(items)

    def as_dict(self) -> dict[Term, Term]:
        return dict(self.pairs)

    def __call__(self, t: Term) -> Term:
        return substitute(t, self.as_dict())

    def apply_constraint(self, c: Constraint) -> Constraint:
        """c under the substitution; c itself when it binds none of c's variables."""
        if not any(v in c.sigma_vars or v in c.goal.vars for v, _ in self.pairs):
            return c
        m = self.as_dict()
        return Constraint(c.kind, frozenset(substitute(t, m) for t in c.sigma),
                          substitute(c.goal, m))

    def compose(self, later: Substitution) -> Substitution:
        """The substitution acting as self first, then later."""
        m = later.as_dict()
        out = {v: substitute(t, m) for v, t in self.pairs}
        for v, t in later.pairs:
            out.setdefault(v, t)
        return Substitution.of(out)

    def restrict(self, keep: Iterable[Term]) -> Substitution:
        keep = set(keep)
        return Substitution(tuple((v, t) for v, t in self.pairs if v in keep))

    def __repr__(self) -> str:
        if not self.pairs:
            return "{}"
        inner = ", ".join(f"{format_term(v)} := {format_term(t)}" for v, t in self.pairs)
        return "{" + inner + "}"


def mgu(s: Term, t: Term) -> Substitution | None:
    """Most general syntactic unifier, or None. AC symbols are not unified
    modulo their axioms; constraint terms never contain them."""
    binding: dict[Term, Term] = {}
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        a = substitute(a, binding)
        b = substitute(b, binding)
        if a is b:
            continue
        if a.kind == VAR or b.kind == VAR:
            if b.kind == VAR and a.kind != VAR:
                a, b = b, a
            if a in b.vars:
                return None
            one = {a: b}
            binding = {v: substitute(u, one) for v, u in binding.items()}
            binding[a] = b
            continue
        if a.kind != b.kind or a.sym != b.sym or len(a.args) != len(b.args):
            return None
        stack.extend(zip(a.args, b.args))
    return Substitution.of(binding)


# --- well-formedness -------------------------------------------------------------


def _constructor_only(t: Term) -> bool:
    return all(u.kind in (NAME, VAR) or (u.kind == CAPP and u.sym in _SPLITTABLE)
               for u in subterms(t))


def shared_names(s: ConstraintSystem) -> frozenset[Term]:
    """Names the intruder holds in every knowledge set of the system."""
    common: set[Term] | None = None
    for c in s.constraints:
        held = {t for t in c.sigma if t.kind == NAME}
        common = held if common is None else common & held
    return frozenset(common or ())


def well_formed(s: ConstraintSystem) -> list[str]:
    """Violation messages; empty means the system is admissible for solve().

    Condition 1 (knowledge monotonicity) passes outright when the left sides
    form an inclusion chain; where inclusion fails, an earlier left side must
    be re-derivable from the later one, restricted to terms whose variables
    the earlier side knows, helped by the goals already posted before it.
    Reduction steps that rewrite left sides keep that weaker reading true
    even though they break the chain. Condition 2 is variable origination:
    a variable enters a left side only after a goal introduced it.
    """
    problems = []
    for i, c in enumerate(s.constraints):
        for t in list(c.sigma) + [c.goal]:
            if not _constructor_only(t):
                problems.append(f"constraint {i}: {format_term(t)} uses symbols "
                                "outside pair, enc, names, and variables")
    if s.constraints and s.public_name is None:
        problems.append("no public name is shared by every knowledge set")
    else:
        for i, c in enumerate(s.constraints):
            if s.public_name not in c.sigma:
                problems.append(f"public name {format_term(s.public_name)} missing "
                                f"from knowledge set {i}")
                break
    if not _originating(s):
        problems.append("condition 2 (variable origination): a variable occurs in "
                        "a knowledge set before any goal introduces it")
    for i, j in _monotone_failures(s):
        problems.append(f"condition 1 (knowledge monotonicity): knowledge set {i} "
                        f"is not recoverable at constraint {j}")
    return problems


def _originating(s: ConstraintSystem) -> bool:
    seen: set[Term] = set()
    for c in s.constraints:
        if not c.sigma_vars <= seen:
            return False
        seen |= c.goal.vars
    return True


def _monotone_failures(s: ConstraintSystem) -> list[tuple[int, int]]:
    cs = s.constraints
    out = []
    for j in range(1, len(cs)):
        for i in range(j):
            if cs[i].sigma <= cs[j].sigma:
                continue
            if not _recoverable(cs, i, j):
                out.append((i, j))
    return out


def _recoverable(cs: tuple[Constraint, ...], i: int, j: int) -> bool:
    """Whether knowledge set i is deducible from knowledge set j, read with
    variables as opaque atoms.

    Terms of set j mentioning variables unknown to set i are discarded, and
    the goals of constraints before i may be used as extra knowledge: any
    solution makes those goals deducible, so a syntactic derivation here
    witnesses the semantic containment for every solution.
    """
    vi = cs[i].sigma_vars
    usable = {t for t in cs[j].sigma if t.vars <= vi}
    usable |= {cs[k].goal for k in range(i)}
    if not usable:
        return not cs[i].sigma
    return all(t in usable or engine.deduce(usable, t, _EMPTY) is not None
               for t in cs[i].sigma)


# --- the termination measure -------------------------------------------------------


def system_measure(s: ConstraintSystem) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(variable count, the constraints' measures sorted in decreasing order).

    The second part stands for the multiset of constraint measures; sorting
    fixes one sequence per multiset, so equal multisets give equal tuples.
    """
    measures = [c.measure for c in s.constraints]
    measures.sort(reverse=True)
    return (len(s.variables()), tuple(measures))


def measure_less(a, b) -> bool:
    """Whether system measure a lies below b: fewer variables, or as many and
    a smaller multiset in the Dershowitz-Manna order.

    Constraint measures are pairs of ints, so they are totally ordered. Under
    a total order the multiset order is lexicographic order on the multisets'
    elements sorted in decreasing order, a proper prefix being smaller: where
    the sorted sequences first differ, the larger element occurs more often
    in its own multiset than in the other and lies above every element the
    other holds beyond their common part. So the measures compare as tuples.
    """
    return a < b


# --- reduction rules ----------------------------------------------------------------

RULES = ("C1", "C2", "C3", "C4", "C5")


def _apply(s: ConstraintSystem, rule: str, index: int, member: Term | None,
           measure, originating: bool) -> tuple[ConstraintSystem, Substitution] | None:
    """Apply one reduction rule at the given constraint, or None if it does not fire.

    measure and originating are system_measure(s) and _originating(s): the
    result must have a smaller measure, and keep variable origination.

    C1 closes a right constraint by unifying its non-variable goal with the
    cited knowledge term. C2 splits a constructor goal into right constraints
    for its components. C3 relaxes a proper constraint to a right one. C4
    replaces a known pair by its components. C5 trades a known ciphertext for
    its payload and key, at the price of a right constraint on the key.
    """
    c = s.constraints[index]
    before = s.constraints[:index]
    after = s.constraints[index + 1:]
    identity = Substitution()

    result = None
    if rule == "C1":
        if c.kind != RIGHT or member is None or member not in c.sigma:
            return None
        if c.goal.kind == VAR:
            return None
        theta = mgu(c.goal, member)
        if theta is None:
            return None
        result = (s.replace(tuple(theta.apply_constraint(d)
                                  for d in before + after)), theta)
    elif rule == "C2":
        g = c.goal
        if c.kind != RIGHT or g.kind != CAPP or g.sym not in _SPLITTABLE:
            return None
        split = (Constraint(RIGHT, c.sigma, g.args[0]),
                 Constraint(RIGHT, c.sigma, g.args[1]))
        result = (s.replace(before + split + after), identity)
    elif rule == "C3":
        if c.kind != PROPER:
            return None
        result = (s.replace(before + (Constraint(RIGHT, c.sigma, c.goal),) + after),
                  identity)
    elif rule == "C4":
        if c.kind != PROPER or member is None or member not in c.sigma:
            return None
        if member.kind != CAPP or member.sym != "pair":
            return None
        sigma = (c.sigma - {member}) | set(member.args)
        result = (s.replace(before + (Constraint(PROPER, sigma, c.goal),) + after),
                  identity)
    elif rule == "C5":
        if c.kind != PROPER or member is None or member not in c.sigma:
            return None
        if member.kind != CAPP or member.sym != "enc":
            return None
        payload, key = member.args
        key_c = Constraint(RIGHT, c.sigma, key)
        body = Constraint(PROPER, (c.sigma - {member}) | {payload, key}, c.goal)
        result = (s.replace(before + (key_c, body) + after), identity)
    else:
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")

    if result is None:
        return None
    new_system, theta = result
    assert measure_less(system_measure(new_system), measure), \
        f"{rule} did not decrease the measure"
    if originating:
        assert _originating(new_system), f"{rule} broke variable origination"
    return result


def _first_unsolved(s: ConstraintSystem) -> int:
    """The index of the first constraint that is not solved, or the number
    of constraints when all are."""
    for i, c in enumerate(s.constraints):
        if not c.solved:
            return i
    return len(s.constraints)


def successors(s: ConstraintSystem, first: int | None = None):
    """The (rule, index, member, system, substitution) edges out of a system.

    Only the first constraint that is not solved is reduced. Which constraint
    to reduce is a don't-care choice (Millen and Shmatikov, CCS 2001): every
    solution stays an instance of a solved form reachable this way, so only
    the choice of rule needs search, and _reductions_at prunes that choice
    too. Every edge is still one of C1 to C5 as _apply defines them. first
    is _first_unsolved(s), when the caller has it already.
    """
    i = _first_unsolved(s) if first is None else first
    if i < len(s.constraints):
        yield from _reductions_at(s, i)


def _reductions_at(s: ConstraintSystem, i: int):
    """The edges needed to reduce constraint i, the first unsolved one.

    A proper constraint with a known pair has one edge: C4 on its least pair.
    Pair-left is invertible: Sigma, pair(u, v) |- M holds under a
    substitution iff Sigma, u, v |- M does, so splitting first loses no
    solution and the order of the splits need not be searched. Any other
    proper constraint relaxes by C3 or decrypts one ciphertext by C5.

    A right constraint with a non-variable goal M closes by C1 on a member or
    splits by C2. C1 is skipped on a variable member ?x that the context
    rebuilds: every knowledge term of the constraint introducing ?x (the
    first one with goal ?x, which is solved since it comes before i) is
    composed by pair and enc from the members other than ?x. A solution
    theta on that branch is then covered by another. Call the unskipped
    members N. For a skipped ?x, theta satisfies the introducer, a right
    constraint, so ?x theta is synthesizable from the introducer's
    knowledge, and so from the instances of the leaves that compose it. Those leaves are subterms of the introducer's knowledge, so
    a variable among them was introduced by an earlier constraint, and by
    induction on that index every leaf instance, and ?x theta itself, is
    synthesizable from N theta. Hence so is M theta: either it is some
    u theta with u in N, covered by C1 on u, or it is composed, and the
    non-variable M has the same head, covered by C2.
    """
    c = s.constraints[i]
    members = sorted(c.sigma, key=term_key)
    if c.kind == PROPER:
        pairs = [n for n in members if n.kind == CAPP and n.sym == "pair"]
        if pairs:
            steps = [("C4", pairs[0])]
        else:
            steps = [("C3", None)] + [("C5", n) for n in members
                                      if n.kind == CAPP and n.sym == "enc"]
    else:
        g = c.goal
        steps = [("C1", n) for n in members
                 if (n.kind == g.kind and n.sym == g.sym)
                 or (n.kind == VAR and not _rebuilt(s, i, n))]
        if g.kind == CAPP and g.sym in _SPLITTABLE:
            steps.append(("C2", None))
    parent = (system_measure(s), _originating(s))
    for rule, n in steps:
        hit = _apply(s, rule, i, n, *parent)
        if hit is not None:
            yield (rule, i, n) + hit


def _rebuilt(s: ConstraintSystem, i: int, x: Term) -> bool:
    """Whether constraint i's other members compose every knowledge term of
    the constraint that introduces variable x."""
    intro = next((c for c in s.constraints[:i] if c.goal is x), None)
    if intro is None:
        return False
    rest = s.constraints[i].sigma - {x}
    for t in intro.sigma:
        stack = [t]
        while stack:
            u = stack.pop()
            if u in rest:
                continue
            if u.kind != CAPP or u.sym not in _SPLITTABLE:
                return False
            stack.extend(u.args)
    return True


# --- search ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    system: ConstraintSystem
    subst: Substitution

    def __repr__(self) -> str:
        return f"Solution(subst={self.subst!r})"


def solve(s: ConstraintSystem, all_solutions: bool = False,
          max_nodes: int = 200_000, on_edge=None) -> list[Solution]:
    """Solved forms reachable from a well-formed system by successors().

    Returns the first solution found unless all_solutions is set, in which
    case distinct (solved system, substitution) pairs are collected; every
    solution of s is then an instance of one of them. Visited states are
    deduplicated, since different rule sequences can reach the same system.
    The search is depth first on an explicit stack, so a long reduction path
    does not hit the interpreter's recursion limit. A system that is not
    well formed raises ValueError naming the violated conditions; more than
    max_nodes states raises RuntimeError. on_edge, if given, is called with
    (parent, rule, substitution, child) for every reduction edge explored.
    """
    problems = well_formed(s)
    if problems:
        raise ValueError("not well formed: " + "; ".join(problems))
    orig_vars = s.variables()

    seen: set = set()
    found: list[Solution] = []
    # the depth-first path: (system, substitution, edges not yet explored)
    path: list = []

    def visit(current: ConstraintSystem, theta: Substitution) -> bool:
        """Enter a system; True once the search may stop."""
        k = (current.constraints, theta.restrict(orig_vars))
        before = len(seen)
        seen.add(k)  # hashes k once; a key already seen leaves the set as it was
        if len(seen) == before:
            return False
        if len(seen) > max_nodes:
            raise RuntimeError(f"gave up after exploring {max_nodes} systems")
        first = _first_unsolved(current)
        if first == len(current.constraints):
            found.append(Solution(current, k[1]))
            return not all_solutions
        path.append((current, theta, successors(current, first)))
        return False

    if visit(s, Substitution()):
        return found
    while path:
        current, theta, edges = path[-1]
        edge = next(edges, None)
        if edge is None:
            path.pop()
            continue
        rule, _i, _n, nxt, delta = edge
        if on_edge is not None:
            on_edge(current, rule, delta, nxt)
        if visit(nxt, theta.compose(delta)):
            break
    return found


def extract_solution(sigma: Substitution, original: ConstraintSystem) -> Substitution:
    """Ground the recorded bindings: every variable of the original system is
    sent through sigma, and whatever variables remain go to the public name."""
    pub = original.public_name
    vs = original.variables()
    if vs and pub is None:
        raise ValueError("system has no public name to instantiate with")
    out: dict[Term, Term] = {}
    for v in sorted(vs, key=term_key):
        t = sigma(v)
        fill = {u: pub for u in variables(t)}
        out[v] = substitute(t, fill)
    return Substitution.of(out)


def verify_solution(s: ConstraintSystem, assignment: Substitution) -> bool:
    """Check a ground assignment against the original system with the engine."""
    for c in s.constraints:
        sigma = [assignment(t) for t in c.sigma]
        goal = assignment(c.goal)
        for t in sigma + [goal]:
            if variables(t):
                return False
        if c.kind == PROPER:
            if engine.deduce(sigma, goal, _EMPTY) is None:
                return False
        else:
            if engine.right_deduce(frozenset(sigma), goal, _EMPTY) is None:
                return False
    return True


# --- file format -----------------------------------------------------------------------


def parse_constraint_line(line: str) -> Constraint:
    if "|-R" in line:
        left, _, goal = line.partition("|-R")
        kind = RIGHT
    elif "|-" in line:
        left, _, goal = line.partition("|-")
        kind = PROPER
    else:
        raise ValueError(f"expected '|-' or '|-R' in constraint line: {line!r}")
    left = left.strip()
    sigma = parse_term_list(left)
    return Constraint(kind, frozenset(sigma), parse_term(goal))


def parse_constraint_file(text: str) -> ConstraintSystem:
    """One constraint per line, written 'a, pair(b, ?x) |- goal'; right
    constraints use |-R. An optional leading line 'public a' names the
    public constant (defaulting to a name every left side holds): a line
    without |- whose first word is 'public'. Blank lines and # comments are
    skipped."""
    out: list[Constraint] = []
    pub: Term | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "|-" not in line and line.split(None, 1)[0] == "public":
                if out or pub is not None:
                    raise ValueError("'public' must be the first line")
                t = parse_term(line[len("public"):])
                if t.kind != NAME:
                    raise ValueError(f"public constant must be a name, got {line!r}")
                pub = t
            else:
                out.append(parse_constraint_line(line))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    return system(*out, public_name=pub)
