"""Derivations for the three proof systems, their checker, and translations.

System tags: "N" for the natural-deduction system, "S" for the sequent
calculus with cut, "L" for the linear left-rule system the engine emits.
A derivation is checked without search: id leaves carry replayable context
witnesses, and every "L" rule with a side condition (r, le, blind1, blind2,
ls) carries in aux["right"] an S proof of it built from id and right rules
alone, which the checker verifies like any other S derivation.  An L proof
with its right proofs is thus a complete S derivation, and linear_to_seq
only rearranges it.

Each left rule is defined once, by left_parts: the side term it needs, the
terms it adds to Gamma and the term Gamma must hold.  The checker, the
translations and the engine all read the rules from there, and LEFT_RULES
names each rule in N, S and L.  The translations take checked input.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .elementary import ElemWitness, replay
from .rewriting import Theory, as_theories, normalize
from .terms import (CAPP, EAPP, Term, capp, eapp, e_factors, format_term, parse_term, sign,
                    term_key)


@dataclass(frozen=True)
class Sequent:
    gamma: frozenset[Term]
    goal: Term

    def __repr__(self) -> str:
        left = ", ".join(format_term(t) for t in sorted(self.gamma, key=term_key))
        return f"{left} |- {format_term(self.goal)}"


@dataclass
class Derivation:
    system: str  # "N" | "S" | "L"
    rule: str
    conclusion: Sequent
    premises: tuple[Derivation, ...] = ()
    aux: dict = field(default_factory=dict)


# Each left rule of S, and of L, is an elimination rule of N read upwards.
# A row names one rule in N, S and L by what it takes apart; acut and ls
# abstract an alien factor and have no N rule.
LEFT_RULES = (
    # kind        N           S           L
    ("pair",     "p_E",      "p_L",      "lp"),
    ("enc",      "e_E",      "e_L",      "le"),
    ("sign",     "sign_E",   "sign_L",   "sign"),
    ("blind",    "blind_E1", "blind_L1", "blind1"),
    ("unblind",  "blind_E2", "blind_L2", "blind2"),
    ("abstract", None,       "acut",     "ls"),
)
_LEFT_KIND = {name: row[0] for row in LEFT_RULES for name in row[1:] if name is not None}
_L_TO_S = {l_rule: s_rule for _, _, s_rule, l_rule in LEFT_RULES}
_N_TO_S = {n_rule: s_rule for _, n_rule, s_rule, _ in LEFT_RULES if n_rule is not None}
_S_TO_N = {s_rule: n_rule for n_rule, s_rule in _N_TO_S.items()}

N_RULES = {"id", "e_I", "p_I", "sign_I", "blind_I", "f_I", "approx"} | set(_N_TO_S)
S_RIGHT_RULES = {"p_R", "e_R", "sign_R", "blind_R"}
S_LEFT_RULES = set(_L_TO_S.values())
S_RULES = {"id", "cut"} | S_RIGHT_RULES | S_LEFT_RULES
# every left rule except p_L and sign_L branches: its first premise is a
# side-condition subproof rather than the continuation
S_BRANCHING_LEFT = {"e_L", "blind_L1", "blind_L2", "acut"}
L_RULES = {"r"} | set(_L_TO_S)

_RIGHT_FOR = {"pair": "p_R", "enc": "e_R", "sign": "sign_R", "blind": "blind_R"}
_INTRO_FOR = {"pair": "p_I", "enc": "e_I", "sign": "sign_I", "blind": "blind_I"}
_RIGHT_SYM = {rule: sym for sym, rule in _RIGHT_FOR.items()}
_INTRO_SYM = {rule: sym for sym, rule in _INTRO_FOR.items()}


def check(d: Derivation, theories) -> bool:
    """True iff the derivation is valid under the given theories."""
    return find_error(d, theories) is None


def find_error(d: Derivation, theories) -> str | None:
    """None for a valid derivation, else the path and reason of the first failure.

    The walk keeps its own stack and checks each distinct node (by identity)
    once; a node that is its own ancestor is an error.  Only the root's Gamma
    is checked for normal form in full.  Every rule checks that a premise's
    Gamma is its conclusion's Gamma plus the terms the rule adds, so checking
    just those added terms keeps every Gamma in normal form.
    """
    return _Checker(as_theories(theories), d).run()


class _CheckFailure(ValueError):
    pass


def _fail(reason: str) -> None:
    raise _CheckFailure(reason)


_ACTIVE, _DONE = 1, 2


class _Checker:
    def __init__(self, theories, root: Derivation):
        self.theories = theories
        self.root = root

    def run(self) -> str | None:
        # a frame is (node, inside a right proof, parent frame, premise index
        # or "right"); a pair (None, key) marks the end of key's subtree
        frame = (self.root, False, None, None)
        stack: list[tuple] = [frame]
        state: dict[tuple[int, bool], int] = {}
        try:
            while stack:
                item = stack.pop()
                if item[0] is None:
                    state[item[1]] = _DONE
                    continue
                frame = item
                node, right = item[0], item[1]
                key = (id(node), right)
                seen = state.get(key)
                if seen == _DONE:
                    continue
                if seen == _ACTIVE:
                    _fail("the derivation is its own premise (a cycle)")
                state[key] = _ACTIVE
                if right:
                    self.right_node(node)
                    children = [(p, True, i) for i, p in enumerate(node.premises)]
                else:
                    children = self.node(node)
                if not children:  # a leaf: its subtree ends here
                    state[key] = _DONE
                    continue
                stack.append((None, key))
                for child, r, label in reversed(children):
                    stack.append((child, r, frame, label))
        except _CheckFailure as e:
            return f"{_path(frame)}: {e}"
        return None

    def node(self, d: Derivation) -> list[tuple]:
        embedded = None
        if d.system == "N":
            _check_n(d, self.theories)
        elif d.system == "S":
            self.check_s(d)
        elif d.system == "L":
            embedded = self.check_l(d)
        else:
            _fail(f"unknown system {d.system!r}")
        children = []
        if embedded is not None:
            children.append((embedded, True, "right"))
        for i, p in enumerate(d.premises):
            if p.system != d.system:
                _fail(f"premise {i} switches system to {p.system!r}")
            children.append((p, False, i))
        return children

    def right_node(self, d: Derivation) -> None:
        """A node of a right proof: an S derivation from id and right rules only."""
        if d.system != "S" or (d.rule != "id" and d.rule not in S_RIGHT_RULES):
            _fail(f"a right proof uses only S id and right rules, found {d.system} {d.rule}")
        self.check_s(d)

    def normal(self, terms: Iterable[Term], what: str) -> None:
        for t in terms:
            if normalize(t, self.theories) is not t:
                _fail(f"{what} {t} is not in normal form")

    def sequent_normal(self, d: Derivation) -> None:
        """The goal, and at the root the whole of Gamma, are in normal form."""
        if d is self.root:
            self.normal(d.conclusion.gamma, "Gamma member")
        self.normal((d.conclusion.goal,), "goal")

    def adds(self, d: Derivation, i: int, added: tuple[Term, ...]) -> None:
        """Premise i has d's sequent with the added terms in Gamma.

        No set is built: the premise's Gamma holds Gamma and the added terms
        and has as many members as their union, so it is that union.
        """
        c, p = d.conclusion, d.premises[i].conclusion
        g, pg = c.gamma, p.gamma
        if (p.goal is not c.goal or not isinstance(pg, (set, frozenset))
                or len(pg) != len(g) + len(frozenset(added) - g)
                or not pg.issuperset(added) or not g <= pg):
            _fail(f"premise {i} of {d.rule} must add {', '.join(map(str, added))} to Gamma")
        self.normal(added, "Gamma member")

    def check_s(self, d: Derivation) -> None:
        g = d.conclusion.gamma
        rule = d.rule
        if rule not in S_RULES:
            _fail(f"unknown S rule {rule!r}")
        self.sequent_normal(d)
        if rule == "id":
            _check_id_s(d, self.theories)
        elif rule in S_RIGHT_RULES:
            _arity(d, 2)
            _same_gamma(d)
            _components(d, _RIGHT_SYM[rule])
        elif rule == "cut":
            _arity(d, 2)
            left = d.premises[0].conclusion
            if not _same(left.gamma, g):
                _fail("cut left premise changes Gamma")
            self.adds(d, 1, (left.goal,))
        else:
            # a left rule with a side term branches: its first premise
            # derives that term from Gamma
            side, added = _left_step(d, self.theories)
            _arity(d, 1 if side is None else 2)
            if side is not None and not _concludes(d.premises[0], g, side):
                _fail(f"the first premise of {rule} must derive {side} from Gamma")
            self.adds(d, len(d.premises) - 1, added)

    def check_l(self, d: Derivation) -> Derivation | None:
        """Check an L node; returns the right proof of its side condition, if any."""
        g, m = d.conclusion.gamma, d.conclusion.goal
        rule = d.rule
        if rule not in L_RULES:
            _fail(f"unknown L rule {rule!r}")
        self.sequent_normal(d)
        if rule == "r":
            _arity(d, 0)
            side = m
        else:
            _arity(d, 1)
            if d.premises[0].conclusion.goal is not m:
                _fail("left rules keep the goal")
            side, added = _left_step(d, self.theories)
            self.adds(d, 0, added)
            if side is None:
                return None
        embedded = d.aux.get("right")
        if not isinstance(embedded, Derivation):
            _fail(f"side condition unproved: no right proof that {side} is right-deducible")
        if not _concludes(embedded, g, side):
            _fail("embedded right proof concludes the wrong sequent")
        return embedded


def left_parts(rule: str, principal: Term, build: bool = True
               ) -> tuple[Term | None, tuple[Term, ...] | None, Term | None]:
    """The one definition of a left rule, named in N, S or L, at a principal:
    (side, added, held).  side is the term the rule needs right-deducible
    from Gamma (None for the pair and sign rules), added the terms it adds
    to Gamma, held the term Gamma must already contain (pub(k) for the sign
    rules, else None).  For acut and ls the principal is the alien factor
    abstracted.  A principal of the wrong shape raises ValueError.  With
    build false, added is None where it holds a term that is not a part of
    the principal (the unblind rule's sign(m, k)), so a caller that only
    asks whether the rule applies builds no term."""
    kind = _LEFT_KIND[rule]
    if kind == "abstract":
        return principal, (principal,), None
    sym = "sign" if kind == "unblind" else kind
    if principal.kind != CAPP or principal.sym != sym:
        _fail(f"principal must be a {sym} term, found {principal}")
    a, b = principal.args
    if kind == "pair":
        return None, (a, b), None
    if kind == "sign":
        return None, (a,), capp("pub", (b,))
    if kind == "unblind":
        payload, r = _shaped(a, "blind", "signed payload")
        return r, (sign(payload, b), r) if build else None, None
    return b, (a, b), None  # enc(a, key), blind(a, factor)


def _left_step(d: Derivation, theories) -> tuple[Term | None, tuple[Term, ...]]:
    """For a left rule of S or L: the side term it needs derived from Gamma
    (None for the pair and sign rules) and the terms it adds to Gamma."""
    g, m = d.conclusion.gamma, d.conclusion.goal
    if _LEFT_KIND[d.rule] == "abstract":
        principal = d.aux.get("principal")
        if not isinstance(principal, Term):
            _fail(f"{d.rule} needs the abstracted term in aux")
        if not _is_factor(principal, g, m, theories):
            _fail(f"{principal} is not an alien factor of the sequent")
    else:
        principal = _principal(d)
    side, added, held = left_parts(d.rule, principal)
    if held is not None and held not in g:
        _fail(f"{d.rule} needs the matching public key in Gamma")
    return side, added


def _path(frame: tuple) -> str:
    labels = []
    while frame[2] is not None:
        label = frame[3]
        labels.append(".right" if label == "right" else f".premises[{label}]")
        frame = frame[2]
    return "root" + "".join(reversed(labels))


def _concludes(d: Derivation, gamma: frozenset[Term], goal: Term) -> bool:
    """Whether d concludes gamma |- goal, read field by field."""
    c = d.conclusion
    return isinstance(c, Sequent) and c.goal is goal and _same(c.gamma, gamma)


def _same(a: frozenset[Term], b: frozenset[Term]) -> bool:
    # frozenset equality walks both sets even when they are one object
    return a is b or a == b


def _arity(d: Derivation, n: int) -> None:
    if len(d.premises) != n:
        _fail(f"rule {d.rule} expects {n} premises, got {len(d.premises)}")


def _same_gamma(d: Derivation) -> None:
    g = d.conclusion.gamma
    for i, p in enumerate(d.premises):
        if not _same(p.conclusion.gamma, g):
            _fail(f"premise {i} changes Gamma under rule {d.rule}")


def _principal(d: Derivation) -> Term:
    t = d.aux.get("principal")
    if not isinstance(t, Term):
        _fail(f"rule {d.rule} needs a principal term in aux")
    if t not in d.conclusion.gamma:
        _fail(f"principal {t} is not in Gamma")
    return t


def _shaped(t: Term, sym: str, what: str) -> tuple[Term, ...]:
    if t.kind != CAPP or t.sym != sym:
        _fail(f"{what} must be a {sym} term, found {t}")
    return t.args


def _components(d: Derivation, sym: str) -> None:
    """The goal is a sym term and the premise goals are its components: the
    check of an S right rule and of an N introduction."""
    m = d.conclusion.goal
    a, b = _shaped(m, sym, "goal")
    if d.premises[0].conclusion.goal is not a or d.premises[1].conclusion.goal is not b:
        _fail(f"premise goals do not match the components of {m}")


def _check_n(d: Derivation, theories) -> None:
    g, m = d.conclusion.gamma, d.conclusion.goal
    rule = d.rule
    if rule not in N_RULES:
        _fail(f"unknown N rule {rule!r}")
    if rule != "id":
        _same_gamma(d)
    if rule == "id":
        _arity(d, 0)
        if m not in g:
            _fail(f"id goal {m} is not in Gamma")
    elif rule in _INTRO_SYM:
        _arity(d, 2)
        _components(d, _INTRO_SYM[rule])
    elif rule in _N_TO_S:
        # an elimination: its first premise proves the principal, a second
        # the side term or the held public key
        if not d.premises:
            _fail(f"rule {rule} needs a premise that proves its principal")
        side, added, held = left_parts(rule, d.premises[0].conclusion.goal)
        minor = held if side is None else side
        _arity(d, 1 if minor is None else 2)
        if m not in (added if side is None else added[:1]):  # the payload, or a component
            _fail(f"goal {m} is not what {rule} takes out of its first premise")
        if minor is not None and d.premises[1].conclusion.goal is not minor:
            _fail(f"the second premise of {rule} must derive {minor}")
    elif rule == "f_I":
        if not d.premises:
            _fail("f_I needs at least one premise (contexts are non-empty)")
        th = _owner_theory(m, theories)
        if th is None:
            _fail(f"f_I goal {m} is not headed by an equational symbol")
        goals = tuple(p.conclusion.goal for p in d.premises)
        if m.sym == th.ac_symbol:
            if len(goals) < 2:
                _fail("an AC f_I needs at least two premises")
        elif len(goals) != th.symbols[m.sym]:
            _fail(f"{m.sym} expects {th.symbols[m.sym]} premises")
        if eapp(m.sym, goals) is not m:
            _fail(f"premise goals do not combine to {m}")
    elif rule == "approx":
        _arity(d, 1)
        n = d.premises[0].conclusion.goal
        if normalize(n, theories) is not normalize(m, theories):
            _fail(f"{n} and {m} are not equal modulo the theory")


def _owner_theory(t: Term, theories) -> Theory | None:
    if t.kind != EAPP:
        return None
    for th in theories:
        if t.sym in th.symbols:
            return th
    return None


def _check_id_s(d: Derivation, theories) -> None:
    _arity(d, 0)
    w = d.aux.get("witness")
    if not isinstance(w, ElemWitness):
        _fail("id needs an elementary witness in aux")
    try:
        replay(w, d.conclusion.gamma, theories, d.conclusion.goal)
    except ValueError as e:
        _fail(f"witness does not replay: {e}")


def _is_factor(a: Term, g: frozenset[Term], m: Term, theories) -> bool:
    """Whether a is an alien factor of the goal m or of a member of g."""
    return any(a in e_factors(t, th) for th in theories for t in (m, *g))


# --- normal form --------------------------------------------------------------


def is_normal_derivation(d: Derivation) -> bool:
    """Both normal-form conditions on a cut-free S derivation.

    No left rule may occur above a right rule, and no left rule may end the
    first premise of a branching left rule.  The walk keeps its own stack
    and visits each distinct node once per side of the first right rule.
    """
    if d.system != "S":
        return False
    # (node, whether a right rule or id lies below it)
    stack = [(d, False)]
    seen: set[tuple[int, bool]] = set()
    while stack:
        node, above_right = stack.pop()
        key = (id(node), above_right)
        if key in seen:
            continue
        seen.add(key)
        rule = node.rule
        if rule == "cut" or (above_right and rule in S_LEFT_RULES):
            return False
        if rule == "id" or rule in S_RIGHT_RULES:
            above_right = True
        elif rule in S_BRANCHING_LEFT and node.premises[0].rule in S_LEFT_RULES:
            return False
        stack.extend((p, above_right) for p in node.premises)
    return True


# --- translations --------------------------------------------------------------


def _unfold(step, node: Derivation, where):
    """Run a translation on an explicit stack, so its depth is not bounded
    by the recursion limit.

    step(node, where) is a generator: it yields each (premise, where) pair
    whose translation it needs, is sent that translation back, and returns
    its own.  Each pair is translated once, keyed by the node's identity, so
    a proof that shares subtrees costs its nodes, not its paths.
    """
    memo: dict[tuple[int, object], Derivation] = {}
    frames = [((id(node), where), step(node, where))]
    value = None
    while True:
        key, gen = frames[-1]
        try:
            node, where = gen.send(value)
        except StopIteration as done:
            value = memo[key] = done.value
            frames.pop()
            if not frames:
                return value
            continue
        key = (id(node), where)
        value = memo.get(key)
        if value is None:
            frames.append((key, step(node, where)))


def linear_to_seq(d: Derivation) -> Derivation:
    """Read an L derivation as the sequent-calculus proof it abbreviates.

    Each side condition becomes the right proof its node carries; a node
    without one raises ValueError.
    """
    chain = [d]
    seen: set[int] = set()
    while True:
        node = chain[-1]
        if node.system != "L":
            raise ValueError("linear_to_seq expects an L derivation")
        if id(node) in seen:
            raise ValueError("the derivation is its own premise (a cycle)")
        seen.add(id(node))
        if node.rule == "r":
            break
        if not node.premises:
            raise ValueError(f"L rule {node.rule} needs a premise")
        chain.append(node.premises[0])
    last = chain.pop()
    out = _right_proof(last, last.conclusion.goal)
    for node in reversed(chain):
        out = _linear_step(node, out)
    return out


def _right_proof(d: Derivation, goal: Term) -> Derivation:
    """The right proof of goal that the L node d carries."""
    g = d.conclusion.gamma
    emb = d.aux.get("right")
    if not (isinstance(emb, Derivation) and _concludes(emb, g, goal)):
        raise ValueError(f"L rule {d.rule} carries no right proof of {goal}")
    return emb


def _linear_step(d: Derivation, cont: Derivation) -> Derivation:
    """The S node for the L left rule d, whose continuation reads as cont."""
    rule = _L_TO_S.get(d.rule)
    if rule is None:
        raise ValueError(f"unknown L rule {d.rule!r}")
    principal = d.aux["principal"]
    side = left_parts(d.rule, principal)[0]
    premises = (cont,) if side is None else (_right_proof(d, side), cont)
    return Derivation("S", rule, d.conclusion, premises, {"principal": principal})


def nd_to_seq(d: Derivation, theories) -> Derivation:
    """Translate a checked N derivation into S, introducing cuts as needed.

    Every N node shares the root's Gamma, which is normalized once.  Each
    premise is translated directly over the S context where its result is
    used: Gamma plus the principal for the key, public-key and factor
    premises of an elimination, and Gamma plus the goals of the earlier
    premises for those of an f_I fold.
    """
    theories = as_theories(theories)
    gamma = frozenset(normalize(t, theories) for t in d.conclusion.gamma)
    return _unfold(lambda node, g: _n2s(node, g, theories), d, gamma)


def _id_node(g: frozenset[Term], goal: Term, theories) -> Derivation:
    """An id leaf whose goal is a member of g."""
    w = ElemWitness(theories[0].name, "empty", (goal,))
    return Derivation("S", "id", Sequent(g, goal), (), {"witness": w})


def _cut(left: Derivation, right: Derivation) -> Derivation:
    g = left.conclusion.gamma
    return Derivation("S", "cut", Sequent(g, right.conclusion.goal), (left, right))


def _n2s(d: Derivation, g: frozenset[Term], theories):
    """The S translation of d over Gamma g, as a step for _unfold.

    An elimination becomes a cut of its major premise into the S left rule
    of the same row of LEFT_RULES, whose minor premise is translated over
    Gamma plus the principal.  The minor premise of sign_E proves the held
    public key, which is cut in below the left rule.
    """
    m = normalize(d.conclusion.goal, theories)
    rule = d.rule
    if rule == "id":
        return _id_node(g, m, theories)
    if rule == "approx":
        return (yield d.premises[0], g)
    if rule in _INTRO_SYM:
        left = yield d.premises[0], g
        right = yield d.premises[1], g
        return Derivation("S", _RIGHT_FOR[m.sym], Sequent(g, m), (left, right))
    if rule == "f_I":
        return (yield from _n2s_fi(d, g, m, theories))
    big = yield d.premises[0], g
    principal = big.conclusion.goal
    g1 = g | {principal}
    side, added, held = left_parts(rule, principal)
    minor = (yield d.premises[1], g1) if len(d.premises) > 1 else None
    over = g1 if held is None else g1 | {held}
    cont = _id_node(over.union(added), m, theories)
    inner = Derivation("S", _N_TO_S[rule], Sequent(over, m),
                       (cont,) if side is None else (minor, cont), {"principal": principal})
    if held is not None:
        inner = _cut(minor, inner)
    return _cut(big, inner)


def _n2s_fi(d: Derivation, g: frozenset[Term], m: Term, theories):
    """A fold: each premise cut in over Gamma plus the goals cut in before it."""
    goals = [normalize(p.conclusion.goal, theories) for p in d.premises]
    th = _owner_theory(d.conclusion.goal, theories)
    witness = _fold_witness(th, d.conclusion.goal.sym, goals)
    subs = []
    over = g
    for p, goal in zip(d.premises, goals):
        subs.append((yield p, over))
        if goal not in over:
            over = over | {goal}
    node = Derivation("S", "id", Sequent(over, m), (), {"witness": witness})
    for s in reversed(subs):
        node = _cut(s, node)
    return node


def _fold_witness(th: Theory, sym: str, goals: list[Term]) -> ElemWitness:
    if th.backend == "xor":
        return ElemWitness(th.name, "xor", tuple(goals))
    if th.backend == "ag" and sym == "inv":
        return ElemWitness(th.name, "ag", ((goals[0], -1),))
    if th.backend in ("ac", "ag"):
        counts: dict[Term, int] = {}
        for t in goals:
            counts[t] = counts.get(t, 0) + 1
        entries = tuple(sorted(counts.items(), key=lambda kv: kv[0].key))
        return ElemWitness(th.name, th.backend, entries)
    raise ValueError(f"theory {th.name!r} has no equational fold")


def seq_to_nd(d: Derivation, theories) -> Derivation:
    """Translate a checked S derivation into N, rewriting id leaves into trees.

    Every N node lives over the root's Gamma.  The walk binds each term a
    cut or left rule adds to Gamma, unless Gamma already holds it, to the N
    derivation of that term; an id leaf of a bound term is then that shared
    derivation.  Each continuation is translated in a scope of its own, even
    one that binds nothing new, so a subproof is translated once per scope
    it is reached in, and the output shares what the reference translation
    in tests/oracles.py shares.
    """
    theories = as_theories(theories)
    return _unfold(_SeqToNd(d.conclusion.gamma, theories).step, d, 0)


def _nd_id(g: frozenset[Term], goal: Term) -> Derivation:
    return Derivation("N", "id", Sequent(g, goal))


class _SeqToNd:
    """One seq_to_nd walk: the root's Gamma, the derivations bound to the
    terms the cuts and left rules on the current path add, and a counter
    that names each new scope."""

    def __init__(self, gamma: frozenset[Term], theories):
        self.gamma = gamma
        self.theories = theories
        self.bound: dict[Term, Derivation] = {}
        self.scopes = 0

    def leaf(self, t: Term) -> Derivation:
        """The N derivation of a term of the current Gamma."""
        return _nd_id(self.gamma, t) if t in self.gamma else self.bound[t]

    def step(self, d: Derivation, scope: int):
        g0, m = self.gamma, d.conclusion.goal
        rule = d.rule
        if rule == "id":
            return _witness_tree(d.aux["witness"], g0, m, self.theories, self.leaf)
        if rule in S_RIGHT_RULES:
            left = yield d.premises[0], scope
            right = yield d.premises[1], scope
            return Derivation("N", _INTRO_FOR[_RIGHT_SYM[rule]], Sequent(g0, m), (left, right))
        # a cut or left rule: bind what it adds, then translate its continuation
        side = None
        if rule == "cut" or rule in S_BRANCHING_LEFT:
            side = yield d.premises[0], scope
        if rule in ("cut", "acut"):
            binds = {d.premises[0].conclusion.goal: side}
        else:
            # the side term is bound to its proof; every other added term to
            # an elimination of the principal, each with a leaf of its own
            principal = d.aux["principal"]
            side_term, added, held = left_parts(rule, principal)
            minor = () if held is None else (self.leaf(held),)
            if side is not None:
                minor = (side,)
            binds = {}
            for t in added:
                binds[t] = side if t is side_term else Derivation(
                    "N", _S_TO_N[rule], Sequent(g0, t), (self.leaf(principal), *minor))
        g = d.conclusion.gamma
        new = [t for t in binds if t not in g]
        for t in new:
            self.bound[t] = binds[t]
        self.scopes += 1
        out = yield d.premises[-1], self.scopes
        for t in new:
            del self.bound[t]
        return out


def _witness_tree(w: ElemWitness, g: frozenset[Term], goal: Term, theories,
                  leaf) -> Derivation:
    """An N proof of the witnessed context instance: leaf(e) for each hole
    filled by e, f_I folds, approx."""
    by_name = {th.name: th for th in theories}
    th = by_name[w.theory]
    if w.kind == "empty":
        return leaf(goal)
    leaves: list[Derivation] = []
    if w.kind == "xor":
        leaves = [leaf(e) for e in w.entries]
    elif w.kind == "ac":
        for e, c in w.entries:
            leaves.extend(leaf(e) for _ in range(c))
    else:  # ag
        for e, c in w.entries:
            base = leaf(e)
            if c < 0:
                base = Derivation("N", "f_I", Sequent(g, eapp("inv", (e,))), (base,))
            leaves.extend([base] * abs(c))
    if len(leaves) == 1:
        tree = leaves[0]
    else:
        folded = eapp(th.ac_symbol, tuple(x.conclusion.goal for x in leaves))
        tree = Derivation("N", "f_I", Sequent(g, folded), tuple(leaves))
    if tree.conclusion.goal is not goal:
        tree = Derivation("N", "approx", Sequent(g, goal), (tree,))
    return tree


# --- serialization --------------------------------------------------------------

FORMAT_VERSION = 2


def to_json(d: Derivation) -> dict:
    """The proof as a JSON-ready object in the flat layout (see README)."""
    w = _Writer()
    root = w.walk(d)
    return {"system": d.system, "version": FORMAT_VERSION, "terms": w.terms,
            "contexts": w.contexts, "nodes": w.nodes, "root": root}


def from_json(obj) -> Derivation:
    """Read a proof object; raises ValueError if it is malformed."""
    return _Reader().proof(obj)


_encode = json.JSONEncoder().encode
_string = json.encoder.encode_basestring_ascii  # what _encode writes for a str


def dumps(d: Derivation) -> str:
    """The proof as JSON: each top-level field, and each entry of the term,
    context and node tables, on a line of its own."""
    fields = []
    for key, v in to_json(d).items():
        entry = _TABLE_ENTRY.get(key)
        if entry is not None and v:
            v = "[\n    " + ",\n    ".join(map(entry, v)) + "\n  ]"
        else:
            v = _encode(v)
        fields.append(f'  "{key}": {v}')
    return "{\n" + ",\n".join(fields) + "\n}"


# Context entries have a fixed shape, so they are written directly: building
# an encoder per entry with _encode costs more than the writing.  The text is
# what _encode writes.

def _context_entry(c: dict) -> str:
    parent = "null" if c["parent"] is None else c["parent"]
    return f'{{"parent": {parent}, "add": [{", ".join(map(str, c["add"]))}]}}'


_TABLE_ENTRY = {"terms": _string, "contexts": _context_entry, "nodes": _encode}


def loads(text: str) -> Derivation:
    """Read a proof from JSON; raises ValueError on malformed JSON or a
    malformed proof object, including a term that does not parse."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed proof JSON: {e}") from None
    except RecursionError:
        raise ValueError("malformed proof JSON: nested too deep") from None
    return from_json(obj)


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
        if type(version) is not int or version != FORMAT_VERSION:
            found = "no version" if "version" not in obj else f"version {version!r}"
            raise _malformed(f"expected version {FORMAT_VERSION}, found {found}")
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
                t = self.parsed[s] = parse_term(s)
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


_JSON_TYPES = {str: "a string", list: "a list", dict: "an object"}


def _required(obj: dict, key: str):
    if key not in obj:
        raise _malformed(f"missing {key!r}")
    return obj[key]


def _field(obj: dict, key: str, kind: type):
    """obj[key], which must have the given JSON type."""
    v = _required(obj, key)
    if not isinstance(v, kind):
        raise _malformed(f"{key!r} must be {_JSON_TYPES[kind]}, found {type(v).__name__}")
    return v


def _index(v, limit: int, what: str) -> int:
    """v, which must be an integer in [0, limit): JSON true and 1.0 are not
    indices, and Python would read -1 as the last entry."""
    if type(v) is not int or not 0 <= v < limit:
        raise _malformed(f"{what} must be an integer in [0, {limit}), found {v!r}")
    return v


def _malformed(reason: str) -> ValueError:
    return ValueError(f"malformed proof object: {reason}")


def render_text(d: Derivation) -> str:
    """One line per node, premises indented under their conclusion, a right
    proof first.  Below the root, "..." stands for the Gamma of the line the
    node hangs from, followed by the terms the node's Gamma adds to it.  A
    node reached again (a shared subtree) gets one line that points back to
    where it was printed."""
    lines: list[str] = []
    printed: dict[int, int] = {}
    stack: list[tuple] = [(d, 0, None)]
    while stack:
        node, depth, above = stack.pop()
        first = printed.get(id(node))
        if first is not None:
            lines.append(f"{'  ' * depth}{node.rule}: as on line {first}")
            continue
        printed[id(node)] = len(lines) + 1
        g = node.conclusion.gamma
        if above is not None and above <= g:
            left = ["...", *map(format_term, sorted(g - above, key=term_key))]
        else:
            left = [format_term(t) for t in sorted(g, key=term_key)]
        principal = node.aux.get("principal")
        note = "" if principal is None else f"  [{format_term(principal)}]"
        lines.append(f"{'  ' * depth}{node.rule}: {', '.join(left)} |- "
                     f"{format_term(node.conclusion.goal)}{note}")
        emb = node.aux.get("right")
        below = [emb] if isinstance(emb, Derivation) else []
        below += node.premises
        stack.extend((p, depth + 1, g) for p in reversed(below))
    return "\n".join(lines)
