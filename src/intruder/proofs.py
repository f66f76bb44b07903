"""Derivations for the three proof systems, their checker, and translations.

System tags: "N" for the natural-deduction system, "S" for the sequent
calculus with cut, "L" for the linear left-rule system the engine emits.
A derivation is checked without search: id leaves carry replayable context
witnesses, and every "L" rule with a side condition (r, le, blind1, blind2,
ls) carries in aux["right"] an S proof of it built from id and right rules
alone, which the checker verifies like any other S derivation.  An L proof
with its right proofs is thus a complete S derivation, and linear_to_seq
only rearranges it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Iterable

from .elementary import ElemWitness, replay
from .rewriting import Theory, as_theories, normalize
from .terms import CAPP, EAPP, Term, capp, eapp, e_factors, format_term, parse_term, sign


@dataclass(frozen=True)
class Sequent:
    gamma: frozenset[Term]
    goal: Term

    def __repr__(self) -> str:
        left = ", ".join(format_term(t) for t in sorted(self.gamma, key=lambda u: u.key))
        return f"{left} |- {format_term(self.goal)}"

    def with_extra(self, extra: Iterable[Term]) -> Sequent:
        return Sequent(self.gamma | frozenset(extra), self.goal)


@dataclass
class Derivation:
    system: str  # "N" | "S" | "L"
    rule: str
    conclusion: Sequent
    premises: tuple[Derivation, ...] = ()
    aux: dict = field(default_factory=dict)

    def height(self) -> int:
        return 1 + max((p.height() for p in self.premises), default=0)


N_RULES = {"id", "e_E", "e_I", "p_E", "p_I", "sign_E", "sign_I",
           "blind_E1", "blind_E2", "blind_I", "f_I", "approx"}
S_RIGHT_RULES = {"p_R", "e_R", "sign_R", "blind_R"}
S_LEFT_RULES = {"p_L", "e_L", "sign_L", "blind_L1", "blind_L2", "acut"}
S_RULES = {"id", "cut"} | S_RIGHT_RULES | S_LEFT_RULES
# every left rule except p_L and sign_L branches: its first premise is a
# side-condition subproof rather than the continuation
S_BRANCHING_LEFT = {"e_L", "blind_L1", "blind_L2", "acut"}
L_RULES = {"r", "lp", "le", "sign", "blind1", "blind2", "ls"}

_RIGHT_FOR = {"pair": "p_R", "enc": "e_R", "sign": "sign_R", "blind": "blind_R"}
_INTRO_FOR = {"pair": "p_I", "enc": "e_I", "sign": "sign_I", "blind": "blind_I"}


def check(d: Derivation, theories) -> bool:
    """True iff the derivation is valid under the given theories."""
    return find_error(d, theories) is None


def find_error(d: Derivation, theories) -> str | None:
    """None for a valid derivation, else the path and reason of the first failure."""
    theories = as_theories(theories)
    try:
        _check_node(d, theories, "root", _NormCache(theories))
    except _CheckFailure as e:
        return str(e)
    return None


class _CheckFailure(Exception):
    pass


class _NormCache:
    def __init__(self, theories):
        self.theories = theories
        self.seen: dict[Term, bool] = {}

    def is_normal(self, t: Term) -> bool:
        r = self.seen.get(t)
        if r is None:
            r = normalize(t, self.theories) is t
            self.seen[t] = r
        return r


def _fail(path: str, reason: str) -> None:
    raise _CheckFailure(f"{path}: {reason}")


def _check_node(d: Derivation, theories, path: str, cache: _NormCache) -> None:
    if d.system == "N":
        _check_n(d, theories, path)
    elif d.system == "S":
        _check_s(d, theories, path, cache)
    elif d.system == "L":
        _check_l(d, theories, path, cache)
    else:
        _fail(path, f"unknown system {d.system!r}")
    for i, p in enumerate(d.premises):
        if p.system != d.system:
            _fail(path, f"premise {i} switches system to {p.system!r}")
        _check_node(p, theories, f"{path}.premises[{i}]", cache)


def _arity(d: Derivation, n: int, path: str) -> None:
    if len(d.premises) != n:
        _fail(path, f"rule {d.rule} expects {n} premises, got {len(d.premises)}")


def _same_gamma(d: Derivation, path: str) -> None:
    for i, p in enumerate(d.premises):
        if p.conclusion.gamma != d.conclusion.gamma:
            _fail(path, f"premise {i} changes Gamma under rule {d.rule}")


def _principal(d: Derivation, path: str) -> Term:
    t = d.aux.get("principal")
    if not isinstance(t, Term):
        _fail(path, f"rule {d.rule} needs a principal term in aux")
    if t not in d.conclusion.gamma:
        _fail(path, f"principal {t} is not in Gamma")
    return t


def _shaped(t: Term, sym: str, path: str, what: str) -> tuple[Term, ...]:
    if t.kind != CAPP or t.sym != sym:
        _fail(path, f"{what} must be a {sym} term, found {t}")
    return t.args


def _check_n(d: Derivation, theories, path: str) -> None:
    g, m = d.conclusion.gamma, d.conclusion.goal
    rule = d.rule
    if rule not in N_RULES:
        _fail(path, f"unknown N rule {rule!r}")
    if rule != "id":
        _same_gamma(d, path)
    if rule == "id":
        _arity(d, 0, path)
        if m not in g:
            _fail(path, f"id goal {m} is not in Gamma")
    elif rule in ("p_I", "e_I", "sign_I", "blind_I"):
        _arity(d, 2, path)
        sym = {"p_I": "pair", "e_I": "enc", "sign_I": "sign", "blind_I": "blind"}[rule]
        a, b = _shaped(m, sym, path, "goal")
        if d.premises[0].conclusion.goal is not a or d.premises[1].conclusion.goal is not b:
            _fail(path, f"premise goals do not match the components of {m}")
    elif rule == "p_E":
        _arity(d, 1, path)
        a, b = _shaped(d.premises[0].conclusion.goal, "pair", path, "premise goal")
        if m is not a and m is not b:
            _fail(path, f"goal {m} is not a component of the premise pair")
    elif rule == "e_E":
        _arity(d, 2, path)
        a, k = _shaped(d.premises[0].conclusion.goal, "enc", path, "first premise goal")
        if m is not a or d.premises[1].conclusion.goal is not k:
            _fail(path, "enc elimination premises do not fit the goal")
    elif rule == "sign_E":
        _arity(d, 2, path)
        a, k = _shaped(d.premises[0].conclusion.goal, "sign", path, "first premise goal")
        want = capp("pub", (k,))
        if m is not a or d.premises[1].conclusion.goal is not want:
            _fail(path, "sign elimination needs the matching public key premise")
    elif rule == "blind_E1":
        _arity(d, 2, path)
        a, r = _shaped(d.premises[0].conclusion.goal, "blind", path, "first premise goal")
        if m is not a or d.premises[1].conclusion.goal is not r:
            _fail(path, "blind elimination premises do not fit the goal")
    elif rule == "blind_E2":
        _arity(d, 2, path)
        a, k = _shaped(m, "sign", path, "goal")
        p1 = d.premises[0].conclusion.goal
        ba, bk = _shaped(p1, "sign", path, "first premise goal")
        br_args = _shaped(ba, "blind", path, "first premise payload")
        if bk is not k or br_args[0] is not a or d.premises[1].conclusion.goal is not br_args[1]:
            _fail(path, "unblinding premises do not fit the goal")
    elif rule == "f_I":
        if not d.premises:
            _fail(path, "f_I needs at least one premise (contexts are non-empty)")
        th = _owner_theory(m, theories)
        if th is None:
            _fail(path, f"f_I goal {m} is not headed by an equational symbol")
        goals = tuple(p.conclusion.goal for p in d.premises)
        if m.sym == th.ac_symbol:
            if len(goals) < 2:
                _fail(path, "an AC f_I needs at least two premises")
            if eapp(m.sym, goals) is not m:
                _fail(path, f"premise goals do not combine to {m}")
        else:
            if len(goals) != th.symbols[m.sym]:
                _fail(path, f"{m.sym} expects {th.symbols[m.sym]} premises")
            if eapp(m.sym, goals) is not m:
                _fail(path, f"premise goals do not combine to {m}")
    elif rule == "approx":
        _arity(d, 1, path)
        n = d.premises[0].conclusion.goal
        if normalize(n, theories) is not normalize(m, theories):
            _fail(path, f"{n} and {m} are not equal modulo the theory")


def _owner_theory(t: Term, theories) -> Theory | None:
    if t.kind != EAPP:
        return None
    for th in theories:
        if t.sym in th.symbols:
            return th
    return None


def _check_sequent_normal(d: Derivation, theories, path: str, cache: _NormCache) -> None:
    for t in d.conclusion.gamma:
        if not cache.is_normal(t):
            _fail(path, f"Gamma member {t} is not in normal form")
    if not cache.is_normal(d.conclusion.goal):
        _fail(path, f"goal {d.conclusion.goal} is not in normal form")


def _check_id_s(d: Derivation, theories, path: str) -> None:
    _arity(d, 0, path)
    w = d.aux.get("witness")
    if not isinstance(w, ElemWitness):
        _fail(path, "id needs an elementary witness in aux")
    try:
        value = replay(w, d.conclusion.gamma, theories)
    except ValueError as e:
        _fail(path, f"witness does not replay: {e}")
    if value is not d.conclusion.goal:
        _fail(path, f"witness replays to {value}, not the goal")


def _check_s(d: Derivation, theories, path: str, cache: _NormCache) -> None:
    g, m = d.conclusion.gamma, d.conclusion.goal
    rule = d.rule
    if rule not in S_RULES:
        _fail(path, f"unknown S rule {rule!r}")
    _check_sequent_normal(d, theories, path, cache)
    if rule == "id":
        _check_id_s(d, theories, path)
    elif rule == "cut":
        _arity(d, 2, path)
        a = d.premises[0].conclusion.goal
        if d.premises[0].conclusion.gamma != g:
            _fail(path, "cut left premise changes Gamma")
        if d.premises[1].conclusion != Sequent(g | {a}, m):
            _fail(path, "cut right premise must add the cut term to Gamma")
    elif rule in S_RIGHT_RULES:
        _arity(d, 2, path)
        _same_gamma(d, path)
        sym = {"p_R": "pair", "e_R": "enc", "sign_R": "sign", "blind_R": "blind"}[rule]
        a, b = _shaped(m, sym, path, "goal")
        if d.premises[0].conclusion.goal is not a or d.premises[1].conclusion.goal is not b:
            _fail(path, f"premise goals do not match the components of {m}")
    elif rule == "p_L":
        _arity(d, 1, path)
        a, b = _shaped(_principal(d, path), "pair", path, "principal")
        if d.premises[0].conclusion != Sequent(g | {a, b}, m):
            _fail(path, "pair-left premise must add both components")
    elif rule == "e_L":
        _arity(d, 2, path)
        a, k = _shaped(_principal(d, path), "enc", path, "principal")
        if d.premises[0].conclusion != Sequent(g, k):
            _fail(path, "enc-left first premise must derive the key")
        if d.premises[1].conclusion != Sequent(g | {a, k}, m):
            _fail(path, "enc-left second premise must add payload and key")
    elif rule == "sign_L":
        _arity(d, 1, path)
        a, k = _shaped(_principal(d, path), "sign", path, "principal")
        if capp("pub", (k,)) not in g:
            _fail(path, "sign-left needs the matching public key in Gamma")
        if d.premises[0].conclusion != Sequent(g | {a}, m):
            _fail(path, "sign-left premise must add the signed payload")
    elif rule == "blind_L1":
        _arity(d, 2, path)
        a, r = _shaped(_principal(d, path), "blind", path, "principal")
        if d.premises[0].conclusion != Sequent(g, r):
            _fail(path, "blind-left first premise must derive the blinding factor")
        if d.premises[1].conclusion != Sequent(g | {a, r}, m):
            _fail(path, "blind-left second premise must add payload and factor")
    elif rule == "blind_L2":
        _arity(d, 2, path)
        outer = _shaped(_principal(d, path), "sign", path, "principal")
        a, r = _shaped(outer[0], "blind", path, "signed payload")
        unblinded = sign(a, outer[1])
        if d.premises[0].conclusion != Sequent(g, r):
            _fail(path, "unblinding first premise must derive the blinding factor")
        if d.premises[1].conclusion != Sequent(g | {unblinded, r}, m):
            _fail(path, "unblinding second premise must add the unblinded signature")
    elif rule == "acut":
        _arity(d, 2, path)
        a = d.aux.get("abstracted")
        if not isinstance(a, Term):
            _fail(path, "acut needs the abstracted term in aux")
        if not _is_factor(a, g | {m}, theories):
            _fail(path, f"{a} is not an alien factor of the sequent")
        if d.premises[0].conclusion != Sequent(g, a):
            _fail(path, "acut left premise must derive the abstracted term")
        if d.premises[1].conclusion != Sequent(g | {a}, m):
            _fail(path, "acut right premise must add the abstracted term")


def _is_factor(a: Term, over: frozenset[Term], theories) -> bool:
    return any(a in e_factors(t, th) for t in over for th in theories)


def _check_l(d: Derivation, theories, path: str, cache: _NormCache) -> None:
    g, m = d.conclusion.gamma, d.conclusion.goal
    rule = d.rule
    if rule not in L_RULES:
        _fail(path, f"unknown L rule {rule!r}")
    _check_sequent_normal(d, theories, path, cache)

    def side(goal: Term, what: str) -> None:
        embedded = d.aux.get("right")
        if not isinstance(embedded, Derivation):
            _fail(path, f"side condition unproved: no right proof that {what} {goal} "
                        "is right-deducible")
        if embedded.conclusion != Sequent(g, goal):
            _fail(path, "embedded right proof concludes the wrong sequent")
        _check_right(embedded, theories, f"{path}.right", cache)

    if rule == "r":
        _arity(d, 0, path)
        side(m, "goal")
        return
    _arity(d, 1, path)
    prem = d.premises[0].conclusion
    if prem.goal is not m:
        _fail(path, "left rules keep the goal")
    if rule == "lp":
        a, b = _shaped(_principal(d, path), "pair", path, "principal")
        want = g | {a, b}
    elif rule == "le":
        a, k = _shaped(_principal(d, path), "enc", path, "principal")
        side(k, "key")
        want = g | {a, k}
    elif rule == "sign":
        a, k = _shaped(_principal(d, path), "sign", path, "principal")
        if capp("pub", (k,)) not in g:
            _fail(path, "sign needs the matching public key in Gamma")
        want = g | {a}
    elif rule == "blind1":
        a, r = _shaped(_principal(d, path), "blind", path, "principal")
        side(r, "blinding factor")
        want = g | {a, r}
    elif rule == "blind2":
        outer = _shaped(_principal(d, path), "sign", path, "principal")
        a, r = _shaped(outer[0], "blind", path, "signed payload")
        side(r, "blinding factor")
        want = g | {sign(a, outer[1]), r}
    else:  # ls
        a = d.aux.get("principal")
        if not isinstance(a, Term):
            _fail(path, "ls needs the abstracted term in aux")
        if not _is_factor(a, g | {m}, theories):
            _fail(path, f"{a} is not an alien factor of the sequent")
        side(a, "abstracted term")
        want = g | {a}
    if prem.gamma != want:
        _fail(path, f"premise Gamma of {rule} is wrong")


def _check_right(d: Derivation, theories, path: str, cache: _NormCache) -> None:
    """A right proof: an S derivation that uses only id and right rules."""
    if d.system != "S" or (d.rule != "id" and d.rule not in S_RIGHT_RULES):
        _fail(path, f"a right proof uses only S id and right rules, found {d.system} {d.rule}")
    _check_s(d, theories, path, cache)
    for i, p in enumerate(d.premises):
        _check_right(p, theories, f"{path}.premises[{i}]", cache)


# --- normal form --------------------------------------------------------------


def is_normal_derivation(d: Derivation) -> bool:
    """Both normal-form conditions on a cut-free S derivation.

    No left rule may occur above a right rule, and no left rule may end the
    first premise of a branching left rule.
    """
    if d.system != "S":
        return False

    def no_left(node: Derivation) -> bool:
        if node.rule in S_LEFT_RULES or node.rule == "cut":
            return False
        return all(no_left(p) for p in node.premises)

    def walk(node: Derivation) -> bool:
        if node.rule == "cut":
            return False
        if node.rule == "id" or node.rule in S_RIGHT_RULES:
            return no_left(node)
        if node.rule in S_BRANCHING_LEFT:
            if node.premises[0].rule in S_LEFT_RULES:
                return False
        return all(walk(p) for p in node.premises)

    return walk(d)


# --- weakening ----------------------------------------------------------------


def weaken(d: Derivation, extra: Iterable[Term]) -> Derivation:
    """The same derivation over Gamma extended with extra terms (same height)."""
    extra = frozenset(extra)
    if not extra:
        return d
    return _weaken(d, extra)


def _weaken(d: Derivation, extra: frozenset[Term]) -> Derivation:
    aux = dict(d.aux)
    emb = aux.get("right")
    if isinstance(emb, Derivation):
        aux["right"] = _weaken(emb, extra)
    return Derivation(d.system, d.rule, d.conclusion.with_extra(extra),
                      tuple(_weaken(p, extra) for p in d.premises), aux)


# --- translations --------------------------------------------------------------


def linear_to_seq(d: Derivation, theories) -> Derivation:
    """Read an L derivation as the sequent-calculus proof it abbreviates.

    Each side condition becomes the right proof its node carries; a node
    without one raises ValueError.
    """
    if d.system != "L":
        raise ValueError("linear_to_seq expects an L derivation")
    g, m = d.conclusion.gamma, d.conclusion.goal

    def right_proof(goal: Term) -> Derivation:
        emb = d.aux.get("right")
        if not (isinstance(emb, Derivation) and emb.conclusion == Sequent(g, goal)):
            raise ValueError(f"L rule {d.rule} carries no right proof of {goal}")
        return emb

    if d.rule == "r":
        return right_proof(m)
    cont = linear_to_seq(d.premises[0], theories)
    aux = {k: v for k, v in d.aux.items() if k in ("principal", "theory")}
    if d.rule == "lp":
        return Derivation("S", "p_L", d.conclusion, (cont,), aux)
    if d.rule == "sign":
        return Derivation("S", "sign_L", d.conclusion, (cont,), aux)
    if d.rule == "le":
        key = d.aux["principal"].args[1]
        return Derivation("S", "e_L", d.conclusion, (right_proof(key), cont), aux)
    if d.rule == "blind1":
        factor = d.aux["principal"].args[1]
        return Derivation("S", "blind_L1", d.conclusion, (right_proof(factor), cont), aux)
    if d.rule == "blind2":
        factor = d.aux["principal"].args[0].args[1]
        return Derivation("S", "blind_L2", d.conclusion, (right_proof(factor), cont), aux)
    if d.rule == "ls":
        a = d.aux["principal"]
        aux = {"abstracted": a}
        if "theory" in d.aux:
            aux["theory"] = d.aux["theory"]
        return Derivation("S", "acut", d.conclusion, (right_proof(a), cont), aux)
    raise ValueError(f"unknown L rule {d.rule!r}")


def nd_to_seq(d: Derivation, theories) -> Derivation:
    """Translate a checked N derivation into S, introducing cuts as needed."""
    theories = as_theories(theories)
    err = find_error(d, theories)
    if err is not None:
        raise ValueError(f"input derivation does not check: {err}")
    return _n2s(d, theories)


def _norm_sequent(s: Sequent, theories) -> Sequent:
    return Sequent(frozenset(normalize(t, theories) for t in s.gamma),
                   normalize(s.goal, theories))


def _member_witness(goal: Term, theories) -> ElemWitness:
    return ElemWitness(theories[0].name, "empty", (goal,))


def _id_node(g: frozenset[Term], goal: Term, theories) -> Derivation:
    w = _member_witness(goal, theories)
    return Derivation("S", "id", Sequent(g, goal), (), {"witness": w, "theory": w.theory})


def _cut(left: Derivation, right: Derivation) -> Derivation:
    g = left.conclusion.gamma
    return Derivation("S", "cut", Sequent(g, right.conclusion.goal), (left, right))


def _n2s(d: Derivation, theories) -> Derivation:
    conc = _norm_sequent(d.conclusion, theories)
    g, m = conc.gamma, conc.goal
    rule = d.rule
    if rule == "id":
        return _id_node(g, m, theories)
    if rule == "approx":
        return _n2s(d.premises[0], theories)
    if rule in ("p_I", "e_I", "sign_I", "blind_I"):
        left = _n2s(d.premises[0], theories)
        right = _n2s(d.premises[1], theories)
        return Derivation("S", _RIGHT_FOR[m.sym], conc, (left, right))
    if rule == "f_I":
        return _n2s_fi(d, conc, theories)
    if rule == "p_E":
        big = _n2s(d.premises[0], theories)
        principal = big.conclusion.goal
        a, b = principal.args
        inner = Derivation("S", "p_L", Sequent(g | {principal}, m),
                           (_id_node(g | {principal, a, b}, m, theories),),
                           {"principal": principal})
        return _cut(big, inner)
    if rule == "e_E":
        big = _n2s(d.premises[0], theories)
        key = _n2s(d.premises[1], theories)
        principal = big.conclusion.goal
        a, k = principal.args
        g1 = g | {principal}
        inner = Derivation("S", "e_L", Sequent(g1, m),
                           (weaken(key, {principal}),
                            _id_node(g1 | {a, k}, m, theories)),
                           {"principal": principal})
        return _cut(big, inner)
    if rule == "sign_E":
        big = _n2s(d.premises[0], theories)
        pubkey = _n2s(d.premises[1], theories)
        principal = big.conclusion.goal
        g1 = g | {principal}
        g2 = g1 | {pubkey.conclusion.goal}
        inner = Derivation("S", "sign_L", Sequent(g2, m),
                           (_id_node(g2 | {m}, m, theories),),
                           {"principal": principal})
        step = _cut(weaken(pubkey, {principal}), inner)
        return _cut(big, step)
    if rule == "blind_E1":
        big = _n2s(d.premises[0], theories)
        factor = _n2s(d.premises[1], theories)
        principal = big.conclusion.goal
        a, r = principal.args
        g1 = g | {principal}
        inner = Derivation("S", "blind_L1", Sequent(g1, m),
                           (weaken(factor, {principal}),
                            _id_node(g1 | {a, r}, m, theories)),
                           {"principal": principal})
        return _cut(big, inner)
    if rule == "blind_E2":
        big = _n2s(d.premises[0], theories)
        factor = _n2s(d.premises[1], theories)
        principal = big.conclusion.goal
        r = factor.conclusion.goal
        g1 = g | {principal}
        inner = Derivation("S", "blind_L2", Sequent(g1, m),
                           (weaken(factor, {principal}),
                            _id_node(g1 | {m, r}, m, theories)),
                           {"principal": principal})
        return _cut(big, inner)
    raise ValueError(f"unknown N rule {rule!r}")


def _n2s_fi(d: Derivation, conc: Sequent, theories) -> Derivation:
    g, m = conc.gamma, conc.goal
    subs = [_n2s(p, theories) for p in d.premises]
    goals = [s.conclusion.goal for s in subs]
    th = _owner_theory(d.conclusion.goal, theories)
    witness = _fold_witness(th, d.conclusion.goal.sym, goals)
    added: list[Term] = []
    for i, s in enumerate(subs):
        subs[i] = weaken(s, added)
        if goals[i] not in g and goals[i] not in added:
            added.append(goals[i])
    node = Derivation("S", "id", Sequent(g | set(goals), m), (),
                      {"witness": witness, "theory": witness.theory})
    for s in reversed(subs):
        node = _cut(s, node)
    return node


def _fold_witness(th: Theory, sym: str, goals: list[Term]) -> ElemWitness:
    if th.backend == "xor":
        return ElemWitness(th.name, "xor", tuple(goals))
    if th.backend == "ac":
        counts: dict[Term, int] = {}
        for t in goals:
            counts[t] = counts.get(t, 0) + 1
        return ElemWitness(th.name, "ac", tuple(sorted(counts.items(), key=lambda kv: kv[0].key)))
    if th.backend == "ag":
        if sym == "inv":
            return ElemWitness(th.name, "ag", ((goals[0], -1),))
        counts = {}
        for t in goals:
            counts[t] = counts.get(t, 0) + 1
        return ElemWitness(th.name, "ag", tuple(sorted(counts.items(), key=lambda kv: kv[0].key)))
    raise ValueError(f"theory {th.name!r} has no equational fold")


def seq_to_nd(d: Derivation, theories) -> Derivation:
    """Translate a checked S derivation into N, rewriting id leaves into trees."""
    theories = as_theories(theories)
    err = find_error(d, theories)
    if err is not None:
        raise ValueError(f"input derivation does not check: {err}")
    return _s2n(d, theories)


def _nd_id(g: frozenset[Term], goal: Term) -> Derivation:
    return Derivation("N", "id", Sequent(g, goal))


def _regraft(d: Derivation, g: frozenset[Term], grafts: dict[Term, Derivation]) -> Derivation:
    """Rebuild an N derivation over a smaller Gamma, replacing broken id leaves."""
    if d.rule == "id":
        if d.conclusion.goal in g:
            return _nd_id(g, d.conclusion.goal)
        replacement = grafts.get(d.conclusion.goal)
        if replacement is None:
            raise ValueError(f"no graft for id leaf {d.conclusion.goal}")
        return replacement
    return Derivation("N", d.rule, Sequent(g, d.conclusion.goal),
                      tuple(_regraft(p, g, grafts) for p in d.premises), dict(d.aux))


def _s2n(d: Derivation, theories) -> Derivation:
    g, m = d.conclusion.gamma, d.conclusion.goal
    rule = d.rule
    if rule == "id":
        return _witness_tree(d.aux["witness"], g, m, theories)
    if rule in S_RIGHT_RULES:
        sym = {"p_R": "pair", "e_R": "enc", "sign_R": "sign", "blind_R": "blind"}[rule]
        return Derivation("N", _INTRO_FOR[sym], Sequent(g, m),
                          (_s2n(d.premises[0], theories), _s2n(d.premises[1], theories)))
    if rule in ("cut", "acut"):
        a = d.premises[0].conclusion.goal
        left = _s2n(d.premises[0], theories)
        right = _s2n(d.premises[1], theories)
        return _regraft(right, g, {a: left})
    if rule == "p_L":
        principal = d.aux["principal"]
        a, b = principal.args
        body = _s2n(d.premises[0], theories)
        graft_a = Derivation("N", "p_E", Sequent(g, a), (_nd_id(g, principal),))
        graft_b = Derivation("N", "p_E", Sequent(g, b), (_nd_id(g, principal),))
        return _regraft(body, g, {a: graft_a, b: graft_b})
    if rule == "e_L":
        principal = d.aux["principal"]
        a, k = principal.args
        key = _s2n(d.premises[0], theories)
        body = _s2n(d.premises[1], theories)
        payload = Derivation("N", "e_E", Sequent(g, a), (_nd_id(g, principal), key))
        return _regraft(body, g, {a: payload, k: key})
    if rule == "sign_L":
        principal = d.aux["principal"]
        a, k = principal.args
        body = _s2n(d.premises[0], theories)
        payload = Derivation("N", "sign_E", Sequent(g, a),
                             (_nd_id(g, principal), _nd_id(g, capp("pub", (k,)))))
        return _regraft(body, g, {a: payload})
    if rule == "blind_L1":
        principal = d.aux["principal"]
        a, r = principal.args
        factor = _s2n(d.premises[0], theories)
        body = _s2n(d.premises[1], theories)
        payload = Derivation("N", "blind_E1", Sequent(g, a), (_nd_id(g, principal), factor))
        return _regraft(body, g, {a: payload, r: factor})
    if rule == "blind_L2":
        principal = d.aux["principal"]
        blinded, k = principal.args
        a, r = blinded.args
        unblinded = sign(a, k)
        factor = _s2n(d.premises[0], theories)
        body = _s2n(d.premises[1], theories)
        payload = Derivation("N", "blind_E2", Sequent(g, unblinded),
                             (_nd_id(g, principal), factor))
        return _regraft(body, g, {unblinded: payload, r: factor})
    raise ValueError(f"unknown S rule {rule!r}")


def _witness_tree(w: ElemWitness, g: frozenset[Term], goal: Term, theories) -> Derivation:
    """An N proof of the witnessed context instance: id leaves, f_I folds, approx."""
    by_name = {th.name: th for th in theories}
    th = by_name[w.theory]
    if w.kind == "empty":
        return _nd_id(g, goal)
    leaves: list[Derivation] = []
    if w.kind == "xor":
        leaves = [_nd_id(g, e) for e in w.entries]
    elif w.kind == "ac":
        for e, c in w.entries:
            leaves.extend(_nd_id(g, e) for _ in range(c))
    else:  # ag
        for e, c in w.entries:
            base = _nd_id(g, e)
            if c < 0:
                base = Derivation("N", "f_I", Sequent(g, eapp("inv", (e,))), (base,))
            leaves.extend([base] * abs(c))
    if len(leaves) == 1:
        tree = leaves[0]
    else:
        folded = eapp(th.ac_symbol, tuple(leaf.conclusion.goal for leaf in leaves))
        tree = Derivation("N", "f_I", Sequent(g, folded), tuple(leaves))
    if tree.conclusion.goal is not goal:
        tree = Derivation("N", "approx", Sequent(g, goal), (tree,))
    return tree


# --- serialization --------------------------------------------------------------


def to_json(d: Derivation) -> dict:
    """The proof as a JSON-ready object (see README for its shape)."""
    return _Writer().node(d)


def from_json(obj: dict) -> Derivation:
    """Read a proof object; raises ValueError if it is malformed."""
    return _Reader().node(obj)


def dumps(d: Derivation) -> str:
    """The proof as indented JSON: the text ``json.dumps(to_json(d), indent=2)``
    gives, written without json's pure-Python encoder."""
    out: list[str] = []
    _indented(to_json(d), "\n", out)
    return "".join(out)


def loads(text: str) -> Derivation:
    """Read a proof from JSON; raises ValueError on malformed JSON or a
    malformed proof object, including a term that does not parse."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed proof JSON: {e}") from None
    return from_json(obj)


class _Writer:
    """Writes the nodes of one proof.  Sequents repeat their whole context, so
    each distinct term is printed, and each distinct context sorted and
    printed, once."""

    def __init__(self):
        self.terms: dict[Term, str] = {}
        self.gammas: dict[frozenset[Term], list[str]] = {}

    def term(self, t: Term) -> str:
        s = self.terms.get(t)
        if s is None:
            s = self.terms[t] = format_term(t)
        return s

    def node(self, d: Derivation) -> dict:
        g = d.conclusion.gamma
        gamma = self.gammas.get(g)
        if gamma is None:
            gamma = self.gammas[g] = [self.term(t) for t in sorted(g, key=lambda t: t.key)]
        aux: dict = {}
        for k, v in d.aux.items():
            if isinstance(v, Term):
                aux[k] = self.term(v)
            elif isinstance(v, ElemWitness):
                aux[k] = self.witness(v)
            elif isinstance(v, Derivation):
                aux[k] = self.node(v)
            else:
                aux[k] = v
        return {
            "system": d.system,
            "rule": d.rule,
            "gamma": list(gamma),
            "goal": self.term(d.conclusion.goal),
            "aux": aux,
            "premises": [self.node(p) for p in d.premises],
        }

    def witness(self, w: ElemWitness) -> dict:
        if w.kind in ("empty", "xor"):
            entries = [self.term(e) for e in w.entries]
        else:
            entries = [[self.term(e), c] for e, c in w.entries]
        return {"theory": w.theory, "kind": w.kind, "entries": entries}


class _Reader:
    """Reads the nodes of one proof object, checking the JSON type of every
    field it interprets.  Each distinct term string is parsed once."""

    def __init__(self):
        self.terms: dict[str, Term] = {}

    def term(self, s, what: str) -> Term:
        if not isinstance(s, str):
            raise _malformed(f"{what} must be a string, found {type(s).__name__}")
        t = self.terms.get(s)
        if t is None:
            t = self.terms[s] = parse_term(s)
        return t

    def node(self, obj) -> Derivation:
        if not isinstance(obj, dict):
            raise _malformed(f"a node must be an object, found {type(obj).__name__}")
        system = _field(obj, "system", str)
        rule = _field(obj, "rule", str)
        gamma = frozenset([self.term(s, "a gamma member") for s in _field(obj, "gamma", list)])
        goal = self.term(_field(obj, "goal", str), "goal")
        premises = tuple([self.node(p) for p in _field(obj, "premises", list, [])])
        aux: dict = {}
        for k, v in _field(obj, "aux", dict, {}).items():
            if k in ("principal", "abstracted"):
                aux[k] = self.term(v, k)
            elif k == "witness":
                aux[k] = self.witness(v)
            elif k == "right":
                aux[k] = self.node(v)
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
            return ElemWitness(theory, kind,
                               tuple([self.term(s, "a witness entry") for s in raw]))
        entries = []
        for e in raw:
            if not (isinstance(e, list) and len(e) == 2 and type(e[1]) is int):
                raise _malformed(f"a {kind} witness entry must be [term, count], found {e!r}")
            entries.append((self.term(e[0], "a witness entry"), e[1]))
        return ElemWitness(theory, kind, tuple(entries))


_JSON_TYPES = {str: "a string", list: "a list", dict: "an object"}


def _field(obj: dict, key: str, kind: type, default=None):
    """obj[key], which must have the given JSON type; default if it is
    absent and a default is given."""
    if key not in obj:
        if default is None:
            raise _malformed(f"missing {key!r}")
        return default
    v = obj[key]
    if not isinstance(v, kind):
        raise _malformed(f"{key!r} must be {_JSON_TYPES[kind]}, found {type(v).__name__}")
    return v


def _malformed(reason: str) -> ValueError:
    return ValueError(f"malformed proof object: {reason}")


def _indented(v, nl: str, out: list[str]) -> None:
    """Append to out the text json.dumps(v, indent=2) gives v, where nl is
    the line break and indentation of the line v starts on."""
    if isinstance(v, str):
        out.append(_encode_str(v))
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, x in v.items():
            out.append(sep + _encode_str(k) + ": ")
            _indented(x, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _indented(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(json.dumps(v))


def render_text(d: Derivation, indent: int = 0) -> str:
    pad = "  " * indent
    note = ""
    if "principal" in d.aux:
        note = f"  [{format_term(d.aux['principal'])}]"
    elif "abstracted" in d.aux:
        note = f"  [{format_term(d.aux['abstracted'])}]"
    lines = [f"{pad}{d.rule}: {d.conclusion!r}{note}"]
    emb = d.aux.get("right")
    if isinstance(emb, Derivation):
        lines.append(render_text(emb, indent + 1))
    for p in d.premises:
        lines.append(render_text(p, indent + 1))
    return "\n".join(lines)
