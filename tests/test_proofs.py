import ast
import importlib.util
import json
import pathlib
import random
import sys

import pytest

from conftest import gen_instance, holes
from oracles import (height, left_rule_count, reference_dumps, reference_from_json,
                     reference_nd_to_seq, reference_seq_to_nd, reference_to_json, sequents_of,
                     weaken)
from intruder import proofs
from intruder.cli import read_problem
from intruder.elementary import ElemWitness
from intruder.engine import deduce
from intruder.proofs import (Derivation, Sequent, check, dumps, find_error,
                             from_json, is_normal_derivation, linear_to_seq,
                             loads, nd_to_seq, render_text, seq_to_nd, to_json)
from intruder.rewriting import make_theories
from intruder.terms import blind, eapp, enc, name, pair, pub, sign

a, b, c, k, m, r = (name(n) for n in "abckmr")
EMPTYS = make_theories(("empty",))
ACS = make_theories(("ac",))
XORS = make_theories(("xor",))


def plus(*ts):
    return eapp("+", ts)


def s_id(gamma, goal, theory="empty"):
    w = ElemWitness(theory, "empty", (goal,))
    return Derivation("S", "id", Sequent(frozenset(gamma), goal), (),
                      {"witness": w, "theory": theory})


def n_id(gamma, goal):
    return Derivation("N", "id", Sequent(frozenset(gamma), goal))


def pair_intro_proof():
    g = {a, b}
    return Derivation("S", "p_R", Sequent(frozenset(g), pair(a, b)),
                      (s_id(g, a), s_id(g, b)))


def test_check_pair_intro():
    assert check(pair_intro_proof(), EMPTYS)


def test_check_rejects_swapped_premises():
    g = {a, b}
    bad = Derivation("S", "p_R", Sequent(frozenset(g), pair(a, b)),
                     (s_id(g, b), s_id(g, a)))
    err = find_error(bad, EMPTYS)
    assert err is not None and "premise goals" in err


def test_check_rejects_unknown_rule_and_bad_arity():
    g = frozenset({a})
    assert find_error(Derivation("S", "nosuch", Sequent(g, a)), EMPTYS)
    assert find_error(Derivation("X", "id", Sequent(g, a)), EMPTYS)
    assert find_error(Derivation("S", "p_R", Sequent(g, pair(a, a)),
                                 (s_id(g, a),)), EMPTYS)


def test_check_rejects_unnormalized_sequents():
    g = frozenset({plus(a, a)})
    err = find_error(s_id(g, plus(a, a), "xor"), XORS)
    assert err is not None and "normal form" in err


def test_check_rejects_nonreplaying_witness():
    g = frozenset({a, b})
    lying = Derivation("S", "id", Sequent(g, b), (),
                       {"witness": ElemWitness("empty", "empty", (a,)),
                        "theory": "empty"})
    err = find_error(lying, EMPTYS)
    assert err is not None and "replay" in err
    outside = Derivation("S", "id", Sequent(g, c), (),
                         {"witness": ElemWitness("empty", "empty", (c,)),
                          "theory": "empty"})
    assert find_error(outside, EMPTYS) is not None


# each N elimination over one Gamma: (rule, major premise goal, minor
# premise goal or None, goal)
N_ELIMINATIONS = [
    ("p_E", pair(a, b), None, a),
    ("p_E", pair(a, b), None, b),
    ("e_E", enc(a, k), k, a),
    ("sign_E", sign(a, k), pub(k), a),
    ("blind_E1", blind(a, r), r, a),
    ("blind_E2", sign(blind(a, r), k), r, sign(a, k)),
]


@pytest.mark.parametrize("rule,major,minor,goal", N_ELIMINATIONS)
def test_check_n_eliminations(rule, major, minor, goal):
    g = frozenset({major, c} | ({minor} if minor is not None else set()))
    premises = (n_id(g, major),) + ((n_id(g, minor),) if minor is not None else ())

    def elim(goal, premises):
        return Derivation("N", rule, Sequent(g, goal), premises)

    assert find_error(elim(goal, premises), EMPTYS) is None
    broken = [elim(c, premises),                        # not what the rule takes out
              elim(goal, (n_id(g, c),) + premises[1:]),  # the major premise's shape
              elim(goal, premises + (n_id(g, c),)),      # one premise too many
              elim(goal, ())]
    if minor is not None:
        broken += [elim(minor, premises),                    # the side term is no payload
                   elim(goal, (premises[0], n_id(g, c))),  # the wrong minor premise
                   elim(goal, premises[:1])]
    for d in broken:
        assert find_error(d, EMPTYS) is not None, [p.conclusion.goal for p in d.premises]


def test_check_l_side_conditions():
    g = frozenset({enc(a, k)})
    prem = Derivation("L", "r", Sequent(g | {a, k}, a))
    bad = Derivation("L", "le", Sequent(g, a), (prem,),
                     {"principal": enc(a, k)})
    err = find_error(bad, EMPTYS)
    assert err is not None and "right-deducible" in err


SIDE_CONDITION_CASES = {
    "le": ({enc(a, k), k}, a, EMPTYS),
    "blind1": ({blind(m, r), r}, m, EMPTYS),
    "blind2": ({sign(blind(m, r), k), r, pub(k)}, m, EMPTYS),
    "ls": ({a, b}, plus(pair(a, b), a), ACS),
    "r": ({a, b}, pair(a, b), EMPTYS),
}


def _engine_node(rule):
    """An engine proof for the rule's case, and its first node of that rule."""
    gamma, goal, ths = SIDE_CONDITION_CASES[rule]
    d = deduce(gamma, goal, ths)
    node = d
    while node.rule != rule:
        node = node.premises[0]
    assert find_error(d, ths) is None
    return d, node, ths


@pytest.mark.parametrize("rule", sorted(SIDE_CONDITION_CASES))
def test_check_l_requires_the_embedded_right_proof(rule):
    d, node, ths = _engine_node(rule)
    del node.aux["right"]
    err = find_error(d, ths)
    assert err is not None and "right-deducible" in err, err
    with pytest.raises(ValueError):
        linear_to_seq(d)


@pytest.mark.parametrize("rule", sorted(SIDE_CONDITION_CASES))
def test_check_l_rejects_a_right_proof_of_another_sequent(rule):
    d, node, ths = _engine_node(rule)
    g = node.conclusion.gamma
    side_goal = node.aux["right"].conclusion.goal
    other = next(t for t in sorted(g, key=lambda u: u.key) if t is not side_goal)
    node.aux["right"] = s_id(g, other, ths[0].name)
    assert check(node.aux["right"], ths)
    err = find_error(d, ths)
    assert err is not None and "wrong sequent" in err, err


def _smuggled(via):
    """An L proof over enc(a,k), pair(k,b) whose side condition, not
    right-deducible there, is proved by a valid S proof that uses left rules:
    the le key k by p_L or by a cut, or the r goal pair(b,k) by a p_R whose
    premises use p_L."""
    g = frozenset({enc(a, k), pair(k, b)})

    def p_l(goal):
        return Derivation("S", "p_L", Sequent(g, goal), (s_id(g | {k, b}, goal),),
                          {"principal": pair(k, b)})

    if via == "p_R":
        side = Derivation("S", "p_R", Sequent(g, pair(b, k)), (p_l(b), p_l(k)))
        return side, Derivation("L", "r", side.conclusion, (), {"right": side})
    side = p_l(k)
    if via == "cut":
        side = Derivation("S", "cut", Sequent(g, k), (s_id(g, pair(k, b)), side))
    leaf = Derivation("L", "r", Sequent(g | {a, k}, a), (), {"right": s_id(g | {a, k}, a)})
    return side, Derivation("L", "le", Sequent(g, a), (leaf,),
                            {"principal": enc(a, k), "right": side})


@pytest.mark.parametrize("via,found", [("p_L", "p_L"), ("cut", "cut"), ("p_R", "p_L")])
def test_check_l_rejects_a_right_proof_with_left_rules_or_cut(via, found):
    side, d = _smuggled(via)
    assert check(side, EMPTYS)  # a valid S proof, but not a right proof
    err = find_error(d, EMPTYS)
    assert err is not None and f"only S id and right rules, found S {found}" in err, err


def test_proofs_module_does_not_import_the_engine():
    with open(proofs.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not [n for n in imported if n.split(".")[-1] == "engine"], imported


def test_check_engine_output_on_random_instances():
    rng = random.Random(50)
    names = [a, b, c, k]
    for _ in range(100):
        gamma, goal = gen_instance(rng, names, (), st_cap=15)
        d = deduce(gamma, goal, EMPTYS)
        if d is not None:
            assert check(d, EMPTYS)


def test_nd_to_seq_id_leaf():
    out = nd_to_seq(n_id({a}, a), EMPTYS)
    assert out.rule == "id" and out.system == "S"
    assert check(out, EMPTYS)


def test_nd_to_seq_enc_elimination():
    g = {enc(a, k), k}
    nd = Derivation("N", "e_E", Sequent(frozenset(g), a),
                    (n_id(g, enc(a, k)), n_id(g, k)))
    out = nd_to_seq(nd, EMPTYS)
    assert check(out, EMPTYS)
    assert out.conclusion == Sequent(frozenset(g), a)
    rules = {d.rule for d in _nodes(out)}
    assert "cut" in rules and "e_L" in rules
    assert not is_normal_derivation(out)  # cuts are not normal


def test_nd_to_seq_xor_fold():
    g = {a, b}
    goal = plus(a, b)
    nd = Derivation("N", "f_I", Sequent(frozenset(g), goal),
                    (n_id(g, a), n_id(g, b)))
    out = nd_to_seq(nd, XORS)
    assert check(out, XORS)
    cuts = [d for d in _nodes(out) if d.rule == "cut"]
    assert len(cuts) == 2
    leaves = [d for d in _nodes(out) if d.rule == "id" and d.aux["witness"].kind == "xor"]
    assert len(leaves) == 1
    assert holes(leaves[0].aux["witness"]) == 2  # the context hole + hole
    assert set(leaves[0].aux["witness"].entries) == {a, b}


def test_seq_to_nd_ac_context():
    g = frozenset({pair(a, b), a})
    goal = plus(pair(a, b), a)
    w = ElemWitness("ac", "ac", ((a, 1), (pair(a, b), 1)))
    d = Derivation("S", "id", Sequent(g, goal), (), {"witness": w, "theory": "ac"})
    out = seq_to_nd(d, ACS)
    assert check(out, ACS)
    assert out.conclusion == Sequent(g, goal)
    # the two-hole context becomes one fold over two hypothesis leaves
    assert out.rule == "f_I"
    assert [p.rule for p in out.premises] == ["id", "id"]
    assert {p.conclusion.goal for p in out.premises} == {a, pair(a, b)}


def test_seq_to_nd_normalizing_context_needs_approx():
    g = frozenset({plus(a, b), b})
    d = Derivation("S", "id", Sequent(g, a), (),
                   {"witness": ElemWitness("xor", "xor", (plus(a, b), b)),
                    "theory": "xor"})
    out = seq_to_nd(d, XORS)
    assert check(out, XORS)
    assert out.rule == "approx"  # fold concludes a+b+b, approx steps to a
    assert out.premises[0].rule == "f_I"


def test_seq_to_nd_pair_left():
    g = frozenset({pair(a, b)})
    d = Derivation("S", "p_L", Sequent(g, a),
                   (s_id(g | {a, b}, a),), {"principal": pair(a, b)})
    out = seq_to_nd(d, EMPTYS)
    assert check(out, EMPTYS)
    assert out.rule == "p_E"
    assert out.premises[0].rule == "id"
    assert out.premises[0].conclusion.goal is pair(a, b)


ROUND_TRIP_CASES = [
    ({enc(a, k), k}, a, EMPTYS),
    ({pair(a, b)}, b, EMPTYS),
    ({sign(blind(m, r), k), r, pub(k)}, m, EMPTYS),
    ({a, b}, plus(pair(a, b), a), ACS),
    ({plus(a, b), b}, enc(a, b), XORS),
    ({blind(m, r), r}, m, EMPTYS),
    ({sign(a, k), pub(k)}, a, EMPTYS),
    ({sign(blind(m, r), k), r}, sign(m, k), EMPTYS),
]


@pytest.mark.parametrize("gamma,goal,ths", ROUND_TRIP_CASES)
def test_round_trip_named_cases(gamma, goal, ths):
    d = deduce(gamma, goal, ths)
    assert d is not None
    s = linear_to_seq(d)
    assert check(s, ths)
    assert is_normal_derivation(s)
    nd = seq_to_nd(s, ths)
    assert check(nd, ths)
    assert nd.conclusion == s.conclusion
    back = nd_to_seq(nd, ths)
    assert check(back, ths)
    assert back.conclusion == s.conclusion


def test_round_trip_cases_use_every_left_rule():
    used = set()
    for gamma, goal, ths in ROUND_TRIP_CASES:
        d = deduce(gamma, goal, ths)
        s = linear_to_seq(d)
        for proof in (d, s, seq_to_nd(s, ths)):
            used |= {node.rule for node in _nodes(proof)}
    for row in proofs.LEFT_RULES:
        assert used >= {rule for rule in row[1:] if rule is not None}, row


def test_round_trip_random():
    rng = random.Random(51)
    names = [a, b, c, k]
    done = 0
    for _ in range(120):
        gamma, goal = gen_instance(rng, names, (), st_cap=15)
        d = deduce(gamma, goal, EMPTYS)
        if d is None:
            continue
        s = linear_to_seq(d)
        nd = seq_to_nd(s, EMPTYS)
        assert check(nd, EMPTYS)
        back = nd_to_seq(nd, EMPTYS)
        assert check(back, EMPTYS)
        assert back.conclusion == s.conclusion
        done += 1
    assert done >= 25


def test_weaken_by_nothing_is_identity():
    d = pair_intro_proof()
    assert weaken(d, set()) is d


def test_weaken_enlarges_every_sequent():
    d = pair_intro_proof()
    w = weaken(d, {c})
    assert check(w, EMPTYS)
    assert w.conclusion.gamma == frozenset({a, b, c})
    assert all(c in s.gamma for s in sequents_of(w))
    assert height(w) == height(d)
    assert [p.rule for p in w.premises] == [p.rule for p in d.premises]


def test_weaken_preserves_height_on_random_proofs():
    rng = random.Random(52)
    names = [a, b, k]
    done = 0
    for _ in range(60):
        gamma, goal = gen_instance(rng, names, (), st_cap=12)
        d = deduce(gamma, goal, EMPTYS)
        if d is None:
            continue
        s = linear_to_seq(d)
        extra = {name("w"), pair(name("w"), a)}
        w = weaken(s, extra)
        assert height(w) == height(s)
        assert check(w, EMPTYS)
        done += 1
    assert done >= 15


def test_left_rule_count():
    g = frozenset({pair(a, b)})
    d = Derivation("S", "p_L", Sequent(g, a),
                   (s_id(g | {a, b}, a),), {"principal": pair(a, b)})
    assert left_rule_count(d) == 1
    assert left_rule_count(pair_intro_proof()) == 0


def test_json_schema_fields():
    d = deduce({a, b}, plus(pair(a, b), a), ACS)
    obj = to_json(d)
    assert list(obj) == ["system", "version", "terms", "contexts", "nodes", "root"]
    assert obj["system"] == "L" and obj["version"] == 2
    terms = obj["terms"]
    assert len(set(terms)) == len(terms)
    for ctx in obj["contexts"]:
        assert list(ctx) == ["parent", "add"]
    for node in obj["nodes"]:
        assert list(node) == ["system", "rule", "context", "goal", "aux", "premises"]
    root = obj["nodes"][obj["root"]]
    assert obj["root"] == len(obj["nodes"]) - 1
    assert root["system"] == "L" and root["rule"] == "ls"
    ctx = obj["contexts"][root["context"]]
    assert ctx["parent"] is None and [terms[i] for i in ctx["add"]] == ["a", "b"]
    assert terms[root["goal"]] == "a+pair(a,b)"
    assert terms[root["aux"]["principal"]] == "pair(a,b)"
    (prem,) = root["premises"]
    below = obj["contexts"][obj["nodes"][prem]["context"]]
    assert below["parent"] == root["context"]
    assert [terms[i] for i in below["add"]] == ["pair(a,b)"]
    assert obj["nodes"][root["aux"]["right"]]["rule"] == "p_R"


def test_json_round_trip():
    for gamma, goal, ths in ROUND_TRIP_CASES:
        d = deduce(gamma, goal, ths)
        for form in (d, linear_to_seq(d), seq_to_nd(linear_to_seq(d), ths)):
            back = loads(dumps(form))
            assert back.conclusion == form.conclusion
            assert [n.rule for n in _nodes(back)] == [n.rule for n in _nodes(form)]
            th_names = tuple(t.name for t in ths)
            assert find_error(back, make_theories(th_names)) is None


# linear_to_seq(deduce({a, b}, a+pair(a,b))) under ac, as an older writer
# wrote it: a theory name beside each witness and on the left rule, and the
# acut's term under "abstracted"
OLDER_V2_ACUT_PROOF = """{
  "system": "S",
  "version": 2,
  "terms": ["a", "b", "pair(a,b)", "a+pair(a,b)"],
  "contexts": [{"parent": null, "add": [0, 1]}, {"parent": 0, "add": [2]}],
  "nodes": [
    {"system": "S", "rule": "id", "context": 0, "goal": 0, "aux": {"witness":
      {"theory": "ac", "kind": "ac", "entries": [[0, 1]]}, "theory": "ac"}, "premises": []},
    {"system": "S", "rule": "id", "context": 0, "goal": 1, "aux": {"witness":
      {"theory": "ac", "kind": "ac", "entries": [[1, 1]]}, "theory": "ac"}, "premises": []},
    {"system": "S", "rule": "p_R", "context": 0, "goal": 2, "aux": {}, "premises": [0, 1]},
    {"system": "S", "rule": "id", "context": 1, "goal": 3, "aux": {"witness":
      {"theory": "ac", "kind": "ac", "entries": [[0, 1], [2, 1]]}, "theory": "ac"},
     "premises": []},
    {"system": "S", "rule": "acut", "context": 0, "goal": 3,
     "aux": {"abstracted": 2, "theory": "ac"}, "premises": [2, 3]}
  ],
  "root": 4
}"""


def test_an_older_version_2_proof_still_loads_and_checks():
    d = loads(OLDER_V2_ACUT_PROOF)
    assert d.rule == "acut" and d.aux["principal"] is pair(a, b)
    assert find_error(d, ACS) is None
    assert render_text(d).startswith("acut: a, b |- a+pair(a,b)  [pair(a,b)]\n")
    assert find_error(seq_to_nd(d, ACS), ACS) is None
    # written again, the acut's term is its principal, as on every left rule
    assert to_json(d)["nodes"][-1]["aux"] == {"principal": 2, "theory": "ac"}


# deduce({c*pair(a,b), c, d+e, e}, pair(a,d)) under xor on + and ag on *, as
# an older writer wrote it: the theory on * is cited as "ag", by the witness
# and on the ls step
OLDER_V2_XOR_AG_PROOF = """{
  "system": "L",
  "version": 2,
  "terms": ["c", "e", "c*pair(a,b)", "d+e", "pair(a,b)", "a", "b", "d", "pair(a,d)"],
  "contexts": [{"parent": null, "add": [0, 1, 2, 3]}, {"parent": 0, "add": [4]},
               {"parent": 1, "add": [5, 6]}],
  "nodes": [
    {"system": "S", "rule": "id", "context": 2, "goal": 5, "aux": {"witness":
      {"theory": "xor", "kind": "xor", "entries": [5]}, "theory": "xor"}, "premises": []},
    {"system": "S", "rule": "id", "context": 2, "goal": 7, "aux": {"witness":
      {"theory": "xor", "kind": "xor", "entries": [1, 3]}, "theory": "xor"}, "premises": []},
    {"system": "S", "rule": "p_R", "context": 2, "goal": 8, "aux": {}, "premises": [0, 1]},
    {"system": "L", "rule": "r", "context": 2, "goal": 8, "aux": {"right": 2}, "premises": []},
    {"system": "L", "rule": "lp", "context": 1, "goal": 8, "aux": {"principal": 4},
     "premises": [3]},
    {"system": "S", "rule": "id", "context": 0, "goal": 4, "aux": {"witness":
      {"theory": "ag", "kind": "ag", "entries": [[0, -1], [2, 1]]}, "theory": "ag"},
     "premises": []},
    {"system": "L", "rule": "ls", "context": 0, "goal": 8,
     "aux": {"principal": 4, "theory": "ag", "right": 5}, "premises": [4]}
  ],
  "root": 6
}"""


def test_an_older_combined_theory_proof_still_checks():
    ths = make_theories(("xor", "ag"))
    assert [th.name for th in ths] == ["xor", "ag"]
    d = loads(OLDER_V2_XOR_AG_PROOF)
    assert find_error(d, ths) is None
    s = linear_to_seq(d)
    assert find_error(s, ths) is None
    assert find_error(seq_to_nd(s, ths), ths) is None


@pytest.mark.parametrize("names,seed", [(("empty",), 71), (("xor",), 72), (("ag",), 73),
                                        (("ac",), 74), (("xor", "ag"), 75),
                                        (("ac", "ac"), 76)])
def test_every_aux_key_written_is_one_the_checker_reads(names, seed):
    ths = make_theories(names)
    rng = random.Random(seed)
    proved = 0
    for _ in range(40):
        gamma, goal = gen_instance(rng, [a, b, c, k], ths, st_cap=15)
        d = deduce(gamma, goal, ths)
        if d is None:
            continue
        proved += 1
        s = linear_to_seq(d)
        nd = seq_to_nd(s, ths)
        for form in (d, s, nd, nd_to_seq(nd, ths)):
            for node in _nodes_once(form):
                assert node.aux.keys() <= {"principal", "witness", "right"}, node.aux
    assert proved >= 5, proved


def _proof_forms(theory_name, seed):
    """L, S and N proofs of the first three derivable random instances."""
    ths = make_theories((theory_name,))
    rng = random.Random(seed)
    names = [a, b, c, k]
    forms = []
    while len(forms) < 9:
        gamma, goal = gen_instance(rng, names, ths, st_cap=15)
        d = deduce(gamma, goal, ths)
        if d is not None:
            s = linear_to_seq(d)
            forms += [d, s, seq_to_nd(s, ths)]
    return forms


@pytest.mark.parametrize("theory_name,seed",
                         [("empty", 61), ("xor", 62), ("ag", 63), ("ac", 64)])
def test_dumps_writes_what_json_dumps_writes(theory_name, seed):
    # the text holds the object the reference writer gives, one table entry per line
    for d in _proof_forms(theory_name, seed):
        text = dumps(d)
        obj = reference_to_json(d)
        assert json.loads(text) == obj
        lines = text.splitlines()
        assert lines[1] == f'  "system": "{d.system}",'
        assert len(lines) == 11 + sum(len(obj[k]) for k in ("terms", "contexts", "nodes"))
        back = loads(text)
        assert back.conclusion == d.conclusion
        assert dumps(back) == text


def test_dumps_writes_unknown_aux_values_as_json_does():
    extra = {"note": 'caf\u00e9 "quoted" back\\slash', "weight": 0.25,
             "flags": [True, None, False], "count": -3,
             "nested": {"empty_list": [], "empty_object": {},
                        "mixed": [1, "x", [2.5, {}], {"k": []}]}}
    d = Derivation("S", "id", Sequent(frozenset({a, b}), a), (),
                   {"witness": ElemWitness("empty", "empty", (a,)), "theory": "empty", **extra})
    text = dumps(d)
    assert json.loads(text) == reference_to_json(d)
    assert json.loads(text)["nodes"][0]["aux"]["nested"] == extra["nested"]
    back = loads(text)
    assert back.aux["witness"] == d.aux["witness"]
    assert {key: back.aux[key] for key in extra} == extra
    assert dumps(back) == text


def test_dumps_is_byte_identical_to_a_json_reference():
    n = 12
    rs = [name(f"r{n - j:02d}") for j in range(n + 1)]
    sks = [name(f"s{n - j:02d}") for j in range(n)]
    gamma = {rs[0]} | {pub(s) for s in sks}
    gamma |= {sign(blind(rs[j + 1], rs[j]), sks[j]) for j in range(n)}
    blind_l = deduce(gamma, rs[n], EMPTYS)
    ags = make_theories(("ag",))
    ag_l = deduce({plus(a, b), b, enc(c, plus(a, eapp("inv", (b,))))}, c, ags)
    odd = Derivation("S", "id", Sequent(frozenset({a}), a), (),
                     {"witness": ElemWitness("empty", "empty", (a,)), "theory": "empty",
                      "note": 'caf\u00e9 "q" \\ \n', "weight": 0.5, "flags": [True, None],
                      "nested": {"k": [1, "x", {}], "": -2}})
    older = [loads(OLDER_V2_ACUT_PROOF), loads(OLDER_V2_XOR_AG_PROOF)]
    # a node whose aux term and goal are both outside Gamma: the aux term is
    # numbered first
    loose = Derivation("L", "lp", Sequent(frozenset({a}), c), (), {"principal": pair(a, b)})
    for d in (_doubling_nd_proof(12), blind_l, linear_to_seq(blind_l), ag_l, odd, *older, loose):
        assert dumps(d) == reference_dumps(d)
    assert '"entries": [[' in dumps(ag_l) and "-2]" in dumps(ag_l)


@pytest.mark.parametrize("seed", [1, 9001])
def test_dumps_and_from_json_match_the_references_on_the_pipeline_templates(seed):
    # L, its S reading, N, and N back in S: the texts the benchmark's proof
    # pipeline reads and writes
    for t in _workloads().proof_sources(seed):
        names, knows, goal = read_problem(t.text)
        ths = make_theories(tuple(names))
        lin = deduce(knows, goal, ths)
        seq = linear_to_seq(lin)
        nd = seq_to_nd(seq, ths)
        for d in (lin, seq, nd, nd_to_seq(nd, ths)):
            text = dumps(d)
            assert text == reference_dumps(d), (t.label, d.system)
            obj = json.loads(text)
            assert dumps(from_json(obj)) == text
            assert dumps(reference_from_json(obj)) == text


def _paths(v, at=()):
    """The path of every value inside a JSON object, containers included."""
    if isinstance(v, dict):
        for key, x in v.items():
            yield at + (key,)
            yield from _paths(x, at + (key,))
    elif isinstance(v, list):
        for i, x in enumerate(v):
            yield at + (i,)
            yield from _paths(x, at + (i,))


def _read_outcome(reader, obj):
    try:
        return "read", dumps(reader(obj))
    except Exception as e:  # the message and its type must agree
        return type(e).__name__, str(e)


BAD_JSON_VALUES = (None, True, False, 1.0, 10**6, "x", "pair(a", [], [0], [[0, 1]], {}, {"k": 0})
_DELETE = object()


def test_from_json_reads_and_rejects_what_the_reference_reader_does():
    # every value of three proofs deleted, or replaced by a value of another
    # JSON type, or by every integer from -1 to one past the longest table:
    # the same proof read, or the same message
    ths = make_theories(("xor",))
    nd = seq_to_nd(linear_to_seq(deduce({plus(a, b), b, c, enc(k, pair(a, c))},
                                        pair(k, b), ths)), ths)
    blobs = [json.loads(OLDER_V2_ACUT_PROOF), json.loads(OLDER_V2_XOR_AG_PROOF),
             json.loads(dumps(nd))]
    cases = 0
    for blob in blobs:
        assert _read_outcome(from_json, blob)[0] == "read"
        longest = max(len(blob[table]) for table in ("terms", "contexts", "nodes"))
        for path in _paths(blob):
            for bad in (_DELETE, *BAD_JSON_VALUES, *range(-1, longest + 2)):
                obj = json.loads(json.dumps(blob))
                holder = obj
                for step in path[:-1]:
                    holder = holder[step]
                if bad is _DELETE:
                    del holder[path[-1]]
                else:
                    holder[path[-1]] = bad
                want = _read_outcome(reference_from_json, obj)
                assert _read_outcome(from_json, obj) == want, (path, bad)
                cases += want[0] != "read"
    assert cases > 5000, cases


def test_loads_parses_each_distinct_term_string_once(monkeypatch):
    # a 12-link blind-signature chain whose labels descend in term order
    n = 12
    rs = [name(f"r{n - j:02d}") for j in range(n + 1)]
    sks = [name(f"s{n - j:02d}") for j in range(n)]
    gamma = {rs[0]} | {pub(s) for s in sks}
    gamma |= {sign(blind(rs[j + 1], rs[j]), sks[j]) for j in range(n)}
    text = dumps(deduce(gamma, rs[n], EMPTYS))
    obj = json.loads(text)
    strings = obj["terms"]
    calls = []
    real = proofs.parse_term

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(proofs, "parse_term", counting)
    d = loads(text)
    assert find_error(d, EMPTYS) is None
    assert len(set(strings)) == len(strings)
    assert sorted(calls) == sorted(strings)
    # every node refers to a term by index, and a context by one shared set
    nodes = _nodes(d)
    assert len(nodes) > len(obj["contexts"])
    assert len({id(x.conclusion.gamma) for x in nodes}) == len(obj["contexts"])


def test_loads_rejects_malformed_input():
    with pytest.raises(ValueError):
        loads("{not json")
    with pytest.raises(ValueError):
        loads("[1, 2]")
    with pytest.raises(ValueError):
        loads('{"system": "S"}')
    with pytest.raises(ValueError):
        loads('{"system": "S", "rule": "id", "gamma": ["???"], "goal": "a"}')
    with pytest.raises(ValueError, match="nested too deep"):
        loads("[" * 100000)
    with pytest.raises(ValueError, match="term 0 does not parse"):
        loads('{"system": "S", "version": 2, "terms": ["???"], "contexts": [],'
              ' "nodes": [], "root": 0}')


def test_linear_to_seq_rejects_wrong_system():
    with pytest.raises(ValueError):
        linear_to_seq(pair_intro_proof())


def test_render_text_mentions_rules_and_principals():
    d = deduce({enc(a, k), k}, a, EMPTYS)
    text = render_text(d)
    assert "le" in text and "enc(a,k)" in text and "|-" in text


def _nodes(d):
    """Every node below d, once per path that reaches it."""
    out, stack = [], [d]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(_children_of(node))
    return out


def _shared_nd_proof():
    """An N proof whose ag fold repeats one leaf object, and whose regrafts
    put one payload proof under several leaves."""
    ths = make_theories(("ag",))
    gamma = {enc(pair(a, b), k), k, eapp("inv", (c,))}
    goal = plus(a, a, eapp("inv", (c,)))
    s = linear_to_seq(deduce(gamma, goal, ths))
    return seq_to_nd(s, ths), ths


def test_writer_and_reader_keep_shared_nodes_shared():
    nd, ths = _shared_nd_proof()
    distinct = {id(x) for x in _nodes(nd)}
    assert len(distinct) < len(_nodes(nd))  # the proof shares subtrees
    obj = to_json(nd)
    assert len(obj["nodes"]) == len(distinct)
    back = loads(dumps(nd))
    assert len({id(x) for x in _nodes(back)}) == len(distinct)
    assert find_error(back, ths) is None


def test_find_error_checks_each_shared_node_once(monkeypatch):
    nd, ths = _shared_nd_proof()
    seen = []
    real = proofs._check_n

    def counting(d, theories):
        seen.append(id(d))
        return real(d, theories)

    monkeypatch.setattr(proofs, "_check_n", counting)
    assert find_error(nd, ths) is None
    assert sorted(seen) == sorted({id(x) for x in _nodes(nd)})


def _enc_chain(n):
    ks = [name(f"k{i:04d}") for i in range(n + 1)]
    return [ks[0]] + [enc(ks[j + 1], ks[j]) for j in range(n)], ks[n]


def test_find_error_normalizes_the_root_context_and_added_terms_only(monkeypatch):
    gamma, goal = _enc_chain(60)
    d = deduce(gamma, goal, EMPTYS)
    looked_at = []
    real = proofs._Checker.normal

    def counting(self, terms, what):
        terms = tuple(terms)
        looked_at.extend(terms)
        return real(self, terms, what)

    monkeypatch.setattr(proofs._Checker, "normal", counting)
    assert find_error(d, EMPTYS) is None
    nodes = len({id(x) for x in _nodes(d)})
    # the root's Gamma, every goal, and the payload and key each le adds
    assert len(looked_at) == len(gamma) + nodes + 2 * 60


def test_find_error_rejects_root_and_added_terms_out_of_normal_form():
    err = find_error(s_id({plus(a, a), a}, a, "xor"), XORS)
    assert err is not None and "Gamma member a+a is not in normal form" in err, err
    g = frozenset({a})
    left = s_id(g, plus(a, a), "xor")
    right = s_id(g | {plus(a, a)}, a, "xor")
    cut = Derivation("S", "cut", Sequent(g, a), (left, right))
    err = find_error(cut, XORS)
    assert err is not None and err.startswith("root: ") and "normal form" in err, err


def test_find_error_rejects_a_proof_that_is_its_own_premise():
    g = frozenset({pair(a, b), a, b})
    d = Derivation("L", "lp", Sequent(g, a), (), {"principal": pair(a, b)})
    d.premises = (d,)
    err = find_error(d, EMPTYS)
    assert err is not None and "cycle" in err, err
    with pytest.raises(ValueError):
        dumps(d)


def _premise_concluding(d, i, conclusion):
    """d with premise i's conclusion replaced; the proof d is left as it is."""
    p = d.premises[i]
    changed = Derivation(p.system, p.rule, conclusion, p.premises, p.aux)
    premises = d.premises[:i] + (changed,) + d.premises[i + 1:]
    return Derivation(d.system, d.rule, d.conclusion, premises, d.aux)


def test_find_error_rejects_a_premise_gamma_that_is_not_gamma_plus_the_added_terms():
    gamma, goal = _enc_chain(3)
    d = deduce(gamma, goal, EMPTYS)
    assert d.rule == "le" and find_error(d, EMPTYS) is None
    g, pg = d.conclusion.gamma, d.premises[0].conclusion.gamma
    member, new = enc(name("k0003"), name("k0002")), name("k0001")
    assert member in g and new in pg - g
    stray = name("stray")
    for bad in (pg - {member},            # lacks a member of Gamma
                pg - {new},               # lacks an added term
                pg | {stray},             # has an extra member
                (pg - {member}) | {stray},  # the right size, a member swapped
                (pg - {new}) | {stray}):
        err = find_error(_premise_concluding(d, 0, Sequent(bad, goal)), EMPTYS)
        assert err == "root: premise 0 of le must add k0001, k0000 to Gamma", err
    err = find_error(_premise_concluding(d, 0, Sequent(pg, stray)), EMPTYS)
    assert err == "root: left rules keep the goal", err
    s = linear_to_seq(d)
    assert s.rule == "e_L" and find_error(s, EMPTYS) is None
    err = find_error(_premise_concluding(s, 1, Sequent(pg, stray)), EMPTYS)
    assert err == "root: premise 1 of e_L must add k0001, k0000 to Gamma", err
    # an id leaf whose witness cites a term outside its Gamma
    side = d.aux["right"]
    cites = Derivation("S", "id", side.conclusion, (),
                       {"witness": ElemWitness("empty", "empty", (stray,)), "theory": "empty"})
    err = find_error(Derivation(d.system, d.rule, d.conclusion, d.premises,
                                {**d.aux, "right": cites}), EMPTYS)
    assert err == "root.right: witness does not replay: witness cites stray outside Gamma", err


def test_deep_chain_is_checked_and_serialized_without_recursion():
    gamma, goal = _enc_chain(2000)
    d = deduce(gamma, goal, EMPTYS)
    assert find_error(d, EMPTYS) is None
    text = dumps(d)
    back = loads(text)
    assert find_error(back, EMPTYS) is None
    assert dumps(back) == text
    assert render_text(d).count("\n") + 1 == len(_nodes(d))


def test_render_text_shows_the_terms_a_premise_adds():
    d = deduce({enc(a, k), k}, a, EMPTYS)
    assert render_text(d).splitlines() == [
        "le: k, enc(a,k) |- a  [enc(a,k)]",
        "  id: ... |- k",
        "  r: ..., a |- a",
        "    id: ... |- a",
    ]


def _doubling_nd_proof(n):
    """An N proof of x_n whose step i uses the proof of x_(i-1) twice (pair
    it with itself, then take it apart): 2^n paths through 4n+1 nodes."""
    xs = [name(f"x{i}") for i in range(n + 1)]
    g = frozenset([xs[0]] + [enc(xs[i], xs[i - 1]) for i in range(1, n + 1)])
    d = n_id(g, xs[0])
    for i in range(1, n + 1):
        both = Derivation("N", "p_I", Sequent(g, pair(xs[i - 1], xs[i - 1])), (d, d))
        back = Derivation("N", "p_E", Sequent(g, xs[i - 1]), (both,))
        d = Derivation("N", "e_E", Sequent(g, xs[i]), (n_id(g, enc(xs[i], xs[i - 1])), back))
    return d


def test_translations_take_shared_subtrees_once():
    nd = _doubling_nd_proof(40)
    assert find_error(nd, EMPTYS) is None
    seq = nd_to_seq(nd, EMPTYS)
    assert find_error(seq, EMPTYS) is None
    back = seq_to_nd(seq, EMPTYS)
    assert find_error(back, EMPTYS) is None
    assert seq.conclusion == back.conclusion == nd.conclusion
    assert weaken(seq, {c}).conclusion.gamma == nd.conclusion.gamma | {c}
    for d in (nd, seq, back):
        distinct = len({id(x) for x in _nodes_once(d)})
        assert distinct < 40 * 40
        assert len(to_json(d)["nodes"]) == distinct
        assert render_text(d).count("\n") < 2 * distinct


def test_render_text_prints_a_shared_subtree_once():
    nd = _doubling_nd_proof(1)
    assert render_text(nd).splitlines() == [
        "e_E: x0, enc(x1,x0) |- x1",
        "  id: ... |- enc(x1,x0)",
        "  p_E: ... |- x0",
        "    p_I: ... |- pair(x0,x0)",
        "      id: ... |- x0",
        "      id: as on line 5",
    ]


def _nodes_once(d):
    """Every distinct node below d."""
    seen, stack = {}, [d]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(_children_of(node))
    return list(seen.values())


def _children_of(node):
    emb = node.aux.get("right")
    return [*node.premises, *([emb] if isinstance(emb, Derivation) else [])]


def _assert_translations_match_the_reference(s, ths):
    """seq_to_nd and nd_to_seq write what the recursive reference
    translations write: on s, on its N translation, and on the S proof with
    cuts that the N proof translates back to."""
    nd = seq_to_nd(s, ths)
    assert dumps(nd) == dumps(reference_seq_to_nd(s, ths))
    back = nd_to_seq(nd, ths)
    assert dumps(back) == dumps(reference_nd_to_seq(nd, ths))
    assert dumps(seq_to_nd(back, ths)) == dumps(reference_seq_to_nd(back, ths))


def test_translations_match_the_reference_on_random_proofs():
    for theory_name, seed in [("empty", 61), ("xor", 62), ("ag", 63), ("ac", 64)]:
        forms = _proof_forms(theory_name, seed)
        for s in forms[1::3]:
            _assert_translations_match_the_reference(s, make_theories((theory_name,)))
    for gamma, goal, ths in ROUND_TRIP_CASES:
        _assert_translations_match_the_reference(linear_to_seq(deduce(gamma, goal, ths)), ths)
    rng = random.Random(51)
    for _ in range(120):
        gamma, goal = gen_instance(rng, [a, b, c, k], (), st_cap=15)
        d = deduce(gamma, goal, EMPTYS)
        if d is not None:
            _assert_translations_match_the_reference(linear_to_seq(d), EMPTYS)
    nd, ths = _shared_nd_proof()
    assert dumps(nd_to_seq(nd, ths)) == dumps(reference_nd_to_seq(nd, ths))
    nd = _doubling_nd_proof(12)
    assert dumps(nd_to_seq(nd, EMPTYS)) == dumps(reference_nd_to_seq(nd, EMPTYS))
    _assert_translations_match_the_reference(nd_to_seq(nd, EMPTYS), EMPTYS)


def _workloads():
    """The benchmark's instance generators, bench/workloads.py."""
    name = "bench_workloads"
    if name not in sys.modules:
        path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("seed", [1, 9001])
def test_translations_match_the_reference_on_the_toy_pipeline_templates(seed):
    for t in _workloads().proof_sources(seed, toy=True):
        names, knows, goal = read_problem(t.text)
        ths = make_theories(tuple(names))
        s = linear_to_seq(loads(dumps(deduce(knows, goal, ths))))
        _assert_translations_match_the_reference(s, ths)


def _unshared(d):
    """d as a tree of nested tuples, blind to which subtrees are shared."""
    aux = tuple(sorted((key, repr(v)) for key, v in d.aux.items()))
    return (d.system, d.rule, d.conclusion, aux, tuple(_unshared(p) for p in d.premises))


def test_nd_to_seq_shares_a_premise_a_fold_cites_twice():
    # the reference weakens the proof of k into one copy per later citation;
    # both citations sit over Gamma plus k, so nd_to_seq makes one
    g = frozenset({a, pair(k, b)})
    k_proof = Derivation("N", "p_E", Sequent(g, k), (n_id(g, pair(k, b)),))
    nd = Derivation("N", "f_I", Sequent(g, plus(a, k, k, k)),
                    (n_id(g, a), k_proof, k_proof, k_proof))
    out, ref = nd_to_seq(nd, ACS), reference_nd_to_seq(nd, ACS)
    assert find_error(out, ACS) is None
    assert _unshared(out) == _unshared(ref)
    assert len(to_json(out)["nodes"]) < len(to_json(ref)["nodes"])


def test_five_hundred_link_translations_under_the_default_recursion_limit():
    gamma, goal = _enc_chain(500)
    s = linear_to_seq(deduce(gamma, goal, EMPTYS))
    nd = seq_to_nd(s, EMPTYS)
    assert find_error(nd, EMPTYS) is None
    back = nd_to_seq(nd, EMPTYS)
    assert find_error(back, EMPTYS) is None
    assert back.conclusion == s.conclusion
    assert is_normal_derivation(s) and not is_normal_derivation(back)
    assert height(back) > 500


def test_seq_to_nd_translates_a_shared_continuation_once_per_cut():
    # one continuation object under four cuts: the first two bind a to
    # different derivations (by e_L, by p_L), the last two bind nothing new
    g = frozenset({enc(a, k), k, pair(a, b)})
    by_enc = Derivation("S", "e_L", Sequent(g, a), (s_id(g, k), s_id(g | {a}, a)),
                        {"principal": enc(a, k)})
    by_pair = Derivation("S", "p_L", Sequent(g, a), (s_id(g | {a, b}, a),),
                         {"principal": pair(a, b)})
    shared = s_id(g | {a}, a)
    twice_a = Derivation("S", "p_R", Sequent(g, pair(a, a)),
                         (Derivation("S", "cut", Sequent(g, a), (by_enc, shared)),
                          Derivation("S", "cut", Sequent(g, a), (by_pair, shared))))
    again = s_id(g, k)
    twice_k = Derivation("S", "p_R", Sequent(g, pair(k, k)),
                         (Derivation("S", "cut", Sequent(g, k), (s_id(g, k), again)),
                          Derivation("S", "cut", Sequent(g, k), (s_id(g, k), again))))
    d = Derivation("S", "p_R", Sequent(g, pair(pair(a, a), pair(k, k))), (twice_a, twice_k))
    assert find_error(d, EMPTYS) is None
    nd = seq_to_nd(d, EMPTYS)
    assert find_error(nd, EMPTYS) is None
    assert [p.rule for p in nd.premises[0].premises] == ["e_E", "p_E"]
    assert dumps(nd) == dumps(reference_seq_to_nd(d, EMPTYS))


def test_is_normal_derivation_rejects_left_rules_above_right_rules():
    side, _ = _smuggled("p_R")  # a p_R whose premises end in p_L
    assert not is_normal_derivation(side)
    g = frozenset({enc(a, k), pair(k, b)})
    key_by_p_l, _ = _smuggled("p_L")  # a branching rule whose side proof ends in p_L
    d = Derivation("S", "e_L", Sequent(g, a), (key_by_p_l, s_id(g | {a, k}, a)),
                   {"principal": enc(a, k)})
    assert find_error(d, EMPTYS) is None
    assert not is_normal_derivation(d)
    assert is_normal_derivation(Derivation("S", "e_L", Sequent(g | {k}, a),
                                           (s_id(g | {k}, k), s_id(g | {a, k}, a)),
                                           {"principal": enc(a, k)}))
