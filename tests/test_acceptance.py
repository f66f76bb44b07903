"""Acceptance gate: ten pinned claims, one printed verdict line each.

Every test prints its line through capsys.disabled() so a plain pytest run
shows the verdicts; scales and tolerances are fixed here, not tuned per run.
"""
import itertools
import random
import time
from contextlib import contextmanager

from conftest import (GroundOracle, assert_structural, deduce_checked,
                      gen_instance, gen_wf_system, ground_universe, holes)
from oracles import OracleBoundExceeded, nd_closure_oracle
from test_elementary import ag_brute, gen_elem_instance, xor_brute
from intruder.constraints import (PROPER, RIGHT, Constraint, extract_solution,
                                  measure_less, solve, system, system_measure,
                                  verify_solution, well_formed)
from intruder.elementary import elem_deduce, replay
from intruder.engine import deduce
from intruder.proofs import find_error, linear_to_seq, nd_to_seq, seq_to_nd
from intruder.rewriting import ag_theory, make_theories, xor_theory
from intruder.terms import CAPP, capp, name, pair, parse_term, subterms, var


@contextmanager
def criterion(capsys, number, claim):
    info = {}
    t0 = time.monotonic()
    status = "FAIL"
    try:
        yield info
        status = "PASS"
    finally:
        dt = time.monotonic() - t0
        extra = "".join(f" {k}={v}" for k, v in sorted(info.items()))
        with capsys.disabled():
            print(f"\ncriterion {number:>2} {status} {claim} [{dt:.1f}s{extra}]")


def mentions_signature(gamma, goal):
    return any(s.kind == CAPP and s.sym in ("blind", "sign")
               for t in list(gamma) + [goal] for s in subterms(t))


def test_criterion_01(capsys):
    with criterion(capsys, 1, "AC worked example, checked proof, under 1s"):
        t0 = time.monotonic()
        ths = make_theories(("ac",))
        a, b = name("a"), name("b")
        d = deduce([a, b], parse_term("pair(a,b)+a"), ths)
        assert d is not None
        assert find_error(d, ths) is None
        assert d.rule == "ls" and d.aux["principal"] is pair(a, b)
        leaf = d.premises[0]
        assert leaf.rule == "r"
        w = leaf.aux["right"].aux["witness"]
        assert dict(w.entries) == {pair(a, b): 1, a: 1}
        assert holes(w) == 2  # the context is one hole plus another
        assert time.monotonic() - t0 < 1.0


def test_criterion_02(capsys):
    with criterion(capsys, 2, "1000-instance oracle equivalence, empty theory,"
                              " #St<=15, under 60s") as info:
        t0 = time.monotonic()
        rng = random.Random(1002)
        ths = make_theories(("empty",))
        names = [name(n) for n in "abck"]
        checked = derivable = signatures = 0
        while checked < 1000:
            gamma, goal = gen_instance(rng, names, ths, st_cap=15)
            try:
                expect = nd_closure_oracle(gamma, goal, ths)
            except OracleBoundExceeded:
                continue
            d = deduce_checked(gamma, goal, ths)
            assert (d is not None) == expect, (gamma, goal)
            checked += 1
            derivable += d is not None
            signatures += mentions_signature(gamma, goal)
        info["derivable"] = derivable
        info["with_blind_or_sign"] = signatures
        assert derivable >= 100 and checked - derivable >= 100
        assert signatures >= 50
        assert time.monotonic() - t0 < 60.0


def test_criterion_03(capsys):
    with criterion(capsys, 3, "xor backend vs 2^|Gamma| subset brute force,"
                              " 500 instances") as info:
        rng = random.Random(1003)
        th = xor_theory("+")
        atoms = [name(n) for n in "abcde"]
        derivable = 0
        for _ in range(500):
            gamma, goal = gen_elem_instance(rng, th, rng.randint(1, 8), atoms)
            assert len(gamma) <= 8
            w = elem_deduce(th, gamma, goal)
            assert (w is not None) == xor_brute(gamma, goal), (gamma, goal)
            if w is not None:
                assert replay(w, gamma, (th,)) is goal
                derivable += 1
        info["derivable"] = derivable
        assert 0 < derivable < 500


def test_criterion_04(capsys):
    with criterion(capsys, 4, "ag backend vs |c|<=4 coefficient enumeration,"
                              " 300 instances") as info:
        rng = random.Random(1004)
        th = ag_theory("+")
        atoms = [name(n) for n in "abc"]
        derivable = beyond_bound = 0
        for _ in range(300):
            gamma, goal = gen_elem_instance(rng, th, rng.randint(1, 3), atoms)
            w = elem_deduce(th, gamma, goal, theories=(th,))
            if w is not None:
                # a yes must replay to the goal even when the bounded oracle
                # cannot see the combination; the witness is the evidence
                assert replay(w, gamma, (th,)) is goal, (gamma, goal)
                derivable += 1
                if ag_brute(gamma, goal, bound=4) is None:
                    beyond_bound += 1
            else:
                assert ag_brute(gamma, goal, bound=4) is None, (gamma, goal)
        info["derivable"] = derivable
        info["beyond_bound"] = beyond_bound
        assert 0 < derivable < 300


def test_criterion_05(capsys):
    with criterion(capsys, 5, "xor(+) with ag(*) vs closure oracle,"
                              " 200 instances, #St<=10") as info:
        rng = random.Random(1005)
        ths = make_theories(("xor", "ag"))
        names = [name(n) for n in "abc"]
        checked = derivable = 0
        while checked < 200:
            gamma, goal = gen_instance(rng, names, ths, max_gamma=3, depth=2,
                                       st_cap=10)
            try:
                expect = nd_closure_oracle(gamma, goal, ths)
            except OracleBoundExceeded:
                continue
            d = deduce_checked(gamma, goal, ths)
            assert (d is not None) == expect, (gamma, goal)
            checked += 1
            derivable += d is not None
        info["derivable"] = derivable
        assert 0 < derivable < 200


def test_criterion_06(capsys):
    with criterion(capsys, 6, "structural bounds on every emitted derivation")\
            as info:
        combos = (("empty",), ("ac",), ("xor",), ("ag",), ("xor", "ag"))
        names = [name(n) for n in "abck"]
        total = 0
        for combo in combos:
            ths = make_theories(combo)
            rng = random.Random(1006)
            derivable = tries = 0
            while derivable < 40 and tries < 600:
                gamma, goal = gen_instance(rng, names, ths, max_gamma=3,
                                           depth=2, st_cap=12)
                tries += 1
                d = deduce(gamma, goal, ths)
                if d is None:
                    continue
                assert find_error(d, ths) is None
                assert_structural(d, ths)
                derivable += 1
            assert derivable >= 40, combo
            total += derivable
        info["derivations"] = total


def test_criterion_07(capsys):
    with criterion(capsys, 7, "both translations pass the checker,"
                              " 200 derivations each, end-sequent kept") as info:
        rng = random.Random(1007)
        names = [name(n) for n in "abck"]
        combos = itertools.cycle((("empty",), ("xor",), ("ac",)))
        done = 0
        while done < 200:
            ths = make_theories(next(combos))
            gamma, goal = gen_instance(rng, names, ths, max_gamma=3, depth=2,
                                       st_cap=12)
            d = deduce(gamma, goal, ths)
            if d is None:
                continue
            s = linear_to_seq(d)
            assert find_error(s, ths) is None
            nd = seq_to_nd(s, ths)
            assert find_error(nd, ths) is None
            s2 = nd_to_seq(nd, ths)
            assert find_error(s2, ths) is None
            assert s2.conclusion == s.conclusion == d.conclusion
            done += 1
        info["round_trips"] = done


# criteria 8 and 9 route every explored reduction edge through here; criterion
# 10 then asserts on the tallies
EDGES = {"count": 0, "violations": []}


def counting_edge(parent, rule, delta, child):
    EDGES["count"] += 1
    if not measure_less(system_measure(child), system_measure(parent)):
        EDGES["violations"].append((rule, "measure did not decrease"))
    problems = well_formed(child)
    if problems:
        EDGES["violations"].append((rule, "; ".join(problems)))


def test_criterion_08(capsys):
    with criterion(capsys, 8, "solver soundness on 500 random systems") as info:
        rng = random.Random(1008)
        satisfiable = verified = 0
        for _ in range(500):
            s = gen_wf_system(rng)
            sols = solve(s, on_edge=counting_edge)
            if not sols:
                continue
            satisfiable += 1
            for sol in sols:
                ground = extract_solution(sol.subst, s)
                assert verify_solution(s, ground), (s, ground)
                verified += 1
        info["satisfiable"] = satisfiable
        info["verified"] = verified
        assert satisfiable >= 100


NAMES_DESK = [name(n) for n in "abc"]
X, Y = var("x"), var("y")


def _desk_terms(vars_allowed):
    pool = NAMES_DESK + list(vars_allowed)
    out = list(pool)
    for sym in ("pair", "enc"):
        for u in pool:
            for v in pool:
                out.append(capp(sym, (u, v)))
    return out


def _decode(n, radixes):
    out = []
    for r in radixes:
        n, i = divmod(n, r)
        out.append(i)
    return out


def desk_systems(cap):
    """Deterministic sample of the whole desk-scale space, truncated at cap.

    Single- and two-constraint systems over three names, at most two
    variables, and terms of size at most three. Each stream strides through
    its full index space so the prefix spreads over kinds, knowledge sets, and
    goals instead of exhausting the lexicographically first corner.
    """
    ground = _desk_terms(())
    sigmas = [frozenset({n}) for n in NAMES_DESK] + \
             [frozenset({n, t}) for n in NAMES_DESK for t in ground if t is not n]
    goals_x = _desk_terms((X,))
    goals_xy = _desk_terms((X, Y))
    kinds = (PROPER, RIGHT)

    def singles(quota):
        radixes = (len(kinds), len(sigmas), len(goals_xy))
        space = len(kinds) * len(sigmas) * len(goals_xy)
        for n in range(0, space, max(1, space // quota)):
            k, sg, gl = _decode(n, radixes)
            yield (Constraint(kinds[k], sigmas[sg], goals_xy[gl]),)

    def doubles(quota):
        radixes = (len(kinds), len(kinds), len(sigmas), len(goals_x),
                   len(goals_x), len(goals_xy))
        space = 1
        for r in radixes:
            space *= r
        for n in range(0, space, max(1, space // quota)):
            k0, k1, sg, g0, ex, g1 = _decode(n, radixes)
            sigma0 = sigmas[sg]
            sigma1 = sigma0 | {goals_x[ex]}
            yield (Constraint(kinds[k0], sigma0, goals_x[g0]),
                   Constraint(kinds[k1], sigma1, goals_xy[g1]))

    emitted = 0
    for cs in _interleave(singles(cap), doubles(2 * cap)):
        s = system(*cs)
        if well_formed(s):
            continue
        yield s
        emitted += 1
        if emitted >= cap:
            return


def _interleave(*streams):
    live = [iter(s) for s in streams]
    while live:
        for it in list(live):
            try:
                yield next(it)
            except StopIteration:
                live.remove(it)


def test_criterion_09(capsys):
    with criterion(capsys, 9, "solver completeness vs ground enumeration,"
                              " desk scale, under 5min") as info:
        t0 = time.monotonic()
        oracle = GroundOracle()
        universe = ground_universe(NAMES_DESK)
        checked = satisfiable = 0
        for s in desk_systems(2000):
            got = bool(solve(s, on_edge=counting_edge))
            want = oracle.satisfiable(s, universe)
            assert got == want, s
            checked += 1
            satisfiable += got
        info["systems"] = checked
        info["satisfiable"] = satisfiable
        assert checked == 2000
        assert 0 < satisfiable < checked
        assert time.monotonic() - t0 < 300.0


def test_criterion_10(capsys):
    with criterion(capsys, 10, "every explored reduction edge shrinks the"
                               " measure into a well-formed system") as info:
        if EDGES["count"] == 0:
            # standalone run: generate a corpus of edges here
            rng = random.Random(1010)
            for _ in range(150):
                solve(gen_wf_system(rng), on_edge=counting_edge)
        info["edges"] = EDGES["count"]
        assert EDGES["count"] > 0
        assert not EDGES["violations"], EDGES["violations"][:3]
