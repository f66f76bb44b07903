import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest

import oracles
from conftest import holes
from intruder import elementary
from intruder.elementary import ElemWitness, elem_deduce, replay
from intruder.rewriting import (Abstraction, Theory, ac_theory, ag_theory, empty_theory,
                                normalize, xor_theory)
from intruder.terms import eapp, enc, name, pair, sign

a, b, c, d = (name(n) for n in "abcd")
zero = eapp("0", ())
one = eapp("1", ())
EMPTY = empty_theory()
AC = ac_theory()
XOR = xor_theory()
AG = ag_theory()


def plus(*ts):
    return eapp("+", ts)


def inv(t):
    return eapp("inv", (t,))


def fold(op, parts):
    parts = list(parts)
    return parts[0] if len(parts) == 1 else eapp(op, parts)


def test_empty_membership():
    g = [a, pair(a, b)]
    w = elem_deduce(EMPTY, g, pair(a, b))
    assert w == ElemWitness("empty", "empty", (pair(a, b),))
    assert replay(w, g, (EMPTY,)) is pair(a, b)
    assert elem_deduce(EMPTY, g, pair(b, a)) is None
    assert elem_deduce(EMPTY, [], a) is None


def test_xor_subset_example():
    g = [plus(a, b), plus(b, c), c]
    w = elem_deduce(XOR, g, a)
    assert w is not None and w.kind == "xor"
    assert set(w.entries) == {plus(a, b), plus(b, c), c}
    assert replay(w, g, (XOR,)) is a


def test_ac_multiplicities_example():
    g = [a, pair(a, b)]
    goal = plus(pair(a, b), a)
    w = elem_deduce(AC, g, goal, theories=(AC,))
    assert w is not None and w.kind == "ac"
    assert dict(w.entries) == {a: 1, pair(a, b): 1}
    assert holes(w) == 2
    assert replay(w, g, (AC,)) is goal
    # no equations: the pair itself is not an AC combination of {a}
    assert elem_deduce(AC, [a], pair(a, b), theories=(AC,)) is None


def test_ag_coefficient_example():
    g = [plus(a, b)]
    goal = plus(a, a, b, b)
    w = elem_deduce(AG, g, goal, theories=(AG,))
    assert w is not None and w.entries == ((plus(a, b), 2),)
    assert replay(w, g, (AG,)) is goal
    wneg = elem_deduce(AG, [plus(a, b), b], inv(a), theories=(AG,))
    assert wneg is not None
    assert replay(wneg, [plus(a, b), b], (AG,)) is inv(a)


def test_unit_goals_need_a_nonempty_gamma():
    w = elem_deduce(XOR, [plus(a, b)], zero)
    assert w is not None and w.entries == (plus(a, b), plus(a, b))
    assert replay(w, [plus(a, b)], (XOR,)) is zero
    assert elem_deduce(XOR, [], zero) is None

    w = elem_deduce(AG, [a], one, theories=(AG,))
    assert w is not None and w.entries == ((a, 1), (a, -1))
    assert replay(w, [a], (AG,)) is one
    assert elem_deduce(AG, [], one) is None


def test_backend_required():
    with pytest.raises(ValueError):
        Theory("odd", {}, None, "nosuch")


_SOLVE_INT_UNDER_O = textwrap.dedent("""
    import sys
    from oracles import solve_int

    assert sys.flags.optimize
    print(solve_int([[2, 1], [0, 3]], [7, 9]))

    class Skewed(list):
        # elimination copies rows by slicing; a wrong copy stands in for a
        # solver bug that the exactness check must catch
        def __getitem__(self, i):
            got = list.__getitem__(self, i)
            return [2 * v for v in got] if isinstance(i, slice) else got

    try:
        print(solve_int([Skewed([1])], [2]))
    except RuntimeError:
        print("RuntimeError")
""")


def test_solve_int_checks_exactness_under_optimize():
    here = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(here, "..", "src"), here,
                    os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", _SOLVE_INT_UNDER_O], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["[2, 3]", "RuntimeError"]


def test_replay_rejects_malformed_witnesses():
    g = [a, plus(a, b)]
    with pytest.raises(ValueError):
        replay(ElemWitness("xor", "xor", (c,)), g, (XOR,))  # cites outside Gamma
    with pytest.raises(ValueError):
        replay(ElemWitness("ac", "ac", ((a, 0),)), g, (AC,))
    with pytest.raises(ValueError):
        replay(ElemWitness("ac", "ac", ((a, -1),)), g, (AC,))
    with pytest.raises(ValueError):
        replay(ElemWitness("ag", "ag", ((a, 0),)), g, (AG,))
    with pytest.raises(ValueError):
        replay(ElemWitness("xor", "xor", ()), g, (XOR,))  # no holes
    with pytest.raises(ValueError):
        replay(ElemWitness("nosuch", "xor", (a,)), g, (XOR,))
    with pytest.raises(ValueError):
        replay(ElemWitness("xor", "weird", (a,)), g, (XOR,))
    with pytest.raises(ValueError):
        replay(ElemWitness("empty", "xor", (a,)), g, (EMPTY,))  # not the theory's kind
    with pytest.raises(ValueError):  # plain AC has no inverse to cancel b with
        replay(ElemWitness("ac", "ag", ((plus(a, b), 1), (b, -1))), [plus(a, b), b], (AC,))


def test_replay_against_a_goal():
    g = [a, plus(a, b)]
    w = ElemWitness("xor", "xor", (a, plus(a, b)))
    assert replay(w, g, (XOR,), b) is b
    with pytest.raises(ValueError):
        replay(w, g, (XOR,), a)
    with pytest.raises(ValueError):  # the right vector, but not in normal form
        replay(w, g, (XOR,), plus(b, zero))
    empty = ElemWitness("empty", "empty", (a,))
    assert replay(empty, g, (EMPTY,), a) is a
    with pytest.raises(ValueError):
        replay(empty, g, (EMPTY,), b)


ALIENS = [pair(a, b), enc(b, c), sign(a, c)]


def gen_sum(rng, th, atoms, max_args=4):
    args = [rng.choice(atoms) for _ in range(rng.randint(1, max_args))]
    if "inv" in th.symbols:
        args = [inv(u) if rng.random() < 0.3 else u for u in args]
    return normalize(fold(th.ac_symbol, args), (th,))


def gen_elem_instance(rng, th, n_gamma, atoms):
    gamma = []
    while len(gamma) < n_gamma:
        t = gen_sum(rng, th, atoms)
        units = (zero, one)
        if t not in units:
            gamma.append(t)
    goal = gen_sum(rng, th, atoms)
    return sorted(set(gamma), key=lambda t: t.key), goal


def xor_brute(gamma, goal):
    for r in range(1, len(gamma) + 1):
        for sub in itertools.combinations(gamma, r):
            if normalize(fold("+", sub), (XOR,)) is goal:
                return True
    # the paired context reaches 0 from any element
    return goal is zero and bool(gamma)


def test_xor_matches_subset_brute_force():
    rng = random.Random(31)
    for _ in range(150):
        gamma, goal = gen_elem_instance(rng, XOR, rng.randint(1, 6), [a, b, c, d])
        w = elem_deduce(XOR, gamma, goal)
        assert (w is not None) == xor_brute(gamma, goal), (gamma, goal)
        if w is not None:
            assert replay(w, gamma, (XOR,)) is goal


def ac_brute(gamma, goal, bound):
    for counts in itertools.product(range(bound + 1), repeat=len(gamma)):
        if not any(counts):
            continue
        parts = []
        for g, n in zip(gamma, counts):
            parts.extend([g] * n)
        if normalize(fold("+", parts), (AC,)) is goal:
            return True
    return False


def test_ac_matches_bounded_brute_force():
    rng = random.Random(32)
    for _ in range(100):
        gamma, goal = gen_elem_instance(rng, AC, rng.randint(1, 4), [a, b, c])
        # every use of an element adds at least one atom
        bound = len(goal.args) if goal.args else 1
        w = elem_deduce(AC, gamma, goal, theories=(AC,))
        assert (w is not None) == ac_brute(gamma, goal, bound), (gamma, goal)
        if w is not None:
            assert replay(w, gamma, (AC,)) is goal


def ag_vec(t):
    """Net name coefficients of a normalized pure group sum."""
    cnt = {}

    def walk(u, sgn):
        if u.kind == 3 and u.sym == "+":
            for v in u.args:
                walk(v, sgn)
        elif u.kind == 3 and u.sym == "inv":
            walk(u.args[0], -sgn)
        elif u is one:
            pass
        else:
            cnt[u] = cnt.get(u, 0) + sgn

    walk(t, 1)
    return {k: v for k, v in cnt.items() if v}


def ag_fold(gamma, coeffs):
    parts = []
    for g, n in zip(gamma, coeffs):
        parts.extend([g if n > 0 else inv(g)] * abs(n))
    return normalize(fold("+", parts), (AG,))


def ag_brute(gamma, goal, bound=4):
    vecs = [ag_vec(g) for g in gamma]
    target = ag_vec(goal)
    atoms = sorted({x for v in vecs for x in v} | set(target), key=lambda t: t.key)
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(gamma)):
        if not any(coeffs):
            continue
        if all(sum(c * v.get(x, 0) for c, v in zip(coeffs, vecs)) == target.get(x, 0)
               for x in atoms):
            return coeffs
    return None


def test_ag_vector_oracle_agrees_with_folding():
    rng = random.Random(30)
    for _ in range(15):
        gamma, goal = gen_elem_instance(rng, AG, rng.randint(1, 2), [a, b])
        hit = ag_brute(gamma, goal, bound=2)
        folded = any(ag_fold(gamma, cs) is goal
                     for cs in itertools.product(range(-2, 3), repeat=len(gamma))
                     if any(cs))
        assert (hit is not None) == folded, (gamma, goal)


def test_ag_matches_bounded_brute_force():
    rng = random.Random(33)
    for _ in range(150):
        gamma, goal = gen_elem_instance(rng, AG, rng.randint(1, 3), [a, b, c])
        w = elem_deduce(AG, gamma, goal, theories=(AG,))
        if w is not None:
            assert replay(w, gamma, (AG,)) is goal  # no false positives
        elif goal is not one:
            # the oracle is bounded, so only its refutations are conclusive
            assert ag_brute(gamma, goal) is None, (gamma, goal)


def test_alien_subterms_are_opaque():
    gamma = [plus(pair(a, b), c), pair(a, b)]
    goal = c
    w = elem_deduce(XOR, gamma, goal)
    assert w is not None and set(w.entries) == set(gamma)
    # aliens never unfold: pair(a,b) contributes nothing toward a or b
    assert elem_deduce(XOR, [pair(a, b)], a) is None
    w = elem_deduce(AG, [plus(pair(a, b), c), c], pair(a, b), theories=(AG,))
    assert w is not None
    assert replay(w, [plus(pair(a, b), c), c], (AG,)) is pair(a, b)


def rename_aliens(t, mapping, th):
    if t in mapping:
        return mapping[t]
    if t.kind == 3 and t.sym in th.symbols:  # EAPP of the own theory
        return eapp(t.sym, tuple(rename_aliens(u, mapping, th) for u in t.args))
    return t


@pytest.mark.parametrize("th", [xor_theory(), ag_theory()])
def test_abstraction_soundness_under_renaming(th):
    # a consistent fresh-name replacement of aliens never changes the verdict
    rng = random.Random(34)
    fresh = [name(f"n{i}") for i in range(len(ALIENS))]
    mapping = dict(zip(ALIENS, fresh))
    for _ in range(200):
        gamma, goal = gen_elem_instance(rng, th, rng.randint(1, 4),
                                        [a, b] + ALIENS)
        gamma2 = [normalize(rename_aliens(g, mapping, th), (th,)) for g in gamma]
        goal2 = normalize(rename_aliens(goal, mapping, th), (th,))
        w1 = elem_deduce(th, gamma, goal, theories=(th,))
        w2 = elem_deduce(th, gamma2, goal2, theories=(th,))
        assert (w1 is None) == (w2 is None), (gamma, goal)


def _ag_term(vec):
    """The normal-form group sum with the given atom coefficients."""
    parts = []
    for atom, n in vec.items():
        parts.extend([atom if n > 0 else inv(atom)] * abs(n))
    return normalize(fold("+", parts), (AG,))


def _grown_gammas(rng, th, atoms, steps=8):
    """A Gamma that grows by one or two members a step, with coefficients up
    to 3 in absolute value under ag.  Halfway it drops its first member,
    which no span can follow without a rebuild."""
    gamma: list = []
    for step in range(steps):
        if step == steps // 2:
            gamma = gamma[1:]
        for _ in range(rng.randint(1, 2)):
            picked = rng.sample(atoms, rng.randint(1, 3))
            if th is AG:
                t = _ag_term({x: rng.choice([-3, -2, -1, 1, 2, 3]) for x in picked})
            else:
                t = normalize(fold("+", picked), (XOR,))
            if t not in (zero, one):
                gamma.append(t)
        yield list(gamma)


def _goals(rng, th, gamma, atoms, absent):
    unit = one if th is AG else zero
    goals = [unit, rng.choice(atoms), fold("+", [rng.choice(atoms), absent])]
    for _ in range(4):  # combinations of members, so most of these are derivable
        parts = []
        for g in rng.sample(gamma, min(len(gamma), 3)):
            n = rng.choice([-3, -2, -1, 1, 2, 3]) if th is AG else 1
            parts.extend([g if n > 0 else inv(g)] * abs(n))
        goals.append(fold("+", parts))
    return [normalize(t, (th,)) for t in goals]


def _assert_echelon(span, table, th):
    """Each row is keyed by its leading atom (lowest bit, for xor), holds no
    zero coefficient, and equals the sum of the members it says it sums."""
    for lead, (row, combo) in span.rows.items():
        if isinstance(span, elementary._XorSpan):
            assert row & -row == lead, (lead, row)
            summed = 0
            for i, g in enumerate(span.added):
                if combo >> i & 1:
                    for x in table.vector(g, th):
                        summed ^= span.bit[x]
        else:
            assert min(row, key=lambda t: t.key) == lead, (lead, row)
            assert all(row.values()), (lead, row)
            summed = {}
            for g, n in combo.items():
                assert n, (lead, combo)
                for x, k in table.vector(g, th).items():
                    summed[x] = summed.get(x, 0) + n * k
            summed = {x: k for x, k in summed.items() if k}
        assert summed == row, (lead, row, combo)


@pytest.mark.parametrize("backend", ["xor", "ag"])
def test_span_grown_with_gamma_agrees_with_elimination(backend, monkeypatch):
    # one table follows Gamma as it grows, as in deduce.  Each verdict must
    # be the one elimination from scratch gives over a table with the same
    # history, and the one a fresh table gives; each witness must replay
    # to the goal.
    th = XOR if backend == "xor" else AG
    decide = {"xor": oracles.decide_xor, "ag": oracles.decide_ag}[backend]
    gcd_steps = 0
    real_xgcd = elementary._xgcd

    def counted_xgcd(x, y):
        nonlocal gcd_steps
        gcd_steps += 1
        return real_xgcd(x, y)

    monkeypatch.setattr(elementary, "_xgcd", counted_xgcd)
    rng = random.Random(f"span:{backend}")
    names = [a, b, c, d]
    aliens = [pair(a, b), enc(b, c)]
    absent = name("e")
    runs = [(atoms, _grown_gammas(rng, th, atoms)) for atoms in (names, names + aliens) * 8]
    if th is AG:
        # one member a call, so no sort reorders them: the gcd step of 2a+2b
        # with the row 4a+c takes none of that row, and must not keep its c
        # at 0, or a+b leaves c leading a row at 0 and the goal c divides by it
        vecs = ({a: 4, c: 1}, {a: 2, b: 2}, {a: 1, b: 1})
        runs.append((names, itertools.accumulate([_ag_term(v)] for v in vecs)))
    answers = set()
    for atoms, gammas in runs:
        table, alone_table = Abstraction((th,)), Abstraction((th,))
        for gamma in gammas:
            for goal in _goals(rng, th, gamma, atoms, absent) + [c]:
                shared = elem_deduce(th, gamma, goal, table, (th,))
                alone = decide(th, sorted(set(gamma), key=lambda t: t.key), goal, alone_table)
                assert (shared is None) == (alone is None), (gamma, goal)
                assert table.table == alone_table.table  # same class variables
                fresh = elem_deduce(th, gamma, goal, theories=(th,))
                assert (fresh is None) == (shared is None), (gamma, goal)
                for w in (shared, fresh):
                    if w is not None:
                        assert replay(w, gamma, (th,)) is goal, (gamma, goal, w)
                        assert replay(w, gamma, (th,), goal) is goal
                answers.add((shared is not None, goal in (zero, one)))
            assert table.spans[th].members == frozenset(gamma)
            _assert_echelon(table.spans[th], table, th)
    assert answers == {(True, True), (True, False), (False, False)}
    if th is AG:
        assert gcd_steps > 0


def test_pruned_ac_search_agrees_with_the_unpruned_oracle():
    # Natural vectors over the atoms a..f: goals over a random subset of
    # them, members that fit inside the goal, members with an atom the goal
    # lacks (which only count 0 could use) and duplicates.  _decide_ac over
    # the full member list must give the oracle's verdict and witness.
    rng = random.Random(41)
    atoms = [name(n) for n in "abcdef"]

    def term(vec):
        return fold("+", [x for x, n in vec.items() for _ in range(n)])

    def random_vec(over):
        picked = rng.sample(over, rng.randint(1, min(3, len(over))))
        return {x: rng.randint(1, 3) for x in picked}

    seen = {"solved": 0, "unsolvable": 0, "pruned": 0, "duplicates": 0}
    for _ in range(300):
        inside = rng.sample(atoms, rng.randint(1, 4))
        outside = [x for x in atoms if x not in inside]
        gamma = [term(random_vec(inside)) for _ in range(rng.randint(1, 4))]
        if outside:
            gamma += [term(random_vec(inside + outside)) for _ in range(rng.randint(0, 3))]
        gamma.sort(key=lambda t: t.key)
        if rng.random() < 0.3:
            g = rng.choice(gamma)
            gamma.insert(gamma.index(g), g)
            seen["duplicates"] += 1
        if rng.random() < 0.5:  # a combination of members, often solvable
            goal = normalize(fold("+", [g for g in gamma for _ in range(rng.randint(0, 2))]
                                  or gamma[:1]), (AC,))
        else:
            goal = term(random_vec(inside))
        table = Abstraction((AC,))
        target = table.vector(goal, AC)
        vecs = [table.vector(g, AC) for g in gamma]
        seen["pruned"] += sum(not v.keys() <= target.keys() for v in vecs)
        counts = oracles.reference_solve_nat(vecs, 0, dict(target))
        want = None
        if counts is not None and any(counts):
            want = ElemWitness("ac", "ac", tuple((g, c) for g, c in zip(gamma, counts) if c))
        got = elementary._decide_ac(AC, gamma, goal, table)
        assert got == want, (gamma, goal)
        if got is None:
            seen["unsolvable"] += 1
            continue
        seen["solved"] += 1
        assert replay(got, gamma, (AC,)) is goal
        assert replay(got, gamma, (AC,), goal) is goal
    assert all(n > 20 for n in seen.values()), seen
