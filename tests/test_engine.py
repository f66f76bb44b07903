import random

import pytest

from conftest import assert_structural, deduce_checked, gen_ground, gen_instance, holes
from oracles import (OracleBoundExceeded, applicable, nd_closure_oracle,
                     rescan_deduce)
from intruder import engine, terms
from intruder.engine import deduce, deducible, right_deduce
from intruder.proofs import Sequent, dumps, find_error
from intruder.rewriting import make_theories, normalize
from intruder.terms import blind, eapp, enc, name, pair, pub, sign, subterms

a, b, c, k, m, r = (name(n) for n in "abckmr")
EMPTYS = make_theories(("empty",))
ACS = make_theories(("ac",))
XORS = make_theories(("xor",))
AGS = make_theories(("ag",))


def plus(*ts):
    return eapp("+", ts)


def test_right_deduce_pair():
    d = right_deduce({a, b}, pair(a, b), EMPTYS)
    assert d is not None and d.rule == "p_R"
    assert [p.rule for p in d.premises] == ["id", "id"]
    assert find_error(d, EMPTYS) is None


def test_right_deduce_cannot_build_the_ac_sum():
    # no E-context over {+} produces the pair, and it is not in gamma
    assert right_deduce({a, b}, plus(pair(a, b), a), ACS) is None


def test_right_deduce_xor_key():
    d = right_deduce({plus(a, b), b}, enc(a, b), XORS)
    assert d is not None and d.rule == "e_R"
    assert find_error(d, XORS) is None
    left = d.premises[0]
    assert left.rule == "id"
    assert set(left.aux["witness"].entries) == {plus(a, b), b}


def test_applicable_lp():
    got = applicable("lp", pair(a, b), {pair(a, b)}, a, EMPTYS)
    assert got == Sequent(frozenset({pair(a, b), a, b}), a)


def test_applicable_blind2():
    g = {sign(blind(a, r), k), r}
    got = applicable("blind2", sign(blind(a, r), k), g, a, EMPTYS)
    assert got == Sequent(frozenset(g | {sign(a, k)}), a)


def test_applicable_le_requires_the_key():
    assert applicable("le", enc(a, k), {enc(a, k)}, a, EMPTYS) is None
    got = applicable("le", enc(a, k), {enc(a, k), k}, a, EMPTYS)
    assert got == Sequent(frozenset({enc(a, k), a, k}), a)


def test_applicable_ls():
    goal = plus(pair(a, b), a)
    got = applicable("ls", pair(a, b), {a, b}, goal, ACS)
    assert got == Sequent(frozenset({a, b, pair(a, b)}), goal)
    # only alien factors of the sequent can be abstracted in
    assert applicable("ls", pair(b, c), {a, b}, goal, ACS) is None


def test_applicable_sign_needs_the_public_key():
    g = {sign(m, k)}
    assert applicable("sign", sign(m, k), g, m, EMPTYS) is None
    got = applicable("sign", sign(m, k), g | {pub(k)}, m, EMPTYS)
    assert got == Sequent(frozenset(g | {pub(k), m}), m)


def test_deduce_ac_worked_example():
    goal = plus(pair(a, b), a)
    d = deduce_checked({a, b}, goal, ACS)
    assert d is not None
    assert d.rule == "ls" and d.aux["principal"] is pair(a, b)
    leaf = d.premises[0]
    assert leaf.rule == "r"
    w = leaf.aux["right"].aux["witness"]
    assert dict(w.entries) == {pair(a, b): 1, a: 1}
    assert holes(w) == 2  # the two-hole context x + y


def test_deduce_decrypts_with_known_key():
    d = deduce_checked({enc(a, k), k}, a, EMPTYS)
    assert d is not None and d.rule == "le"
    assert deduce({enc(a, k)}, a, EMPTYS) is None


def test_deduce_blind_signature_extraction():
    d = deduce_checked({sign(blind(m, r), k), r, pub(k)}, m, EMPTYS)
    assert d is not None
    rules = []
    node = d
    while node.rule != "r":
        rules.append(node.rule)
        node = node.premises[0]
    assert "blind2" in rules and "sign" in rules


def test_deduce_normalizes_first():
    # the sequent arrives unnormalized; verdicts are about normal forms
    assert deducible({plus(a, a, b)}, b, XORS)
    # the key normalizes to 0, which any nonempty gamma can build
    assert deducible({enc(a, plus(k, k))}, a, XORS)


def test_oracle_examples():
    assert nd_closure_oracle({pair(a, b)}, b, EMPTYS)
    assert not nd_closure_oracle({enc(a, k)}, a, EMPTYS)
    assert not nd_closure_oracle(set(), a, EMPTYS)
    assert nd_closure_oracle({sign(blind(m, r), k), r, pub(k)}, m, EMPTYS)


def test_oracle_bound_is_distinct_from_underivable():
    gamma = {plus(name(f"x{i}"), name(f"x{i+1}")) for i in range(20)}
    with pytest.raises(OracleBoundExceeded):
        nd_closure_oracle(gamma, name("nowhere"), XORS)


def test_weakening():
    rng = random.Random(40)
    names = [a, b, c, k]
    extras = [pair(c, c), enc(c, k), name("w")]
    n = 0
    for _ in range(120):
        gamma, goal = gen_instance(rng, names, (), st_cap=15)
        d = deduce(gamma, goal, EMPTYS)
        if d is None:
            continue
        n += 1
        wider = set(gamma) | {rng.choice(extras)}
        assert deducible(wider, goal, EMPTYS)
    assert n >= 20


def test_right_deducible_implies_deducible():
    rng = random.Random(41)
    names = [a, b, c, k]
    n = 0
    for _ in range(150):
        gamma, goal = gen_instance(rng, names, (), st_cap=15)
        if right_deduce(gamma, goal, EMPTYS) is None:
            continue
        n += 1
        assert deducible(gamma, goal, EMPTYS)
    assert n >= 20


def test_sweep_order_invariance():
    rng = random.Random(42)
    names = [a, b, c, k]
    for i in range(80):
        gamma, goal = gen_instance(rng, names, (), st_cap=15)
        base = deduce(gamma, goal, EMPTYS) is not None
        for seed in (0, 1, i):
            d = deduce(gamma, goal, EMPTYS, rng=random.Random(seed))
            assert (d is not None) == base
            if d is not None:
                assert find_error(d, EMPTYS) is None
                assert_structural(d, EMPTYS)


def test_oracle_equivalence_empty():
    rng = random.Random(43)
    names = [a, b, c, k]
    yes = no = 0
    for _ in range(300):
        gamma, goal = gen_instance(rng, names, (), st_cap=15)
        d = deduce_checked(gamma, goal, EMPTYS)
        assert (d is not None) == nd_closure_oracle(gamma, goal, EMPTYS)
        yes, no = yes + (d is not None), no + (d is None)
    assert yes >= 30 and no >= 30


def test_oracle_equivalence_xor():
    rng = random.Random(44)
    names = [a, b, c]
    for _ in range(150):
        gamma, goal = gen_instance(rng, names, XORS, max_gamma=3, st_cap=12)
        d = deduce_checked(gamma, goal, XORS)
        assert (d is not None) == nd_closure_oracle(gamma, goal, XORS)


def test_oracle_equivalence_ac():
    rng = random.Random(45)
    names = [a, b, c, k]
    yes = no = beyond = 0
    for _ in range(400):
        gamma, goal = gen_instance(rng, names, ACS, max_gamma=3, st_cap=12)
        d = deduce_checked(gamma, goal, ACS)
        try:
            derivable = nd_closure_oracle(gamma, goal, ACS)
        except OracleBoundExceeded:  # too many coefficient vectors to enumerate
            beyond += 1
            continue
        assert (d is not None) == derivable, (gamma, goal)
        yes, no = yes + (d is not None), no + (d is None)
    assert yes >= 30 and no >= 30
    assert beyond <= 10  # one today


def gen_links(rng, theories, links=5):
    """Knowledge that opens link by link: each key is built from earlier payloads.

    Names get random labels, so the term order, and with it the order in
    which candidates are first tried, runs along or against the chain.
    """
    labels = iter(rng.sample(range(100, 1000), 3 * links + 2))

    def fresh():
        return name(f"n{next(labels)}")

    known = [fresh()]
    opened = list(known)
    for _ in range(links):
        payload = pair(fresh(), fresh()) if rng.random() < 0.5 else fresh()
        key = gen_ground(rng, opened, theories, depth=2)
        if rng.random() < 0.3:
            s_key = fresh()
            known += [sign(blind(payload, key), s_key), pub(s_key)]
        else:
            known.append(enc(payload, key))
        opened += sorted(subterms(payload) - {payload}, key=lambda t: t.key) or [payload]
    if rng.random() < 0.5:
        goal = rng.choice(opened[-2:])
    else:
        goal = gen_ground(rng, opened + [fresh()], theories, depth=2)
    return [normalize(t, theories) for t in known], normalize(goal, theories)


@pytest.mark.parametrize("theory", ["empty", "xor", "ag", "ac"])
def test_worklist_agrees_with_rescan(theory):
    ths = make_theories((theory,))
    rng = random.Random(f"worklist:{theory}")
    names = [a, b, c, k]
    yes = 0
    for i in range(80):
        if i % 2:
            gamma, goal = gen_links(rng, ths, links=rng.randint(2, 6))
        else:
            gamma, goal = gen_instance(rng, names, ths, max_gamma=4, st_cap=20)
        base = rescan_deduce(gamma, goal, ths)
        d = deduce(gamma, goal, ths)
        assert (d is None) == (base is None), (gamma, goal)
        # without rng the worklist fires in the sweep's order
        assert d == base
        yes += d is not None
        for seed in (0, i):
            for run in (deduce, rescan_deduce):
                d = run(gamma, goal, ths, rng=random.Random(seed))
                assert (d is None) == (base is None), (run.__name__, seed, gamma, goal)
                if d is not None:
                    assert find_error(d, ths) is None
                    assert_structural(d, ths)
    assert 15 <= yes <= 65


def _chain(kind, n, descending):
    """An n-link enc or blind-signature chain whose names sort up or down it."""
    ks = [name(f"k{100 + (n - j if descending else j)}") for j in range(n + 1)]
    if kind == "enc":
        return [ks[0]] + [enc(ks[j + 1], ks[j]) for j in range(n)], ks[n]
    sks = [name(f"s{100 + j}") for j in range(n)]
    links = [sign(blind(ks[j + 1], ks[j]), sks[j]) for j in range(n)]
    return [ks[0]] + links + [pub(s) for s in sks], ks[n]


@pytest.mark.parametrize("kind", ["enc", "blind"])
def test_saturation_work_is_linear_on_chains(kind, monkeypatch):
    calls = 0
    real = engine.elem_deduce

    def counted(*args, **kw):
        nonlocal calls
        calls += 1
        return real(*args, **kw)

    monkeypatch.setattr(engine, "elem_deduce", counted)
    work = {}
    for n in (24, 48):
        for descending in (False, True):
            calls = 0
            gamma, goal = _chain(kind, n, descending)
            assert deduce(gamma, goal, EMPTYS) is not None
            work[n, descending] = calls
    for n in (24, 48):
        assert work[n, True] <= 2 * work[n, False], work
    for descending in (False, True):
        assert work[48, descending] <= 2.5 * work[24, descending], work


def test_sorted_passes_give_the_rescan_proof_byte_for_byte(monkeypatch):
    ahead = []
    real = engine.heappush

    def counted(heap, item):
        ahead.append(item)
        real(heap, item)

    monkeypatch.setattr(engine, "heappush", counted)
    for kind in ("enc", "blind"):
        for n in range(1, 31):
            for descending in (False, True):
                gamma, goal = _chain(kind, n, descending)
                d = deduce(gamma, goal, EMPTYS)
                assert d is not None
                assert dumps(d) == dumps(rescan_deduce(gamma, goal, EMPTYS)), (kind, n)
    # some candidate woke with its place still ahead of the pass's cursor
    assert ahead


def test_the_free_goal_is_decided_again_only_when_a_part_of_it_arrives(monkeypatch):
    gamma, goal = _chain("enc", 40, True)
    decided = 0
    real = engine._right

    def counted(gamma_, goal_, *rest):
        nonlocal decided
        decided += goal_ is goal
        return real(gamma_, goal_, *rest)

    monkeypatch.setattr(engine, "_right", counted)
    assert deduce(gamma, goal, EMPTYS) is not None
    assert decided <= len(subterms(goal)) + 1, decided


def test_an_unblind_candidate_builds_its_signature_only_when_it_fires(monkeypatch):
    built = []
    real = terms._mk

    def recorded(kind, sym, args):
        built.append((sym, args))
        return real(kind, sym, args)

    monkeypatch.setattr(terms, "_mk", recorded)
    signed = [sign(blind(m, r), k), pub(k)]
    assert deduce(signed, pair(m, r), EMPTYS) is None  # r never becomes known
    assert ("sign", (m, k)) not in built
    assert deduce(signed + [r], pair(m, r), EMPTYS) is not None
    assert ("sign", (m, k)) in built


def _xor_keyed_chain(n):
    """enc(pair(x_(j+1), y_(j+1)), x_j + y_j) for j < n, from x_0 and y_0."""
    xs = [name(f"x{j:02d}") for j in range(n + 1)]
    ys = [name(f"y{j:02d}") for j in range(n + 1)]
    links = [enc(pair(xs[j + 1], ys[j + 1]), plus(xs[j], ys[j])) for j in range(n)]
    return [xs[0], ys[0]] + links, xs[n]


def _ag_keyed_chain(sizes):
    """Link j's key sums sizes[j] atoms; the intruder holds the first atom
    and each adjacent sum of key 0, and link j carries those of key j+1."""
    keys = [[name(f"a{j}{i}") for i in range(m)] for j, m in enumerate(sizes)]
    pieces = [[ks[0]] + [plus(ks[i], ks[i + 1]) for i in range(len(ks) - 1)] for ks in keys]
    secret = name("s")
    known = list(pieces[0])
    for j, ks in enumerate(keys):
        payload = secret
        if j + 1 < len(keys):
            payload = pieces[j + 1][-1]
            for p in reversed(pieces[j + 1][:-1]):
                payload = pair(p, payload)
        known.append(enc(payload, plus(*ks)))
    return [normalize(t, AGS) for t in known], secret


@pytest.mark.parametrize("theories,chain", [(XORS, _xor_keyed_chain(20)),
                                            (AGS, _ag_keyed_chain((5, 2, 3, 6)))],
                         ids=["xor-20", "ag-5x2x3x6"])
def test_keyed_chain_span_witnesses_check_and_match_rescan(theories, chain):
    # every side condition's witness is read off a span grown with Delta:
    # the proof checks, and the full rescan gives the same proof
    gamma, goal = chain
    d = deduce(gamma, goal, theories)
    assert d is not None and find_error(d, theories) is None
    assert d == rescan_deduce(gamma, goal, theories)
