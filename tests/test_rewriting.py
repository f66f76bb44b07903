import itertools
import random
import sys
import threading
import time

import pytest

from oracles import (NormalizationBudgetExceeded, RewriteRule, abstract,
                     one_step_rewrites, rewrite_normalize, theory_rules)
from intruder import rewriting
from intruder.elementary import elem_deduce
from intruder.engine import deduce
from intruder.rewriting import (Abstraction, Theory, ac_theory, ag_theory,
                                as_theories, empty_theory, make_theories,
                                match_mod_ac, normalize, xor_theory)
from intruder.terms import (blind, capp, eapp, enc, name, pair, substitute,
                            var)

a, b, c, d, k = (name(n) for n in "abcdk")
x, y, z = var("x"), var("y"), var("z")
zero = eapp("0", ())
one = eapp("1", ())
XOR = (xor_theory(),)
AG = (ag_theory(),)
AC = (ac_theory(),)


def plus(*ts):
    return eapp("+", ts)


def inv(t):
    return eapp("inv", (t,))


def test_normalize_xor_examples():
    assert normalize(plus(a, a), XOR) is zero
    assert normalize(plus(a, b, a), XOR) is b
    assert normalize(plus(plus(a, b), plus(b, c)), XOR) is plus(a, c)


def test_normalize_ag_examples():
    assert normalize(plus(a, inv(a), b), AG) is b
    assert normalize(plus(inv(plus(a, b)), a), AG) is inv(b)
    assert normalize(inv(inv(a)), AG) is a
    assert normalize(plus(a, one), AG) is a
    assert normalize(inv(one), AG) is one


def test_normalize_ac_is_identity():
    for t in [a, plus(a, b), plus(pair(a, b), a, a)]:
        assert normalize(t, AC) is t


def test_normalize_under_constructors():
    t = enc(plus(a, a), pair(b, plus(c, zero)))
    assert normalize(t, XOR) is enc(zero, pair(b, c))


def all_normal_forms(t, theories):
    """Every normal form reachable by any rewrite strategy."""
    seen = set()
    out = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        succ = one_step_rewrites(u, theories)
        if not succ:
            out.add(u)
        else:
            stack.extend(succ)
    return out


def test_xor_confluence_on_the_two_sum_instance():
    assert all_normal_forms(plus(plus(a, b), plus(b, c)), XOR) == {plus(a, c)}


def test_ag_confluence_on_the_inverse_instance():
    assert all_normal_forms(plus(inv(plus(a, b)), a), AG) == {inv(b)}


def test_ag_has_the_six_rule_presentation():
    assert len(theory_rules(ag_theory())) == 6
    assert len(theory_rules(xor_theory())) == 2
    assert theory_rules(ac_theory()) == ()
    assert empty_theory().symbols == {}


def gen_theory_term(rng, th, depth=3):
    names = [a, b, c, d]
    units = [eapp(s, ()) for s, ar in th.symbols.items() if ar == 0]
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(names + units)
    roll = rng.random()
    if roll < 0.5 and th.ac_symbol:
        args = [gen_theory_term(rng, th, depth - 1) for _ in range(rng.randint(2, 3))]
        if "inv" in th.symbols and rng.random() < 0.4:
            args[0] = inv(args[0])
        return eapp(th.ac_symbol, args)
    if roll < 0.6 and "inv" in th.symbols:
        return inv(gen_theory_term(rng, th, depth - 1))
    sym = rng.choice(["pair", "enc", "sign"])
    return capp(sym, (gen_theory_term(rng, th, depth - 1),
                      gen_theory_term(rng, th, depth - 1)))


@pytest.mark.parametrize("th", [xor_theory(), ag_theory()])
def test_normalize_strategy_independence(th):
    rng = random.Random(20)
    for _ in range(500):
        t = gen_theory_term(rng, th)
        inner = rewrite_normalize(t, (th,), strategy="innermost")
        outer = rewrite_normalize(t, (th,), strategy="outermost")
        assert inner is outer
        assert normalize(t, (th,)) is inner
        assert normalize(inner, (th,)) is inner


def times(*ts):
    return eapp("*", ts)


COMBINATIONS = [("xor",), ("ag",), ("ac",), ("xor", "ag"), ("xor", "ac"), ("ag", "ac")]

# sums that collapse inside aliens, and aliens whose interiors collapse under
# the other constituent
COLLAPSING = {
    ("xor",): [pair(plus(a, a), b), plus(a, enc(plus(b, zero), c), enc(b, c))],
    ("ag",): [pair(plus(a, inv(a)), b), plus(a, inv(plus(a, b))), inv(inv(plus(a, one)))],
    ("ac",): [plus(a, pair(plus(b, a), c), pair(plus(a, b), c))],
    ("xor", "ag"): [plus(a, times(plus(b, c), one)), pair(times(a, inv(a)), b),
                    plus(times(a, inv(a)), times(b, inv(b))), inv(plus(a, a)),
                    times(plus(a, b), inv(plus(b, a, zero)))],
    ("xor", "ac"): [times(a, plus(b, b)), plus(times(a, b), times(b, a)),
                    plus(a, times(plus(a, zero), b), times(b, a))],
    ("ag", "ac"): [times(plus(a, inv(a)), b), plus(times(a, b), inv(times(b, a))),
                   plus(a, times(plus(b, one), c), inv(times(c, b)))],
}


def gen_mixed_term(rng, theories, depth=2):
    """A term of depth at most ``depth`` mixing every constituent's symbols
    with constructors, so sums sit inside aliens and aliens inside sums.

    Sums take 2 or 3 arguments, so a flattened sum has at most 9 atoms: the
    rewriting oracle's AC matching is exponential in that width.
    """
    leaves = [a, b, c, d] + [eapp(s, ()) for th in theories
                             for s, ar in th.symbols.items() if ar == 0]
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice(leaves)
    roll = rng.random()
    if roll < 0.65:
        th = rng.choice(theories)
        args = [gen_mixed_term(rng, theories, depth - 1) for _ in range(rng.randint(2, 3))]
        return eapp(th.ac_symbol, args)
    if roll < 0.8 and any("inv" in th.symbols for th in theories):
        return inv(gen_mixed_term(rng, theories, depth - 1))
    return capp(rng.choice(("pair", "enc")), (gen_mixed_term(rng, theories, depth - 1),
                                              gen_mixed_term(rng, theories, depth - 1)))


@pytest.mark.parametrize("names", COMBINATIONS, ids="+".join)
def test_normalize_agrees_with_rewriting(names):
    # evaluation is checked against rule-based rewriting, under both strategies
    ths = make_theories(names)
    rng = random.Random(23)
    terms = COLLAPSING[names] + [gen_mixed_term(rng, ths) for _ in range(300)]
    for t in terms:
        nf = normalize(t, ths)
        for strategy in ("innermost", "outermost"):
            assert rewrite_normalize(t, ths, strategy=strategy) is nf, (t, strategy)
        assert normalize(nf, ths) is nf


def test_normal_forms_are_remembered_per_evaluation():
    # inv is alien to xor, so a + inv(a) is normal there; under ag it is 1.
    # The term remembers one normal form at a time, tagged with the
    # evaluation it holds under, so neither answer leaks into the other.
    t = plus(a, inv(a))
    assert normalize(t, XOR) is t
    assert normalize(t, AG) is one
    assert normalize(t, XOR) is t
    assert normalize(t, AG) is one
    # the same term objects, normalized in turn under each combination
    rng = random.Random(24)
    mixed = make_theories(("xor", "ag"))
    terms = COLLAPSING[("xor", "ag")] + [gen_mixed_term(rng, mixed) for _ in range(150)]
    combos = [make_theories(n) for n in (("xor",), ("ag",), ("ac",), ("xor", "ag"))]
    want = {(t, ths): rewrite_normalize(t, ths) for t in terms for ths in combos}
    for _ in range(2):
        for ths in combos:
            for t in terms:
                nf = normalize(t, ths)
                assert nf is want[t, ths], (t, ths)
                assert normalize(nf, ths) is nf


def test_threads_normalizing_shared_terms_under_different_theories():
    # each term keeps one remembered normal form, which threads working
    # under xor and under ag keep replacing; every answer must still be the
    # one a single thread gets
    rng = random.Random(25)
    mixed = make_theories(("xor", "ag"))
    terms = COLLAPSING[("xor", "ag")] + [gen_mixed_term(rng, mixed) for _ in range(60)]
    combos = [make_theories(n) for n in (("xor",), ("ag",), ("xor", "ag"))]
    want = {(t, ths): rewrite_normalize(t, ths) for t in terms for ths in combos}
    wrong: list = []
    done = [False] * 4
    start = threading.Barrier(4)

    def work(k):
        order = [(t, ths) for t in terms for ths in combos]
        random.Random(k).shuffle(order)
        start.wait(timeout=60)
        for _ in range(20):
            for t, ths in order:
                if normalize(t, ths) is not want[t, ths]:
                    wrong.append((t, ths))
        done[k] = True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(done), done  # no thread raised
    assert not wrong, wrong[:3]


def test_a_shared_dag_is_normalized_in_linear_time():
    # 60 levels of pair(t, t) over a + a: 2^60 leaves as a tree, 61 nodes
    # as a DAG.  Compared by identity and never printed, since printing
    # expands the tree.
    u = name("dag_leaf")
    tower, want = eapp("+", (u, u)), zero
    for _ in range(60):
        tower, want = capp("pair", (tower, tower)), capp("pair", (want, want))
    start = time.perf_counter()
    same = normalize(tower, XOR) is want
    took = time.perf_counter() - start
    assert same, "the tower did not normalize to the tower over 0"
    assert took < 2.0, f"normalizing the 61-node DAG took {took:.2f} s"


def test_normalize_combined_theories():
    ths = make_theories(("xor", "ag"))
    t = eapp("+", (a, a, eapp("*", (b, inv(b), c))))
    assert normalize(t, ths) is c


def test_match_examples():
    assert match_mod_ac(plus(x, x), plus(a, a)) == [{x: a}]
    assert match_mod_ac(enc(x, k), enc(a, k)) == [{x: a}]
    assert match_mod_ac(enc(x, k), enc(a, b)) == []

    ms = match_mod_ac(plus(x, y), plus(a, b, c))
    assert {x: a, y: plus(b, c)} in ms
    # three matchers up to AC, i.e. up to which variable absorbs which block
    partitions = {frozenset((m[x], m[y])) for m in ms}
    assert partitions == {
        frozenset((a, plus(b, c))),
        frozenset((b, plus(a, c))),
        frozenset((c, plus(a, b))),
    }


def brute_matches(pattern, subject, rng_pool):
    """All substitutions over nonempty sub-multisets of the subject's args."""
    pvars = sorted({v for v in rng_pool}, key=lambda t: t.key)
    args = list(subject.args)
    results = []
    choices = []
    for n in range(1, len(args) + 1):
        for combo in itertools.combinations(range(len(args)), n):
            bag = [args[i] for i in combo]
            choices.append(bag[0] if len(bag) == 1 else eapp(subject.sym, bag))
    for values in itertools.product(choices, repeat=len(pvars)):
        sigma = dict(zip(pvars, values))
        if substitute(pattern, sigma) is subject:
            if sigma not in results:
                results.append(sigma)
    return results


@pytest.mark.parametrize("pattern,pvars", [
    (plus(x, y), (x, y)),
    (plus(x, x), (x,)),
    (plus(x, y, z), (x, y, z)),
    (plus(x, a), (x,)),
    (plus(x, x, y), (x, y)),
])
def test_match_complete_against_brute_force(pattern, pvars):
    rng = random.Random(21)
    for _ in range(60):
        args = [rng.choice([a, b, c]) for _ in range(rng.randint(2, 5))]
        subject = plus(*args) if len(set(args)) > 1 or len(args) > 1 else args[0]
        if subject.kind != 3 or subject.sym != "+":
            continue
        got = match_mod_ac(pattern, subject)
        for m in got:
            assert substitute(pattern, m) is subject
        want = brute_matches(pattern, subject, pvars)
        key = lambda ms: {tuple(sorted(m.items(), key=lambda kv: kv[0].key)) for m in ms}
        assert key(got) == key(want)


def test_abstract_quasi_theory_example():
    th_h = Theory("h", {"h": 2}, None, "empty")
    table = Abstraction((th_h,))
    got = abstract(eapp("h", (pair(a, b), c)), th_h, table)
    v1 = table.var_for(pair(a, b))
    assert got is eapp("h", (v1, c))


def test_abstract_keeps_names():
    table = Abstraction(XOR)
    assert abstract(a, xor_theory(), table) is a


def test_abstract_shares_class_variables():
    table = Abstraction(XOR)
    t = plus(pair(a, b), pair(a, b), c)
    got = abstract(t, xor_theory(), table)
    v1 = table.var_for(pair(a, b))
    assert got is plus(v1, v1, c)


def test_abstraction_keys_on_normal_forms():
    table = Abstraction(XOR)
    assert table.var_for(plus(a, a)) is table.var_for(zero)
    assert table.var_for(enc(plus(a, a), b)) is table.var_for(enc(zero, b))
    ag_table = Abstraction(AG)
    assert ag_table.var_for(plus(a, inv(a))) is ag_table.var_for(one)


@pytest.mark.parametrize("th", [xor_theory(), ag_theory()])
def test_abstraction_simulates_rewriting(th):
    # one-step simulation: M -> N implies abstract(M) -> abstract(N)
    rng = random.Random(22)
    aliens = [pair(a, b), enc(b, c), blind(a, c), pair(a, a)]
    units = [eapp(s, ()) for s, ar in th.symbols.items() if ar == 0]
    checked = 0
    for _ in range(400):
        args = [rng.choice([a, b, c] + aliens + units)
                for _ in range(rng.randint(2, 4))]
        if "inv" in th.symbols and rng.random() < 0.5:
            args[0] = inv(args[0])
        m = plus(*args)
        table = Abstraction((th,))
        am = abstract(m, th, table)
        for n in one_step_rewrites(m, (th,)):
            an = abstract(n, th, table)
            assert an in one_step_rewrites(am, (th,))
            checked += 1
    assert checked > 100


def test_normalization_budget():
    loop = (RewriteRule(eapp("f", (x,)), eapp("f", (eapp("f", (x,)),))),)
    with pytest.raises(NormalizationBudgetExceeded):
        rewrite_normalize(eapp("f", (a,)), rules=loop, max_steps=50)
    with pytest.raises(NormalizationBudgetExceeded):
        rewrite_normalize(eapp("f", (a,)), rules=loop, max_steps=50, strategy="outermost")


def test_normalize_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        rewrite_normalize(plus(a, a), XOR, strategy="sideways")


def test_normalize_refuses_rules_it_cannot_evaluate():
    with pytest.raises(ValueError):
        normalize(plus(a, a), (xor_theory(), ag_theory()))  # both interpret +


def test_normalize_stays_off_the_match_cache():
    before = rewriting._match_cached.cache_info()
    wide = plus(*(name(f"w{i}") for i in range(64)))
    assert normalize(wide, XOR) is wide
    assert normalize(plus(wide, a, a), XOR) is wide
    assert normalize(plus(a, inv(plus(a, b)), b), AG) is one
    assert elem_deduce(xor_theory(), [plus(a, b), plus(b, c)], plus(a, c)) is not None
    assert elem_deduce(ag_theory(), [plus(a, b), b], inv(a)) is not None
    assert deduce([plus(a, b), plus(b, c), enc(k, plus(a, c))], k, XOR) is not None
    assert deduce([plus(a, b), b, enc(k, plus(a, a, inv(b)))], k, AG) is not None
    assert deduce([plus(a, b), enc(k, plus(a, c))], k, XOR) is None
    assert rewriting._match_cached.cache_info() == before


def test_rule_variable_containment():
    with pytest.raises(ValueError):
        RewriteRule(x, plus(x, y))


@pytest.mark.parametrize("pair", itertools.product(rewriting.THEORY_BUILDERS, repeat=2))
def test_combined_theories_have_distinct_names(pair):
    try:
        ths = make_theories(pair)
    except ValueError:
        return  # a combination make_theories refuses names nothing
    if pair == ("ac", "ac"):
        assert [th.name for th in ths] == ["ac", "ac*"]
    else:  # every other combination keeps the builtin names older proofs cite
        assert [th.name for th in ths] == list(dict.fromkeys(pair))


def test_make_theories_validation():
    ths = make_theories(("xor", "ag"))
    assert ths[0].ac_symbol == "+" and ths[1].ac_symbol == "*"
    with pytest.raises(ValueError):
        make_theories(("xor", "ag", "ac"))
    with pytest.raises(ValueError):
        make_theories(("xor", "xor"))  # both own the constant 0
    assert make_theories(("empty", "empty")) == (empty_theory(),)
    with pytest.raises(ValueError):
        make_theories(("nosuch",))
    assert as_theories(()) == (empty_theory(),)
    assert as_theories(xor_theory()) == (xor_theory(),)


def test_theory_rejects_unreserved_ac_symbol():
    with pytest.raises(ValueError):
        Theory("bad", {"@": 2}, "@", "empty")
