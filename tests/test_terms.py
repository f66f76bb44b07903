import itertools
import random
import sys
import threading

import pytest

from conftest import gen_ground, gen_sigma_term, gen_wf_system
from oracles import (proper_subterms, recursive_size, reference_parse_term,
                     reference_parse_term_list, saturate, walked_variables)
from intruder import terms
from intruder.engine import deduce
from intruder.rewriting import (ag_theory, empty_theory, make_theories, normalize,
                                xor_theory)
from intruder.terms import (CAPP, EAPP, MAX_DEPTH, VAR, ParseError, blind, capp,
                            e_factors, eapp, enc, format_term, is_e_alien,
                            name, pair, parse_term, parse_term_list, pub, sign,
                            subterms, substitute, var, variables)

a, b, c, d, k, m, r = (name(n) for n in "abcdkmr")
XOR = xor_theory()
AG = ag_theory()


def plus(*ts):
    return eapp("+", ts)


def test_canonicalize_flattens_and_sorts():
    t = eapp("+", (a, eapp("+", (b, a))))
    assert t.args == (a, a, b)
    assert eapp("+", (b, eapp("+", (a, a)))) is t


def test_canonicalize_identity_on_ac_free():
    assert pair(a, b).args == (a, b)
    assert pair(a, b) is pair(a, b)


def test_canonicalize_all_rearrangements_agree():
    # every association/permutation of the 3-argument sum {a, b, pair(c,d)}
    args = [a, b, pair(c, d)]
    built = set()
    for p in itertools.permutations(args):
        built.add(eapp("+", (eapp("+", (p[0], p[1])), p[2])))
        built.add(eapp("+", (p[0], eapp("+", (p[1], p[2])))))
    assert len(built) == 1
    assert built == {eapp("+", (eapp("+", (a, b)), pair(c, d)))}


def test_equal_mod_ac_examples():
    assert plus(a, b) is plus(b, a)
    assert pair(a, b) is not pair(b, a)


def gen_term(rng, depth=3):
    leaves = [a, b, c, d]
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    roll = rng.random()
    if roll < 0.5:
        return eapp("+", [gen_term(rng, depth - 1) for _ in range(rng.randint(2, 4))])
    sym = rng.choice(["pair", "enc", "sign", "blind"])
    return capp(sym, (gen_term(rng, depth - 1), gen_term(rng, depth - 1)))


def shuffle_ac(t, rng):
    """Rebuild t with AC arguments re-associated in a random order."""
    if not t.args:
        return t
    args = [shuffle_ac(u, rng) for u in t.args]
    if t.kind == 3 and t.sym in ("+", "*"):  # EAPP
        rng.shuffle(args)
        out = args[0]
        for u in args[1:]:
            out = eapp(t.sym, (out, u))
        return out
    if t.kind == 2:  # CAPP
        return capp(t.sym, args)
    return eapp(t.sym, args)


def test_equal_mod_ac_random_permutations():
    rng = random.Random(7)
    for _ in range(1000):
        t = gen_term(rng)
        assert shuffle_ac(t, rng) is t


def test_e_factors_examples():
    assert e_factors(plus(d, pair(c, pair(a, b))), XOR) == {pair(c, pair(a, b))}
    assert e_factors(pair(a, b), XOR) == frozenset()
    assert e_factors(pair(a, b), AG) == frozenset()
    assert e_factors(enc(plus(a, pair(b, c)), k), XOR) == {pair(b, c)}


def test_e_factors_are_alien_proper_subterms():
    rng = random.Random(9)
    for _ in range(300):
        t = gen_term(rng)
        fs = e_factors(t, XOR)
        assert fs <= proper_subterms(t)
        assert all(is_e_alien(f, XOR) for f in fs)


def test_saturate_singleton_name():
    idx = saturate([a], a)
    assert set(idx.nodes) == {a}


def test_saturate_pair_only():
    idx = saturate([pair(a, b)], a)
    assert set(idx.nodes) == {pair(a, b), a, b}


def test_saturate_sign_closure():
    g = sign(blind(a, r), k)
    idx = saturate([g], b)
    pst = {blind(a, r), a, r, k}
    for t in [g, b, sign(a, k), sign(a, r), sign(r, a), sign(k, blind(a, r))]:
        assert t in idx
    for x in pst:
        for y in pst:
            assert sign(x, y) in idx
    assert set(idx.nodes) == {g, b} | pst | {sign(x, y) for x in pst for y in pst}


def test_saturate_quadratic_bound():
    rng = random.Random(10)
    for _ in range(200):
        gamma = [gen_term(rng) for _ in range(rng.randint(1, 3))]
        goal = gen_term(rng)
        idx = saturate(gamma, goal)
        subs = set()
        for t in list(gamma) + [goal]:
            subs |= subterms(t)
        assert idx.size <= len(subs) ** 2 + len(subs) + 1
        pst = set()
        for t in list(gamma) + [goal]:
            pst |= proper_subterms(t)
        assert set(gamma) | {goal} | pst <= set(idx.nodes)
        assert idx.in_gamma(gamma[0])
        assert idx.is_goal(goal)


def test_size_counts_symbols_names_variables():
    assert a.size == 1
    assert pair(a, b).size == 3
    assert plus(a, b, c).size == 5  # two binary applications
    assert enc(pair(a, b), var("x")).size == 5


def test_slots_agree_with_walking_oracles():
    rng = random.Random(11)
    names = [a, b, c, k]
    xs = [var(v) for v in ("x", "y", "z")]
    theories = make_theories(("xor", "ag"))  # +, 0 and *, 1, inv
    generated = [gen_ground(rng, names + xs, theories, depth=4) for _ in range(600)]
    generated += [gen_sigma_term(rng, names, depth=3, vars_ok=xs) for _ in range(300)]
    for _ in range(100):
        s = gen_wf_system(rng)
        generated += [t for con in s.constraints for t in (con.goal, *con.sigma)]
    seen = set()
    for t in generated:
        seen |= subterms(t)
    for u in seen:
        assert u.vars == walked_variables(u), u
        assert u.size == recursive_size(u), u
        assert variables(u) is u.vars
    heads = {u.sym for u in seen if u.kind == EAPP}
    assert heads == {"+", "*", "inv", "0", "1"}
    assert any(u.kind == EAPP and len(u.args) > 2 for u in seen)  # flattened AC
    for sym in ("enc", "pair"):
        assert any(u.kind == CAPP and u.sym == sym and any(w.kind == VAR for w in u.args)
                   for u in seen)


def test_slots_share_variable_sets():
    x = var("x")
    assert a.vars is pair(a, b).vars is eapp("0", ()).vars  # one empty set
    assert x.vars == {x}
    assert pair(x, a).vars is x.vars
    assert enc(pair(x, a), var("y")).vars == {x, var("y")}


def test_size_of_a_deep_chain_does_not_recurse():
    t = var("x")
    for _ in range(5000):
        t = pair(t, a)
    assert t.size == 10_001
    assert variables(t) == {var("x")}


def test_is_e_alien():
    assert is_e_alien(pair(a, b), XOR)
    assert not is_e_alien(plus(a, b), XOR)
    assert is_e_alien(eapp("inv", (a,)), XOR)  # inv is AG vocabulary
    assert not is_e_alien(eapp("inv", (a,)), AG)
    assert not is_e_alien(a, XOR)
    assert not is_e_alien(var("x"), XOR)


def test_subterms_example():
    t = enc(a, pair(b, c))
    assert subterms(t) == {t, a, pair(b, c), b, c}
    assert proper_subterms(t) == {a, pair(b, c), b, c}
    assert t.args == (a, pair(b, c))


def test_variables_and_ground():
    t = enc(var("x"), pair(a, var("y")))
    assert variables(t) == {var("x"), var("y")}
    assert not variables(substitute(t, {var("x"): a, var("y"): b}))


def test_substitute_recanonicalizes():
    t = plus(var("x"), b)
    assert substitute(t, {var("x"): plus(a, c)}) is plus(a, b, c)


def test_capp_arity_errors():
    with pytest.raises(ValueError):
        capp("pair", (a,))
    with pytest.raises(ValueError):
        capp("nosuch", (a, b))


def test_parse_format_round_trip_examples():
    for s, t in [
        ("pair(a, b) + a", plus(pair(a, b), a)),
        ("?x", var("x")),
        ("inv(a) * b", eapp("*", (eapp("inv", (a,)), b))),
        ("0", eapp("0", ())),
        ("1", eapp("1", ())),
        ("sign(blind(m, r), k)", sign(blind(m, r), k)),
        ("pub(k)", pub(k)),
        ("a+b+c", plus(a, b, c)),
    ]:
        assert parse_term(s) is t
        assert parse_term(format_term(t)) is t


def test_parse_precedence():
    # * binds tighter than +
    assert parse_term("a + b * c") is plus(a, eapp("*", (b, c)))


def test_parse_round_trip_random():
    rng = random.Random(11)
    for _ in range(500):
        t = gen_term(rng)
        assert parse_term(format_term(t)) is t


def test_parse_errors():
    deep = "pair(" * 2000 + "a" + ", a)" * 2000
    for bad in ["pair(a", "", "pair(a,b,c)", "a +", "?", "enc(a b)", "Upper", deep]:
        with pytest.raises(ParseError):
            parse_term(bad)


@pytest.mark.parametrize("text,message", [
    ("pair(a", "expected ')', found 'end of input' (column 7)"),
    ("", "unexpected 'end of input' (column 1)"),
    ("pair(a,b,c)", "pair expects 2 arguments, got 3 (column 1)"),
    ("a +", "unexpected 'end of input' (column 4)"),
    ("?", "unexpected character '?' (column 1)"),
    ("enc(a b)", "expected ')', found 'b' (column 7)"),
    ("Upper", "unexpected character 'U' (column 1)"),
    ("f(a)", "unknown function 'f' (column 1)"),
    ("inv(a, b)", "inv expects 1 argument, got 2 (column 1)"),
    ("a b", "unexpected trailing input 'b' (column 3)"),
    # a character no token starts with is reported before any grammar error
    ("pair(a, b, c) ?", "unexpected character '?' (column 15)"),
    ("a + (b", "expected ')', found 'end of input' (column 7)"),
    ("pair(a,)", "unexpected ')' (column 8)"),
    ("a * * b", "unexpected '*' (column 5)"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as caught:
        parse_term(text)
    assert str(caught.value) == message


def test_parse_depth_bound():
    def nested(depth):
        return "pair(" * depth + "a" + ", a)" * depth

    t = parse_term(nested(MAX_DEPTH))
    # the functions that recurse once per level handle the deepest term
    assert parse_term(format_term(t)) is t
    assert normalize(t, make_theories(("xor",))) is t
    assert deduce([a], t, make_theories(("empty",))) is not None
    with pytest.raises(ParseError, match=r"term nested too deep to parse \(column 1501\)"):
        parse_term(nested(MAX_DEPTH + 1))
    with pytest.raises(ParseError, match="term nested too deep"):
        parse_term("(" * (MAX_DEPTH + 1) + "a" + ")" * (MAX_DEPTH + 1))
    # the bound is on nesting, not on the number of applications
    wide = "+".join(f"pub(a{i})" for i in range(2 * MAX_DEPTH))
    assert len(parse_term(wide).args) == 2 * MAX_DEPTH


def test_e_factors_respects_theory_signature():
    # the + based XOR theory does not own *, so nothing under * is its factor
    t = eapp("*", (a, pair(b, c)))
    assert e_factors(t, XOR) == frozenset()
    assert e_factors(enc(t, k), xor_theory("*")) == {pair(b, c)}


# --- the token loop against the recursive reference ---------------------------

_PIECES = ("a", "b1", "k_x", "?x", "?y", "0", "1", "pub", "sign", "pair", "enc", "blind",
           "inv", "f", "(", ")", ",", "+", "*", " ", "?", "U", "#", "")


def _gen_text(rng, depth=3):
    """A term in concrete syntax, with spaces and redundant parentheses."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return rng.choice(("a", "b1", "k_x", "?x", "?y", "0", "1"))
    if roll < 0.45:
        op = rng.choice(" + * ".split())
        return op.join(_gen_text(rng, depth - 1) for _ in range(rng.randint(2, 3)))
    if roll < 0.55:
        return f"({_gen_text(rng, depth - 1)})"
    if roll < 0.65:
        return f"inv({_gen_text(rng, depth - 1)})"
    head = rng.choice(("pub", "sign", "pair", "enc", "blind"))
    n = 1 if head == "pub" else 2
    return f"{head}({', '.join(_gen_text(rng, depth - 1) for _ in range(n))})"


def _mutate(rng, text):
    """Delete, insert or replace a few pieces of a valid text."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(chars))
        roll = rng.random()
        if roll < 0.4 and at < len(chars):
            del chars[at]
        elif roll < 0.7 or at == len(chars):
            chars[at:at] = rng.choice(_PIECES)
        else:
            chars[at] = rng.choice(_PIECES)
    return "".join(chars)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return str(e)


def test_parse_term_agrees_with_the_recursive_reference():
    rng = random.Random(15)
    nested = ["pair(" * d + "a" + ", a)" * d for d in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1)]
    nested += ["(" * d + "a" + ")" * d for d in (MAX_DEPTH, MAX_DEPTH + 1)]
    texts = nested + [_gen_text(rng) for _ in range(1500)]
    texts += [_mutate(rng, _gen_text(rng)) for _ in range(3000)]
    errors = 0
    for text in texts:
        got, want = _outcome(parse_term, text), _outcome(reference_parse_term, text)
        assert got is want or (isinstance(got, str) and got == want), text
        errors += isinstance(got, str)
    assert 1000 < errors < len(texts) - 1500  # both outcomes are well covered


def _gen_list(rng):
    """Comma-separated terms, with empty parts and spaces around the commas."""
    parts = [_gen_text(rng, depth=2) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 2)):
        parts.insert(rng.randint(0, len(parts)), rng.choice(("", " ")))
    return rng.choice((",", ", ", " ,")).join(parts)


_LISTS = ["", " ", ",", " , ,", "a,,b", "a, b,", ",a", "a b, c", "(a, b)", "(a), b",
          "a), b", "a), (b, c", "a, b)", "pair(a, b)), c", "((a), b", "a, b, c$d",
          "a, b, c +", "a +, b", "a, *b", "pair(a, b) c, d", "a, pair(b, (c)), ?x",
          "a\tb, c", "a, b#c", "sign(a, b), pub(", "inv(a), inv(a, b)"]


def test_parse_term_list_agrees_with_the_part_by_part_reference():
    rng = random.Random(21)
    texts = _LISTS + [_gen_list(rng) for _ in range(1500)]
    texts += [_mutate(rng, _gen_list(rng)) for _ in range(3000)]
    errors = 0
    for text in texts:
        got = _outcome(parse_term_list, text)
        want = _outcome(reference_parse_term_list, text)
        if isinstance(want, str):
            assert got == want, text
            errors += 1
        else:
            assert isinstance(got, list) and len(got) == len(want), text
            assert all(g is w for g, w in zip(got, want)), text
    assert 1000 < errors < len(texts) - 1500  # both outcomes are well covered


def test_parse_term_list_reads_valid_text_in_one_scan(monkeypatch):
    # the part-by-part reading is only for text that does not parse
    monkeypatch.setattr(terms, "parse_term", None)
    assert parse_term_list(" a, pair(b, (c)) ,, k +  inv(a),") == [
        a, pair(b, c), plus(k, eapp("inv", (a,)))]
    with pytest.raises(TypeError):
        parse_term_list("a, b)")


# --- weak hash-consing -------------------------------------------------------


def _live_entries():
    return sum(ref() is not None for ref in list(terms._intern.values()))


def test_a_live_term_is_shared_by_a_fresh_parse():
    t = parse_term("enc(pair(live_a, live_b), live_a + live_k)")
    assert parse_term("enc( pair(live_a,live_b), (live_k + live_a) )") is t
    assert enc(pair(name("live_a"), name("live_b")), plus(name("live_k"), name("live_a"))) is t


def test_the_table_shrinks_when_the_last_reference_goes():
    before = len(terms._intern)
    t = parse_term("sign(blind(gone_m, gone_r), gone_s) + pair(gone_m, gone_m)")
    assert len(terms._intern) == before + 7
    kept = parse_term("blind(gone_m, gone_r)")  # outlives the term it came from
    assert kept in t.args[1].args
    del t
    assert len(terms._intern) == before + 3
    del kept
    assert len(terms._intern) == before
    assert _live_entries() == len(terms._intern)  # no dead entry is left behind


def test_a_late_callback_leaves_a_new_entry_alone():
    # another thread can rebuild a term between its death and its callback;
    # the dead entry's callback then runs with the new entry in its slot
    t = parse_term("pair(late_a, late_b)")
    ident = (t.kind, t.sym, t.args)
    stale = terms._intern[ident]
    del t
    assert stale() is None and ident not in terms._intern
    t = parse_term("pair(late_a, late_b)")
    terms._drop(stale)
    assert terms._intern[ident]() is t
    assert parse_term("pair(late_a,late_b)") is t


def test_variables_stay_interned():
    before = len(terms._intern)
    x = parse_term("pair(?pinned_x, gone_a)").args[0]
    assert len(terms._intern) == before + 1
    ident = id(x)
    del x
    assert id(var("pinned_x")) == ident


def test_four_threads_share_one_term_per_structure():
    """Threads intern overlapping terms, dropping and rebuilding them as they go."""
    structures = [f"enc(pair(th_{j % 7}, th_{j % 5}), th_{j % 3} + th_{j})" for j in range(60)]
    results: list[list] = [None] * 4
    start = threading.Barrier(4)

    def work(k):
        rng = random.Random(k)
        order = list(range(len(structures)))
        start.wait(timeout=60)
        for _ in range(30):  # rounds of build and drop, so entries die and come back
            rng.shuffle(order)
            for j in order[:20]:
                parse_term(structures[j])
        rng.shuffle(order)
        built = {j: parse_term(structures[j]) for j in order}
        results[k] = [built[j] for j in range(len(structures))]

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
    assert all(r is not None for r in results)  # no thread raised
    for j, text in enumerate(structures):
        t = results[0][j]
        assert all(r[j] is t for r in results), text
        assert parse_term(text) is t
    assert _live_entries() == len(terms._intern)
