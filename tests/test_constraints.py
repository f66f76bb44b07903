import itertools
import random

import pytest

from conftest import GroundOracle, gen_wf_system, ground_universe, instrumented_solve
from oracles import (exhaustive_solve, multiset_less, recursive_size, step,
                     walked_variables)
from test_acceptance import NAMES_DESK, X, Y, _desk_terms, desk_systems
from intruder import constraints
from intruder.constraints import (PROPER, RIGHT, Constraint, ConstraintSystem, RULES,
                                  Substitution, extract_solution, measure_less, mgu,
                                  parse_constraint_file, parse_constraint_line,
                                  proper, right, shared_names, solve, successors,
                                  system, system_measure, verify_solution,
                                  well_formed)
from intruder.terms import VAR, eapp, enc, name, pair, substitute, var, variables

a, b, c, k, m = (name(n) for n in "abckm")
x, y = var("x"), var("y")


def test_mgu_examples():
    assert mgu(enc(a, y), enc(a, b)).as_dict() == {y: b}
    assert mgu(x, pair(x, a)) is None  # occurs check
    got = mgu(pair(x, enc(x, var("k"))), pair(a, enc(a, b)))
    assert got.as_dict() == {x: a, var("k"): b}
    assert mgu(pair(a, b), enc(a, b)) is None
    assert not mgu(a, a).pairs


def test_substitution_operations():
    s1 = Substitution.of({x: pair(y, a)})
    s2 = Substitution.of({y: b})
    assert s1.compose(s2).as_dict() == {x: pair(b, a), y: b}
    assert s1.compose(s2).restrict([x]).as_dict() == {x: pair(b, a)}
    assert not Substitution.of({x: x}).pairs
    cs = proper({x}, y)
    got = Substitution.of({x: a, y: b}).apply_constraint(cs)
    assert got == proper({a}, b)


def test_step_c5_example():
    s = system(proper({a, enc(m, k), k}, m))
    results = step(s)
    want = s.replace((right({a, enc(m, k), k}, k), proper({a, m, k}, m)))
    hits = [(rule, nxt) for rule, _theta, nxt in results]
    assert ("C5", want) in hits
    # the same proper constraint also relaxes via C3
    assert ("C3", s.replace((right({a, enc(m, k), k}, m),))) in hits


def test_step_c2_example():
    s = system(right({a}, pair(x, y)))
    results = step(s)
    want = s.replace((right({a}, x), right({a}, y)))
    assert [(rule, nxt) for rule, _theta, nxt in results] == [("C2", want)]


def test_step_c1_example():
    # reduction is defined on arbitrary constraint lists; this input is not
    # itself a well-formed system (?x has no originating goal)
    s = system(right({a, enc(b, x)}, enc(b, a)))
    hits = [(rule, theta.as_dict(), nxt.constraints)
            for rule, theta, nxt in step(s)]
    assert ("C1", {x: a}, ()) in hits


def test_step_c4():
    s = system(proper({a, pair(b, k)}, b))
    want = s.replace((proper({a, b, k}, b),))
    assert ("C4", want) in [(rule, nxt) for rule, _t, nxt in step(s)]
    # C4 requires the components to be absent as a pair only
    again = [rule for rule, _t, _n in step(want)]
    assert "C4" not in again


def test_c1_ignores_proper_and_variable_goals():
    rules = [rule for rule, _t, _n in step(system(proper({a}, a)))]
    assert "C1" not in rules  # proper constraints must pass through C3 first
    rules = [rule for rule, _t, _n in step(system(right({a}, x)))]
    assert rules == []  # solved constraint


def test_solve_already_solved():
    s = system(right({a}, x))
    sols = solve(s, all_solutions=True)
    assert len(sols) == 1
    assert not sols[0].subst.pairs
    assert extract_solution(sols[0].subst, s).as_dict() == {x: a}


def test_solve_c5_chain():
    s = system(proper({a, enc(b, k), k}, b))
    sols = instrumented_solve(s)
    assert sols
    ground = extract_solution(sols[0].subst, s)
    assert verify_solution(s, ground)


def test_solve_unsatisfiable():
    s = system(right({a}, enc(b, x)))
    assert solve(s, all_solutions=True) == []


def test_solve_rejects_ill_formed():
    bad = system(right({a, enc(b, x)}, enc(b, a)))
    with pytest.raises(ValueError) as e:
        solve(bad)
    assert "condition 2" in str(e.value)


def test_solve_budget():
    s = system(proper({a, enc(b, k), k}, b))
    with pytest.raises(RuntimeError):
        solve(s, max_nodes=1)


def test_extract_fills_leftovers_with_public():
    s = system(right({a}, pair(x, y)))
    got = extract_solution(Substitution.of({y: b}), s)
    assert got.as_dict() == {x: a, y: b}


def test_verify_solution_examples():
    assert verify_solution(system(right({a}, x)), Substitution.of({x: a}))
    assert not verify_solution(system(proper({a}, enc(b, c))), Substitution())
    # right constraints check synthesis only: pairs in sigma do not decompose
    s = system(right({a, pair(b, c)}, b))
    assert not verify_solution(s, Substitution())
    assert verify_solution(system(proper({a, pair(b, c)}, b)), Substitution())


def test_measures():
    r1 = right({a, b}, pair(x, y))
    p1 = proper({a, pair(b, k)}, b)
    assert r1.measure == (0, 3)
    assert p1.measure == (1, 4)
    s = system(p1)
    for _rule, _theta, nxt in step(s):
        assert measure_less(system_measure(nxt), system_measure(s))
    assert not measure_less(system_measure(s), system_measure(s))


def _measure_pairs(rng):
    """Pairs of system_measure-shaped values: equal multisets, proper
    sub-multisets, multisets that differ only in multiplicity, unequal
    variable counts and unrelated multisets."""
    def shaped(n, ms):
        return (n, tuple(sorted(ms, reverse=True)))

    for _ in range(400):
        ms = [(rng.randint(0, 1), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))]
        n = rng.randint(0, 2)
        other = list(ms)
        rng.shuffle(other)
        yield shaped(n, ms), shaped(n, other)
        if ms:
            sub = rng.sample(ms, rng.randint(0, len(ms) - 1))
            yield shaped(n, sub), shaped(n, ms)
            yield shaped(n, ms + [rng.choice(ms)]), shaped(n, ms)
            yield shaped(n, [ms[0]] * rng.randint(1, 3)), shaped(n, [ms[0]] * rng.randint(1, 3))
        yield shaped(n, ms), shaped(n + rng.choice((-1, 1)), ms + [(1, 9)])
        yield shaped(n, ms), shaped(n, [(rng.randint(0, 1), rng.randint(1, 4))
                                        for _ in range(rng.randint(0, 5))])


def test_measure_less_is_the_multiset_order():
    rng = random.Random(62)
    kinds = set()
    for m, n in _measure_pairs(rng):
        assert not measure_less(m, m)
        for u, v in ((m, n), (n, m)):
            assert measure_less(u, v) == multiset_less(u, v), (u, v)
        kinds.add((m == n, measure_less(m, n), measure_less(n, m)))
    # every outcome occurs: equal, below, above, and never both ways
    assert kinds == {(True, False, False), (False, True, False), (False, False, True)}


def _assert_cached_fields(c):
    assert c.sigma_vars == frozenset().union(*map(walked_variables, c.sigma)), c
    if c.kind == RIGHT:
        assert c.measure == (0, recursive_size(c.goal)), c
    else:
        assert c.measure == (1, sum(map(recursive_size, c.sigma))), c


def test_constraints_carry_their_variables_and_measure():
    rng = random.Random(63)
    # the sessions give knowledge sets whose terms hold different variables
    roots = [gen_wf_system(rng) for _ in range(200)]
    roots += [_session(4, True), _session(4, False)]
    seen = 0
    for s in roots:
        children = []
        instrumented_solve(s, children=children, all_solutions=True)
        for sys_ in [s] + children:
            for c in sys_.constraints:
                _assert_cached_fields(c)
                seen += 1
            walked = set()
            for c in sys_.constraints:
                walked |= walked_variables(c.goal)
                for t in c.sigma:
                    walked |= walked_variables(t)
            assert sys_.variables() == walked
            measures = sorted((c.measure for c in sys_.constraints), reverse=True)
            assert system_measure(sys_) == (len(walked), tuple(measures))
        for parent in [s] + children:
            for _rule, _i, _n, child, _theta in successors(parent):
                assert multiset_less(system_measure(child), system_measure(parent))
    assert seen > 2000
    # in a well-formed system every knowledge variable is also some goal's
    assert system(right({a, enc(b, x)}, a)).variables() == {x}


def test_apply_constraint_shares_what_it_does_not_touch():
    z = var("z")
    c = proper({a, enc(b, x)}, pair(x, y))
    assert Substitution().apply_constraint(c) is c
    assert Substitution.of({z: a}).apply_constraint(c) is c
    for theta, want in ((Substitution.of({x: b}), proper({a, enc(b, b)}, pair(b, y))),
                        (Substitution.of({y: a}), proper({a, enc(b, x)}, pair(x, a)))):
        got = theta.apply_constraint(c)
        assert got == want and got is not c
        assert got.sigma_vars == want.sigma_vars and got.measure == want.measure
    # C1 binds ?x := a: the constraints it leaves alone are the parent's objects
    s = system(right({a}, x), right({a}, z), right({a, enc(x, b)}, enc(a, b)),
               proper({a, b}, b), proper({a, x, enc(x, b)}, x), public_name=a)
    [(_rule, i, _n, child, theta)] = [e for e in successors(s) if e[0] == "C1"]
    assert theta.as_dict() == {x: a}
    old = s.constraints[:i] + s.constraints[i + 1:]
    shared = [after is before for before, after in zip(old, child.constraints)]
    assert shared == [False, True, True, False]


def test_equal_constraints_built_apart_stay_equal():
    c1 = proper({a, pair(b, x)}, x)
    c2 = Constraint(PROPER, frozenset([pair(b, x), a]), x)
    assert c1 is not c2 and c1 == c2 and hash(c1) == hash(c2)
    assert hash(c1) == hash((PROPER, frozenset({a, pair(b, x)}), x))
    assert c1 != right({a, pair(b, x)}, x)
    assert repr(c1) == "a, pair(b,?x) |- ?x"
    assert {system(c1): 1}[system(c2)] == 1


def test_the_hash_is_cached_and_the_first_unsolved_found_in_one_scan():
    systems = list(desk_systems(400))
    for s in systems:
        first = constraints._first_unsolved(s)
        flags = [c.kind == RIGHT and c.goal.kind == VAR for c in s.constraints]
        assert first == (flags.index(False) if False in flags else len(flags))
        assert [c.solved for c in s.constraints] == flags
        assert list(successors(s, first)) == list(successors(s))
        for c in s.constraints:
            assert hash(c) == hash((c.kind, c.sigma, c.goal))
    assert sum(len(solve(s, all_solutions=True)) for s in systems) > 0


def test_a_system_has_one_public_name_however_it_is_built():
    starts = list(desk_systems(400))
    for s in starts:
        cs = s.constraints
        assert ConstraintSystem(cs).public_name == system(*cs).public_name
    # an explicit name is kept, even when a smaller name is shared
    s = system(right({a, b}, x), proper({a, b, enc(x, b)}, x), public_name=b)
    assert s.public_name is b and ConstraintSystem(s.constraints, b).public_name is b

    def reached(start):
        out = []
        solve(start, all_solutions=True, on_edge=lambda *edge: out.append(edge[-1]))
        return out

    assert reached(s)
    for start in [s] + starts:
        assert all(t.public_name is start.public_name for t in reached(start))


def test_a_deep_pair_goal_is_checked_and_solved_without_recursing():
    t = a
    for _ in range(3000):
        t = pair(a, t)
    s = system(right({a}, t))
    assert well_formed(s) == []
    assert len(solve(s)) == 1


def test_well_formed_names_the_violated_condition():
    msgs = well_formed(system(right({a, enc(b, x)}, enc(b, a))))
    assert any("condition 2" in m for m in msgs)
    msgs = well_formed(system(proper({a, b}, b), proper({a}, a)))
    assert any("condition 1" in m for m in msgs)
    msgs = well_formed(system(proper({a, eapp("+", (a, b))}, a)))
    assert any("outside pair, enc" in m for m in msgs)
    assert well_formed(system(proper({a, enc(b, k), k}, b))) == []


def test_well_formed_accepts_recoverable_non_chains():
    # left sides differ but the earlier knowledge is recoverable later
    s = system(right({a, enc(m, k), k}, k), proper({a, m, k}, m))
    assert well_formed(s) == []


def test_public_name_bookkeeping():
    s = system(proper({a, b}, b), proper({a, b, c}, c))
    assert shared_names(s) == {a, b}
    assert s.public_name is a  # inferred: least shared name
    forced = system(proper({a, b}, b), public_name=b)
    assert forced.public_name is b
    msgs = well_formed(system(proper({b}, b), public_name=a))
    assert any("missing" in m for m in msgs)


def test_step_preserves_well_formedness_and_measure():
    rng = random.Random(60)
    for _ in range(60):
        s = gen_wf_system(rng)
        for rule, _theta, nxt in step(s):
            assert not well_formed(nxt), (rule, s, nxt)
            assert measure_less(system_measure(nxt), system_measure(s))


def test_solver_soundness_random():
    rng = random.Random(61)
    sat = 0
    for _ in range(120):
        s = gen_wf_system(rng)
        sols = instrumented_solve(s)
        if not sols:
            continue
        sat += 1
        ground = extract_solution(sols[0].subst, s)
        assert verify_solution(s, ground), (s, ground)
    assert sat >= 30


def test_solver_completeness_small():
    oracle = GroundOracle()
    universe = ground_universe([a, b])
    cases = [
        system(right({a}, x)),
        system(right({a}, enc(b, x))),
        system(proper({a, enc(b, k), k}, b)),
        system(right({a}, pair(x, x))),
        system(proper({a}, x), proper({a, enc(b, a)}, b)),
        system(right({a}, pair(a, x)), proper({a, enc(b, x)}, b)),
    ]
    for s in cases:
        sols = solve(s, all_solutions=True)
        assert bool(sols) == oracle.satisfiable(s, universe), s


def test_reducibility_is_monotone_in_sigma():
    rng = random.Random(62)
    extra = pair(name("w"), name("w"))
    for _ in range(60):
        s = gen_wf_system(rng)
        if not step(s):
            continue
        bigger = s.replace(tuple(Constraint(cc.kind, cc.sigma | {extra}, cc.goal)
                                 for cc in s.constraints))
        assert step(bigger), (s, bigger)


def _instance(form, target, vs):
    """A binding b with b(form.subst(v)) equal to target(v) for every v in vs,
    or None. The targets must be ground, so mgu binds only the form's
    variables; _frozen grounds a target that has variables."""
    binding = Substitution()
    for v in vs:
        theta = mgu(binding(form.subst(v)), target(v))
        if theta is None:
            return None
        binding = binding.compose(theta)
    return binding


def _frozen(subst, vs):
    """subst on vs with every variable replaced by a name of its own."""
    fix = {u: name("fixed_" + u.sym) for v in vs for u in variables(subst(v))}
    return Substitution.of({v: substitute(subst(v), fix) for v in vs})


def test_strategies_agree_on_satisfiability():
    # the exhaustive oracle reduces every constraint in every order; reducing
    # only the first unsolved one must lose none of its solved forms
    rng = random.Random(63)
    for _ in range(50):
        s = gen_wf_system(rng, max_constraints=2)
        vs = sorted(s.variables(), key=lambda t: t.key)
        forms = solve(s, all_solutions=True)
        full = exhaustive_solve(s)
        assert bool(forms) == bool(full), s
        for sol in full:
            frozen = _frozen(sol.subst, vs)
            assert any(_instance(f, frozen, vs) is not None for f in forms), (s, sol)


def _assert_ground_solutions_covered(systems, universe):
    """Every ground solution of each system, over the universe, instantiates
    a solved form from solve(all_solutions=True) and satisfies what is left
    of that form. Returns the number of ground solutions checked."""
    oracle = GroundOracle()
    checked = 0
    for s in systems:
        vs = sorted(s.variables(), key=lambda t: t.key)
        forms = solve(s, all_solutions=True)
        for values in itertools.product(universe, repeat=len(vs)):
            ground = Substitution.of(dict(zip(vs, values)))
            if not oracle.holds(s, ground):
                continue
            checked += 1
            for f in forms:
                binding = _instance(f, ground, vs)
                if binding is not None and oracle.holds(f.system, binding):
                    break
            else:
                raise AssertionError(f"{ground!r} instantiates no solved form of\n{s!r}")
    return checked


def test_every_ground_solution_is_an_instance_of_a_solved_form():
    checked = _assert_ground_solutions_covered(desk_systems(400),
                                               ground_universe(NAMES_DESK))
    assert checked > 0
    rng = random.Random(7)
    small = [s for s in (gen_wf_system(rng) for _ in range(400))
             if len(s.variables()) <= 2]
    checked = _assert_ground_solutions_covered(
        small, ground_universe([name(n) for n in "abck"]))
    assert len(small) > 250 and checked > 0


def test_parse_constraint_line():
    got = parse_constraint_line("a, pair(b, ?x) |- enc(?x, b)")
    assert got == proper({a, pair(b, x)}, enc(x, b))
    got = parse_constraint_line("a |-R ?x")
    assert got == right({a}, x)
    with pytest.raises(ValueError):
        parse_constraint_line("a, b")


def test_parse_constraint_file():
    text = """
    # an example file
    public a
    a, enc(b, k), k |- b
    a, enc(b, k), k, b |-R ?x
    """
    s = parse_constraint_file(text)
    assert s.public_name is a
    assert s.constraints == (proper({a, enc(b, k), k}, b),
                             right({a, enc(b, k), k, b}, x))


def test_parse_constraint_file_errors():
    with pytest.raises(ValueError) as e:
        parse_constraint_file("a |- b\npublic a\n")
    assert "line 2" in str(e.value) and "first line" in str(e.value)
    with pytest.raises(ValueError) as e:
        parse_constraint_file("public pair(a, b)\n")
    assert "must be a name" in str(e.value)
    with pytest.raises(ValueError) as e:
        parse_constraint_file("a |- b\nenc(a |- c\n")
    assert "line 2" in str(e.value)


def test_solution_edges_stay_within_the_rule_set():
    record = []
    s = system(proper({a, enc(b, k), k}, b), proper({a, b, k, enc(m, b)}, m))
    sols = instrumented_solve(s, record=record, all_solutions=True)
    assert sols and record
    assert set(record) <= set(RULES)


def test_reductions_measure_the_parent_once(monkeypatch):
    root = next(s for s in desk_systems(400) if len(list(successors(s))) == 2)
    calls = []
    real = constraints.system_measure

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(constraints, "system_measure", counting)
    children = [edge[3] for edge in successors(root)]
    assert len(children) == 2
    assert len(calls) == len(children) + 1
    assert [s for s in calls if s is root] == [root]


# --- the cuts of the production search ---------------------------------------------

# satisfiable only with ?x := b and ?x := a respectively: C1 must unify the
# goal with the variable member, because the first constraint may decompose
# its knowledge to choose ?x and the |-R constraint may not
C1_ON_VARIABLE = (
    "public a\na, pair(a, b) |- ?x\na, ?x, pair(a, b) |-R b\n",
    "public c\nc, enc(a, c) |- ?x\nc, enc(a, c), ?x |-R a\n",
)


@pytest.mark.parametrize("text", C1_ON_VARIABLE)
def test_c1_binds_a_variable_member_the_context_cannot_rebuild(text):
    s = parse_constraint_file(text)
    sols = instrumented_solve(s)
    assert sols, s
    ground = extract_solution(sols[0].subst, s)
    assert verify_solution(s, ground), ground


def _chosen_value_systems(stride):
    """The family k0 sigma |- ?x ; k1 sigma + {?x} |- g over the desk-scale
    knowledge sets and goals, every stride-th member, plus the systems of
    C1_ON_VARIABLE."""
    ground = _desk_terms(())
    sigmas = [frozenset({n}) for n in NAMES_DESK] + \
             [frozenset({n, t}) for n in NAMES_DESK for t in ground if t is not n]
    family = [system(Constraint(k0, sigma, X), Constraint(k1, sigma | {X}, g))
              for k0 in (PROPER, RIGHT) for k1 in (PROPER, RIGHT)
              for sigma in sigmas for g in _desk_terms((X, Y))]
    assert len(family) == 13_860
    return family[::stride] + [parse_constraint_file(t) for t in C1_ON_VARIABLE]


def test_chosen_value_family_agrees_with_ground_enumeration():
    # the family where a later constraint may need the value an earlier
    # one chose; cutting C1 on variable members outright answers
    # "unsatisfiable" for 450 of its satisfiable systems
    oracle = GroundOracle()
    universe = ground_universe(NAMES_DESK)
    satisfiable = 0
    for s in _chosen_value_systems(stride=5):
        got = bool(solve(s))
        assert got == oracle.satisfiable(s, universe), s
        satisfiable += got
    assert satisfiable > 100


def _session(steps, satisfiable):
    """The intruder picks ?x_j, the server answers enc(n_j, pair(?x_j, n_{j-1})),
    and the last constraint asks for the final nonce. Unsatisfiable: the last
    answer is keyed with the private name b instead of ?x_j."""
    pub = name("a")
    known, items, prev = [pub], [], pub
    for j in range(steps):
        xj = var(f"x{j}")
        items.append(right(known, xj))
        half = xj if satisfiable or j < steps - 1 else b
        known = known + [enc(name(f"n{j}"), pair(half, prev))]
        prev = name(f"n{j}")
    items.append(proper(known, prev))
    return system(*items, public_name=pub)


def test_session_search_grows_slowly():
    # the full calculus took 79, 409, 2,479 and 17,473 edges to refute the
    # sessions of 3 to 6 steps, splitting pairs and binding chosen values in
    # every order
    def edges(s):
        record = []
        sols = instrumented_solve(s, record=record)
        return sols, len(record)

    counts = {}
    for steps in (4, 6, 8):
        sols, counts[steps] = edges(_session(steps, False))
        assert sols == []
    assert counts[8] < 150, counts
    assert counts[4] < counts[6] < counts[8]
    s = _session(8, True)
    sols, n = edges(s)
    assert sols and n < 150
    assert verify_solution(s, extract_solution(sols[0].subst, s))
