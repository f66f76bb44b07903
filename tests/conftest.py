"""Shared generators and structural assertions for the suite.

Everything that produces random data takes an explicit random.Random so runs
are reproducible; acceptance tests pin their own seeds.
"""
import itertools

from oracles import left_rule_count, saturate, sequents_of
from intruder import (Constraint, ConstraintSystem, deduce, make_theories,
                      normalize, proper, right, system)
from intruder import engine
from intruder.constraints import (RIGHT, Substitution, measure_less,
                                  system_measure, verify_solution, well_formed)
from intruder.proofs import find_error, is_normal_derivation, linear_to_seq
from intruder.terms import Term, capp, eapp, enc, name, pair, var

CONSTRUCTORS = (("pub", 1), ("sign", 2), ("blind", 2), ("pair", 2), ("enc", 2))


def pick(rng, xs):
    return xs[rng.randrange(len(xs))]


def holes(w):
    """The number of holes in an elementary witness's context."""
    if w.kind == "empty":
        return 1
    if w.kind == "xor":
        return len(w.entries)
    return sum(abs(c) for _, c in w.entries)


def gen_ground(rng, names, theories=(), depth=3, constructors=CONSTRUCTORS):
    """A random ground term over the given names and theory signatures."""
    acs = [th for th in theories if th.ac_symbol]
    if depth <= 0 or rng.random() < 0.3:
        pool = list(names)
        for th in acs:
            for sym, arity in th.symbols.items():
                if arity == 0:
                    pool.append(eapp(sym, ()))
        return pick(rng, pool)
    roll = rng.random()
    if acs and roll < 0.45:
        th = pick(rng, acs)
        args = [gen_ground(rng, names, theories, depth - 1, constructors)
                for _ in range(rng.randint(2, 3))]
        if "inv" in th.symbols and rng.random() < 0.3:
            args[0] = eapp("inv", (args[0],))
        return eapp(th.ac_symbol, args)
    sym, arity = pick(rng, constructors)
    return capp(sym, tuple(gen_ground(rng, names, theories, depth - 1, constructors)
                           for _ in range(arity)))


def gen_instance(rng, names, theories, max_gamma=4, depth=3, st_cap=None,
                 constructors=CONSTRUCTORS):
    """A normalized (gamma, goal) pair, optionally capped by saturated-set size.

    The goal is biased toward subterms of gamma so both verdicts show up.
    """
    while True:
        gamma = [normalize(gen_ground(rng, names, theories, depth, constructors),
                           theories)
                 for _ in range(rng.randint(1, max_gamma))]
        if rng.random() < 0.5:
            host = pick(rng, gamma)
            sub = sorted(saturate([host], host), key=lambda t: t.key)
            goal = pick(rng, sub)
        else:
            goal = normalize(gen_ground(rng, names, theories, depth, constructors),
                             theories)
        if st_cap is not None and saturate(gamma, goal).size > st_cap:
            continue
        return gamma, goal


def assert_structural(d, theories):
    """The three bounds every engine derivation must satisfy.

    Every sequent stays inside the initial saturated set, the number of
    left-rule applications is at most its size, and the sequent-calculus
    reading of the proof is a normal derivation.
    """
    idx = saturate(d.conclusion.gamma, d.conclusion.goal)
    nodes = frozenset(idx)
    for seq in sequents_of(d):
        stray = (set(seq.gamma) | {seq.goal}) - nodes
        assert not stray, f"sequent {seq!r} leaves the saturated set: {stray}"
    assert left_rule_count(d) <= idx.size, \
        f"{left_rule_count(d)} left rules > {idx.size} saturated nodes"
    s = linear_to_seq(d)
    err = find_error(s, theories)
    assert err is None, err
    assert is_normal_derivation(s)


def deduce_checked(gamma, goal, theories, rng=None):
    """engine.deduce plus checker and structural assertions on success."""
    d = engine.deduce(gamma, goal, theories, rng=rng)
    if d is not None:
        err = find_error(d, theories)
        assert err is None, err
        assert_structural(d, theories)
    return d


# --- constraint-system generation ---------------------------------------------------


def gen_sigma_term(rng, names, depth=2, vars_ok=()):
    pool = list(names) + list(vars_ok)
    if depth <= 0 or rng.random() < 0.45:
        return pick(rng, pool)
    sym = pick(rng, ("pair", "enc"))
    return capp(sym, (gen_sigma_term(rng, names, depth - 1, vars_ok),
                      gen_sigma_term(rng, names, depth - 1, vars_ok)))


def gen_wf_system(rng, max_constraints=3):
    """A random well-formed system: nested left sides, originating variables.

    Goals mix ground terms (often buildable from the knowledge), fresh
    variables, and constructor terms over both, so solve() sees satisfiable
    and unsatisfiable inputs.
    """
    names = [name(n) for n in ("a", "b", "c", "k")]
    pub = names[0]
    sigma = {pub} | {gen_sigma_term(rng, names) for _ in range(rng.randint(0, 2))}
    seen_vars = []
    fresh = iter(var(v) for v in ("x", "y", "z"))
    items = []
    for _ in range(rng.randint(1, max_constraints)):
        roll = rng.random()
        if roll < 0.35:
            goal = next(fresh, None)
            if goal is None:
                goal = gen_sigma_term(rng, names, vars_ok=seen_vars)
        elif roll < 0.7 and sigma:
            goal = pick(rng, sorted(sigma, key=lambda t: t.key))
            if rng.random() < 0.5:
                goal = capp(pick(rng, ("pair", "enc")),
                            (goal, pick(rng, sorted(sigma, key=lambda t: t.key))))
        else:
            goal = gen_sigma_term(rng, names, vars_ok=seen_vars)
        kind = rng.random() < 0.6
        items.append(proper(sigma, goal) if kind else right(sigma, goal))
        seen_vars = sorted(set(seen_vars) | set(_vars_of(goal)), key=lambda t: t.key)
        sigma = sigma | {gen_sigma_term(rng, names, vars_ok=seen_vars)
                         for _ in range(rng.randint(0, 2))}
    s = system(*items, public_name=pub)
    assert not well_formed(s), well_formed(s)
    return s


def _vars_of(t):
    from intruder.terms import variables
    return variables(t)


def instrumented_solve(s, record=None, children=None, **kw):
    """solve() with every explored edge checked for the two step invariants.

    record, if given, collects the rule of every edge and children its child.
    """
    from intruder.constraints import solve

    def on_edge(parent, rule, delta, child):
        assert measure_less(system_measure(child), system_measure(parent)), \
            f"{rule} did not shrink the measure"
        problems = well_formed(child)
        assert not problems, f"{rule} successor ill-formed: {problems}"
        if record is not None:
            record.append(rule)
        if children is not None:
            children.append(child)

    return solve(s, on_edge=on_edge, **kw)


# --- ground enumeration oracle for constraint systems -------------------------------


def ground_universe(names, max_size=3):
    """All ground pair/enc terms of at most the given size over the names."""
    names = list(names)
    out = list(names)
    if max_size >= 3:
        for sym in ("pair", "enc"):
            for x in names:
                for y in names:
                    out.append(capp(sym, (x, y)))
    return out


class GroundOracle:
    """Brute-force satisfiability of small systems by substitution enumeration.

    Deducibility of instantiated constraints is decided with the engine under
    the empty theory and memoized globally; the same tiny sequents recur
    across assignments and systems.
    """

    def __init__(self):
        self.memo = {}
        self.theories = make_theories(("empty",))

    def deducible(self, gamma, goal, kind):
        key = (gamma, goal, kind)
        hit = self.memo.get(key)
        if hit is None:
            # right constraints demand synthesis alone, matching the solver
            if kind == RIGHT:
                hit = engine.right_deduce(gamma, goal, self.theories) is not None
            else:
                hit = deduce(gamma, goal, self.theories) is not None
            self.memo[key] = hit
        return hit

    def holds(self, s, assignment):
        for c in s.constraints:
            gamma = frozenset(assignment(t) for t in c.sigma)
            goal = assignment(c.goal)
            if not self.deducible(gamma, goal, c.kind):
                return False
        return True

    def satisfiable(self, s, universe):
        vs = sorted(s.variables(), key=lambda t: t.key)
        for values in itertools.product(universe, repeat=len(vs)):
            theta = Substitution.of(dict(zip(vs, values)))
            if self.holds(s, theta):
                return True
        return False
