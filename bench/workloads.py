"""Seeded instance pools for the four benchmark workloads.

Every workload is a pool of templates: problem texts whose names and
variables all end in the placeholder ``SUFFIX``.  Op ``i`` of a run takes
template ``i % len(pool)`` and replaces the placeholder by a suffix unique to
``i``, so each op sees atom names no earlier op used and the intern table and
the global match cache carry nothing useful from one op to the next.  All
names of one instance share the suffix, so renaming keeps the relative order
of its terms and every op of a template does the same work.

The seed picks the name labels, the decoys and the order of knowledge lines.
The sizes, the chain directions and the verdicts are fixed by the pool's
schedule, so two seeds load the program alike and their figures are
comparable.  Each template carries the exit status its construction fixes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

SUFFIX = "_QXXXXXX"


def fresh(text: str, i: int) -> str:
    """The template text with op ``i``'s name suffix (same length as SUFFIX)."""
    return text.replace(SUFFIX, f"_Q{i:06d}")


@dataclass(frozen=True)
class Template:
    label: str     # shape, for reports
    text: str      # problem or constraint file with SUFFIX placeholders
    expect: int    # exit status of the op's verdict, by construction
    theory: str    # theory the problem lives in


def _labels(rng: random.Random, n: int, descending: bool = False) -> list[int]:
    """n distinct three-digit labels, sorted so chain order is fixed."""
    return sorted(rng.sample(range(100, 1000), n), reverse=descending)


def _problem(theory: str, knows: list[str], goal: str, rng: random.Random) -> str:
    rng.shuffle(knows)
    lines = [f"theory: {theory}"] + [f"knows: {k}" for k in knows] + [f"goal: {goal}"]
    return "\n".join(lines) + "\n"


# --- dy-deduce: free-theory chains -------------------------------------------

DY_LINKS = tuple(range(6, 25, 2))
TOY_DY_LINKS = (3, 5)


def enc_chain(rng: random.Random, n: int, positive: bool, descending: bool) -> Template:
    """k0 opens enc(k1, k0), k1 opens the next link, ..., up to k_n.

    Decoys are ciphertexts under a withheld key.  The negative goal pairs the
    chain's end with a withheld name, so the whole chain opens first.
    """
    ks = [f"k{x}{SUFFIX}" for x in _labels(rng, n + 1, descending)]
    knows = [ks[0]] + [f"enc({ks[j + 1]}, {ks[j]})" for j in range(n)]
    for x, y in zip(_labels(rng, n // 2), _labels(rng, n // 2)):
        key = f"e{y}{SUFFIX}"
        if rng.random() < 0.5:
            key = f"pair({rng.choice(ks)}, {key})"
        knows.append(f"enc(d{x}{SUFFIX}, {key})")
    goal = ks[n] if positive else f"pair({ks[n]}, w{SUFFIX})"
    order = "desc" if descending else "asc"
    return Template(f"enc-{n}-{'pos' if positive else 'neg'}-{order}",
                    _problem("empty", knows, goal, rng), 0 if positive else 1, "empty")


def blind_chain(rng: random.Random, n: int, positive: bool, descending: bool) -> Template:
    """r0 unblinds sign(blind(r1, r0), s0), whose public key is known, and so on."""
    rs = [f"r{x}{SUFFIX}" for x in _labels(rng, n + 1, descending)]
    sks = [f"s{x}{SUFFIX}" for x in _labels(rng, n)]
    knows = [rs[0]] + [f"sign(blind({rs[j + 1]}, {rs[j]}), {sks[j]})" for j in range(n)]
    knows += [f"pub({k})" for k in sks]
    for x, y in zip(_labels(rng, n // 2), _labels(rng, n // 2)):
        knows.append(f"sign(blind(d{x}{SUFFIX}, e{y}{SUFFIX}), {rng.choice(sks)})")
    goal = rs[n] if positive else f"pair({rs[n]}, w{SUFFIX})"
    order = "desc" if descending else "asc"
    return Template(f"blind-{n}-{'pos' if positive else 'neg'}-{order}",
                    _problem("empty", knows, goal, rng), 0 if positive else 1, "empty")


def dy_pool(seed: int, toy: bool = False) -> list[Template]:
    rng = random.Random(f"dy-deduce:{seed}")
    pool = []
    for n in (TOY_DY_LINKS if toy else DY_LINKS):
        for make in (enc_chain, blind_chain):
            for positive in (True, False):
                for descending in (False, True):
                    pool.append(make(rng, n, positive, descending))
    return pool


# --- eq-deduce: keyed chains under xor, ag and ac ----------------------------

# atoms per link key, for chains of 1 to 4 links
EQ_KEYS = ((4,), (6,), (8,), (3, 5), (3, 7), (2, 6, 4), (4, 3, 5), (5, 2, 3, 6))
TOY_EQ_KEYS = ((3,), (2, 3))


def _pieces(theory: str, atoms: list[str]) -> list[str]:
    """Released parts of the key sum(atoms); only the last holds atoms[-1].

    xor and ag release a1 and every adjacent sum, whose combination is the
    key; ac, which cannot cancel, releases consecutive blocks of two.
    """
    if theory == "ac":
        return [" + ".join(atoms[j:j + 2]) for j in range(0, len(atoms), 2)]
    return [atoms[0]] + [f"{atoms[j]} + {atoms[j + 1]}" for j in range(len(atoms) - 1)]


def _nest(parts: list[str]) -> str:
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = f"pair({p}, {out})"
    return out


def eq_chain(rng: random.Random, theory: str, sizes: tuple[int, ...],
             positive: bool) -> Template:
    """Link j's ciphertext carries the released parts of key j+1; the last
    carries the secret.  The negative withholds the last key's last part, so
    one of its atoms occurs nowhere the intruder can reach."""
    labels = iter(rng.sample(range(100, 1000), sum(sizes)))
    keys = [[f"a{next(labels)}{SUFFIX}" for _ in range(m)] for m in sizes]
    pieces = [_pieces(theory, atoms) for atoms in keys]
    if not positive:
        pieces[-1] = pieces[-1][:-1]
    secret = f"s{SUFFIX}"
    knows = list(pieces[0])
    for j, atoms in enumerate(keys):
        payload = _nest(pieces[j + 1]) if j + 1 < len(keys) else secret
        knows.append(f"enc({payload}, {' + '.join(atoms)})")
    label = f"{theory}-{'x'.join(map(str, sizes))}-{'pos' if positive else 'neg'}"
    return Template(label, _problem(theory, knows, secret, rng), 0 if positive else 1, theory)


def eq_pool(seed: int, toy: bool = False) -> list[Template]:
    rng = random.Random(f"eq-deduce:{seed}")
    return [eq_chain(rng, theory, sizes, positive)
            for theory in ("xor", "ag", "ac")
            for sizes in (TOY_EQ_KEYS if toy else EQ_KEYS)
            for positive in (True, False)]


# --- protocol-solve: pair/enc sessions ---------------------------------------

PROTOCOL_STEPS = (1, 2, 3, 4)
TOY_PROTOCOL_STEPS = (1, 2)


def session(rng: random.Random, steps: int, satisfiable: bool) -> Template:
    """The intruder picks ?x_j, the server answers enc(n_j, pair(?x_j, n_{j-1})),
    and the last constraint asks for the final nonce.

    In the unsatisfiable variant the last answer is keyed with a private name
    in place of the intruder's choice, so the final nonce stays out of reach
    and the search explores every choice before it.
    """
    pub = f"a{SUFFIX}"
    nonces = [f"n{x}{SUFFIX}" for x in _labels(rng, steps)]
    xs = [f"?x{x}{SUFFIX}" for x in _labels(rng, steps)]
    broken = None if satisfiable else steps - 1
    known = [pub]
    lines = [f"public {pub}"]
    for j in range(steps):
        lines.append(f"{', '.join(known)} |-R {xs[j]}")
        half = f"b{SUFFIX}" if j == broken else xs[j]
        prev = nonces[j - 1] if j else pub
        known = known + [f"enc({nonces[j]}, pair({half}, {prev}))"]
    lines.append(f"{', '.join(known)} |- {nonces[-1]}")
    label = f"session-{steps}-{'sat' if satisfiable else 'unsat'}"
    return Template(label, "\n".join(lines) + "\n", 0 if satisfiable else 1, "empty")


def protocol_pool(seed: int, toy: bool = False) -> list[Template]:
    rng = random.Random(f"protocol-solve:{seed}")
    return [session(rng, steps, sat)
            for steps in (TOY_PROTOCOL_STEPS if toy else PROTOCOL_STEPS)
            for sat in (True, False)
            for _ in range(2)]


# --- proof-pipeline: proofs of derivable dy and eq instances -----------------

PROOF_DY_LINKS = (4, 6, 8, 10, 12)
PROOF_EQ_KEYS = ((4,), (6,), (3, 4), (2, 3, 4))
TOY_PROOF_DY_LINKS = (3,)
TOY_PROOF_EQ_KEYS = ((3,),)


def proof_sources(seed: int, toy: bool = False) -> list[Template]:
    """Derivable problems whose proofs the pipeline checks and translates."""
    rng = random.Random(f"proof-pipeline:{seed}")
    pool = []
    for n in (TOY_PROOF_DY_LINKS if toy else PROOF_DY_LINKS):
        for make in (enc_chain, blind_chain):
            for descending in (False, True):
                pool.append(make(rng, n, True, descending))
    for theory in ("xor", "ag", "ac"):
        for sizes in (TOY_PROOF_EQ_KEYS if toy else PROOF_EQ_KEYS):
            pool.append(eq_chain(rng, theory, sizes, True))
    return pool
