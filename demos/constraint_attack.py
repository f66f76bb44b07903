"""Deducibility constraints as protocol attack search.

A constraint system records, step by step, what the intruder knows and what
it must produce; variables stand for messages it gets to choose. Solving the
system either exhibits a ground attack or proves none exists.

    python3 demos/constraint_attack.py
"""
import textwrap

from intruder.constraints import (extract_solution, parse_constraint_file,
                                  solve, successors, verify_solution,
                                  well_formed)


def run(title, text, all_solutions=False):
    text = textwrap.dedent(text)
    print(f"=== {title} ===")
    print(text.strip())
    system = parse_constraint_file(text)
    problems = well_formed(system)
    if problems:
        print("rejected:", "; ".join(problems))
        print()
        return
    moves = sorted({edge[0] for edge in successors(system)})
    print("reductions the solver tries at the root:", ", ".join(moves) or "none")
    edges = [0]
    solutions = solve(system, all_solutions=all_solutions,
                      on_edge=lambda *e: edges.__setitem__(0, edges[0] + 1))
    print(f"explored {edges[0]} reduction edges")
    if not solutions:
        print("unsatisfiable: no attack\n")
        return
    grounds = []
    for i, sol in enumerate(solutions):
        ground = extract_solution(sol.subst, system)
        assert verify_solution(system, ground)
        grounds.append(ground)
        print(f"attack {i}: bound {sol.subst!r}, ground {ground!r} (verified)")
    if len(solutions) > 1:
        # solved forms that differ only in how knowledge was decomposed can
        # ground to the same attack
        print(f"{len(solutions)} solved forms, {len(set(grounds))} distinct attacks")
    print()


def main():
    # the session key is built from a half the intruder chooses (?x) and the
    # public name; whatever it picks, it can rebuild the key and decrypt
    run("Chosen key half", """
        public a
        a |-R ?x
        a, enc(n, pair(?x, a)) |- n
    """)

    # same shape, but the server now uses a private name b for the first
    # half, so the key is never available
    run("Honest key half", """
        public a
        a |-R ?x
        a, enc(n, pair(b, a)) |- n
    """)

    # the solver splits the recorded pairs before anything else, so the
    # response pair(?y, k) is assembled from their parts: one most general
    # solved form leaves ?y free, and both ?y := a and ?y := b instantiate it
    run("Every attack, enumerated", """
        public a
        a, b |-R ?y
        a, b, pair(a, k), pair(b, k) |- pair(?y, k)
    """, all_solutions=True)

    # under |-R the pairs cannot be split: the response must be one of the
    # recorded pairs, and each binds ?y differently
    run("Every attack, pairs kept whole", """
        public a
        a, b |-R ?y
        a, b, pair(a, k), pair(b, k) |-R pair(?y, k)
    """, all_solutions=True)

    # a variable occurring in knowledge before any goal introduces it has no
    # origin; such systems are rejected before search
    run("Ill-formed input", """
        public a
        a, enc(n, ?z) |- n
    """)


if __name__ == "__main__":
    main()
