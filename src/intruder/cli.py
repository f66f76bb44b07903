"""Command line front end.

Subcommands: deduce (decide a derivability problem and optionally emit the
proof), constraints (solve a deducibility constraint file, reducing the
first unsolved constraint at each step), check (validate a proof object),
translate (convert a proof between systems). Exit status 0
means derivable, satisfiable, or valid; 1 the opposite; 2 a problem with the
input itself; 3 an internal error or an exhausted resource (a recursion
overflow, the solver giving up, a proof or solution that failed its own
check, or any other exception), in which case the verdict is unknown and
nothing goes to stdout.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from random import Random

from . import constraints as cstr
from . import engine, proofs
from .rewriting import THEORY_BUILDERS, make_theories
from .terms import (EAPP, ParseError, Term, format_term, parse_term, parse_term_list,
                    subterms)


class InputError(Exception):
    pass


def read_problem(text: str):
    """theory/knows/goal lines; returns (theory names, knowledge, goal)."""
    names: list[str] = []
    knows: list[Term] = []
    goal: Term | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or key not in ("theory", "knows", "goal"):
            raise InputError(f"line {lineno}: expected 'theory:', 'knows:' or 'goal:'")
        try:
            if key == "theory":
                names.extend(n.strip() for n in rest.split(",") if n.strip())
            elif key == "knows":
                knows.extend(parse_term_list(rest))
            else:
                if goal is not None:
                    raise InputError(f"line {lineno}: more than one goal")
                goal = parse_term(rest)
        except ParseError as e:
            raise InputError(f"line {lineno}: {e}") from None
    if goal is None:
        raise InputError("the problem has no goal line")
    return names, knows, goal


def _theories_for(args, file_names: list[str]):
    names = list(args.theory) if args.theory else file_names
    try:
        return make_theories(tuple(names))
    except ValueError as e:
        raise InputError(str(e)) from None


def _require_ground(terms, what: str) -> None:
    for t in terms:
        if t.vars:
            raise InputError(f"{what} {t} contains variables")


def _require_known_symbols(terms, theories) -> None:
    owned: set[str] = set()
    for th in theories:
        owned |= th.symbols.keys()
    for t in terms:
        for s in subterms(t):
            if s.kind == EAPP and s.sym not in owned:
                raise InputError(
                    f"symbol {s.sym!r} in {t} is not part of the selected theories")


def _emit(proof: proofs.Derivation, how: str) -> None:
    if how == "json":
        print(proofs.dumps(proof))
    elif how == "text":
        print(proofs.render_text(proof))


def cmd_deduce(args) -> int:
    file_names: list[str] = []
    knows: list[Term] = []
    goal: Term | None = None
    if args.input:
        file_names, knows, goal = read_problem(_read(args.input))
    if args.knows:
        try:
            for chunk in args.knows:
                knows.extend(parse_term_list(chunk))
        except ParseError as e:
            raise InputError(f"--knows: {e}") from None
    if args.goal:
        try:
            goal = parse_term(args.goal)
        except ParseError as e:
            raise InputError(f"--goal: {e}") from None
    if goal is None:
        raise InputError("no goal: give --input or --goal")
    theories = _theories_for(args, file_names)
    _require_ground(knows + [goal], "term")
    _require_known_symbols(knows + [goal], theories)
    rng = Random(args.seed) if args.seed is not None else None
    proof = engine.deduce(knows, goal, theories, rng=rng)
    if proof is None:
        if not args.quiet:
            out = sys.stderr if args.emit_proof == "json" else sys.stdout
            print("not derivable", file=out)
        return 1
    err = proofs.find_error(proof, theories)
    if err is not None:
        raise AssertionError(f"engine produced an invalid proof: {err}")
    if args.quiet:
        return 0
    if args.emit_proof == "json":
        # keep stdout valid JSON so the proof can be piped into check/translate
        _emit(proof, "json")
    else:
        text = proofs.render_text(proof) if args.emit_proof == "text" else None
        print("derivable")
        if text is not None:
            print(text)
    return 0


def _subst_json(sub: cstr.Substitution) -> dict:
    return {format_term(v): format_term(t) for v, t in sub.pairs}


def cmd_constraints(args) -> int:
    try:
        system = cstr.parse_constraint_file(_read(args.input))
    except (ParseError, ValueError) as e:
        raise InputError(str(e)) from None
    try:
        solutions = cstr.solve(system, all_solutions=args.all_solutions)
    except ValueError as e:  # the system is not well formed
        raise InputError(str(e)) from None
    grounds = []
    for i, sol in enumerate(solutions):
        ground = cstr.extract_solution(sol.subst, system)
        if not cstr.verify_solution(system, ground):
            raise AssertionError(f"solution {i} failed verification: {ground!r}")
        grounds.append(ground)
    if args.emit == "json":
        print(json.dumps({
            "satisfiable": bool(solutions),
            "solutions": [{"subst": _subst_json(sol.subst),
                           "ground": _subst_json(g)}
                          for sol, g in zip(solutions, grounds)],
        }, indent=2))
        return 0 if solutions else 1
    if not solutions:
        print("unsatisfiable")
        return 1
    # format everything before printing, so a failure leaves stdout empty
    lines = [f"satisfiable ({len(solutions)} solved form{'s' if len(solutions) != 1 else ''})"]
    for i, (sol, ground) in enumerate(zip(solutions, grounds)):
        lines.append(f"solution {i}: {sol.subst!r}")
        lines.append(f"  ground instance: {ground!r}")
    print("\n".join(lines))
    return 0


def _checked_proof(args):
    """(theories, proof, find_error's message or None) for --theory and --proof."""
    theories = _theories_for(args, [])
    try:
        proof = proofs.loads(_read(args.proof))
    except ValueError as e:
        raise InputError(str(e)) from None
    return theories, proof, proofs.find_error(proof, theories)


def cmd_check(args) -> int:
    _theories, proof, err = _checked_proof(args)
    if err is None:
        print(f"valid {proof.system} proof of: {proof.conclusion!r}")
        return 0
    print(f"invalid: {err}")
    return 1


def cmd_translate(args) -> int:
    theories, proof, err = _checked_proof(args)
    if err is not None:
        raise InputError(f"input proof is invalid: {err}")
    try:
        out = _translate(proof, args.direction, theories)
    except ValueError as e:
        raise InputError(str(e)) from None
    err = proofs.find_error(out, theories)
    if err is not None:
        raise AssertionError(f"translation produced an invalid proof: {err}")
    _emit(out, args.emit_proof or "json")
    return 0


def _translate(proof: proofs.Derivation, direction: str, theories) -> proofs.Derivation:
    if direction == "nd2seq":
        if proof.system != "N":
            raise ValueError(f"nd2seq expects a natural deduction proof, got {proof.system}")
        return proofs.nd_to_seq(proof, theories)
    if direction == "seq2nd":
        # a linear proof is read as the sequent proof it abbreviates
        if proof.system == "L":
            proof = proofs.linear_to_seq(proof)
        if proof.system != "S":
            raise ValueError(f"seq2nd expects a sequent proof, got {proof.system}")
        return proofs.seq_to_nd(proof, theories)
    raise ValueError(f"unknown direction {direction!r}")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(str(e)) from None


def _add_theory_flag(p) -> None:
    p.add_argument("--theory", action="append", metavar="NAME",
                   choices=sorted(THEORY_BUILDERS),
                   help="equational theory; repeat to combine (at most two AC users)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="intruder",
                                  description="intruder deduction and constraint solving")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deduce", help="decide whether the goal is deducible")
    p.add_argument("--input", metavar="PATH",
                   help="problem file with theory/knows/goal lines, or - for stdin")
    p.add_argument("--knows", action="append", metavar="TERMS",
                   help="comma separated known terms; repeatable")
    p.add_argument("--goal", metavar="TERM")
    _add_theory_flag(p)
    p.add_argument("--emit-proof", choices=("text", "json"))
    p.add_argument("--quiet", action="store_true",
                   help="no output; the exit status carries the verdict")
    p.add_argument("--seed", type=int, help="randomize the saturation order")
    p.set_defaults(fn=cmd_deduce)

    p = sub.add_parser("constraints", help="solve a deducibility constraint file")
    p.add_argument("--input", metavar="PATH", required=True,
                   help="constraint file, or - for stdin")
    p.add_argument("--all-solutions", action="store_true")
    p.add_argument("--emit", choices=("text", "json"), default="text")
    # accepted for older scripts; first-unsolved is the only strategy
    p.add_argument("--strategy", choices=("first-unsolved",), help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_constraints)

    p = sub.add_parser("check", help="validate a proof object")
    p.add_argument("--proof", metavar="PATH", required=True,
                   help="proof JSON, or - for stdin")
    _add_theory_flag(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("translate", help="convert a proof between systems")
    p.add_argument("--proof", metavar="PATH", required=True,
                   help="proof JSON, or - for stdin")
    p.add_argument("--direction", required=True, choices=("nd2seq", "seq2nd"))
    _add_theory_flag(p)
    p.add_argument("--emit-proof", choices=("text", "json"))
    p.set_defaults(fn=cmd_translate)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it found it, so every call can share one
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a bug, a RecursionError, the solver giving up, or a failed
        # self-check: exit 1 would read as "not derivable" or "unsatisfiable"
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
