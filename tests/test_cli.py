import gc
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from conftest import gen_ground, gen_instance, gen_wf_system
from oracles import reference_from_json
from test_proofs import _doubling_nd_proof
from intruder import cli, constraints, engine, proofs
from intruder.elementary import ElemWitness
from intruder.proofs import Derivation, Sequent, dumps, linear_to_seq, loads, seq_to_nd
from intruder.rewriting import make_theories
from intruder.terms import Term, format_term, name, parse_term

AC_PROBLEM = """
# worked example
theory: ac
knows: a, b
goal: pair(a, b) + a
"""


def _src_env():
    """The environment of a CLI subprocess that imports intruder from src/."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def write(tmp_path, text, filename="input.txt"):
    p = tmp_path / filename
    p.write_text(text)
    return str(p)


def test_deduce_ac_example(tmp_path, capsys):
    path = write(tmp_path, AC_PROBLEM)
    assert cli.main(["deduce", "--input", path, "--emit-proof", "json"]) == 0
    proof = loads(capsys.readouterr().out)
    assert proof.system == "L" and proof.rule == "ls"
    leaf = proof
    while leaf.premises:
        leaf = leaf.premises[0]
    assert leaf.rule == "r"


def test_deduce_underivable(tmp_path, capsys):
    path = write(tmp_path, "theory: empty\nknows: enc(a, k)\ngoal: a\n")
    assert cli.main(["deduce", "--input", path]) == 1
    assert capsys.readouterr().out.strip() == "not derivable"


def test_deduce_empty_knowledge(tmp_path, capsys):
    path = write(tmp_path, "theory: empty\ngoal: a\n")
    assert cli.main(["deduce", "--input", path]) == 1
    capsys.readouterr()


def test_deduce_from_flags(capsys):
    rc = cli.main(["deduce", "--knows", "a, b", "--goal", "pair(a,b)+a",
                   "--theory", "ac"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "derivable"


def test_deduce_quiet(capsys):
    rc = cli.main(["deduce", "--knows", "enc(a, k), k", "--goal", "a",
                   "--theory", "empty", "--quiet"])
    assert rc == 0
    out, err = capsys.readouterr()
    assert out == "" and err == ""


def test_deduce_seed_does_not_change_the_verdict(capsys):
    for seed in ("0", "1", "17"):
        rc = cli.main(["deduce", "--knows", "blind(m, r), r, pub(k)",
                       "--goal", "m", "--theory", "empty",
                       "--quiet", "--seed", seed])
        assert rc == 0
    capsys.readouterr()


def test_deduce_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(AC_PROBLEM))
    assert cli.main(["deduce", "--input", "-", "--quiet"]) == 0
    capsys.readouterr()


def test_deduce_json_failure_keeps_stdout_clean(tmp_path, capsys):
    path = write(tmp_path, "theory: empty\nknows: enc(a, k)\ngoal: a\n")
    assert cli.main(["deduce", "--input", path, "--emit-proof", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "not derivable" in err


def test_deduce_emitted_text_proof(tmp_path, capsys):
    path = write(tmp_path, AC_PROBLEM)
    assert cli.main(["deduce", "--input", path, "--emit-proof", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("derivable")
    assert "|-" in out


@pytest.mark.parametrize("text,needle", [
    ("theory: empty\nknows: a\n", "no goal"),
    ("theory: empty\ngoal: a\ngoal: b\n", "line 3"),
    ("theory: empty\nbogus: a\ngoal: a\n", "line 2"),
    ("theory: empty\nknows: pair(a\ngoal: a\n", "line 2"),
    ("theory: empty\ngoal: ?x\n", "contains variables"),
    ("theory: empty\nknows: a+b\ngoal: a\n", "not part of the selected theories"),
])
def test_deduce_input_errors(tmp_path, capsys, text, needle):
    path = write(tmp_path, text)
    assert cli.main(["deduce", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err


def test_deduce_missing_file(capsys):
    assert cli.main(["deduce", "--input", "/no/such/file", "--goal", "a"]) == 2
    capsys.readouterr()


def test_deduce_rejects_unknown_theory_flag(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["deduce", "--goal", "a", "--theory", "bogus"])
    assert e.value.code == 2
    capsys.readouterr()


def test_theory_flag_overrides_file_header(tmp_path, capsys):
    path = write(tmp_path, AC_PROBLEM)
    assert cli.main(["deduce", "--input", path, "--theory", "empty"]) == 2
    assert "'+'" in capsys.readouterr().err


def test_constraints_solved_form(tmp_path, capsys):
    path = write(tmp_path, "public a\na, b |-R ?x\n")
    assert cli.main(["constraints", "--input", path, "--emit", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["satisfiable"] is True
    assert data["solutions"][0]["subst"] == {}
    assert data["solutions"][0]["ground"] == {"?x": "a"}


def test_constraints_decryption_example(tmp_path, capsys):
    path = write(tmp_path, "a, enc(m, k), k |- m\n")
    assert cli.main(["constraints", "--input", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("satisfiable")
    assert "solution 0" in out


def test_constraints_unsatisfiable(tmp_path, capsys):
    path = write(tmp_path, "public a\na |-R enc(b, ?x)\n")
    assert cli.main(["constraints", "--input", path]) == 1
    assert capsys.readouterr().out.strip() == "unsatisfiable"
    assert cli.main(["constraints", "--input", path, "--emit", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["satisfiable"] is False


@pytest.mark.parametrize("text", ["publickey, a |-R a\n",
                                  "public a\npublic_b, a |- a\n"])
def test_constraints_names_that_begin_with_public(tmp_path, capsys, text):
    path = write(tmp_path, text)
    assert cli.main(["constraints", "--input", path]) == 0
    assert capsys.readouterr().out.startswith("satisfiable")


def _balanced_pairs(depth):
    if depth == 0:
        return "a"
    half = _balanced_pairs(depth - 1)
    return f"pair({half}, {half})"


def test_constraints_deep_balanced_goal(tmp_path, capsys):
    # 2,047 nested reduction edges; a recursive search overflowed the stack at depth 9
    path = write(tmp_path, f"public a\na |-R {_balanced_pairs(10)}\n")
    assert cli.main(["constraints", "--input", path]) == 0
    assert capsys.readouterr().out.startswith("satisfiable")


def test_deep_goal_is_an_input_error():
    goal = "pair(" * 2000 + "a" + ", a)" * 2000
    out = subprocess.run([sys.executable, "-m", "intruder.cli", "deduce", "--knows", "a",
                          "--goal", goal, "--theory", "empty"],
                         env=_src_env(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith("error: --goal: term nested too deep"), out.stderr
    assert "Traceback" not in out.stderr


def test_any_internal_exception_exits_3(capsys, monkeypatch):
    def broken(*args, **kw):
        raise TypeError("planted bug")

    monkeypatch.setattr(engine, "deduce", broken)
    rc = cli.main(["deduce", "--knows", "enc(a, k), k", "--goal", "a",
                   "--theory", "empty"])
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal: TypeError: planted bug")


def test_solver_giving_up_exits_3(tmp_path, capsys, monkeypatch):
    def gave_up(*args, **kw):
        raise RuntimeError("gave up after 1 states")

    monkeypatch.setattr(constraints, "solve", gave_up)
    path = write(tmp_path, "a, enc(m, k), k |- m\n")
    assert cli.main(["constraints", "--input", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal:") and "gave up" in err


def test_invalid_engine_proof_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(proofs, "find_error", lambda proof, theories: "planted")
    rc = cli.main(["deduce", "--knows", "enc(a, k), k", "--goal", "a",
                   "--theory", "empty", "--emit-proof", "text"])
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid proof: planted" in err


def test_constraints_origination_violation(tmp_path, capsys):
    path = write(tmp_path, "a, enc(b, ?x) |- enc(b, a)\n")
    assert cli.main(["constraints", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "condition 2" in err


def test_constraints_monotonicity_violation(tmp_path, capsys):
    path = write(tmp_path, "a, b |- a\na |- a\n")
    assert cli.main(["constraints", "--input", path]) == 2
    assert "condition 1" in capsys.readouterr().err


def test_constraints_parse_error(tmp_path, capsys):
    path = write(tmp_path, "a, b\n")
    assert cli.main(["constraints", "--input", path]) == 2
    assert "line 1" in capsys.readouterr().err


ALL_SOLUTIONS_PROBLEM = "public a\na, b |-R ?x\na, b, pair(a, k), pair(b, k) {} pair(?x, k)\n"


def _all_solutions(tmp_path, capsys, turnstile):
    text = ALL_SOLUTIONS_PROBLEM.format(turnstile)
    rc = cli.main(["constraints", "--input", write(tmp_path, text), "--all-solutions",
                   "--emit", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["satisfiable"] is True
    return constraints.parse_constraint_file(text), data["solutions"]


def test_constraints_all_solutions(tmp_path, capsys):
    # the known pairs are split before anything else, so the goal is built
    # from their parts and one most general form leaves ?x free
    system, solutions = _all_solutions(tmp_path, capsys, "|-")
    assert [s["subst"] for s in solutions] == [{}]
    assert solutions[0]["ground"] == {"?x": "a"}
    x = parse_term("?x")
    for value in ("a", "b"):
        ground = constraints.Substitution.of({x: parse_term(value)})
        assert constraints.verify_solution(system, ground), value


def test_constraints_all_solutions_right_goal(tmp_path, capsys):
    # under |-R the pairs stay whole: unifying the goal against either one
    # binds ?x differently (the CLI verifies each ground instance itself)
    _system, solutions = _all_solutions(tmp_path, capsys, "|-R")
    substs = [s["subst"] for s in solutions]
    assert sorted(substs, key=str) == [{"?x": "a"}, {"?x": "b"}]
    assert sorted(s["ground"]["?x"] for s in solutions) == ["a", "b"]


@pytest.mark.parametrize("data,rc,first_line", [
    # no constraints, no variables: nothing needs the public name
    (b"# nothing to solve\n", 0, "satisfiable (1 solved form)"),
    (b"a |- \xff\n", 2, ""),
])
def test_constraints_degenerate_files(tmp_path, capsys, data, rc, first_line):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    assert cli.main(["constraints", "--input", str(path)]) == rc
    assert capsys.readouterr().out.split("\n")[0] == first_line


def test_constraints_strategy_flag_keeps_one_choice(tmp_path, capsys):
    path = write(tmp_path, "public a\na |-R ?x\na, enc(n, pair(?x, a)) |- n\n")
    assert cli.main(["constraints", "--input", path, "--all-solutions"]) == 0
    plain = capsys.readouterr().out
    assert cli.main(["constraints", "--input", path, "--all-solutions",
                     "--strategy", "first-unsolved"]) == 0
    assert capsys.readouterr().out == plain
    with pytest.raises(SystemExit) as e:
        cli.main(["constraints", "--input", path, "--strategy", "exhaustive"])
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "exhaustive" in err


_FUZZ_PIECES = ("pair(", "enc(", ")", ",", "|-", "|-R", "?", "?x", "public ",
                "#", "\n", " ", "a", "k")


def _fuzzed_constraint_file(rng) -> bytes:
    """A random constraint file: a well-formed system, one with a few
    characters or tokens deleted or inserted, raw bytes, or nothing."""
    roll = rng.random()
    if roll < 0.05:
        return b""
    if roll < 0.15:
        return bytes(rng.randrange(256) for _ in range(rng.randint(1, 40)))
    text = repr(gen_wf_system(rng))
    if roll < 0.4:
        return text.encode()
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(chars) + 1)
        if rng.random() < 0.4 and chars:
            del chars[min(i, len(chars) - 1)]
        else:
            chars.insert(i, rng.choice(_FUZZ_PIECES))
    return "".join(chars).encode()


def test_constraints_fuzz_exits_cleanly(tmp_path, capsys):
    rng = random.Random(2024)
    deep = "pair(" * 2000 + "a" + ", a)" * 2000
    files = [f"public a\na |- {deep}\n".encode()]
    files += [_fuzzed_constraint_file(rng) for _ in range(199)]
    seen = set()
    path = tmp_path / "fuzz.txt"
    for i, data in enumerate(files):
        path.write_bytes(data)
        rc = cli.main(["constraints", "--input", str(path)])
        out, err = capsys.readouterr()
        assert rc in (0, 1, 2, 3), (data, rc)
        assert "Traceback" not in out + err, data
        if rc in (2, 3):
            assert out == "" and err.startswith("error: "), (data, out, err)
        else:
            verdict = "satisfiable" if rc == 0 else "unsatisfiable"
            assert out.split()[0] == verdict, (data, out)
        if i == 0:
            assert rc == 2 and "nested too deep" in err, err
        seen.add(rc)
    assert {0, 1, 2} <= seen


def test_check_engine_proof(tmp_path, capsys):
    write_proof = tmp_path / "proof.json"
    ths = make_theories(("ac",))
    d = engine.deduce([parse_term("a"), parse_term("b")],
                      parse_term("pair(a,b)+a"), ths)
    write_proof.write_text(dumps(d))
    assert cli.main(["check", "--proof", str(write_proof), "--theory", "ac"]) == 0
    assert capsys.readouterr().out.startswith("valid L proof")


def test_check_corrupted_premise(tmp_path, capsys):
    ths = make_theories(("empty",))
    d = engine.deduce([parse_term("enc(a, k)"), parse_term("k")],
                      parse_term("a"), ths)
    blob = json.loads(dumps(d))
    node = blob["nodes"][blob["root"]]
    while node["premises"]:
        node = blob["nodes"][node["premises"][-1]]
    blob["terms"].append("pair(a, a)")
    node["goal"] = len(blob["terms"]) - 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    assert cli.main(["check", "--proof", str(path), "--theory", "empty"]) == 1
    assert capsys.readouterr().out.startswith("invalid")


@pytest.mark.parametrize("blob", ["{oops", "[1, 2]", '{"system": "L"}'])
def test_check_malformed_json(tmp_path, capsys, blob):
    path = write(tmp_path, blob, "broken.json")
    assert cli.main(["check", "--proof", str(path), "--theory", "empty"]) == 2
    capsys.readouterr()


PROOF_SOURCES = {"empty": (("enc(a, k)", "k"), "a"), "ag": (("a+b", "b"), "a")}


@pytest.mark.parametrize("theory,path,value", [
    ("empty", ("aux", "principal"), 5),
    ("empty", ("aux", "right", "aux", "witness", "entries"), 5),
    ("empty", ("aux", "right", "aux", "witness"), 5),
    ("empty", ("aux",), [1]),
    ("empty", ("aux", "right"), "k"),
    ("empty", ("context",), "ab"),
    ("empty", ("goal",), ["a"]),
    ("empty", ("rule",), ["le"]),
    ("empty", ("premises",), [5]),
    ("ag", ("aux", "right", "aux", "witness", "entries", 0, 1), "-1"),
    ("ag", ("aux", "right", "aux", "witness", "entries", 0), ["b"]),
])
def test_malformed_proof_shapes_are_input_errors(tmp_path, theory, path, value):
    knows, goal = PROOF_SOURCES[theory]
    ths = make_theories((theory,))
    d = engine.deduce([parse_term(t) for t in knows], parse_term(goal), ths)
    blob = json.loads(dumps(d))
    # the path starts at the root node and follows aux.right to its node
    node = blob["nodes"][blob["root"]]
    for key in path[:-1]:
        node = node[key]
        if key == "right":
            node = blob["nodes"][node]
    node[path[-1]] = value
    proof = write(tmp_path, json.dumps(blob), "bad.json")
    for command in (["check"], ["translate", "--direction", "seq2nd"]):
        out = subprocess.run([sys.executable, "-m", "intruder.cli", *command,
                              "--proof", proof, "--theory", theory],
                             env=_src_env(), capture_output=True, text=True, timeout=60)
        assert out.returncode == 2, out.stderr
        assert out.stdout == ""
        assert out.stderr.startswith("error: malformed proof object:"), out.stderr
        assert "Traceback" not in out.stderr


def _cap_address_space():
    """Cap the calling process's address space at 1 GiB (a preexec_fn)."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _capped_cli(*argv, stdin=None, timeout=30):
    """Run the CLI with its address space capped at 1 GiB, so a witness that
    is spelled out hole by hole fails at once instead of filling memory."""
    return subprocess.run([sys.executable, "-m", "intruder.cli", *argv], input=stdin,
                          env=_src_env(), capture_output=True, text=True,
                          timeout=timeout, preexec_fn=_cap_address_space)


# a dependent group context whose witnesses have coefficients in the millions
# or more: a checker that folds each hole took 49 s on it
AG_DEPENDENT_PROBLEM = """theory: ag
knows: a3+a3+a3+a4+inv(a0)+inv(a0)+inv(a0), a2+a2+a4+a4+a4+inv(a3)+inv(a3)
knows: inv(a4)+inv(a4), a2+inv(a0)+inv(a0)+inv(a0)+inv(a4)+inv(a4)+inv(a4)
knows: a0+a2+a2+a2+inv(a4)+inv(a4), a0+a0+a0+inv(a1)+inv(a3)+inv(a3)+inv(a3)
knows: a0+a0+a2+a2+a2+inv(a1)+inv(a1)+inv(a1), a2+a3+a3+a3+inv(a1)+inv(a1)
goal: a1+a1+inv(a3)
"""


def test_deduce_on_a_dependent_ag_context_is_fast(tmp_path):
    problem = write(tmp_path, AG_DEPENDENT_PROBLEM)
    t0 = time.monotonic()
    proof = _capped_cli("deduce", "--input", problem, "--emit-proof", "json")
    elapsed = time.monotonic() - t0
    assert proof.returncode == 0, proof.stderr
    assert elapsed < 2.0, elapsed
    checked = _capped_cli("check", "--proof", "-", "--theory", "ag", stdin=proof.stdout)
    assert checked.returncode == 0, checked.stderr


def test_seq2nd_past_the_witness_leaf_bound_exits_3_in_bounded_memory(tmp_path):
    # the proof's witnesses cite members about 5·10^9 times in all: one N
    # leaf per hole would not fit in memory
    problem = write(tmp_path, AG_DEPENDENT_PROBLEM)
    proof = _capped_cli("deduce", "--input", problem, "--emit-proof", "json")
    assert proof.returncode == 0, proof.stderr
    path = write(tmp_path, proof.stdout, "proof.json")
    # a small child runs the CLI and reports the CLI's peak memory: a process
    # forked from this one would start with this one's resident set
    child = ("import json, resource, subprocess, sys\n"
             "cli = subprocess.run([sys.executable, '-m', 'intruder.cli', *sys.argv[1:]],\n"
             "                     capture_output=True, text=True)\n"
             "rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
             "print(json.dumps([cli.returncode, cli.stdout, cli.stderr, rss_kb]))\n")
    ran = subprocess.run([sys.executable, "-c", child, "translate", "--proof", path,
                          "--direction", "seq2nd", "--theory", "ag"],
                         env=_src_env(), capture_output=True, text=True, timeout=60,
                         preexec_fn=_cap_address_space)
    assert ran.returncode == 0, ran.stderr
    rc, out, err, rss_kb = json.loads(ran.stdout)
    assert rc == 3 and out == "", (rc, err)
    assert f"MAX_WITNESS_LEAVES bound of {proofs.MAX_WITNESS_LEAVES:,}" in err, err
    assert rss_kb < 100 * 1024, rss_kb


def test_ac_goal_summing_two_thousand_known_atoms(tmp_path):
    # the AC search keeps one level per member: a search that recursed per
    # member overflowed the stack at about 1,000
    n = 2000
    atoms = [f"x{i}" for i in range(1, n + 1)]
    problem = write(tmp_path, f"theory: ac\nknows: {', '.join(atoms)}\ngoal: {'+'.join(atoms)}\n")
    out = subprocess.run([sys.executable, "-m", "intruder.cli", "deduce", "--input", problem],
                         env=_src_env(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "derivable\n"


def _ag_id_proof(entries):
    """The L proof of a from {a, a+a} by one r step, with the given witness."""
    witness = {"theory": "ag", "kind": "ag", "entries": entries}
    return json.dumps({
        "system": "L", "version": 2, "terms": ["a", "a+a"],
        "contexts": [{"parent": None, "add": [0, 1]}],
        "nodes": [{"system": "S", "rule": "id", "context": 0, "goal": 0,
                   "aux": {"witness": witness, "theory": "ag"}, "premises": []},
                  {"system": "L", "rule": "r", "context": 0, "goal": 0,
                   "aux": {"right": 0}, "premises": []}],
        "root": 1})


@pytest.mark.parametrize("entries,rc", [([[0, 2 * 10 ** 9 + 1], [1, -10 ** 9]], 0),
                                        ([[0, 10 ** 9]], 1)], ids=["cancels", "a-billion-a"])
def test_check_huge_ag_coefficients_in_bounded_memory(entries, rc):
    out = _capped_cli("check", "--proof", "-", "--theory", "ag", stdin=_ag_id_proof(entries))
    assert out.returncode == rc, out.stderr
    assert out.stdout.startswith("valid" if rc == 0 else "invalid"), out.stdout


def test_main_calls_share_no_parsed_values(monkeypatch, capsys):
    seen = []
    real = cli._theories_for

    def spy(args, file_names):
        seen.append((args.knows, args.theory))
        return real(args, file_names)

    monkeypatch.setattr(cli, "_theories_for", spy)
    assert cli.main(["deduce", "--knows", "a+b, b", "--goal", "a", "--theory", "xor"]) == 0
    assert cli.main(["deduce", "--knows", "a", "--goal", "a", "--theory", "ag"]) == 0
    assert seen == [(["a+b, b"], ["xor"]), (["a"], ["ag"])]
    capsys.readouterr()


def test_translate_round_trip_via_cli(tmp_path, capsys):
    ths = make_theories(("xor",))
    d = engine.deduce([parse_term("a+b"), parse_term("b+c")],
                      parse_term("a+c"), ths)
    lpath = tmp_path / "linear.json"
    lpath.write_text(dumps(d))

    rc = cli.main(["translate", "--proof", str(lpath), "--direction", "seq2nd",
                   "--theory", "xor"])
    assert rc == 0
    nd_text = capsys.readouterr().out
    nd = loads(nd_text)
    assert nd.system == "N"

    npath = tmp_path / "nd.json"
    npath.write_text(nd_text)
    rc = cli.main(["translate", "--proof", str(npath), "--direction", "nd2seq",
                   "--theory", "xor"])
    assert rc == 0
    seq = loads(capsys.readouterr().out)
    assert seq.system == "S"
    assert seq.conclusion.goal == d.conclusion.goal


def test_translate_direction_mismatch(tmp_path, capsys):
    ths = make_theories(("empty",))
    d = engine.deduce([parse_term("pair(a, b)")], parse_term("a"), ths)
    nd = seq_to_nd(linear_to_seq(d), ths)
    path = tmp_path / "nd.json"
    path.write_text(dumps(nd))
    rc = cli.main(["translate", "--proof", str(path), "--direction", "seq2nd",
                   "--theory", "empty"])
    assert rc == 2
    assert "seq2nd expects" in capsys.readouterr().err


def test_translate_rejects_invalid_input_proof(tmp_path, capsys):
    ths = make_theories(("empty",))
    d = engine.deduce([parse_term("pair(a, b)")], parse_term("a"), ths)
    blob = json.loads(dumps(d))
    blob["nodes"][blob["root"]]["goal"] = blob["terms"].index("b")
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(blob))
    rc = cli.main(["translate", "--proof", str(path), "--direction", "seq2nd",
                   "--theory", "empty"])
    assert rc == 2
    assert "invalid" in capsys.readouterr().err


def test_nd2seq_then_check_pipeline(tmp_path, capsys):
    rng = random.Random(17)
    ths = make_theories(("empty",))
    names = [name(n) for n in "abc"]
    nd_path = tmp_path / "nd.json"
    seq_path = tmp_path / "seq.json"
    done = 0
    while done < 100:
        gamma, goal = gen_instance(rng, names, ths, max_gamma=3, depth=2)
        d = engine.deduce(gamma, goal, ths)
        if d is None:
            continue
        nd = seq_to_nd(linear_to_seq(d), ths)
        nd_path.write_text(dumps(nd))
        rc = cli.main(["translate", "--proof", str(nd_path),
                       "--direction", "nd2seq", "--theory", "empty"])
        assert rc == 0
        seq_path.write_text(capsys.readouterr().out)
        assert cli.main(["check", "--proof", str(seq_path),
                         "--theory", "empty"]) == 0
        capsys.readouterr()
        done += 1


# one derivable and one underivable problem per theory; each derivable one
# needs a side condition of its theory (the ac one runs the natural-number
# solver)
_PROBLEMS_BY_THEORY = {
    "empty": ("knows: k0, enc(k1, k0), sign(blind(m, r), s), pub(s), r\n"
              "goal: pair(k1, sign(m, s))\n",
              "knows: enc(a, k), sign(b, s)\ngoal: pair(a, b)\n"),
    "xor": ("knows: a+b, b+c, enc(s, a+c)\ngoal: s\n",
            "knows: a+b, enc(s, a+c)\ngoal: s\n"),
    "ag": ("knows: a+b, b, enc(s, a+inv(b))\ngoal: s\n",
           "knows: a+b, enc(s, a)\ngoal: s\n"),
    "ac": ("knows: a, b, enc(s, a+b+b)\ngoal: pair(s, a+a)\n",
           "knows: a+b, enc(s, a)\ngoal: s\n"),
}
_CONSTRAINT_FILES = (
    "public a\na, enc(n1, a) |-R ?x\na, enc(n1, a), enc(s, pair(?x, n1)) |- s\n",
    "public a\na, enc(n1, k) |-R ?x\na, enc(n1, k), enc(s, pair(?x, n1)) |- s\n",
)


def test_no_subcommand_leaves_terms_in_cyclic_garbage(tmp_path, capsys):
    """Every term a call builds is freed by reference counting.

    With the cyclic collector off and DEBUG_SAVEALL on, a collection after
    the calls keeps every object it finds unreachable in gc.garbage; a term
    there was kept alive by a reference cycle, not by a user.
    """
    def run(*argv):
        status = cli.main(list(argv))
        return status, capsys.readouterr().out

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for theory, (derivable, underivable) in _PROBLEMS_BY_THEORY.items():
            header = f"theory: {theory}\n"
            assert run("deduce", "--input", write(tmp_path, header + underivable))[0] == 1
            status, l_proof = run("deduce", "--input", write(tmp_path, header + derivable),
                                  "--emit-proof", "json")
            assert status == 0
            l_path = write(tmp_path, l_proof, "l.json")
            assert run("check", "--proof", l_path, "--theory", theory)[0] == 0
            status, n_proof = run("translate", "--proof", l_path, "--direction", "seq2nd",
                                  "--theory", theory)
            assert status == 0
            n_path = write(tmp_path, n_proof, "n.json")
            status, s_proof = run("translate", "--proof", n_path, "--direction", "nd2seq",
                                  "--theory", theory)
            assert status == 0
            assert run("check", "--proof", write(tmp_path, s_proof, "s.json"),
                       "--theory", theory)[0] == 0
        for expect, text in enumerate(_CONSTRAINT_FILES):
            assert run("constraints", "--input", write(tmp_path, text))[0] == expect
        gc.collect()
        kept = [o for o in gc.garbage if isinstance(o, Term)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert kept == []


def test_two_ac_theories_prove_a_sum_each_witness_citing_its_own(tmp_path, capsys):
    ac2 = ["--theory", "ac", "--theory", "ac"]
    assert cli.main(["deduce", *ac2, "--knows", "a, b", "--goal", "a+b",
                     "--emit-proof", "json"]) == 0
    out = capsys.readouterr().out
    assert '"theory": "ac", "kind": "ac"' in out
    assert cli.main(["check", "--proof", write(tmp_path, out, "ac2.json"), *ac2]) == 0
    assert capsys.readouterr().out.startswith("valid L proof of:")
    # a product is built by the theory on *, named ac*
    assert cli.main(["deduce", *ac2, "--knows", "a, b", "--goal", "a*b",
                     "--emit-proof", "json"]) == 0
    out = capsys.readouterr().out
    assert '"theory": "ac*", "kind": "ac"' in out
    product = write(tmp_path, out, "ac2_product.json")
    assert cli.main(["translate", "--proof", product, "--direction", "seq2nd", *ac2]) == 0
    nd = write(tmp_path, capsys.readouterr().out, "ac2_nd.json")
    assert cli.main(["translate", "--proof", nd, "--direction", "nd2seq", *ac2]) == 0
    seq = write(tmp_path, capsys.readouterr().out, "ac2_seq.json")
    assert cli.main(["check", "--proof", seq, *ac2]) == 0
    assert capsys.readouterr().out.startswith("valid S proof of:")


def test_print_parse_round_trip_random():
    rng = random.Random(23)
    ths = make_theories(("xor", "ag"))
    names = [name(n) for n in "abck"]
    for _ in range(400):
        t = gen_ground(rng, names, ths)
        assert parse_term(format_term(t)) is t


def _set(blob, path, value):
    """Replace the value at path; the "root" key of a path names the root node."""
    node = blob
    for key in path[:-1]:
        node = blob["nodes"][blob["root"]] if key == "root" else node[key]
    node[path[-1]] = value


def _leaf(blob):
    """The index of a node with no premises and no right proof."""
    return next(i for i, n in enumerate(blob["nodes"])
                if not n["premises"] and "right" not in n["aux"])


MALFORMED_V2 = {
    "term index out of range": lambda b: _set(b, ("root", "goal"), len(b["terms"])),
    "negative term index": lambda b: _set(b, ("root", "goal"), -1),
    "negative premise": lambda b: _set(b, ("root", "premises"), [-1]),
    "negative root": lambda b: _set(b, ("root",), -1),
    "true as an index": lambda b: _set(b, ("root", "context"), True),
    "float index": lambda b: _set(b, ("root", "goal"), 0.0),
    "true as a context parent": lambda b: _set(b, ("contexts", 1, "parent"), True),
    "forward premise": lambda b: _set(b, ("nodes", _leaf(b), "premises"), [b["root"]]),
    "premise of itself": lambda b: _set(b, ("nodes", 0, "premises"), [0]),
    "forward right proof": lambda b: _set(b, ("nodes", _leaf(b), "aux", "right"), b["root"]),
    "context parent out of range": lambda b: _set(b, ("contexts", 1, "parent"), 99),
    "context parent of itself": lambda b: _set(b, ("contexts", 0, "parent"), 0),
    "root out of range": lambda b: _set(b, ("root",), len(b["nodes"])),
    "missing version": lambda b: b.pop("version"),
    "version 1": lambda b: _set(b, ("version",), 1),
    "version 3": lambda b: _set(b, ("version",), 3),
    "version as a string": lambda b: _set(b, ("version",), "2"),
    "root system mismatch": lambda b: _set(b, ("system",), "S"),
}

OLD_NESTED_PROOF = {
    "system": "L", "rule": "r", "gamma": ["a", "b"], "goal": "pair(a,b)",
    "aux": {"right": {"system": "S", "rule": "id", "gamma": ["a", "b"], "goal": "a",
                      "aux": {"witness": {"theory": "empty", "kind": "empty",
                                          "entries": ["a"]}}, "premises": []}},
    "premises": [],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_V2) + ["old nested file"])
def test_malformed_flat_proofs_exit_2(tmp_path, capsys, case):
    if case == "old nested file":
        blob = OLD_NESTED_PROOF
    else:
        ths = make_theories(("empty",))
        d = engine.deduce([parse_term("enc(a, k)"), parse_term("k")], parse_term("a"), ths)
        blob = json.loads(dumps(d))
        MALFORMED_V2[case](blob)
    # the reader raises what the reference reader it replaced raises
    messages = []
    for reader in (proofs.from_json, reference_from_json):
        with pytest.raises(ValueError) as e:
            reader(blob)
        messages.append(str(e.value))
    assert messages[0] == messages[1]
    path = write(tmp_path, json.dumps(blob), "bad.json")
    for command in (["check"], ["translate", "--direction", "seq2nd"],
                    ["translate", "--direction", "nd2seq"]):
        rc = cli.main([*command, "--proof", path, "--theory", "empty"])
        out, err = capsys.readouterr()
        assert rc == 2, (command, err)
        assert out == ""
        assert err.startswith("error: malformed proof object:"), err
        assert "Traceback" not in err
        if "version" in case or case == "old nested file":
            assert "expected version 2" in err, err


def test_translate_checks_each_proof_once(tmp_path, capsys, monkeypatch):
    ths = make_theories(("xor",))
    d = engine.deduce([parse_term("a+b"), parse_term("b+c")], parse_term("a+c"), ths)
    seq = linear_to_seq(d)
    files = {sys_: tmp_path / f"{sys_}.json" for sys_ in "LSN"}
    files["L"].write_text(dumps(d))
    files["S"].write_text(dumps(seq))
    files["N"].write_text(dumps(seq_to_nd(seq, ths)))
    checked = []
    real = proofs.find_error

    def recording(proof, theories):
        checked.append(proof.system)
        return real(proof, theories)

    monkeypatch.setattr(proofs, "find_error", recording)
    for source, direction, want in (("N", "nd2seq", ["N", "S"]),
                                    ("S", "seq2nd", ["S", "N"]),
                                    ("L", "seq2nd", ["L", "N"])):
        checked.clear()
        assert cli.main(["translate", "--proof", str(files[source]),
                         "--direction", direction, "--theory", "xor"]) == 0
        capsys.readouterr()
        assert checked == want, (source, direction)


def test_translate_rejects_broken_input(tmp_path, capsys):
    a, b = name("a"), name("b")
    g = frozenset({a})
    broken_n = Derivation("N", "e_E", Sequent(g, a),
                          (Derivation("N", "id", Sequent(g, a)),
                           Derivation("N", "id", Sequent(g, a))))
    broken_s = Derivation("S", "id", Sequent(g, b), (),
                          {"witness": ElemWitness("empty", "empty", (b,)), "theory": "empty"})
    for proof, direction in ((broken_n, "nd2seq"), (broken_s, "seq2nd")):
        path = write(tmp_path, dumps(proof), f"{proof.system}.json")
        assert cli.main(["translate", "--proof", path, "--direction", direction,
                         "--theory", "empty"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "input proof is invalid" in out.err, proof.system


def test_two_thousand_link_proof_under_the_default_recursion_limit(tmp_path):
    n = 2000
    lines = ["theory: empty", "knows: k0"]
    lines += [f"knows: enc(k{j + 1}, k{j})" for j in range(n)]
    problem = write(tmp_path, "\n".join(lines + [f"goal: k{n}"]) + "\n")

    def run(*argv, stdin=None):
        return subprocess.run([sys.executable, "-m", "intruder.cli", *argv], input=stdin,
                              env=_src_env(), capture_output=True, text=True, timeout=300)

    proof = run("deduce", "--input", problem, "--emit-proof", "json")
    assert proof.returncode == 0, proof.stderr
    checked = run("check", "--proof", "-", "--theory", "empty", stdin=proof.stdout)
    assert checked.returncode == 0, checked.stderr
    assert checked.stdout.startswith("valid L proof of:")
    text = run("deduce", "--input", problem, "--emit-proof", "text")
    assert text.returncode == 0, text.stderr
    assert text.stdout.startswith("derivable\nle: ")
    translated = run("translate", "--proof", "-", "--direction", "seq2nd",
                     "--theory", "empty", stdin=proof.stdout)
    assert translated.returncode == 0, translated.stderr
    assert translated.stdout.startswith('{\n  "system": "N"')
    checked = run("check", "--proof", "-", "--theory", "empty", stdin=translated.stdout)
    assert checked.returncode == 0, checked.stderr
    assert checked.stdout.startswith("valid N proof of:")


def test_translate_takes_a_shared_subtree_once(tmp_path, capsys):
    # 161 nodes in the file, 2^40 paths through them
    path = write(tmp_path, dumps(_doubling_nd_proof(40)), "shared.json")
    assert cli.main(["translate", "--proof", path, "--direction", "nd2seq",
                     "--theory", "empty"]) == 0
    seq = capsys.readouterr().out
    assert len(seq) < 100_000
    seq_path = write(tmp_path, seq, "seq.json")
    assert cli.main(["translate", "--proof", seq_path, "--direction", "seq2nd",
                     "--theory", "empty", "--emit-proof", "text"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("e_E: ") and text.count("\n") < 1000
