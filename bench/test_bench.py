"""Self-test of the benchmark at toy size.

    python3 -m pytest -q bench/test_bench.py

Every workload runs untraced and traced on its toy pool: every metric that
BENCHMARK.json names must come out with its unit, and no op may fail.  Two
traced runs of one seed, each in a fresh interpreter, must agree on every
count.  The correctness gate must count a crash or a wrong verdict as a
failed op.
"""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as R  # noqa: E402
import workloads as W  # noqa: E402
from tracer import DETERMINISTIC  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TOY_SECONDS = 0.2
HELD_OUT_SEED = 9001  # kept out of tuning, for checking later claims


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_every_workload_and_metric():
    assert set(R.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    assert _names("end_to_end") == dict(R.END_TO_END)
    assert _names("per_layer") == {n: R.UNITS[n] for n in _names("per_layer")}


@pytest.mark.parametrize("workload", sorted(R.WORKLOADS))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_toy_run_emits_every_metric(workload, trace, section):
    result = R.run(workload, 1, TOY_SECONDS, trace, toy=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"] and result["attempted"] > 0
    want = _names(section)
    assert set(result["metrics"]) == set(want)
    for name, m in result["metrics"].items():
        assert m["unit"] == want[name]
        assert isinstance(m["value"], (int, float)) and m["value"] >= 0
    if not trace:
        assert result["metrics"]["ok_share"]["value"] == 1.0  # failed_share 0


def _traced_counts(workload, seed):
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
            "r = run.run(sys.argv[2], int(sys.argv[3]), 0.2, True, toy=True); "
            "print(json.dumps(r))")
    out = subprocess.run([sys.executable, "-c", code, HERE, workload, str(seed)],
                         check=True, capture_output=True, text=True).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {n: metrics[n]["value"] for n in DETERMINISTIC}


@pytest.mark.parametrize("workload", sorted(R.WORKLOADS))
@pytest.mark.parametrize("seed", [1, HELD_OUT_SEED])
def test_counts_repeat_exactly_for_a_seed(workload, seed):
    first = _traced_counts(workload, seed)
    assert first == _traced_counts(workload, seed)
    assert any(first.values())


def test_pools_are_deterministic_and_balanced():
    for pool in (W.dy_pool, W.eq_pool, W.protocol_pool, W.proof_sources):
        assert pool(3) == pool(3)
        assert [t.label for t in pool(3)] == [t.label for t in pool(4)]
        assert pool(3) != pool(4)
    for pool in (W.dy_pool, W.eq_pool, W.protocol_pool):
        expects = [t.expect for t in pool(1)]
        assert expects.count(0) == expects.count(1)


class _FakeCli:
    def __init__(self, behaviour):
        self.behaviour = behaviour

    def main(self, argv):
        return self.behaviour()


def _boom():
    raise RecursionError("maximum recursion depth exceeded")


@pytest.mark.parametrize("behaviour, expect", [
    (_boom, 1),                 # a crash is not a negative verdict
    (lambda: 1, 0),             # wrong verdict
    (lambda: 2, 1),             # input error
    (lambda: print("derivable") or 1, 1),  # right status, wrong words
])
def test_gate_counts_crashes_and_wrong_verdicts(tmp_path, behaviour, expect):
    ops = R.Ops(_FakeCli(behaviour), str(tmp_path))
    t = W.Template("fake", "theory: empty\nknows: a\ngoal: a\n", expect, "empty")
    _, error = ops.deduce(t, 0)
    assert error is not None


def test_tracer_restores_every_binding():
    R.load_cli()
    import intruder
    from intruder import constraints, elementary, engine, terms
    before = (engine.elem_deduce, constraints.variables, intruder.variables,
              terms.variables, constraints.successors)
    with R.Tracer():
        assert engine.elem_deduce is elementary.elem_deduce
        assert engine.elem_deduce.__wrapped__ is before[0]
        assert constraints.variables is not before[1]
        assert intruder.variables is constraints.variables is terms.variables
    after = (engine.elem_deduce, constraints.variables, intruder.variables,
             terms.variables, constraints.successors)
    assert all(a is b for a, b in zip(after, before))
