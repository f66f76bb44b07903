"""One derivation, three proof systems.

The engine emits linear derivations. This demo expands one into the sequent
calculus, translates that into natural deduction and back, serializes proofs
to JSON, and shows the checker rejecting a tampered proof.

    python3 demos/proof_translations.py
"""
import json

from intruder import deduce, make_theories
from intruder.proofs import (dumps, find_error, is_normal_derivation,
                             linear_to_seq, loads, nd_to_seq, render_text,
                             seq_to_nd)
from intruder.terms import parse_term


def banner(text):
    print(f"\n--- {text} ---")


def main():
    theories = make_theories(("xor",))
    gamma = [parse_term(t) for t in ("a+b", "b+c", "enc(s, a+c)")]
    goal = parse_term("s")

    banner("linear derivation from the engine")
    lin = deduce(gamma, goal, theories)
    assert lin is not None
    print(render_text(lin))

    banner("expanded sequent derivation")
    seq = linear_to_seq(lin)
    assert find_error(seq, theories) is None
    print(render_text(seq))
    print("normal derivation:", is_normal_derivation(seq))

    banner("natural deduction reading")
    nd = seq_to_nd(seq, theories)
    assert find_error(nd, theories) is None
    print(render_text(nd))

    banner("and back to sequents")
    seq2 = nd_to_seq(nd, theories)
    assert find_error(seq2, theories) is None
    print("same end sequent:", seq2.conclusion == seq.conclusion)
    # the reverse translation builds cuts, so it need not be normal
    print("normal derivation:", is_normal_derivation(seq2))

    banner("JSON round trip")
    blob = dumps(lin)
    again = loads(blob)
    print("serialized bytes:", len(blob))
    print("reloaded proof checks:", find_error(again, theories) is None)

    banner("a corrupted proof is rejected")
    broken = json.loads(blob)
    print("terms, contexts, nodes:",
          ", ".join(str(len(broken[k])) for k in ("terms", "contexts", "nodes")))
    # point the root node's goal at another term of the table
    broken["nodes"][broken["root"]]["goal"] = broken["terms"].index("a+b")
    err = find_error(loads(json.dumps(broken)), theories)
    print("checker says:", err)


if __name__ == "__main__":
    main()
