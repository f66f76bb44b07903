"""Intruder deduction modulo AC-convergent theories with blind signatures."""

from .terms import (Term, ParseError, name, var, pub, sign, blind, pair, enc,
                    eapp, parse_term, format_term, subterms, variables,
                    substitute, e_factors)
from .rewriting import (Theory, empty_theory, ac_theory, xor_theory, ag_theory,
                        make_theories, normalize, Abstraction)
from .elementary import ElemWitness, elem_deduce, replay
from .engine import deduce, deducible, right_deduce
from .proofs import (Derivation, Sequent, check, find_error,
                     is_normal_derivation, linear_to_seq, nd_to_seq, seq_to_nd,
                     to_json, from_json, dumps, loads, render_text)
from .constraints import (Constraint, ConstraintSystem, Substitution, Solution,
                          proper, right, system, mgu, well_formed,
                          successors, solve, extract_solution, verify_solution,
                          system_measure, measure_less, parse_constraint_file)

__version__ = "0.1.0"
