"""Exact-arithmetic totally bipartite tridiagonal systems.

Build eigenvalue arrays in the four closed-form families, construct the
corresponding tridiagonal systems over exact fields, verify every defining
identity entrywise, and complete self-dual systems to Leonard triples with
their braid and modular-group structure.
"""

from .fields import (QQ, FieldElement, PrimeField, QuadraticExtension, QQi,
                     parse_field)
from .matrices import (Matrix, algebra_dimension, anticommutator, column,
                       commutator, diagonal, identity, lagrange_idempotents,
                       zeros)
from .recurrences import (RecurrentSeq, basis_asym, basis_sym, make_recurrent,
                          solve_q, sym_asym_split)
from .arrays import (ANY_BETA, AskeyWilsonSeq, EigenvalueArray, Family,
                     FamilyTag, aw_sequence, aw_sequence_nonzero, check_array,
                     classify, fundamental_parameter, generate_family,
                     is_self_dual, q_equivalent, relatives, self_dual_scaling,
                     self_dualize, validate_array)
from .system import (IntersectionNumbers, TBSystem, build_system, dagger,
                     dagger_report, intersection_numbers, involutions_check,
                     isomorphic, raising_lowering, sd_isomorphism,
                     verify_aw_relations, verify_axioms)
from .triple import (AntiAutomorphisms, LeonardTriple, TripleScalars, WData,
                     antiautomorphism_report, antiautomorphisms, braid_check,
                     build_C, build_W, expected_kappa, rho_automorphism,
                     sigma_and_psl2z, triple_scalars)
from .report import CheckResult, VerificationReport, combine

__version__ = "0.1.0"
