"""Structure theory of group-graded 3-Lie-Rinehart algebras over Q:
exact axiom checking, support connection classes, class ideals, and the
coarse and fine decompositions, with a JSON instance format and CLI.
"""

from .groups import GroupElem, GroupSpec
from .linalg import (Subspace, complement, full_subspace,
                     intersect_subspaces)
from .model import Algebra3LR, GradedBasis
from .axioms import AxiomReport, Violation, run_all
from .connections import (ConnectionClass, SupportSets, compute_supports,
                          connected, lambda_classes, replay_chain,
                          sigma_classes)
from .decompose import (DecompositionReport, IdealCandidate, PairingReport,
                        SimplicityVerdict, StructureIdeals, TightnessReport,
                        build_A_ideal, build_I, check_G_multiplicative,
                        check_gr_simple_A, check_gr_simple_L,
                        check_maximal_length, check_tight, ideal_generated_by,
                        pair_ideals, structure_ideals, verify_ideal,
                        verify_triple_orthogonality)
from .catalog import (LieRinehartSeed, builtin, direct_sum, from_lie_trace,
                      BUILTIN_NAMES)
from .instio import (ParseError, canonical_json, instance_digest,
                     instance_from_dict, instance_to_dict, load_instance,
                     save_instance)

__version__ = "0.1.0"
