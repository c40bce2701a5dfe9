"""Projected solutions for generalized Nash games with set-valued
preferences and non-self constraint maps: geometry primitives, preference
oracles, solvers, certification, and a CLI."""

from .errors import (HypothesisError, InputError, NonConvergenceError,
                     ParseError, ProjnashError)
from .expressions import AffineMap, Polynomial, parse_polynomial_text
from .geometry import (Ball, Box, ConeSample, ConvexSet, HalfspacePolytope,
                       project, projection_vi_residual, separate)
from .preferences import (DirectionField, GraphDistanceContext, PreferenceMap,
                          Sampled, UtilityInduced, graph_distance,
                          hull_preferred, preferred, sample_preferred)
from .game import (Certificate, ConstraintMap, GameInstance, MovingBox,
                   MovingPolytope, PlayerCheck, build_instance, check_nep,
                   check_nep_many, check_projected_solution,
                   check_projected_solution_many, constraint_set,
                   from_utilities)
from .normal_op import UnitNormalProduct, normal_operator, unit_normal_product
from .solvers import (QVIPoint, SolveResult, SolverConfig,
                      best_response_distance, brute_force_oracle,
                      equivalence_scan, qvi_residual, solve_fixed_point,
                      solve_qvi)
from .cli import parse_problem, serialize_instance, instance_digest, run
from .fixtures import (EQUIVALENCE_FIXTURES, FIXTURE_NAMES, fixture_path,
                       fixture_text, load_fixture)

__version__ = "0.1.0"
