"""homlab: a numerical laboratory for quantitative homogenization of
divergence-form elliptic operators with correlated random coefficients.

Core pieces: periodic lattice calculus and spectral solvers, Gaussian
coefficient sampling with prescribed correlation decay, extended correctors
(phi, sigma) and the homogenized tensor, regularity diagnostics (excess,
minimal radius, growth profiles), functional derivatives with a
finite-difference validator, a distance-graded partition with its
interaction sum, and Monte-Carlo scaling experiments behind a CLI.
"""

__version__ = "0.1.0"

from .corrector import (CorrectorSet, SkewField, build_corrector_set,
                        compute_corrector, save_corrector_set)
from .diagnostics import (DegenerateGramError, ExcessReport,
                          MinimalRadiusReport, excess, excess_decay_experiment,
                          growth_profile, minimal_radius)
from .elliptic import (SolveError, SolveOptions, SolveReport,
                       solve_dirichlet_ball, solve_divform, solve_divform_rhs)
from .ensemble import (ExperimentPlan, ExperimentRecord, FitResult,
                       fit_linear, fit_power_law, fit_tail, run_ensemble,
                       summarize)
from .lattice import (Ball, GridSpec, ball_average, ball_mask, div, grad,
                      load_field, poisson_solve, save_field)
from .partition import (Partition, build_partition, check_refinement,
                        interaction_sum, lattice_partition_labels)
from .randomfield import (CoefficientField, CoefficientModel, CovarianceSpec,
                          SeedSpec, beta_effective, check_admissible,
                          constant_coefficients, sample_gaussian,
                          to_coefficients)
from .sensitivity import (DerivativeField, FunctionalSpec, carre_du_champ,
                          fd_check, functional_value, malliavin_derivative)
