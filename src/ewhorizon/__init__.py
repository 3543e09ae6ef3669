"""Numerical certification of Einstein-Weyl structures on
three-dimensional near-horizon metrics.

The package evaluates geometric residuals (Einstein-Weyl, Cotton,
dispersionless-KP, hyperCR) with truncated Taylor arithmetic to order 4,
each residual's jets built to the orders it reads, so every reported
residual is an exact algebraic combination of jet coefficients rather
than a finite-difference estimate.  The `ewh`
command line drives the named checks and emits deterministic reports.
"""

from .errors import (AccuracyError, DegenerateMetricError, DomainError,
                     EwhError, PathBranchError, PoleProximityError,
                     SingularJetError, StiffnessError, WindowError)
from .jets import Jet1, Jet3, Point, PointBatch, fd_oracle
from .curvature import (MetricField, OneFormField, conformal_rescale,
                        cotton, ew_residual)
from .specfun import (complete_elliptic_k, hyp2f1, jacobi_sn_cn_dn,
                      real_period, sn_imaginary_modulus_jet, wp, wp_jet)
from .odesolve import IvpSpec, Trajectory, integrate, quad
from .nearhorizon import (F_flat_from_h, F_from_h, F_from_h_field,
                          F_ode_residual_chalf, NearHorizonData,
                          ScalarField1D, SolutionFamily, abel_parametric,
                          abel_rhs, antiderivative, build_family,
                          detect_period, field_const, field_linear,
                          field_one, field_sin, field_zero,
                          flatness_defect, named_h_field, nh_metric,
                          ode2_jet, ode2_residual, ode3_first_integral,
                          ode4_condition, ode4_residual, periodicity_check,
                          reduction_consistency, thm1_F_field,
                          thm1_structure, weyl_oneform_generic)
from .pdeverify import (HyperCRParams, PotentialField, alignment_defect,
                        dkp_residual, dkp_wp_potential, hypercr_residual,
                        hypercr_structures, hypercr_tanh_family,
                        prop4_structures, tanh_profile)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "DegenerateMetricError", "DomainError", "EwhError",
    "PathBranchError", "PoleProximityError", "SingularJetError",
    "StiffnessError", "WindowError",
    "Jet1", "Jet3", "Point", "PointBatch", "fd_oracle",
    "MetricField", "OneFormField", "conformal_rescale", "cotton",
    "ew_residual",
    "complete_elliptic_k", "hyp2f1", "jacobi_sn_cn_dn", "real_period",
    "sn_imaginary_modulus_jet", "wp", "wp_jet",
    "IvpSpec", "Trajectory", "integrate", "quad",
    "F_flat_from_h", "F_from_h", "F_from_h_field",
    "F_ode_residual_chalf", "NearHorizonData", "ScalarField1D",
    "SolutionFamily", "abel_parametric", "abel_rhs", "antiderivative",
    "build_family", "detect_period",
    "field_const", "field_linear", "field_one", "field_sin", "field_zero",
    "flatness_defect", "named_h_field", "nh_metric", "ode2_jet",
    "ode2_residual", "ode3_first_integral", "ode4_condition",
    "ode4_residual",
    "periodicity_check", "reduction_consistency", "thm1_F_field",
    "thm1_structure", "weyl_oneform_generic",
    "HyperCRParams", "PotentialField", "alignment_defect", "dkp_residual",
    "dkp_wp_potential", "hypercr_residual", "hypercr_structures",
    "hypercr_tanh_family", "prop4_structures", "tanh_profile",
    "GridSpec", "ResidualReport", "run_check", "scan_c", "scan_rows_csv",
    "export_plot",
    "__version__",
]

from .report import (GridSpec, ResidualReport, export_plot,  # noqa: E402
                     run_check, scan_c, scan_rows_csv)
