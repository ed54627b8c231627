"""Pseudospectral simulation of fluid PDEs with transport noise on the
periodic torus, plus numerical verification of the operator estimates the
models rest on (mollifier properties, commutator bounds, Lie-derivative
cancellation, growth and monotonicity conditions)."""

from .spectral import (Grid, bessel_multiplier, dealiased_product, derivative,
                       from_values, gradient, hilbert_transform,
                       homogeneous_norm, lipschitz_norm, mollify_helmholtz,
                       riesz_perp, sobolev_norm, sup_norm, to_grid)
from .lie import VectorFieldXi, ds_commutator, ito_correction, lie_derivative, lie_second
from .noise import (BrownianPath, NoiseBasis, build_basis_1d, build_basis_sqg,
                    sample_path)
from .models import ModelState, make_initial_state, make_ops
from .solver import (SimConfig, TrajectoryRecord, chi_cutoff,
                     run_path, stability_experiment, step_ito_em,
                     step_strat_heun)
from .estimates import ESTIMATE_IDS, run_estimates

__version__ = "0.1.0"
