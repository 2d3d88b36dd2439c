"""Envelope-reduction laboratory.

A catalog of exact solutions for four nonlinear field equations and their
slowly-varying-envelope reductions, finite-difference residual verification,
the quench mapping between the two solution families, a split-step spectral
propagator for the envelope equations, and post-processing for breather
counting and the amplitude-width stability line.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, ConstraintError, DivergenceError,
                     DomainError, FamilyMismatchError, PoleError)
from .models import Family, ModelSpec, kappa_curve, kg_force, nls_nonlinear_phase_rate
from .solutions import (AnalyticSolution, MappingPair, SolutionId, catalog_dump,
                        catalog_ids, eval_solution, in_validity_domain,
                        instantiate_pair, make_solution, mapping_table,
                        model_for, phase_rate)
from .solver import (FieldState, Grid1D, RunConfig, Trajectory, mass,
                     propagate, sech_profile, step, supergaussian_profile,
                     uniform_profile)
from .verify import (check_all_mappings, check_mapping, kg_residual,
                     nls_residual, residual_for, verify_catalog, verify_entry)
from .analysis import (Peak, ScanTemplate, StabilityPoint, count_structures,
                       find_peaks, oscillation_metric, scan_stability,
                       stable_line_prediction, track_structures)

__all__ = [name for name in dir() if not name.startswith("_")]
