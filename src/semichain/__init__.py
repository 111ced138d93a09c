"""Semiclassical chain Monte Carlo for harmonic fields coupled to small
quantum systems, with a truncated-Fock brute-force reference."""

__version__ = "0.1.0"

from .chain import (ChainState, chain_derivative, chain_quality,
                    coherent_bargmann, conditional_density,
                    conditional_expectation, drift_velocity, estimate,
                    initial_chain, reformat, standard_suite, step)
from .errors import (ConfigError, DegenerateIncrement, DimensionMismatch,
                     EmptyModeList, InterpolationDegraded, NonHermitianH0,
                     SamplerStuck, SemichainError, TailMassExceeded,
                     ZeroNormConditionalState)
from .model import FieldMode, ModelSpec, classical_current_model
from .observables import Monomial, Observable, atomic_observable, mode_monomial, unit_poly
from .oracle import (FockCompositeState, antinormal_expectation,
                     bargmann_projection, build_initial, coherent_amplitude,
                     evolve, q_function)
from .sampling import SamplerParams

__all__ = [
    "ChainState", "ConfigError", "DegenerateIncrement", "DimensionMismatch",
    "EmptyModeList", "FieldMode", "FockCompositeState", "InterpolationDegraded",
    "ModelSpec", "Monomial", "NonHermitianH0", "Observable", "SamplerParams",
    "SamplerStuck", "SemichainError", "TailMassExceeded",
    "ZeroNormConditionalState", "antinormal_expectation", "atomic_observable",
    "bargmann_projection", "build_initial", "chain_derivative", "chain_quality",
    "classical_current_model", "coherent_amplitude", "coherent_bargmann",
    "conditional_density", "conditional_expectation", "drift_velocity",
    "estimate", "evolve", "initial_chain", "mode_monomial", "q_function",
    "reformat", "standard_suite", "step", "unit_poly",
]
