"""holderlab: parabolic regularity laboratory for stochastic convolutions."""

__version__ = "0.1.0"

from .kernels import KernelSpec, SpectralGrid
from .noise import NoiseSpec, NoisePath, MarkLaw, JumpSpec, sample_path
from .conditions import ConditionProbe, ConditionReport, fit_exponent
from .convolution import TestFunctionSpec, FieldEnsemble, convolve_brownian, convolve_poisson
from .moments import (MomentField, estimate_pair_moments, sample_pairs_dyadic,
                      sample_pairs_within_cylinder)
from .campanato import (
    SpaceTimePoint,
    ParabolicCylinder,
    Box,
    parabolic_distance,
    campanato_seminorm,
    embedding_exponent,
)

__all__ = [
    "KernelSpec",
    "SpectralGrid",
    "NoiseSpec",
    "NoisePath",
    "MarkLaw",
    "JumpSpec",
    "sample_path",
    "ConditionProbe",
    "ConditionReport",
    "fit_exponent",
    "TestFunctionSpec",
    "FieldEnsemble",
    "convolve_brownian",
    "convolve_poisson",
    "MomentField",
    "estimate_pair_moments",
    "sample_pairs_dyadic",
    "sample_pairs_within_cylinder",
    "SpaceTimePoint",
    "ParabolicCylinder",
    "Box",
    "parabolic_distance",
    "campanato_seminorm",
    "embedding_exponent",
]
