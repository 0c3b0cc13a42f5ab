"""Exact and asymptotic error-detection statistics of random binary
parity-check matrix ensembles over the binary symmetric channel."""

from .asymptotics import (GrowthRate, OptimizerConfig, RatePoint,
                          cov_growth_rate, error_exponent, exponent_objective,
                          growth_rate_bernoulli, growth_rate_random,
                          var_pu_growth_rate)
from .ensemble import (BernoulliEnsemble, Bsc, avg_pu, avg_weight,
                       cov_matrix, cov_weight, var_pu)
from .gf2 import (BitMatrix, EnumerationBudgetError, MatrixFormatError,
                  WeightDistribution, nullspace_basis, pu_polynomial,
                  undetected_error_prob, weight_distribution)
from .logreal import LogReal
from .montecarlo import (SampleStats, SimConfig, estimate_pu_distribution,
                         sample_matrix, sample_pu_stats)
from .oracle import (EnsembleMoments, GuardExceededError, enumerate_ensemble,
                     verify_closed_forms)
from .rational import RationalPoly

__version__ = "0.1.0"

__all__ = [
    "BernoulliEnsemble", "Bsc", "BitMatrix", "EnsembleMoments",
    "EnumerationBudgetError", "GrowthRate", "GuardExceededError", "LogReal",
    "MatrixFormatError", "OptimizerConfig", "RatePoint", "RationalPoly",
    "SampleStats", "SimConfig", "WeightDistribution",
    "avg_pu", "avg_weight", "cov_growth_rate",
    "cov_matrix", "cov_weight", "enumerate_ensemble", "error_exponent",
    "estimate_pu_distribution", "exponent_objective",
    "growth_rate_bernoulli", "growth_rate_random", "nullspace_basis",
    "pu_polynomial", "sample_matrix", "sample_pu_stats",
    "undetected_error_prob", "var_pu", "var_pu_growth_rate",
    "verify_closed_forms", "weight_distribution",
]
