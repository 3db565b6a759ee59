"""Numerical verification of dispersive decay for the fractional half-wave propagator.

The package evaluates exp(i t |D|^alpha) on the real line (spectral and
oscillatory-quadrature backends), builds the dyadic frequency decomposition
with an exact-support smooth bump, checks the Bernstein and weighted-norm
inequalities as recorded-constant ratio suites, traces the stationary-phase
proof of the (1+|t|)^{-1/2} sup-norm decay bound term by term, and exposes the
whole pipeline through a CLI emitting CSV reports.
"""

from .calculus import (
    NormBundle,
    fractional_derivative,
    hs_norm,
    locate_sup,
    lp_norm,
    norms,
    spectral_derivative,
    weighted_norm,
)
from .grid import (
    GridSpec,
    SampledFunction,
    SpectralFunction,
    forward_ft,
    inverse_ft,
)
from .harness import DecayReport, SuiteConfig, run_decay, run_lemma_suites, run_trace
from .littlewood_paley import (
    BumpFunction,
    bernstein_derivative_ratio,
    bernstein_ratio,
    lemma1_ratio,
    lemma2_ratio,
    project,
)
from .proof_tracer import (
    BandPartition,
    ProofTrace,
    build_partition,
    kernel_lower_bound,
    q0_estimate,
    trace_terms,
)
from .propagator import (
    PhaseSpec,
    evolve_quadrature,
    evolve_spectral,
    factorization_residual,
    oscillatory_integral,
    stationary_point,
)
from .schwartz import generate_schwartz, schwartz_sample

__version__ = "0.1.0"
