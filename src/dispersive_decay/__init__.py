"""Numerical verification of dispersive decay for the fractional half-wave propagator.

The package evaluates exp(i t |D|^alpha) on the real line (spectral and
oscillatory-quadrature backends), builds the dyadic frequency decomposition
with an exact-support smooth bump, checks the Bernstein and weighted-norm
inequalities as recorded-constant ratio suites, traces the stationary-phase
proof of the (1+|t|)^{-1/2} sup-norm decay bound term by term, and exposes the
whole pipeline through a CLI emitting CSV reports.
"""

__version__ = "0.1.0"
