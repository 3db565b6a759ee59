"""Fractional derivatives and the norm bundle of the decay estimate."""

import functools
import warnings

import numpy as np
import pytest

from dispersive_decay.calculus import (
    NormBundle,
    _abs_xi_power,
    fractional_derivative,
    hs_norm,
    locate_sup,
    lp_norm,
    norms,
    spectral_derivative,
    weighted_norm,
)
from dispersive_decay.errors import BoundaryDecayWarning, InvalidInputError, ParameterError
from dispersive_decay.grid import (
    GridSpec,
    SampledFunction,
    _inverse_raw,
    l2_norm_physical,
)
from dispersive_decay.propagator import evolve_spectral, evolve_quadrature
from dispersive_decay.grid import forward_ft
from dispersive_decay.harness import SuiteConfig
from dispersive_decay.schwartz import generate_schwartz, schwartz_sample

from conftest import gaussian


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# decay-suite points on the default decay grid at alpha 1/2, as (seed, sample, t),
# where the grid samples a lobe of |u| near its troughs
_UNRESOLVED_LOBES = [(0, 2, 4.0), (1, 16, 32.0)]


@functools.lru_cache(maxsize=None)
def _sup_oracle(seed: int, sample: int, t: float):
    """(phi, u, its largest value found without ``locate_sup``, the largest sample of u's
    trigonometric interpolant and where that sample lies)

    u's spectrum is zero-padded 16x; a parabola through the interpolant's largest sample
    and its neighbours gives the argmax, and the value is ``evolve_quadrature``'s there.
    """
    config = SuiteConfig()
    phi = generate_schwartz(seed, sample, config.band, config.grid())
    u = evolve_spectral(phi, t, 0.5)
    n, pad = u.grid.size, 16
    spectrum = np.fft.fft(u.values)
    padded = np.zeros(pad * n, dtype=np.complex128)
    padded[: n // 2], padded[-n // 2:] = spectrum[: n // 2], spectrum[n // 2:]
    fine = np.abs(np.fft.ifft(padded)) * pad
    i = int(np.argmax(fine))
    ym, y0, yp = fine[i - 1 : i + 2]
    x_i = u.grid.x[0] + i * u.grid.spacing / pad
    x = x_i + 0.5 * (ym - yp) / (ym - 2.0 * y0 + yp) * u.grid.spacing / pad
    value = abs(evolve_quadrature(phi.spectrum, t, [x], 0.5)[0])
    return phi, u, value, y0, x_i


class TestFractionalDerivative:
    def test_identity(self, grid40):
        f = gaussian(grid40, a=1.0, b=4.0)
        assert fractional_derivative(f, 0.0) is f

    def test_s2_matches_second_derivative(self, grid40):
        # spectrum centered at xi = 4, away from 0: |xi|^2 == xi^2 exactly
        f = gaussian(grid40, a=1.0, b=4.0)
        lhs = fractional_derivative(f, 2.0).values
        rhs = -spectral_derivative(f, order=2).values
        assert rel_err(lhs, rhs) < 1e-10

    def test_semigroup(self, grid40):
        f = gaussian(grid40, a=1.0, b=4.0)
        twice = fractional_derivative(fractional_derivative(f, 0.5), 0.5)
        once = fractional_derivative(f, 1.0)
        assert rel_err(twice.values, once.values) < 1e-12

    def test_negative_order_rejected(self, grid40):
        # |D|^s is defined here for s >= 0 only
        with pytest.raises(ParameterError):
            fractional_derivative(gaussian(grid40), -0.5)

    def test_shared_multiplier_is_bit_equal_and_read_only(self, grid40):
        f = gaussian(grid40, a=0.5, b=3.0)
        xi = grid40.xi
        for s in (0.5, 0.7, 1.0, 2.0):
            mult = np.zeros_like(xi)
            mult[xi != 0.0] = np.abs(xi[xi != 0.0]) ** s
            plain = _inverse_raw(grid40, mult * f.spectrum.values)
            got = fractional_derivative(f, s).values
            np.testing.assert_array_equal(got.view(np.uint64), plain.view(np.uint64))
            assert not _abs_xi_power(grid40, s).flags.writeable

    def test_linearity(self, grid40):
        f = gaussian(grid40, a=1.0, b=4.0)
        g = gaussian(grid40, a=2.0, b=-5.0, x0=1.0)
        lhs = fractional_derivative(SampledFunction(grid40, 2.0 * f.values + 3j * g.values), 0.5)
        rhs = (2.0 * fractional_derivative(f, 0.5).values
               + 3j * fractional_derivative(g, 0.5).values)
        assert rel_err(lhs.values, rhs) < 1e-12


class TestNorms:
    def test_gaussian_l2(self, grid40):
        # ||exp(-x^2/2)||_{L^2}^2 = sqrt(pi)
        assert abs(l2_norm_physical(gaussian(grid40, a=0.5)) - np.pi ** 0.25) < 1e-12

    def test_zero(self, grid40):
        f = SampledFunction(grid40, np.zeros(grid40.size))
        nb = norms(f)
        assert l2_norm_physical(f) == nb.h1 == nb.weighted == 0.0

    def test_gaussian_weighted(self, grid40):
        # ||x d/dx exp(-x^2/2)||^2 = int x^4 exp(-x^2) dx = (3/4) sqrt(pi)
        nb = norms(gaussian(grid40, a=0.5))
        assert abs(nb.weighted ** 2 - 0.75 * np.sqrt(np.pi)) < 1e-10

    def test_gaussian_h1(self, grid40):
        # ||phi||_{H^1}^2 = ||phi||^2 + ||phi'||^2 = sqrt(pi) + sqrt(pi)/2
        nb = norms(gaussian(grid40, a=0.5))
        assert abs(nb.h1 ** 2 - 1.5 * np.sqrt(np.pi)) < 1e-10

    def test_h1_geq_l2_and_hs_monotone(self, grid200):
        for i in range(5):
            f = schwartz_sample(grid200, 3, i)
            nb = norms(f)
            assert nb.h1 >= l2_norm_physical(f)
            vals = [hs_norm(f, s) for s in (0.25, 0.5, 0.75, 1.0)]
            assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_bundle_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            NormBundle(h1=np.nan, weighted=0.0)

    def test_weighted_physical_vs_spectral(self, grid40):
        # ||x f'||_{L^2} equals ||d/dxi (xi fhat)||_{L^2}/sqrt(2pi) by
        # Plancherel; the spectral route is the independent oracle here.
        b, x0 = 2.0, 1.5
        f = gaussian(grid40, a=1.0, b=b, x0=x0)
        w_phys = weighted_norm(f)
        # closed form: fhat(xi) = sqrt(pi) exp(-(xi-b)^2/4) exp(-i x0 (xi-b))
        xi = grid40.xi
        fhat = np.sqrt(np.pi) * np.exp(-((xi - b) ** 2) / 4.0
                                       - 1j * x0 * (xi - b))
        dg = fhat * (1.0 + xi * (-(xi - b) / 2.0 - 1j * x0))  # d/dxi (xi fhat)
        w_spec = np.sqrt(np.sum(np.abs(dg) ** 2) * grid40.xi_spacing / (2.0 * np.pi))
        assert abs(w_phys - w_spec) / w_phys < 1e-10

    def test_derivative_is_bit_equal_to_plain_form(self, grid200):
        # the multiplier is formed, raised and applied in one buffer, which the
        # inverse transform then runs in
        f = schwartz_sample(grid200, 3, 1)
        hat = f.spectrum.values
        for order in (1, 2, 3):
            want = _inverse_raw(grid200, (1j * grid200.xi) ** order * hat)
            got = spectral_derivative(f, order).values
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not np.shares_memory(spectral_derivative(f).values, hat)

    def test_weighted_warns_without_edge_decay(self):
        # x f'(x) is visibly nonzero at |x| = 2
        f = gaussian(GridSpec(half_width=2.0, size=64), a=0.5)
        with pytest.warns(BoundaryDecayWarning, match="weighted"):
            weighted_norm(f)

    def test_weighted_silent_on_centred_gaussian(self, grid40):
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryDecayWarning)
            weighted_norm(gaussian(grid40, a=0.5))

    def test_lp_norms(self, grid40):
        f = gaussian(grid40, a=0.5)
        # int exp(-x^2/2) dx = sqrt(2pi); (int exp(-2x^2))^{1/4} = (sqrt(pi/2))^{1/4}
        assert abs(lp_norm(f, 1) - np.sqrt(2 * np.pi)) < 1e-10
        assert abs(lp_norm(f, 4) - (np.sqrt(np.pi / 2.0)) ** 0.25) < 1e-10
        assert abs(lp_norm(f, np.inf) - 1.0) < 1e-12
        with pytest.raises(ParameterError):
            lp_norm(f, 3)

    def test_trapezoid_sums_are_bit_equal_to_plain_forms(self, grid200):
        # every L^p and L^2 norm goes through one trapezoid sum; it keeps the
        # bits of np.sum(w * np.abs(values) ** p)
        f = schwartz_sample(grid200, 3, 1)
        w_x = np.full(grid200.size, grid200.spacing)
        w_x[[0, -1]] *= 0.5
        for p in (1, 2, 4):
            assert lp_norm(f, p) == float(np.sum(w_x * np.abs(f.values) ** p) ** (1.0 / p))
        assert lp_norm(f, np.inf) == float(np.max(np.abs(f.values)))
        assert l2_norm_physical(f) == float(np.sqrt(np.sum(w_x * np.abs(f.values) ** 2)))
        integrand = grid200.x * spectral_derivative(f).values
        assert weighted_norm(f) == float(np.sqrt(np.sum(w_x * np.abs(integrand) ** 2)))


class TestSup:
    def test_gaussian_peak(self, grid40):
        f = gaussian(grid40, a=1.0, c=2.5)
        res = locate_sup(f)
        assert abs(res.value - 2.5) < 1e-8
        assert abs(res.x) < grid40.spacing

    def test_zero(self, grid40):
        assert locate_sup(SampledFunction(grid40, np.zeros(grid40.size))).value == 0.0

    def test_off_grid_peak_refinement(self, grid40):
        x0 = 0.37 * grid40.spacing + 1.0
        f = gaussian(grid40, a=1.0, x0=x0)
        res = locate_sup(f)
        assert abs(res.value - 1.0) < 1e-6
        assert abs(res.x - x0) < 0.1 * grid40.spacing

    def test_evolved_sup_vs_quadrature_refined(self):
        # grid sup of the evolved wave vs a 10x finer direct-quadrature
        # evaluation near the argmax
        grid = GridSpec(half_width=400.0, size=8192)
        f = generate_schwartz(5, 0, (0.5, 8.0), grid)
        t = 50.0
        u = evolve_spectral(f, t, 0.5)
        res = locate_sup(u)
        fine = res.x + np.linspace(-grid.spacing, grid.spacing, 21)
        vals = evolve_quadrature(forward_ft(f), t, list(fine), 0.5)
        fine_sup = max(abs(v) for v in vals)
        assert abs(res.value - fine_sup) / fine_sup < 1e-4

    @pytest.mark.parametrize("seed, sample, t", _UNRESOLVED_LOBES)
    def test_sup_oracle_is_confirmed_by_quadrature(self, seed, sample, t):
        # quadrature agrees with the interpolant's largest sample, the vertex only
        # raises it, and no grid sample of u exceeds the oracle
        phi, u, value, y0, x_i = _sup_oracle(seed, sample, t)
        assert abs(abs(evolve_quadrature(phi.spectrum, t, [x_i], 0.5)[0]) - y0) <= 1e-9 * y0
        assert y0 <= value
        assert np.max(np.abs(u.values)) < value

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: locate_sup's 3-point vertex misses lobes of |u| "
                              "that the grid samples near their troughs (15.5% and 9.7% short)")
    @pytest.mark.parametrize("seed, sample, t", _UNRESOLVED_LOBES)
    def test_reported_sup_reaches_the_oracle(self, seed, sample, t):
        _, u, value, _, _ = _sup_oracle(seed, sample, t)
        assert value - locate_sup(u).value < 1e-6 * value

    def test_embedding_constant(self, grid200):
        # sup <= C * H^1 with one constant across a random suite
        from dispersive_decay import pins
        worst = max(
            locate_sup(schwartz_sample(grid200, 0, i)).value / norms(schwartz_sample(grid200, 0, i)).h1
            for i in range(25)
        )
        assert worst <= pins.PIN_HEADROOM * pins.EMBEDDING_CONSTANT

    def test_interpolation_inequality(self, grid200):
        # H^s interpolation: hs(s) <= l2^{1-s} * h1^s for 0 < s < 1
        # (Hoelder in the spectral integral, constant 1 in this normalization)
        for i in range(10):
            f = schwartz_sample(grid200, 1, i)
            nb, l2 = norms(f), l2_norm_physical(f)
            for s in (0.3, 0.6, 0.75):
                assert hs_norm(f, s) <= l2 ** (1 - s) * nb.h1 ** s * (1 + 1e-10)
