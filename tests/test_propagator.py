"""Propagator backends, stationary-phase geometry, and the factorization check."""

import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import make_interp_spline
from scipy.optimize import brentq

from dispersive_decay.errors import (
    AccuracyNotMetError,
    DomainTooSmallError,
    InvalidInputError,
    ParameterError,
    UndefinedRatioError,
)
from dispersive_decay.grid import (
    GridSpec,
    SampledFunction,
    SpectralFunction,
    forward_ft,
    inverse_ft,
    l2_norm_physical,
)
from dispersive_decay import propagator
from dispersive_decay.harness import (
    DYADIC_TIMES,
    TRACE_GRID,
    SuiteConfig,
    _dominant_speed,
    run_decay,
    run_trace_ratio_suite,
)
from dispersive_decay.propagator import (
    PhaseSpec,
    SpectralAmplitude,
    _multipliers,
    _propagate,
    _windowed_integrals,
    evolve_quadrature,
    evolve_spectral,
    factorization_residual,
    oscillatory_integral,
    stationary_point,
)
from dispersive_decay.schwartz import band_window, generate_schwartz

from conftest import gaussian


def ring(grid: GridSpec, center: float = 4.0, width: float = 1.0,
         lo: float = 1.0, hi: float = 16.0) -> SampledFunction:
    """Band-limited Gaussian ring spectrum with exact support in [lo, hi]."""
    hat = (np.exp(-((np.abs(grid.xi) - center) / width) ** 2)
           * band_window(grid.xi, lo, hi)).astype(complex)
    return inverse_ft(SpectralFunction(grid, hat))


@pytest.fixture
def spline_builds(monkeypatch):
    """The spectra of the SpectralAmplitude builds from here on, one entry per build."""
    builds = []
    init = SpectralAmplitude.__init__

    def spy(self, F):
        builds.append(F)
        init(self, F)

    monkeypatch.setattr(SpectralAmplitude, "__init__", spy)
    return builds


class TestPhaseSpec:
    def test_derivatives_match_finite_differences(self):
        spec = PhaseSpec(alpha=0.5, t=3.0, x=-2.0)

        def q(xi):
            return propagator._q(xi, spec.t, spec.x, spec.alpha)

        h = 1e-5
        for xi in (0.3, 1.7, -5.0, 12.0):
            fdq = (q(xi + h) - q(xi - h)) / (2 * h)
            fd2q = (spec.dq(xi + h) - spec.dq(xi - h)) / (2 * h)
            assert abs(spec.dq(xi) - fdq) < 1e-7
            assert abs(spec.d2q(xi) - fd2q) < 1e-6

    def test_alpha_validation(self, grid40):
        f = gaussian(grid40)
        for alpha in (0.0, 1.0, 1.5):
            for call in (lambda: PhaseSpec(alpha=alpha),
                         lambda: stationary_point(1.0, 1.0, alpha),
                         lambda: evolve_spectral(f, 1.0, alpha),
                         lambda: evolve_quadrature(f.spectrum, 1.0, [0.0], alpha)):
                with pytest.raises(ParameterError, match=r"alpha must lie in \(0, 1\)"):
                    call()

    def test_half_curvature_formula(self):
        # at t = 1, |Q''(xi)| = |Phi''(xi)| = (1/4)|xi|^{-3/2} for alpha = 1/2
        spec = PhaseSpec(alpha=0.5, t=1.0)
        for xi in (0.5, 2.0, 9.0):
            assert abs(spec.d2q(xi)) == pytest.approx(0.25 * xi ** -1.5, rel=1e-12)


class TestEvolveSpectral:
    def test_identity_at_t0(self, grid200):
        f = generate_schwartz(0, 0, (0.5, 8.0), grid200)
        u = evolve_spectral(f, 0.0, 0.5)
        np.testing.assert_array_equal(u.values, f.values)

    def test_unitarity(self, grid200):
        f = generate_schwartz(0, 1, (0.5, 8.0), grid200)
        for t in (1.0, 17.3, -40.0):
            u = evolve_spectral(f, t, 0.5)
            ratio = l2_norm_physical(u) / l2_norm_physical(f)
            assert abs(ratio - 1.0) < 1e-12

    def test_group_law(self, grid200):
        f = generate_schwartz(0, 2, (0.5, 8.0), grid200)
        u12 = evolve_spectral(evolve_spectral(f, 11.0, 0.5), 6.0, 0.5)
        u3 = evolve_spectral(f, 17.0, 0.5)
        rel = np.linalg.norm(u12.values - u3.values) / np.linalg.norm(u3.values)
        assert rel < 1e-12

    def test_non_finite_sample_raises_at_every_t(self, grid200):
        # the finiteness verdict is cached on the sample; it must keep raising
        vals = generate_schwartz(0, 0, (0.5, 8.0), grid200).values.copy()
        vals[100] = np.nan
        f = SampledFunction(grid200, vals)
        for t in (1.0, 0.0, 1.0, 4.0):
            with pytest.raises(InvalidInputError):
                evolve_spectral(f, t, 0.5)

    @pytest.mark.parametrize("alpha", [0.5, 0.45, 0.4, 0.35, 0.75])
    def test_mirrored_multiplier_is_bit_equal(self, alpha):
        # the multiplier is (cos, sin) of t |xi|^alpha on |xi| = 0 .. Nyquist; read
        # mirrored onto xi < 0 it must equal the full-axis complex exp bit for bit,
        # at negative t (where t * 0 is -0) and at large t too, and so must its
        # product with a spectrum
        grids = (SuiteConfig().grid(), GridSpec(half_width=4.0, size=16),
                 GridSpec(half_width=200.0, size=32768))
        for grid in grids:
            m = grid.size // 2
            rng = np.random.default_rng(grid.size)
            hat = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
            hat[::7] *= 0.0
            times = DYADIC_TIMES + (0.37, -0.37, -1024.0, 3.3e7)
            halves = _multipliers(grid, alpha, (0.0,) + times)
            assert list(halves) == list(times)
            for t, half in halves.items():
                full = np.exp(1j * t * np.abs(grid.xi) ** alpha)
                assert half.shape == (m + 1,) and not half.flags.writeable
                mirrored = np.concatenate([half[m:0:-1], half[:m]])
                np.testing.assert_array_equal(mirrored.view(np.uint64), full.view(np.uint64))
                np.testing.assert_array_equal(_propagate(hat, half).view(np.uint64),
                                              (full * hat).view(np.uint64))

    def test_wrap_guard(self):
        grid = GridSpec(half_width=50.0, size=4096)
        f = generate_schwartz(0, 0, (0.5, 8.0), grid)
        with pytest.raises(DomainTooSmallError) as exc:
            evolve_spectral(f, 1000.0, 0.5)
        assert exc.value.min_half_width > 50.0

    def test_wrap_guard_with_cached_spectrum(self):
        # the spectrum is read at a guarded t first; the guard must still trip
        grid = GridSpec(half_width=50.0, size=4096)
        f = generate_schwartz(0, 0, (0.5, 8.0), grid)
        evolve_spectral(f, 1.0, 0.5)
        assert "spectrum" in vars(f)
        with pytest.raises(DomainTooSmallError):
            evolve_spectral(f, 1000.0, 0.5)

    def test_backend_agreement(self):
        # alpha = 1/2, t = 20, spectrum in [1/2, 8]: spectral vs quadrature at
        # 50 random points
        grid = GridSpec(half_width=400.0, size=16384)
        f = generate_schwartz(3, 1, (0.5, 8.0), grid)
        t = 20.0
        u = evolve_spectral(f, t, 0.5)
        rng = np.random.default_rng(0)
        idx = rng.integers(grid.size // 2 - 2000, grid.size // 2 + 2000, 50)
        vals = evolve_quadrature(forward_ft(f), t, grid.x[idx], 0.5)
        scale = np.max(np.abs(u.values))
        err = max(abs(v - u.values[i]) for v, i in zip(vals, idx)) / scale
        assert err < 1e-6

    def test_decay_suite_sups_agree_with_quadrature(self):
        # the first 4 samples of the pinned seed-1, alpha-1/2 decay suite at all
        # 11 times: at the grid node where the spectral |u| peaks, the quadrature
        # |u| there agrees within 1e-12 relative (worst measured: 2.5e-14, sample
        # 2 at t = 1024). The node, not locate_sup's vertex, which can lie 6.5e-3
        # off the dense maximum where the fringes are 2 grid spacings apart.
        cfg = SuiteConfig(seed=1)
        worst = 0.0
        for i in range(4):
            phi = generate_schwartz(cfg.seed, i, cfg.band, cfg.grid())
            for t in cfg.times:
                mag = np.abs(evolve_spectral(phi, t, cfg.alpha).values)
                node = int(np.argmax(mag))
                quad = abs(evolve_quadrature(phi.spectrum, t, [phi.grid.x[node]], cfg.alpha)[0])
                worst = max(worst, abs(quad - mag[node]) / mag[node])
        assert worst < 1e-12


class TestEvolveQuadrature:
    def test_t0_matches_inverse(self, grid200):
        f = ring(grid200)
        hat = forward_ft(f)
        idx = [grid200.size // 2 + j for j in (-50, 0, 311)]
        vals = evolve_quadrature(hat, 0.0, grid200.x[idx], 0.5)
        scale = np.max(np.abs(f.values))
        for v, i in zip(vals, idx):
            assert abs(v - f.values[i]) / scale < 1e-9

    def test_linearity(self, grid200):
        h1 = forward_ft(ring(grid200, center=3.0))
        h2 = forward_ft(ring(grid200, center=6.0))
        c = 2.0 - 1.5j
        combined = SpectralFunction(grid200, h1.values + c * h2.values)
        x = [0.0, 7.25]
        lhs = evolve_quadrature(combined, 30.0, x, 0.5)
        v1 = evolve_quadrature(h1, 30.0, x, 0.5)
        v2 = evolve_quadrature(h2, 30.0, x, 0.5)
        # the backend truncates support at 1e-13 of the peak amplitude, so
        # agreement is machine precision relative to the amplitude scale
        # (peak 1, band width ~15), not to the cancelled integral value
        for a, b1, b2 in zip(lhs, v1, v2):
            assert abs(a - (b1 + c * b2)) < 1e-11

    def test_oversampled_riemann_oracle(self, grid200):
        # alpha = 1/2, t = 100, x = 0 against a 10x-oversampled trapezoid
        # evaluation of the inversion integral with the analytic amplitude
        t = 100.0
        f = ring(grid200)
        fine = np.linspace(-16.0, 16.0, 10 * grid200.size // 4 + 1)
        amp = (np.exp(-((np.abs(fine) - 4.0)) ** 2)
               * band_window(fine, 1.0, 16.0))

        def oracle(x):
            phase = x * fine + t * np.sqrt(np.abs(fine))
            return np.trapezoid(amp * np.exp(1j * phase), fine) / (2 * np.pi)

        # on the stationary ray the integral is O(t^{-1/2}) and the relative
        # comparison is meaningful
        x_ray = -t * 0.5 / np.sqrt(4.0)
        val = evolve_quadrature(forward_ft(f), t, [x_ray], 0.5)[0]
        assert abs(val - oracle(x_ray)) / abs(oracle(x_ray)) < 1e-7
        # at x = 0 the integral cancels to ~1e-7; agreement is then machine
        # precision relative to the amplitude scale
        val0 = evolve_quadrature(forward_ft(f), t, [0.0], 0.5)[0]
        assert abs(val0 - oracle(0.0)) < 1e-11


@pytest.fixture
def fresh_collocation():
    """An empty per-grid collocation cache, emptied again afterwards."""
    propagator._collocation.cache_clear()
    yield propagator._collocation
    propagator._collocation.cache_clear()


class TestSpectralAmplitude:
    """The cached collocation factor against make_interp_spline, the oracle."""

    @staticmethod
    def assert_matches_oracle(F, nodes):
        ref = make_interp_spline(F.grid.xi, F.values.view(float).reshape(-1, 2), k=5)
        amp = SpectralAmplitude(F)
        for got, want in ((amp._spline.t, ref.t), (amp._spline.c, ref.c)):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        want = np.ascontiguousarray(ref(nodes)).view(np.complex128).ravel()
        np.testing.assert_array_equal(amp(nodes).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("grid", [TRACE_GRID, GridSpec(half_width=256.0, size=8192),
                                      GridSpec(half_width=40.0, size=4096)],
                             ids=["trace", "fallback", "grid40"])
    @pytest.mark.parametrize("band", [(0.5, 8.0), (0.25, 32.0)])
    def test_bit_equal_to_make_interp_spline(self, grid, band):
        nodes = np.random.default_rng(1).uniform(grid.xi[0], grid.xi[-1], 10_000)
        for seed in range(4):
            self.assert_matches_oracle(generate_schwartz(seed, 0, band, grid).spectrum, nodes)

    @pytest.mark.parametrize("grid", [TRACE_GRID, GridSpec(half_width=40.0, size=4096)],
                             ids=["trace", "grid40"])
    def test_public_band_filler_is_bit_equal(self, grid, monkeypatch, fresh_collocation):
        # the route taken where scipy lacks the private _coloc
        monkeypatch.setattr(propagator, "_coloc", None)
        nodes = np.random.default_rng(2).uniform(grid.xi[0], grid.xi[-1], 10_000)
        for seed in range(2):
            self.assert_matches_oracle(generate_schwartz(seed, 0, (0.5, 8.0), grid).spectrum,
                                       nodes)

    def test_one_factorisation_per_grid(self, monkeypatch, fresh_collocation):
        factored, dgbtrf = [], propagator.dgbtrf

        def spy(band, *args, **kwargs):
            factored.append(band.shape)
            return dgbtrf(band, *args, **kwargs)

        monkeypatch.setattr(propagator, "dgbtrf", spy)
        run_trace_ratio_suite(SuiteConfig(n_samples=2))
        assert factored == [(16, TRACE_GRID.size)]
        grid = GridSpec(half_width=40.0, size=4096)
        for seed in range(2):
            SpectralAmplitude(generate_schwartz(seed, 0, (0.5, 8.0), grid).spectrum)
        assert factored == [(16, TRACE_GRID.size), (16, grid.size)]

    def test_cached_arrays_read_only(self, fresh_collocation):
        for a in fresh_collocation(GridSpec(half_width=40.0, size=4096)):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0

    def test_non_finite_spectrum_raises_before_factoring(self, monkeypatch,
                                                         fresh_collocation):
        monkeypatch.setattr(propagator, "dgbtrf", lambda *a, **k: pytest.fail("factored"))
        grid = GridSpec(half_width=40.0, size=4096)
        values = np.ones(grid.size, dtype=complex)
        values[7] = np.nan
        with pytest.raises(InvalidInputError):
            SpectralAmplitude(SpectralFunction(grid, values))
        assert fresh_collocation.cache_info().currsize == 0


class TestWindows:
    """Windows as (intervals, weight, cap): one pass cuts, caps and sums them."""

    T = 2048.0

    @pytest.fixture(scope="class")
    def setup(self):
        phi = generate_schwartz(0, 0, (0.5, 8.0), TRACE_GRID)
        amp = SpectralAmplitude(phi.spectrum)
        x = -self.T * _dominant_speed(phi, 0.5)
        xi0 = stationary_point(self.T, x, 0.5)
        d = amp.xi_spacing
        band = [(-4.0, -1.0), (1.0, 4.0)]
        windows = [
            (None, None, 8.0 * d),
            (band, lambda xi: np.cos(xi) ** 2, 0.5 * d),
            ([(xi0 - 0.2, xi0 + 0.2)], lambda xi: (1.0 - ((xi - xi0) / 0.2) ** 2) ** 4, 0.25 * d),
        ]
        return amp, x, windows

    def integrals(self, amp, x, windows):
        return np.array(_windowed_integrals(amp, amp.support, windows, self.T, x, 0.5))

    def test_window_order_does_not_matter(self, setup):
        amp, x, windows = setup
        ref = self.integrals(amp, x, windows)
        assert np.all(ref != 0)
        for order in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            got = self.integrals(amp, x, [windows[i] for i in order])
            np.testing.assert_array_equal(got.view(np.uint64), ref[order].view(np.uint64))

    def test_empty_window_adds_nothing(self, setup):
        amp, x, windows = setup
        ref = self.integrals(amp, x, windows)
        # its cap would narrow every cell it covered; it covers none
        got = self.integrals(amp, x, [windows[0], ([], np.cos, 1e-6), *windows[1:]])
        assert got[1] == 0j
        np.testing.assert_array_equal(np.delete(got, 1).view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("cap", [0.0, -0.5])
    def test_cap_must_be_positive(self, setup, cap):
        amp, x, windows = setup
        with pytest.raises(ParameterError):
            self.integrals(amp, x, [*windows, (None, None, cap)])
        with pytest.raises(ParameterError):
            oscillatory_integral(lambda xi: np.exp(-xi ** 2), [(0.5, 4.0)], self.T, x, 0.5,
                                 amp_scale=cap)

    def test_spline_built_once_per_spectrum(self, spline_builds):
        run_trace_ratio_suite(SuiteConfig(n_samples=1))
        assert len(spline_builds) == 1
        # every time of this grid is past the wrap guard: the quadrature sup
        # samples the spline on its wider grid and evaluates u at 3 sets of
        # points per time
        cfg = SuiteConfig(n_samples=1, times=(256.0, 512.0), half_width=256.0,
                          grid_n=8192, band=(0.5, 8.0))
        assert run_decay(cfg)[0].backends == ("quadrature", "quadrature")
        assert len(spline_builds) == 2

    def test_forward_ft_is_the_sample_spectrum(self, spline_builds):
        # so the checked and the unchecked transform share one spline
        f = generate_schwartz(0, 0, (0.5, 8.0), GridSpec(half_width=64.0, size=2048))
        assert forward_ft(f) is f.spectrum
        first = evolve_quadrature(forward_ft(f), 64.0, [-40.0], 0.5)
        assert evolve_quadrature(f.spectrum, 64.0, [-40.0], 0.5) == first
        assert len(spline_builds) == 1


class TestLevinRule:
    """The Levin cells of the windowed rule against the pure Gauss reference."""

    @pytest.fixture(scope="class", params=[0, 1])
    def sample(self, request):
        phi = generate_schwartz(request.param, 0, (0.25, 32.0), TRACE_GRID)
        mass = np.sum(np.abs(phi.spectrum.values)) * TRACE_GRID.xi_spacing
        return phi, SpectralAmplitude(phi.spectrum), mass

    @pytest.mark.parametrize("alpha", [0.5, 0.35])
    @pytest.mark.parametrize("t", [2048.0, 8192.0])
    @pytest.mark.parametrize("ray_factor", [0.125, 1.0, 8.0])
    def test_matches_gauss_reference(self, sample, alpha, t, ray_factor):
        phi, amp, mass = sample
        x = -t * _dominant_speed(phi, alpha) * ray_factor
        scale = 8.0 * amp.xi_spacing
        gauss = oscillatory_integral(amp, amp.support, t, x, alpha, scale)
        levin = _windowed_integrals(amp, amp.support, [(None, None, scale)], t, x, alpha)[0]
        assert abs(levin - gauss) <= 1e-13 * mass

    def test_cell_classification(self):
        # xi0 = 4; cells between multiples of 0.05 on (1.01, 16), not split
        # at xi0, and on the negative branch, where |Q'| >= 512 everywhere
        t, alpha = 2048.0, 0.5
        x = -t * 0.5 / 2.0
        spec = PhaseSpec(alpha=alpha, t=t, x=x)
        pieces = [(-16.0, -1.01, 1.0), (1.01, 16.0, 1.0)]
        starts, widths, gauss = propagator._levin_cells(pieces, 0.05, t, x, alpha)
        dq = spec.dq(np.stack([starts, starts + widths]))
        assert np.all(dq[0] * dq[1] > 0)
        assert np.all(np.min(np.abs(dq), axis=0) * widths >= 4.0)
        assert np.all(widths <= 0.05 * (1 + 1e-12))
        # the spline is one quintic between grid points: no cell holds one
        inside = (np.floor((starts + widths) / 0.05 - 1e-9)
                  - np.ceil(starts / 0.05 + 1e-9) + 1)
        assert np.all(inside == 0)
        # one maximal run of Gauss cells, holding xi0 and every cell with
        # min |Q'| w < 4; the Levin cells cover the rest
        assert len(gauss) == 1
        a, b, cap = gauss[0]
        assert a < 4.0 < b and cap == 1.0
        assert not np.any((starts < b) & (starts + widths > a))
        assert np.sum(widths) + (b - a) == pytest.approx(2 * 14.99, rel=1e-12)
        w = widths[0]
        for lo, hi in ((a, a + w), (b - w, b)):
            assert np.min(np.abs(spec.dq([lo, hi]))) * w < 4.0
        for lo, hi in ((a - w, a), (b, b + w)):
            assert np.min(np.abs(spec.dq([lo, hi]))) * w >= 4.0
        # a cell holding xi0 goes to Gauss even where |Q'| w is large at both ends
        assert min(abs(spec.dq(3.0)), abs(spec.dq(5.0))) * 2.0 >= 4.0
        starts, _, gauss = propagator._levin_cells([(3.0, 5.0, 2.0)], 10.0, t, x, alpha)
        assert starts.size == 0 and gauss == [(3.0, 5.0, 2.0)]

    def test_budget_counts_levin_cells(self):
        grid = GridSpec(half_width=200.0, size=4096)
        amp = SpectralAmplitude(generate_schwartz(0, 0, (0.5, 4.0), grid).spectrum)
        with pytest.raises(AccuracyNotMetError):
            _windowed_integrals(amp, amp.support, [(None, None, amp.xi_spacing)], 2048.0,
                                -5000.0, 0.5, budget=10)


class TestQuadratureRules:
    """The Gauss and Levin rules as (nodes, complex weights) chunks."""

    @pytest.mark.parametrize("rule", ["gauss", "levin10", "levin12"])
    def test_closed_form(self, rule):
        # int e^{i x xi} over each cell is (e^{ixb} - e^{ixa}) / (ix); at
        # t = 0 the weights alone integrate it
        x = 3.0
        starts = np.array([-2.0, -0.5, 0.25, 1.0])
        widths = np.array([0.25, 0.2, 0.5, 0.125])
        if rule == "gauss":
            chunks = propagator._gauss_rule(starts, widths, 0.0, x, 0.5)
        else:
            chunks = propagator._levin_rule(starts, widths, 0.0, x, 0.5, int(rule[5:]))
        got = sum(np.sum(weights) for _, weights in chunks)
        ends = starts + widths
        exact = np.sum((np.exp(1j * x * ends) - np.exp(1j * x * starts)) / (1j * x))
        assert abs(got - exact) < 1e-14

    @pytest.mark.parametrize("levin_nodes", [10, 12])
    def test_amplitude_sees_each_node_once(self, monkeypatch, levin_nodes):
        # an odd chunk size splits both rules into several chunks
        phi = generate_schwartz(0, 0, (0.5, 8.0), TRACE_GRID)
        amp = SpectralAmplitude(phi.spectrum)
        seen, counts = [], {}

        class Recorder:
            xi_spacing = amp.xi_spacing

            def __call__(self, xi):
                seen.append(np.array(xi))
                return amp(xi)

        def counting(name, fn):
            def spy(*args):
                out = fn(*args)
                counts[name] = out[0].size
                return out
            return spy

        monkeypatch.setattr(propagator, "_NODE_CHUNK", 1001)
        for name in ("_levin_cells", "_panels"):
            monkeypatch.setattr(propagator, name, counting(name, getattr(propagator, name)))
        t = 4096.0
        x = -t * _dominant_speed(phi, 0.5)
        _windowed_integrals(Recorder(), amp.support, [(None, None, 8.0 * amp.xi_spacing)],
                            t, x, 0.5, levin_nodes=levin_nodes)
        assert counts["_levin_cells"] > 0 and counts["_panels"] > 0
        assert len(seen) > 2 and max(c.size for c in seen) <= 1001
        nodes = np.concatenate(seen)
        assert nodes.size == 8 * counts["_panels"] + levin_nodes * counts["_levin_cells"]
        assert np.unique(nodes).size == nodes.size

    def test_gauss_pass_memory_is_one_chunk(self):
        # 185229 panels: a pass holding all of its nodes and weights at once
        # would need about 50 MB
        t = 2.0 ** 16
        tracemalloc.start()
        try:
            oscillatory_integral(lambda xi: np.exp(-xi ** 2), [(0.5, 4.0)], t, -t, 0.5, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestStationaryPoint:
    def test_closed_form_values(self):
        # |xi0| = (1/4)(t/x)^2 for alpha = 1/2
        assert stationary_point(8.0, -1.0, 0.5) == pytest.approx(16.0)
        assert stationary_point(8.0, -2.0, 0.5) == pytest.approx(4.0)

    def test_no_root_signal(self):
        assert stationary_point(0.0, 1.0, 0.5) is None
        assert stationary_point(5.0, 0.0, 0.5) is None

    def test_general_alpha_closed_form_and_root(self):
        alpha, t, x = 0.4, 10.0, -1.0
        xi0 = stationary_point(t, x, alpha)
        assert abs(xi0) == pytest.approx((alpha * abs(t / x)) ** (1 / (1 - alpha)),
                                         rel=1e-14)
        spec = PhaseSpec(alpha=alpha, t=t, x=x)
        assert abs(spec.dq(xi0)) < 1e-12 * abs(t)
        # independent root-finder cross-check
        root = brentq(lambda z: float(spec.dq(z)), 1e-6, 1e6, xtol=1e-15,
                      rtol=1e-15)
        assert abs(root - xi0) < 1e-12 * abs(xi0)

    def test_nondegeneracy(self):
        for alpha in (0.35, 0.5):
            xi0 = stationary_point(100.0, -3.0, alpha)
            spec = PhaseSpec(alpha=alpha, t=100.0, x=-3.0)
            assert abs(spec.d2q(xi0)) > 0


class TestFactorization:
    def test_richardson_ratio(self, grid200):
        f = generate_schwartz(0, 0, (0.5, 8.0), grid200)
        r1 = factorization_residual(f, 5.0, 2e-3, 0.5)
        r2 = factorization_residual(f, 5.0, 1e-3, 0.5)
        assert r1 / r2 == pytest.approx(4.0, rel=0.2)

    def test_ring_mode_residual(self, grid200):
        f = ring(grid200, center=4.0, width=0.5, lo=2.0, hi=8.0)
        assert factorization_residual(f, 5.0, 1e-3, 0.5) < 1e-6

    def test_zero_input(self, grid200):
        with pytest.raises(UndefinedRatioError):
            factorization_residual(
                SampledFunction(grid200, np.zeros(grid200.size)), 5.0, 1e-3)
