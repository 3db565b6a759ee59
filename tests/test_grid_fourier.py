"""Fourier layer: convention, round trip, transform bits, allocator policy."""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_hermite

from dispersive_decay import grid as grid_module
from dispersive_decay import propagator
from dispersive_decay.calculus import (
    fractional_derivative,
    hs_norm,
    spectral_derivative,
    weighted_norm,
)
from dispersive_decay.errors import BoundaryDecayWarning, InvalidInputError
from dispersive_decay.grid import (
    GridSpec,
    SampledFunction,
    SpectralFunction,
    _forward_raw,
    _inverse_raw,
    forward_ft,
    inverse_ft,
    trapezoid_weights,
)
from dispersive_decay.propagator import evolve_spectral

from conftest import gaussian


def quad_ft(fn, xi: float) -> complex:
    """Oracle: adaptive quadrature of the defining integral fhat(xi)."""
    re = quad(lambda x: (fn(x) * np.exp(-1j * xi * x)).real, -np.inf, np.inf,
              limit=400)[0]
    im = quad(lambda x: (fn(x) * np.exp(-1j * xi * x)).imag, -np.inf, np.inf,
              limit=400)[0]
    return re + 1j * im


def bits(a: np.ndarray) -> np.ndarray:
    """The IEEE bit patterns of a float or complex array, signed zeros included."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestGridSpec:
    def test_nodes(self):
        g = GridSpec(half_width=4.0, size=16)
        assert g.spacing == 0.5
        assert g.x[0] == -4.0
        assert g.x[-1] == 3.5
        np.testing.assert_allclose(g.xi, np.pi * np.arange(-8, 8) / 4.0)
        assert g.nyquist == pytest.approx(np.pi * 16 / 8.0)

    def test_frequency_symmetry(self):
        g = GridSpec(half_width=10.0, size=64)
        xi = g.xi
        # symmetric about 0 except the single node at -Nyquist
        np.testing.assert_allclose(xi[1:], -xi[1:][::-1])

    @pytest.mark.parametrize("kwargs", [
        dict(half_width=0.0, size=64),
        dict(half_width=-1.0, size=64),
        dict(half_width=1.0, size=8),
        dict(half_width=1.0, size=65),
        dict(half_width=1.0, size=96),  # even but not a power of two
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidInputError):
            GridSpec(**kwargs)

    def test_values_immutable(self):
        g = GridSpec(half_width=4.0, size=16)
        f = SampledFunction(g, np.zeros(16))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_trapezoid_weights_shared_read_only(self):
        g = GridSpec(half_width=4.0, size=16)
        w = trapezoid_weights(g.size, g.spacing)
        assert trapezoid_weights(g.size, g.spacing) is w
        assert not w.flags.writeable
        np.testing.assert_array_equal(w, [0.25] + [0.5] * 14 + [0.25])


class TestOccupiedBand:
    G = GridSpec(half_width=np.pi, size=16)  # xi = -8 .. 7

    def spectrum(self, nodes):
        hat = np.full(16, 1e-14)
        hat[[j + 8 for j in nodes]] = 1.0
        return SpectralFunction(self.G, hat)

    def test_sides_and_zero_mode(self):
        F = self.spectrum([-5, -2, 0, 3, 6])
        assert F.occupied_band() == (2.0, 6.0)
        assert F.occupied_band(1) == (3.0, 6.0)
        assert F.occupied_band(-1) == (2.0, 5.0)
        assert F.occupied[8]  # the mask keeps xi = 0; the bands leave it out

    def test_each_side_cached_on_its_own(self):
        F = self.spectrum([-5, -2, 0, 3, 6])
        seen = {side: F.occupied_band(side) for side in (1, 0, -1, 0, 1)}
        assert seen == {1: (3.0, 6.0), 0: (2.0, 6.0), -1: (2.0, 5.0)}
        for side in (-1, 0, 1):
            assert F.occupied_band(side) is F.occupied_band(side)

    def test_empty(self):
        assert SpectralFunction(self.G, np.zeros(16)).occupied_band() is None
        F = self.spectrum([0, 4])
        assert F.occupied_band(-1) is None
        assert F.occupied_band() == (4.0, 4.0)


class TestSpectrum:
    """SampledFunction.spectrum: the one raw transform of a sample."""

    def test_formed_once_read_only_bit_equal(self, grid40, monkeypatch):
        f = gaussian(grid40, x0=1.0, b=2.0)
        calls = []

        def spy(grid, values):
            calls.append(values)
            return _forward_raw(grid, values)

        monkeypatch.setattr(grid_module, "_forward_raw", spy)
        F = f.spectrum
        assert f.spectrum is F
        for s in (1.0, 0.75):
            hs_norm(f, s)
        spectral_derivative(f)
        fractional_derivative(f, 0.5)
        weighted_norm(f)
        forward_ft(f)
        evolve_spectral(f, 1.0, 0.5)
        assert len(calls) == 1 and calls[0] is f.values
        assert not F.values.flags.writeable
        assert F.values.tobytes() == _forward_raw(grid40, f.values).tobytes()

    def test_adopts_its_transform_and_copies_a_callers_array(self, grid40, monkeypatch):
        f = gaussian(grid40, b=2.0)
        formed = []

        def spy(grid, values):
            formed.append(_forward_raw(grid, values))
            return formed[-1]

        monkeypatch.setattr(grid_module, "_forward_raw", spy)
        F = f.spectrum
        assert F.values is formed[0]
        assert forward_ft(f).values is F.values
        with pytest.raises(ValueError):
            F.values[0] = 0.0
        mine = F.values.copy()
        G = SpectralFunction(grid40, mine)
        mine[:] = 0.0
        assert mine.flags.writeable and not G.values.flags.writeable
        assert G.values.tobytes() == F.values.tobytes()

    def test_evolution_adopts_its_inverse_transform(self, grid40, monkeypatch):
        f = gaussian(grid40, b=2.0)
        formed = []

        def spy(grid, hat, out=None):
            formed.append(_inverse_raw(grid, hat, out=out))
            return formed[-1]

        monkeypatch.setattr(propagator, "_inverse_raw", spy)
        u = evolve_spectral(f, 1.0, 0.5)
        # scipy.fft may hand back a view, which asarray re-wraps: compare memory
        assert np.shares_memory(u.values, formed[0]) and not u.values.flags.writeable
        mine = u.values.copy()
        v = SampledFunction(grid40, mine)
        mine[:] = 0.0
        assert not np.shares_memory(v.values, mine)
        assert v.values.tobytes() == u.values.tobytes()

    def test_own_spectrum_per_sample(self, grid40):
        f = gaussian(grid40, b=2.0)
        for g in (SampledFunction(grid40, 2.0 * f.values), evolve_spectral(f, 1.0, 0.5)):
            assert g.spectrum is not f.spectrum
            assert g.spectrum.values.tobytes() == _forward_raw(grid40, g.values).tobytes()


class TestTransformBits:
    """The scipy.fft pair, shifted and scaled in place, is bit for bit the numpy.fft + fftshift form."""

    @pytest.mark.parametrize("n", [16, 4096, 2**15, 2**17])
    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_matches_numpy_fftshift_form(self, n, kind):
        g = GridSpec(half_width=200.0, size=n)  # h = 400 / n, whose reciprocal is inexact
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        if kind == "complex":
            v = v + 1j * rng.standard_normal(n)
        v[::5] *= 0.0  # signed zeros ride along: negative entries become -0
        forward = g.spacing * g._signs() * np.fft.fftshift(np.fft.fft(v))
        np.testing.assert_array_equal(bits(_forward_raw(g, v)), bits(forward))
        v = v.astype(np.complex128)  # a no-op for complex v; the inverse takes a spectrum
        inverse = np.fft.ifft(np.fft.ifftshift(v * g._signs()) / g.spacing)
        np.testing.assert_array_equal(bits(_inverse_raw(g, v)), bits(inverse))
        if kind == "complex":  # the workspace route: into a caller's buffer, FFT in place
            scratch, out = v.copy(), np.empty(n, np.complex128)
            np.testing.assert_array_equal(bits(_forward_raw(g, scratch, out=out)), bits(forward))
            np.testing.assert_array_equal(bits(_inverse_raw(g, v, out=out)), bits(inverse))
            # the in-place route: the input's own buffer, its halves swapped
            own = v.copy()
            got = _inverse_raw(g, own, out=own)
            np.testing.assert_array_equal(bits(got), bits(inverse))
            assert np.shares_memory(got, own)

    def test_signed_zeros_of_a_sparse_spectrum(self):
        # numpy divides a complex entry by h as ((re + im 0), (im - re 0)) / h,
        # which turns some -0 into +0. A multiply of the float view by 1 / h
        # keeps them, and one output bit of this inverse would differ
        g = GridSpec(half_width=200.0, size=16)
        hat = np.zeros(g.size, np.complex128)
        hat.real[[0, 1, 3, 4, 6, 8, 9, 13]] = -0.0
        hat.imag[[4, 5, 7, 10, 13, 14]] = -0.0
        hat.real[14] = 1.0
        inverse = np.fft.ifft(np.fft.ifftshift(hat * g._signs()) / g.spacing)
        np.testing.assert_array_equal(bits(_inverse_raw(g, hat)), bits(inverse))
        np.testing.assert_array_equal(bits(_inverse_raw(g, hat, out=hat)), bits(inverse))

    @pytest.mark.parametrize("half_width", [2.0, 2.0**20])  # h = 1/4 and h = 2^17
    def test_signed_zeros_and_subnormals_at_both_sides_of_h_1(self, half_width):
        # for h <= 1 the inverse scales by the complex product with (1/h, -0), for
        # h > 1 it divides; both must keep the division's bits where a part is +-0
        # or subnormal. Spectra of one or two nonzero nodes let such a bit reach
        # the output
        g = GridSpec(half_width=half_width, size=16)
        rng = np.random.default_rng(7)
        specials = np.array([0.0, -0.0, 5e-324, -5e-324, -1e-320, 3e-310, -2.2e-308,
                             1.5, -0.75, 1e300])
        for _ in range(500):
            hat = np.zeros(g.size, np.complex128)
            nodes = rng.choice(g.size, rng.integers(1, 3), replace=False)
            for part in (hat.real, hat.imag):
                part[:] = np.copysign(0.0, rng.standard_normal(g.size))
                part[nodes] = rng.choice(specials, nodes.size)
            inverse = np.fft.ifft(np.fft.ifftshift(hat * g._signs()) / g.spacing)
            np.testing.assert_array_equal(bits(_inverse_raw(g, hat)), bits(inverse))
            np.testing.assert_array_equal(bits(_inverse_raw(g, hat, out=hat)), bits(inverse))


# the minor page faults of one warm LEMMA_GRID sample. The warm-up takes two
# samples: the first builds the grid's lasting state (pocketfft's plan, the
# pooled piece workspaces, the trapezoid weights) between its own arrays, so
# the second still grows the heap once, by one N-array (512 pages)
_WARM_SAMPLE_FAULTS = """
import resource
from dispersive_decay.harness import SuiteConfig, run_lemma_suites
run_lemma_suites(SuiteConfig(seed=0, n_samples=2))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_lemma_suites(SuiteConfig(seed=1, n_samples=1))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class _Libc:
    """A C library with the given symbols; ``mallopt`` records its calls."""

    def __init__(self, *symbols):
        self.calls = []
        for name in symbols:
            setattr(self, name, object())
        if "mallopt" in symbols:
            self.mallopt = lambda param, value: self.calls.append((param, value))


class TestHeapPolicy:
    """The transforms set glibc's allocator policy once per process, and nothing elsewhere."""

    @pytest.fixture
    def libc(self, monkeypatch):
        def install(*symbols):
            fake = _Libc(*symbols)
            monkeypatch.setattr(grid_module.ctypes, "CDLL", lambda name: fake)
            return fake

        grid_module._keep_heap.cache_clear()
        yield install
        monkeypatch.undo()
        grid_module._keep_heap.cache_clear()  # the next transform sets the real policy

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's")
    def test_warm_lemma_sample_takes_no_refaults(self):
        # pocketfft's 2 MB scratch, trimmed off the heap after each of the
        # sample's 47 transforms, took some 25k faults per sample without it
        src = os.path.dirname(os.path.dirname(grid_module.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _WARM_SAMPLE_FAULTS], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert int(out) <= 250

    @pytest.mark.parametrize("transform", [grid_module._forward_raw, grid_module._inverse_raw])
    def test_mallopt_once_per_process(self, libc, grid40, transform):
        fake = libc("mallopt", "gnu_get_libc_version")
        policy = [(-1, 64 << 20), (-3, 32 << 20)]  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD
        v = gaussian(grid40).values
        transform(grid40, v)
        assert fake.calls == policy
        for _ in range(3):
            grid_module._forward_raw(grid40, v)
            grid_module._inverse_raw(grid40, v)
        assert fake.calls == policy

    @pytest.mark.parametrize("symbols", [(), ("mallopt",), ("gnu_get_libc_version",)])
    def test_nothing_off_glibc(self, libc, grid40, symbols):
        fake = libc(*symbols)
        v = gaussian(grid40).values
        expected = bits(np.fft.ifft(np.fft.ifftshift(v * grid40._signs()) / grid40.spacing))
        np.testing.assert_array_equal(bits(grid_module._inverse_raw(grid40, v)), expected)
        assert fake.calls == []


class TestForward:
    def test_gaussian_closed_form(self, grid40):
        f = gaussian(grid40, a=0.5)
        hat = forward_ft(f)
        exact = np.sqrt(2.0 * np.pi) * np.exp(-grid40.xi ** 2 / 2.0)
        assert np.max(np.abs(hat.values - exact)) < 1e-10

    def test_gaussian_quadrature_oracle(self, grid40):
        f = gaussian(grid40, a=0.5)
        hat = forward_ft(f)
        for xi in (0.0, 0.7, -2.3, 5.0):
            j = int(np.argmin(np.abs(grid40.xi - xi)))
            oracle = quad_ft(lambda x: np.exp(-x ** 2 / 2.0), grid40.xi[j])
            assert abs(hat.values[j] - oracle) < 1e-10

    def test_gaussian_real_valued(self, grid40):
        hat = forward_ft(gaussian(grid40, a=0.5))
        assert np.max(np.abs(hat.values.imag)) < 1e-12 * np.max(np.abs(hat.values))

    def test_zero(self, grid40):
        hat = forward_ft(SampledFunction(grid40, np.zeros(grid40.size)))
        assert np.all(hat.values == 0)

    def test_modulation(self, grid40):
        b = 3.0
        hat = forward_ft(gaussian(grid40, a=0.5, b=b))
        exact = np.sqrt(2.0 * np.pi) * np.exp(-(grid40.xi - b) ** 2 / 2.0)
        assert np.max(np.abs(hat.values - exact)) < 1e-10

    def test_modulation_quadrature_oracle(self, grid40):
        b = 3.0
        hat = forward_ft(gaussian(grid40, a=0.5, b=b))
        j = int(np.argmin(np.abs(grid40.xi - 2.9)))
        oracle = quad_ft(lambda x: np.exp(-x ** 2 / 2.0 + 1j * b * x), grid40.xi[j])
        assert abs(hat.values[j] - oracle) < 1e-10

    def test_non_finite_rejected(self, grid40):
        vals = np.zeros(grid40.size)
        vals[0] = np.nan
        with pytest.raises(InvalidInputError):
            forward_ft(SampledFunction(grid40, vals))

    def test_boundary_decay_warning(self):
        g = GridSpec(half_width=2.0, size=64)
        f = gaussian(g, a=0.5)  # visibly nonzero at |x| = 2
        with pytest.warns(BoundaryDecayWarning):
            forward_ft(f)


class TestInverse:
    def test_hermite_round_trip(self, grid40):
        h2 = eval_hermite(2, grid40.x) * np.exp(-grid40.x ** 2 / 2.0)
        f = SampledFunction(grid40, h2.astype(complex))
        back = inverse_ft(forward_ft(f))
        rel = np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)
        assert rel < 1e-12

    def test_zero(self, grid40):
        f = inverse_ft(SpectralFunction(grid40, np.zeros(grid40.size)))
        assert np.all(f.values == 0)

    def test_inverse_quadrature_oracle(self, grid40):
        # FFT inverse of a Gaussian transform vs direct quadrature of the
        # inversion integral (1/2pi) int fhat(xi) exp(i x xi) dxi
        hat_fn = lambda xi: np.sqrt(2.0 * np.pi) * np.exp(-xi ** 2 / 2.0)
        F = SpectralFunction(grid40, hat_fn(grid40.xi).astype(complex))
        f = inverse_ft(F)
        for x in (0.0, 1.3, -4.2):
            n = int(np.argmin(np.abs(grid40.x - x)))
            xn = grid40.x[n]
            oracle = quad(lambda xi: hat_fn(xi) * np.cos(xn * xi), -np.inf,
                          np.inf, limit=400)[0] / (2.0 * np.pi)
            assert abs(f.values[n] - oracle) < 1e-9


class TestProperties:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_any_input(self, seed):
        g = GridSpec(half_width=5.0, size=64)
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        f = SampledFunction(g, vals)
        back = inverse_ft(forward_ft(f))
        rel = np.linalg.norm(back.values - vals) / np.linalg.norm(vals)
        assert rel < 1e-12

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, a, b):
        g = GridSpec(half_width=5.0, size=64)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        lhs = forward_ft(SampledFunction(g, a * f + b * h)).values
        rhs = (a * forward_ft(SampledFunction(g, f)).values
               + b * forward_ft(SampledFunction(g, h)).values)
        scale = max(np.max(np.abs(lhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    def test_translation_law(self, grid40):
        # f(. - x0) -> exp(-i xi x0) fhat(xi) for grid-aligned x0
        shift_cells = 128
        x0 = shift_cells * grid40.spacing
        f = gaussian(grid40, a=1.0)
        shifted = gaussian(grid40, a=1.0, x0=x0)
        lhs = forward_ft(shifted).values
        rhs = np.exp(-1j * grid40.xi * x0) * forward_ft(f).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10


_GRID_IMPORTS = """
import sys
import dispersive_decay.grid
print(sorted(m for m in sys.modules if m.startswith("dispersive_decay.")))
print("scipy.interpolate" in sys.modules)
"""


def test_grid_import_loads_no_other_package_module():
    # the package root re-exports nothing, so the grid layer loads only what it
    # imports itself, and not the quadrature spline's scipy.interpolate
    src = os.path.dirname(os.path.dirname(grid_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _GRID_IMPORTS], env=env,
                         capture_output=True, text=True, check=True).stdout.split("\n")
    assert out[:2] == ["['dispersive_decay.errors', 'dispersive_decay.grid']", "False"]
