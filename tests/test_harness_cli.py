"""Harness pipeline, CSV contract, and CLI exit codes."""

import argparse
import dataclasses
import math
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft

from dispersive_decay import cli, harness, littlewood_paley, pins, proof_tracer, propagator
from dispersive_decay.calculus import (
    fractional_derivative,
    locate_sup,
    lp_norm,
    norms,
    weighted_norm,
)
from dispersive_decay.cli import build_parser, main, run_pins
from dispersive_decay.errors import OutOfBandError, ParameterError
from dispersive_decay.grid import (GridSpec, SampledFunction, _forward_raw, _inverse_raw, forward_ft,
                                   l2_norm_physical)
from dispersive_decay.harness import (
    DYADIC_TIMES,
    LEMMA_GRID,
    LEMMA_K_RANGE,
    TRACE_GRID,
    SuiteConfig,
    decay_rows,
    read_csv_rows,
    run_decay,
    run_lemma_suites,
    run_trace,
    write_csv,
)
from dispersive_decay.littlewood_paley import _usable_bands, project
from dispersive_decay.propagator import evolve_spectral
from dispersive_decay import grid as grid_module
from dispersive_decay import schwartz
from dispersive_decay.schwartz import (
    band_window,
    generate_schwartz,
    schwartz_params,
    schwartz_sample,
)

SMALL = GridSpec(half_width=512.0, size=16384)
FAST = SuiteConfig(seed=0, n_samples=2, alpha=0.5, times=(1.0, 4.0, 16.0),
                   half_width=512.0, grid_n=16384, band=(0.5, 8.0))


@pytest.fixture
def fft_calls(monkeypatch):
    """The list that grows by one on every scipy.fft.fft / ifft call, the package's FFTs."""
    calls = []
    for name in ("fft", "ifft"):
        def counted(*args, _fft=getattr(scipy.fft, name), **kwargs):
            calls.append(1)
            return _fft(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    return calls


class TestGenerateSchwartz:
    @pytest.mark.parametrize("grid", [SuiteConfig().grid(), LEMMA_GRID, TRACE_GRID,
                                      GridSpec(half_width=16.0, size=16)],
                             ids=["decay", "lemma", "trace", "n16"])
    def test_windowed_sum_is_bit_equal_to_full_grid_sum(self, grid):
        x = grid.x
        for seed in (0, 1, 7):
            for index in range(40):
                full = np.zeros(grid.size, dtype=np.complex128)
                for a, x0, b, c in zip(*schwartz_params(seed, index)):
                    full += c * np.exp(-a * (x - x0) ** 2 + 1j * b * x)
                got = schwartz_sample(grid, seed, index).values
                np.testing.assert_array_equal(got.view(np.uint64), full.view(np.uint64))

    @pytest.mark.parametrize("grid", [SuiteConfig().grid(), TRACE_GRID,
                                      GridSpec(half_width=16.0, size=16)],
                             ids=["decay", "trace", "n16"])
    def test_band_pass_is_bit_equal_to_unfiltered_form(self, grid):
        for seed in (0, 1):
            for index in range(3):
                # alternate the bands, so that a stale cached window shows
                for lo, hi in ((0.5, 8.0), (0.25, 32.0)):
                    hi_eff = min(hi, 0.95 * grid.nyquist)
                    raw = schwartz_sample(grid, seed, index).values
                    want = _inverse_raw(grid, band_window(grid.xi, lo, hi_eff)
                                        * _forward_raw(grid, raw))
                    got = generate_schwartz(seed, index, (lo, hi), grid).values
                    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_cached_band_window_read_only(self):
        window = schwartz._grid_band_window(TRACE_GRID, 0.5, 8.0)
        assert not window.flags.writeable
        assert window is schwartz._grid_band_window(TRACE_GRID, 0.5, 8.0)
        want = band_window(TRACE_GRID.xi, 0.5, 8.0)
        np.testing.assert_array_equal(window.view(np.uint64), want.view(np.uint64))

    def test_deterministic(self):
        a = generate_schwartz(3, 5, (0.5, 8.0), SMALL)
        b = generate_schwartz(3, 5, (0.5, 8.0), SMALL)
        np.testing.assert_array_equal(a.values, b.values)

    def test_band_confinement(self):
        f = generate_schwartz(1, 2, (0.5, 8.0), SMALL)
        hat = forward_ft(f).values
        outside = (np.abs(SMALL.xi) < 0.5) | (np.abs(SMALL.xi) > 8.0)
        assert np.sum(np.abs(hat[outside])) < 1e-12 * np.sum(np.abs(hat))

    def test_suite_nonzero_finite(self):
        for i in range(20):
            f = generate_schwartz(0, i, (0.5, 8.0), SMALL)
            nb = norms(f)
            assert l2_norm_physical(f) > 0 and np.isfinite(nb.h1) and np.isfinite(nb.weighted)

    def test_invalid_band(self):
        with pytest.raises(ParameterError):
            generate_schwartz(0, 0, (8.0, 0.5), SMALL)


class TestRunDecay:
    def test_report_shape_and_determinism(self):
        reps = run_decay(FAST)
        assert len(reps) == 2
        for r in reps:
            assert len(r.times) == len(r.ratios) == len(r.sup_norms) == 3
            assert all(v > 0 for v in r.ratios)
            assert set(r.backends) == {"spectral"}
        reps2 = run_decay(FAST)
        assert reps[0].ratios == reps2[0].ratios

    def test_homogeneity(self):
        # R(t) is invariant under phi -> c phi: both sides scale linearly
        f = generate_schwartz(0, 0, (0.5, 8.0), SMALL)
        g = SampledFunction(f.grid, 10.0 * f.values)
        for phi_a, phi_b in ((f, g),):
            na, nb_ = norms(phi_a), norms(phi_b)
            ra = locate_sup(evolve_spectral(phi_a, 16.0, 0.5)).value / (na.h1 + na.weighted)
            rb = locate_sup(evolve_spectral(phi_b, 16.0, 0.5)).value / (nb_.h1 + nb_.weighted)
            assert abs(ra - rb) / ra < 1e-12

    def test_translation_covariance_of_sup(self):
        # sup norms are invariant under a grid-aligned shift of the datum
        f = generate_schwartz(0, 1, (0.5, 8.0), SMALL)
        shift = 64  # cells
        g = SampledFunction(SMALL, np.roll(f.values, shift))
        for t in (4.0, 16.0):
            sa = locate_sup(evolve_spectral(f, t, 0.5)).value
            sb = locate_sup(evolve_spectral(g, t, 0.5)).value
            assert abs(sa - sb) / sa < 1e-10

    def test_r0_below_embedding_constant(self):
        for i in range(5):
            f = generate_schwartz(0, i, (0.5, 8.0), SMALL)
            nb = norms(f)
            r0 = locate_sup(f).value / (nb.h1 + nb.weighted)
            assert r0 <= pins.PIN_HEADROOM * pins.EMBEDDING_CONSTANT

    def test_spectral_policy_records_guard_failure(self):
        cfg = SuiteConfig(seed=0, n_samples=1, times=(1024.0,),
                          half_width=256.0, grid_n=8192, band=(0.5, 8.0),
                          backend="spectral")
        r = run_decay(cfg)[0]
        assert r.backends == ("error:domain-too-small",)
        assert math.isnan(r.ratios[0])

    def test_transforms_per_sample(self, fft_calls):
        # the sample's two generating transforms, its spectrum and the weighted
        # norm's inverse, then one inverse transform per time
        cfg = SuiteConfig(seed=0, n_samples=1)
        run_decay(cfg)
        assert len(fft_calls) > 0
        assert len(fft_calls) <= 4 + len(cfg.times)

    def test_one_multiplier_per_time(self, width, monkeypatch):
        # the run forms the multiplier of each nonzero time once for all its
        # samples (n * T before), and no sample forms one of its own; under
        # forced quadrature the run forms none
        formed = {"run": [], "sample": []}
        real = propagator._multipliers

        def spy(who):
            def multipliers(grid, alpha, times):
                halves = real(grid, alpha, times)
                formed[who].extend(halves)
                return halves
            return multipliers

        monkeypatch.setattr(harness, "_multipliers", spy("run"))
        monkeypatch.setattr(propagator, "_multipliers", spy("sample"))
        cfg = SuiteConfig(seed=0, n_samples=3, times=(0.0, 1.0, 8.0, 64.0), half_width=256.0,
                          grid_n=4096, band=(0.5, 8.0))
        for n in (1, 2):
            width(n)
            formed["run"].clear()
            assert {r.backends for r in run_decay(cfg)} == {("spectral",) * 4}
            assert formed == {"run": [1.0, 8.0, 64.0], "sample": []}
        formed["run"].clear()
        quad = dataclasses.replace(cfg, n_samples=1, times=(0.0, 1.0), backend="quadrature")
        assert run_decay(quad)[0].backends == ("quadrature", "quadrature")
        assert formed["run"] == []

    @pytest.mark.parametrize("seed, t, shift, spectral_rtol", [
        # centred near x = 40, outside the fixed +-15 around the causal cone
        # that the quadrature scan once assumed
        (0, 4.0, 40.0, 1e-4),
        # the two lobes a 192-point scan of the causal interval missed, by
        # 3.1e-2 and 1.7e-1; the spectral sup is itself 1.9e-4 off at seed 2
        (2, 16.0, 0.0, None),
        (3, 4.0, 40.0, None),
    ], ids=["seed0-rolled40-t4", "seed2-t16", "seed3-rolled40-t4"])
    def test_quadrature_sup_finds_off_centre_sample(self, monkeypatch, seed, t, shift,
                                                     spectral_rtol):
        def shifted(seed, index, band, grid):
            phi = generate_schwartz(seed, index, band, grid)
            return SampledFunction(grid, np.roll(phi.values, int(shift / grid.spacing)))

        monkeypatch.setattr(harness, "generate_schwartz", shifted)
        kwargs = dict(seed=seed, n_samples=1, times=(t,), half_width=256.0,
                      grid_n=8192, band=(0.5, 8.0))
        quad = run_decay(SuiteConfig(backend="quadrature", **kwargs))[0]
        spec = run_decay(SuiteConfig(backend="spectral", **kwargs))[0]
        assert (quad.backends, spec.backends) == (("quadrature",), ("spectral",))
        if spectral_rtol is not None:
            assert 30.0 < spec.argmax_x[0] < 50.0
            assert abs(quad.sup_norms[0] - spec.sup_norms[0]) <= spectral_rtol * spec.sup_norms[0]
        # a dense quadrature oracle within +-0.1 of the sample-grid spectral argmax
        phi = shifted(seed, 0, kwargs["band"], SuiteConfig(**kwargs).grid())
        xs = np.linspace(spec.argmax_x[0] - 0.1, spec.argmax_x[0] + 0.1, 401)
        oracle = np.max(np.abs(propagator.evolve_quadrature(phi.spectrum, t, xs, 0.5)))
        assert abs(quad.sup_norms[0] - oracle) <= 1e-6 * oracle

    def test_quadrature_sup_evaluates_u_at_7_points(self, monkeypatch):
        # one windowed pass per point of u, counted per (sample's spline, t); the
        # dict holds each spline, so no two samples share a key
        points = {}
        windowed = propagator._windowed_integrals

        def spy(amp, intervals, windows, t, x, alpha, **kwargs):
            points[amp, t] = points.get((amp, t), 0) + 1
            return windowed(amp, intervals, windows, t, x, alpha, **kwargs)

        monkeypatch.setattr(propagator, "_windowed_integrals", spy)
        cfg = SuiteConfig(seed=0, n_samples=2, times=(4.0, 64.0), half_width=256.0,
                          grid_n=8192, band=(0.5, 8.0), backend="quadrature")
        assert {r.backends for r in run_decay(cfg)} == {("quadrature", "quadrature")}
        assert len(points) == 4
        assert max(points.values()) <= 7

    def test_auto_policy_switches_to_quadrature(self):
        cfg = SuiteConfig(seed=0, n_samples=1, times=(1024.0,),
                          half_width=256.0, grid_n=8192, band=(0.5, 8.0),
                          backend="auto")
        r = run_decay(cfg)[0]
        assert r.backends == ("quadrature",)
        assert np.isfinite(r.ratios[0])
        # the sup the 192-point scan reported here
        assert abs(r.sup_norms[0] - 0.0013645276213965075) <= 1e-7 * 0.0013645276213965075

    def test_ring_no_late_growth(self):
        # single Gaussian ring datum: R(1024) <= 1.1 * max_{t<=64} R(t)
        from dispersive_decay.grid import SpectralFunction, inverse_ft
        from dispersive_decay.schwartz import band_window
        grid = GridSpec(half_width=4096.0, size=65536)
        hat = (np.exp(-(np.abs(grid.xi) - 2.0) ** 2)
               * band_window(grid.xi, 0.25, 8.0)).astype(complex)
        phi = inverse_ft(SpectralFunction(grid, hat))
        nb = norms(phi)
        denom = nb.h1 + nb.weighted
        ratios = {}
        for t in DYADIC_TIMES:
            u = evolve_spectral(phi, t, 0.5)
            ratios[t] = (1 + t) ** 0.5 * locate_sup(u).value / denom
        assert all(np.isfinite(v) for v in ratios.values())
        early = max(v for t, v in ratios.items() if t <= 64)
        assert ratios[1024.0] <= 1.1 * early


@pytest.fixture
def width(monkeypatch):
    """Sets the fan-out's CPU count, and so its width, for the rest of the test."""
    def force(n: int):
        monkeypatch.setattr(harness, "_cpus", lambda: n)
    return force


@pytest.fixture
def thread_starts(monkeypatch):
    """The list that grows by one on every thread started."""
    starts = []
    start = threading.Thread.start

    def counted(self):
        starts.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


class TestFanOut:
    """run_decay runs its samples on one thread per CPU, with the serial loop's results."""

    def test_reports_equal_at_widths_1_and_2(self, width):
        # a 2^15 grid, so that the two threads' evolutions overlap in time
        cfg = SuiteConfig(seed=0, n_samples=4, alpha=0.45, times=(1.0, 4.0, 16.0, 64.0, 256.0),
                          half_width=2048.0, grid_n=32768, band=(0.5, 8.0))
        width(1)
        serial = run_decay(cfg)
        width(2)
        fanned = run_decay(cfg)
        assert [r.sample for r in fanned] == [0, 1, 2, 3]
        # every field, argmax_x and backends included, floats with ==
        assert fanned == serial

    def test_results_in_input_order(self, width):
        # the earlier an item, the later it finishes
        def late_for_early(i):
            time.sleep(0.05 * (4 - i))
            return i

        width(2)
        assert harness._fan_out(late_for_early, range(4)) == [0, 1, 2, 3]

    def test_forced_quadrature_equal_at_widths_1_and_2(self, width):
        cfg = SuiteConfig(seed=0, n_samples=2, times=(1.0,), half_width=64.0, grid_n=2048,
                          band=(0.5, 4.0), backend="quadrature")
        width(1)
        serial = run_decay(cfg)
        width(2)
        fanned = run_decay(cfg)
        assert [r.backends for r in fanned] == [("quadrature",)] * 2
        assert fanned == serial

    def test_first_degenerate_sample_in_index_order_is_raised(self, width, monkeypatch):
        # samples 2 and 3 have an empty band; at width 2, sample 3 fails first in time
        def generate(seed, index, band, grid):
            if index == 2:
                time.sleep(0.3)
            if index in (2, 3):
                return SampledFunction(grid, np.zeros(grid.size))
            return generate_schwartz(seed, index, band, grid)

        monkeypatch.setattr(harness, "generate_schwartz", generate)
        messages = []
        for n in (1, 2):
            width(n)
            with pytest.raises(harness.SuiteDegenerateError) as exc:
                run_decay(dataclasses.replace(FAST, n_samples=4))
            messages.append(str(exc.value))
        assert messages[0].startswith("sample 2: band (0.5, 8.0) holds no occupied frequency")
        assert messages[1] == messages[0]

    def test_width_1_starts_no_thread(self, width, thread_starts):
        width(1)
        run_decay(FAST)
        assert thread_starts == []
        width(2)
        assert harness._fan_out(lambda i: i * i, [3]) == [9]  # one item: no thread either
        assert thread_starts == []
        run_decay(FAST)
        assert len(thread_starts) >= 1

    def test_stress_more_threads_than_cores_with_cold_caches(self, width):
        # six threads switching every microsecond all miss the window cache at
        # once, after the run's multipliers are formed on cold axes; each sample
        # must still see exactly the serial numbers
        cfg = SuiteConfig(seed=5, n_samples=6, alpha=0.4, times=(1.0, 8.0),
                          half_width=256.0, grid_n=4096, band=(0.5, 8.0))
        width(1)
        serial = run_decay(cfg)
        width(6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                schwartz._grid_band_window.cache_clear()
                grid_module._axes.cache_clear()
                fanned = run_decay(cfg)
                assert fanned == serial
        finally:
            sys.setswitchinterval(interval)

    def test_width_is_the_smaller_of_items_and_cpus(self, width, monkeypatch):
        seen = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", Pool)
        for cpus, items in ((2, range(5)), (8, range(3)), (3, range(3))):
            width(cpus)
            assert harness._fan_out(lambda i: -i, items) == [-i for i in items]
        assert seen == [2, 3, 3]

    def test_cpus_read_from_the_affinity_mask(self):
        assert harness._cpus() == len(os.sched_getaffinity(0))

    def test_one_sample_holds_under_four_n_arrays(self):
        # the mixture is band-passed in its own buffer, each evolution is inverse
        # transformed in the buffer of its product with the run's multiplier and
        # dropped before the next one, and x f' is formed in the buffer of f': the
        # traced peak of one sample stays below four complex N-arrays (pocketfft's
        # own scratch and the run's multipliers, formed beforehand, are not counted)
        cfg = SuiteConfig(seed=0, n_samples=1, times=(1.0, 4.0, 16.0))
        grid = cfg.grid()
        halves = propagator._multipliers(grid, cfg.alpha, cfg.times)
        harness._decay_report(cfg, grid, halves, 0)  # the window and axes are built
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            harness._decay_report(cfg, grid, halves, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            phi = generate_schwartz(0, 2, cfg.band, grid)
            generator_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        n_array = 16 * grid.size
        assert peak < 3.75 * n_array
        assert generator_peak < 2.25 * n_array  # the sample and one spectrum
        assert phi.values.nbytes == n_array

    def test_multiplier_table_capped_for_long_runs(self):
        # the run holds the multipliers of at most 16 times, so 64 times peak
        # within 16 table entries of 11 (53 entries without the cap)
        def peak(n_times):
            cfg = SuiteConfig(seed=0, n_samples=2, times=tuple(map(float, range(1, n_times + 1))),
                              half_width=2048.0, grid_n=2**15)
            tracemalloc.start()
            try:
                reports = run_decay(cfg)
                traced = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert {b for r in reports for b in r.backends} == {"spectral"}
            return traced

        peak(1)  # the window, axes and FFT plan are built
        entry = 16 * (2**14 + 1)
        assert peak(64) - peak(11) < 16 * entry


class TestSuiteConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SuiteConfig(n_samples=0)
        with pytest.raises(ParameterError):
            SuiteConfig(band=(2.0, 1.0))
        with pytest.raises(ParameterError):
            SuiteConfig(times=(4.0, 2.0))
        with pytest.raises(ParameterError):
            SuiteConfig(backend="magic")

    @pytest.mark.parametrize("times", [(math.nan,), (1.0, math.inf), (-math.inf, 1.0),
                                       (1.0, math.nan, 4.0)])
    def test_non_finite_times_rejected(self, times):
        bad = next(t for t in times if not math.isfinite(t))
        with pytest.raises(ParameterError, match=f"^times must be finite, got {bad}$"):
            SuiteConfig(times=times)


class TestLemmaSuites:
    GRID = GridSpec(half_width=200.0, size=32768)

    def test_rows_populated(self):
        cfg = SuiteConfig(seed=0, n_samples=2)
        table = run_lemma_suites(cfg, self.GRID)
        assert [r["check"] for r in table] == [
            "bern_1_2", "bern_2_4", "bern_2_inf", "bern2_s1_p2",
            "lemma1", "lemma2_s0.75",
        ]
        for row in table:
            assert row["n"] > 0
            assert np.isfinite(row["max"]) and np.isfinite(row["median"])

    def test_single_gaussian_smoke(self):
        cfg = SuiteConfig(seed=0, n_samples=1)
        table = run_lemma_suites(cfg, self.GRID)
        assert all(row["n"] > 0 for row in table)

    def test_deterministic(self):
        cfg = SuiteConfig(seed=0, n_samples=2)
        t1 = run_lemma_suites(cfg, self.GRID)
        t2 = run_lemma_suites(cfg, self.GRID)
        assert t1 == t2

    def test_unresolvable_k_skipped(self):
        cfg = SuiteConfig(seed=0, n_samples=1)
        table = run_lemma_suites(cfg, self.GRID)
        # the lowest annuli contain no grid node at this resolution, and no row counts them
        k_range = range(LEMMA_K_RANGE[0], LEMMA_K_RANGE[1] + 1)
        usable = [k for k in k_range if _usable_bands(self.GRID, (k,), np.abs(self.GRID.xi))]
        assert -8 not in usable
        for row in table:
            assert row["n"] + row["n_undefined"] == cfg.n_samples * len(usable)

    @staticmethod
    def _reference_table(config, grid):
        """The suite's rows one ratio at a time, from P_k f = project(f, k)."""
        w_xi = np.full(grid.size, grid.xi_spacing)
        w_xi[[0, -1]] *= 0.5

        def l2_xi(values):
            return np.sqrt(np.sum(w_xi * np.abs(values) ** 2))

        def bern(piece, k, p, q):
            return lp_norm(piece, q) / (2.0 ** (k * (1.0 / p - 1.0 / q)) * lp_norm(piece, p))

        rows = {"bern_1_2": [], "bern_2_4": [], "bern_2_inf": [], "bern2_s1_p2": [],
                "lemma1": [], "lemma2_s0.75": []}
        for i in range(config.n_samples):
            f = schwartz_sample(grid, config.seed, i)
            denom = lp_norm(f, 2) + weighted_norm(f)
            for k in range(LEMMA_K_RANGE[0], LEMMA_K_RANGE[1] + 1):
                if not _usable_bands(grid, (k,), np.abs(grid.xi)):
                    continue
                piece = project(f, k)
                piece_hat = forward_ft(piece).values
                rows["bern_1_2"].append(bern(piece, k, 1, 2))
                rows["bern_2_4"].append(bern(piece, k, 2, 4))
                rows["bern_2_inf"].append(bern(piece, k, 2, np.inf))
                lhs = lp_norm(piece, 2)
                rhs = 2.0 ** -k * lp_norm(fractional_derivative(piece, 1.0), 2)
                rows["bern2_s1_p2"].append(max(lhs / rhs, rhs / lhs))
                # d/dxi (psi_k fhat) is the transform of -i x P_k f
                dxi = forward_ft(SampledFunction(grid, -1j * grid.x * piece.values)).values
                rows["lemma1"].append(2.0 ** k * l2_xi(dxi) / denom)
                rows["lemma2_s0.75"].append(np.max(np.abs(piece_hat)) / (
                    l2_xi(piece_hat) / np.sqrt(2.0 * np.pi) + 2.0 ** (-0.75 * k) * denom))
        return rows

    def test_matches_reference_from_public_primitives(self):
        cfg = SuiteConfig(seed=0, n_samples=2)
        reference = self._reference_table(cfg, self.GRID)
        for row in run_lemma_suites(cfg, self.GRID):
            ref = np.asarray(reference[row["check"]])
            assert (row["n"], row["n_undefined"]) == (len(ref), 0), row["check"]
            np.testing.assert_allclose([row["max"], row["median"]],
                                       [np.max(ref), np.median(ref)], rtol=1e-12,
                                       err_msg=row["check"])

    def test_bernstein_rows_bit_equal_to_lp_norm_of_project(self):
        # the engine's norms are lp_norm's operations on the same P_k f
        cfg = SuiteConfig(seed=0, n_samples=2)
        exponents = {"bern_1_2": (1, 2), "bern_2_4": (2, 4), "bern_2_inf": (2, np.inf)}
        rows = {name: [] for name in exponents}
        for i in range(cfg.n_samples):
            f = schwartz_sample(self.GRID, cfg.seed, i)
            for k in range(LEMMA_K_RANGE[0], LEMMA_K_RANGE[1] + 1):
                if _usable_bands(self.GRID, (k,), np.abs(self.GRID.xi)):
                    piece = project(f, k)
                    for name, (p, q) in exponents.items():
                        rows[name].append(lp_norm(piece, q) / (
                            2.0 ** (k * (1.0 / p - 1.0 / q)) * lp_norm(piece, p)))
        table = {row["check"]: row for row in run_lemma_suites(cfg, self.GRID)}
        for name, ratios in rows.items():
            assert (table[name]["max"], table[name]["median"]) == (np.max(ratios),
                                                                   np.median(ratios)), name

    def test_table_equal_at_widths_1_and_2(self, width, monkeypatch):
        # sample 10 of 21 is zero, so every row has 12 undefined cases of 252
        # (under 5%); the 12 usable k of the grid run on two threads
        def sample(grid, seed, i):
            return SampledFunction(grid, np.zeros(grid.size)) if i == 10 else \
                schwartz_sample(grid, seed, i)

        monkeypatch.setattr(harness, "schwartz_sample", sample)
        grid = GridSpec(half_width=200.0, size=8192)
        cfg = SuiteConfig(seed=0, n_samples=21)
        tables = []
        for n in (1, 2):
            width(n)
            tables.append(run_lemma_suites(cfg, grid))
        assert [(row["n"], row["n_undefined"]) for row in tables[0]] == [(240, 12)] * 6
        as_bits = [[{key: np.float64(v).view(np.uint64) if isinstance(v, float) else v
                     for key, v in row.items()} for row in table] for table in tables]
        assert as_bits[1] == as_bits[0]

    def test_stress_more_threads_than_cores_with_a_cold_pool(self, width, monkeypatch):
        # six threads switching every microsecond all find the pool empty at
        # once; each run must still give the serial table, and leave at most
        # one workspace per thread in the pool
        grid = GridSpec(half_width=200.0, size=8192)
        cfg = SuiteConfig(seed=3, n_samples=2)
        width(1)
        serial = run_lemma_suites(cfg, grid)
        width(6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                monkeypatch.setattr(littlewood_paley, "_FREE", [])
                assert run_lemma_suites(cfg, grid) == serial
                assert 1 <= len(littlewood_paley._FREE) <= 6
        finally:
            sys.setswitchinterval(interval)

    def test_first_failing_k_in_k_order_is_raised(self, width, monkeypatch):
        # pieces 0 and 1 fail; at width 2, piece 1 fails first in time
        real = harness._Piece

        def piece(f, k):
            if k == 0:
                time.sleep(0.3)
            if k in (0, 1):
                raise OutOfBandError(f"piece {k} failed")
            return real(f, k)

        monkeypatch.setattr(harness, "_Piece", piece)
        messages = []
        for n in (1, 2):
            width(n)
            with pytest.raises(OutOfBandError) as exc:
                run_lemma_suites(SuiteConfig(seed=0, n_samples=1), self.GRID)
            messages.append(str(exc.value))
        assert messages == ["piece 0 failed"] * 2

    def test_transforms_per_sample(self, fft_calls):
        # one spectrum and the weighted norm's inverse transform per sample,
        # then P_k f, |D| P_k f and the transform of -i x P_k f per usable k
        cfg = SuiteConfig(seed=0, n_samples=2)
        run_lemma_suites(cfg, self.GRID)
        usable = sum(bool(_usable_bands(self.GRID, (k,), np.abs(self.GRID.xi)))
                     for k in range(-8, 9))
        assert len(fft_calls) > 0
        assert len(fft_calls) <= cfg.n_samples * (2 + 3 * usable)


class TestRunTrace:
    def test_trace_rows(self):
        cfg = SuiteConfig(seed=0, n_samples=1, band=(0.5, 16.0))
        result = run_trace(cfg, float(2 ** 12))
        sections = [r["section"] for r in result["rows"]]
        assert sections.count("piece") >= 1
        for name in ("A", "B1", "B2", "B3", "C"):
            assert name in sections
        trace = result["trace"]
        total = trace.low_mag + sum(trace.piece_mags.values())
        assert total >= abs(trace.u_value) - 1e-6

    def test_small_t_requires_flag(self):
        cfg = SuiteConfig(seed=0, n_samples=1)
        with pytest.raises(ParameterError):
            run_trace(cfg, 1.0)

    def test_empty_band_is_degenerate(self):
        # the guard of the decay suite: a band with no grid node has nothing to trace
        cfg = SuiteConfig(seed=0, n_samples=2, band=(0.25, 0.2501))
        for trace in (lambda: run_trace(cfg, 2048.0),
                      lambda: harness.run_trace_ratio_suite(cfg, times=(2048.0,))):
            with pytest.raises(harness.SuiteDegenerateError, match="^sample 0: band"):
                trace()

    def test_small_t_with_flag_empty_middle(self):
        cfg = SuiteConfig(seed=0, n_samples=1, band=(0.5, 16.0),
                          allow_empty_band=True)
        result = run_trace(cfg, 1.0)
        trace = result["trace"]
        assert trace.partition.middle == ()
        terms = {name: term.value for name, term in trace.terms.items()}
        assert terms["B1"] == terms["B2"] == terms["B3"] == 0.0
        assert terms["A"] > 0 or terms["C"] > 0


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = decay_rows(run_decay(FAST))
        path = tmp_path / "decay.csv"
        write_csv(rows, path)
        back = read_csv_rows(path)
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            for key in a:
                if isinstance(a[key], float):
                    assert b[key] == a[key]  # 17 significant digits round-trip
                else:
                    assert str(b[key]) == str(a[key])

    def test_empty_refused(self, tmp_path):
        with pytest.raises(ParameterError):
            write_csv([], tmp_path / "empty.csv")


# each command's option strings, beside -h/--help: the flags it reads
COMMAND_OPTIONS = {
    "verify-decay": {"--alpha", "--seed", "--samples", "--grid-n", "--half-width", "--band",
                     "--t-grid", "--backend", "--out"},
    "lemma-suite": {"--seed", "--samples", "--grid-n", "--half-width", "--out"},
    "trace-proof": {"--alpha", "--seed", "--grid-n", "--half-width", "--band", "--out",
                    "--allow-empty-band", "--time"},
    "stationary-point": {"--time", "--x", "--alpha"},
    "factorization-check": {"--alpha", "--seed", "--grid-n", "--half-width", "--band", "--time",
                            "--dt"},
}


class TestCli:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_commands_register_only_the_flags_they_read(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {command: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                   for command, p in sub.choices.items()}
        assert options == COMMAND_OPTIONS

    @pytest.mark.parametrize("argv", [["lemma-suite", "--alpha", "0.4"],
                                      ["factorization-check", "--out", "x.csv"],
                                      ["trace-proof", "--samples", "1"],
                                      ["verify-decay", "--allow-empty-band"],
                                      ["bernstein-suite"]])
    def test_unread_flag_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err or argv == ["bernstein-suite"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, pin_table, key", [
        # DECAY_MAX_RATIO holds the maxima of the default suite per (seed, alpha): its grid,
        # band and time grid, 20 samples
        pytest.param(["verify-decay", "--samples", "1"], "DECAY_MAX_RATIO", (0, 0.5),
                     id="decay-1-sample"),
        pytest.param(["verify-decay"], "DECAY_MAX_RATIO", (0, 0.5), id="decay-default"),
        pytest.param(["verify-decay", "--seed", "1", "--alpha", "0.4"], "DECAY_MAX_RATIO",
                     (1, 0.4), id="decay-seed-1-alpha-0.4"),
        pytest.param(["verify-decay", "--backend", "spectral"], "DECAY_MAX_RATIO", (0, 0.5),
                     id="decay-backend-not-a-suite-field"),
        pytest.param(["verify-decay", "--samples", "21"], None, None, id="decay-21-samples"),
        pytest.param(["verify-decay", "--band", "0.5:8"], None, None, id="decay-band"),
        pytest.param(["verify-decay", "--t-grid", "1,4"], None, None, id="decay-times"),
        pytest.param(["verify-decay", "--half-width", "1024"], None, None,
                     id="decay-half-width"),
        pytest.param(["verify-decay", "--grid-n", "16384"], None, None, id="decay-grid-n"),
        pytest.param(["verify-decay", "--samples", "1", "--grid-n", "16384", "--half-width",
                      "1024", "--t-grid", "1,4"], None, None, id="decay-small-grid"),
        pytest.param(["verify-decay", "--seed", "2"], None, None, id="decay-seed-2"),
        pytest.param(["verify-decay", "--alpha", "0.3"], None, None, id="decay-alpha-0.3"),
        # LEMMA_SUITE_MAXIMA: 100 seed-0 samples on LEMMA_GRID
        pytest.param(["lemma-suite", "--samples", "1"], "LEMMA_SUITE_MAXIMA", None,
                     id="lemma-1-sample"),
        pytest.param(["lemma-suite", "--samples", "100"], "LEMMA_SUITE_MAXIMA", None,
                     id="lemma-100-samples"),
        pytest.param(["lemma-suite", "--samples", "101"], None, None, id="lemma-101-samples"),
        pytest.param(["lemma-suite", "--seed", "611889900", "--samples", "1"], None, None,
                     id="lemma-seed-611889900"),
        pytest.param(["lemma-suite", "--grid-n", "32768"], None, None, id="lemma-grid-n"),
        pytest.param(["lemma-suite", "--half-width", "100"], None, None,
                     id="lemma-half-width"),
        # TRACE_RATIO_MAXIMA: the first sample of seed 0 at alpha 1/2, the default band and
        # TRACE_GRID, at a time of TRACE_SUITE_TIMES
        pytest.param(["trace-proof"], "TRACE_RATIO_MAXIMA", None, id="trace-default"),
        pytest.param(["trace-proof", "--time", "2048"], "TRACE_RATIO_MAXIMA", None,
                     id="trace-time-2048"),
        pytest.param(["trace-proof", "--time", "8192"], "TRACE_RATIO_MAXIMA", None,
                     id="trace-time-8192"),
        pytest.param(["trace-proof", "--time", "16384"], None, None, id="trace-time-16384"),
        pytest.param(["trace-proof", "--seed", "1"], None, None, id="trace-seed-1"),
        pytest.param(["trace-proof", "--alpha", "0.4"], None, None, id="trace-alpha-0.4"),
        pytest.param(["trace-proof", "--band", "0.5:8"], None, None, id="trace-band"),
        pytest.param(["trace-proof", "--grid-n", "65536"], None, None, id="trace-grid-n"),
        pytest.param(["trace-proof", "--half-width", "100"], None, None,
                     id="trace-half-width"),
        # no pin table holds the other commands
        pytest.param(["factorization-check"], None, None, id="factorization-check"),
    ])
    def test_pinned_only_inside_the_pinned_suite(self, argv, pin_table, key):
        table = getattr(pins, pin_table) if pin_table else None
        expected = table[key] if key is not None else table
        assert run_pins(build_parser().parse_args(argv)) is expected

    def test_verify_decay_prints_its_pin(self, capsys):
        assert main(["verify-decay", "--samples", "1", "--grid-n", "16384",
                     "--half-width", "1024", "--t-grid", "1,4"]) == 0
        assert "(pinned: None)" in capsys.readouterr().out
        assert main(["verify-decay", "--samples", "1"]) == 0
        assert f"(pinned: {pins.DECAY_MAX_RATIO[(0, 0.5)]})" in capsys.readouterr().out

    def test_lemma_suite_outside_its_suite_unpinned(self, tmp_path, capsys):
        # this seed's bern2_s1_p2 reads 1.8258, above PIN_HEADROOM times the seed-0 pin
        out = tmp_path / "lemma.csv"
        assert main(["lemma-suite", "--seed", "611889900", "--samples", "1",
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6 and all(line.endswith(" UNPINNED") for line in lines)
        assert "bern2_s1_p2: n=   15 undefined=0 max=1.8258 " in lines[3]
        rows = read_csv_rows(out)
        assert list(rows[0]) == ["check", "n", "n_undefined", "max", "median", "pinned"]
        assert {row["pinned"] for row in rows} == {"None"}

    def test_lemma_suite_gated_on_pins(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "lemma.csv"
        assert main(["lemma-suite", "--samples", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.count(" PASS\n") == 6
        assert {row["check"]: row["pinned"] for row in read_csv_rows(out)} == \
            pins.LEMMA_SUITE_MAXIMA
        monkeypatch.setitem(pins.LEMMA_SUITE_MAXIMA, "bern_2_4", 0.5)
        assert main(["lemma-suite", "--samples", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith(" FAIL (pinned 0.5)")
        assert sum(line.endswith(" PASS") for line in lines) == 5

    def test_cached_parser_gives_fresh_parser_outputs(self, tmp_path, capsys):
        argvs = (["trace-proof", "--band", "0.5:8", "--out"],
                 ["trace-proof", "--alpha", "half"],
                 ["verify-decay", "--samples", "1", "--out"])

        def run_all(fresh: bool) -> list:
            outputs = []
            for i, argv in enumerate(argvs):
                if fresh:
                    build_parser.cache_clear()
                out = tmp_path / f"{fresh}-{i}.csv"
                if argv[-1] == "--out":
                    argv = argv + [str(out)]
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                csv = out.read_bytes() if out.exists() else None
                outputs.append((code, captured.out, captured.err, csv))
            return outputs

        build_parser.cache_clear()
        cached = run_all(fresh=False)
        assert [o[0] for o in cached] == [0, 2, 0]
        assert cached == run_all(fresh=True)

    def test_invalid_band_exit_2(self):
        assert main(["verify-decay", "--band", "5:1", "--samples", "1"]) == 2

    @pytest.mark.parametrize("flags", [["--band", "8"], ["--band", "1:2:3"],
                                       ["--t-grid", "1,x"]])
    def test_malformed_band_or_times_exit_2(self, flags, capsys):
        assert main(["verify-decay", "--samples", "1", *flags]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_invalid_alpha_exit_2(self):
        assert main(["stationary-point", "--time", "8", "--x", "-1",
                     "--alpha", "1.5"]) == 2

    def test_stationary_point(self, capsys):
        assert main(["stationary-point", "--time", "8", "--x", "-1"]) == 0
        out = capsys.readouterr().out
        assert "xi0 = 16" in out

    def test_verify_decay_smoke(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main([
            "verify-decay", "--seed", "7", "--samples", "1",
            "--t-grid", "1,4", "--half-width", "512", "--grid-n", "16384",
            "--band", "0.5:8", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 2
        assert rows[0]["backend"] == "spectral"

    def test_lemma_suite_without_usable_k_exit_3(self, capsys):
        # Nyquist 2.5e-5 lies below every annulus of k in [-8, 8]
        code = main(["lemma-suite", "--grid-n", "16", "--half-width", "1000000",
                     "--samples", "1"])
        assert code == 3
        assert "PASS" not in capsys.readouterr().out

    def test_verify_decay_guard_exit_3(self):
        code = main([
            "verify-decay", "--samples", "1", "--t-grid", "1024",
            "--half-width", "256", "--grid-n", "8192", "--band", "0.5:8",
            "--backend", "spectral",
        ])
        assert code == 3

    @pytest.mark.parametrize("backend", ["auto", "spectral", "quadrature"])
    def test_verify_decay_empty_band_exit_3(self, backend, capsys):
        # the band 0.25:0.3 holds no node of the xi grid (spacing pi)
        code = main(["verify-decay", "--grid-n", "16", "--half-width", "1",
                     "--band", "0.25:0.3", "--samples", "1", "--t-grid", "1",
                     "--backend", backend])
        assert code == 3
        assert "no occupied frequency" in capsys.readouterr().err

    def test_factorization_check(self, capsys):
        code = main(["factorization-check", "--grid-n", "16384",
                     "--band", "0.5:8"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_factorization_check_zero_sample_exit_3(self, capsys):
        # at L = 512 (xi spacing pi/512) the band 0.25:0.2501 holds no grid node,
        # so the sample is identically zero and the residual is undefined
        code = main(["factorization-check", "--band", "0.25:0.2501"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical guard failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize("t_grid", ["nan", "1,inf"])
    def test_verify_decay_non_finite_time_exit_2(self, t_grid, monkeypatch, capsys):
        # rejected by SuiteConfig, naming the value, before any sample is evolved
        def no_evolution(*args, **kwargs):
            raise AssertionError("evolved a sample")

        monkeypatch.setattr(harness, "evolve_spectral", no_evolution)
        monkeypatch.setattr(harness, "_quadrature_sup", no_evolution)
        assert main(["verify-decay", "--samples", "1", "--t-grid", t_grid]) == 2
        bad = t_grid.split(",")[-1]
        err = capsys.readouterr().err
        assert err == f"invalid configuration: times must be finite, got {bad}\n"

    @pytest.mark.parametrize("argv, flag, value", [
        pytest.param(["trace-proof", "--time", "nan"], "--time", "nan", id="trace-proof-time"),
        pytest.param(["stationary-point", "--time", "nan", "--x", "1"], "--time", "nan",
                     id="stationary-point-time"),
        pytest.param(["stationary-point", "--time", "8", "--x", "inf"], "--x", "inf",
                     id="stationary-point-x"),
        pytest.param(["factorization-check", "--dt", "nan"], "--dt", "nan",
                     id="factorization-check-dt"),
        pytest.param(["factorization-check", "--time=-inf"], "--time", "-inf",
                     id="factorization-check-time"),
        pytest.param(["verify-decay", "--alpha", "nan"], "--alpha", "nan",
                     id="verify-decay-alpha"),
        pytest.param(["lemma-suite", "--half-width", "inf"], "--half-width", "inf",
                     id="lemma-suite-half-width"),
    ])
    def test_non_finite_float_flag_exit_2(self, argv, flag, value, monkeypatch, capsys):
        # refused while parsing, naming the flag, before the command runs
        def no_run(args):
            raise AssertionError("the command ran")

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        monkeypatch.setitem(sub.choices[argv[0]]._defaults, "func", no_run)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be finite, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["trace-proof", "--band", "0.25:0.2501"],
        ["trace-proof", "--band", "0.25:0.2501", "--time", "1", "--allow-empty-band"],
    ])
    def test_trace_proof_zero_sample_exit_3(self, argv, capsys):
        # on TRACE_GRID (xi spacing pi/200) the band holds no grid node: the sample
        # is identically zero, and there is no ray to trace
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical guard failure: sample 0: band (0.25, 0.2501) "
                                       "holds no occupied frequency")

    def test_trace_proof_uses_grid_flags(self):
        # 1000 is not a power of two, so the grid itself is invalid
        assert main(["trace-proof", "--band", "0.5:8", "--grid-n", "1000",
                     "--half-width", "7"]) == 2

    def test_trace_proof_smoke(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["trace-proof", "--time", "4096", "--band", "0.5:16",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv_rows(out)
        assert any(r["section"] == "piece" for r in rows)
        assert "\npinned: none\n" in capsys.readouterr().out

    def test_trace_proof_gated_on_pins(self, monkeypatch, capsys):
        # seed 0 at the default band, grid and t = 2^12 is a ray of the suite
        # the trace pins were measured on
        assert main(["trace-proof"]) == 0
        assert "\npinned: A <= " in capsys.readouterr().out
        monkeypatch.setitem(pins.TRACE_RATIO_MAXIMA, "C", 0.1)
        assert main(["trace-proof"]) == 1
        assert "bound ratio C" in capsys.readouterr().err

    def test_trace_proof_nan_ratio_fails_at_a_pinned_ray(self, monkeypatch, capsys):
        def with_nan(*args, **kwargs):
            result = run_trace(*args, **kwargs)
            next(r for r in result["rows"] if r["section"] == "B2")["bound_ratio"] = math.nan
            return result

        monkeypatch.setattr(cli, "run_trace", with_nan)
        assert main(["trace-proof"]) == 1
        assert "regression: bound ratio B2 = nan exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], ["--time", "2048"], ["--time", "8192"]],
                             ids=["defaults", "time-2048", "time-8192"])
    def test_trace_proof_rows_are_the_criterion9_trace(self, argv, tmp_path, monkeypatch):
        # at seed 0, the default band and grid and a time of the suite, trace-proof traces
        # sample 0 of the criterion-9 suite on its dominant ray: its rows are that trace's
        # magnitudes, ratios and memberships, bit for bit
        out = tmp_path / "trace.csv"
        assert main(["trace-proof", "--out", str(out)] + argv) == 0
        rows = read_csv_rows(out)
        t = float(argv[1]) if argv else 4096.0
        assert t in harness.TRACE_SUITE_TIMES
        suite = []
        traced = harness.trace_terms
        monkeypatch.setattr(harness, "trace_terms",
                            lambda *args, **kw: suite.append(traced(*args, **kw)) or suite[-1])
        harness.run_trace_ratio_suite(SuiteConfig(n_samples=1), times=(t,))
        trace = suite[1]  # the rays 1/8, 1 and 8 times the dominant speed, in order
        pieces = [r for r in rows if r["section"] == "piece"]
        assert {r["k"]: r["magnitude"] for r in pieces} == trace.piece_mags
        assert {r["k"]: r["membership"] for r in pieces} == \
            {k: "+".join(m) for k, m in trace.memberships.items()}
        assert {r["section"]: (r["magnitude"], r["bound_ratio"])
                for r in rows if r["section"] != "piece"} == \
            {name: tuple(term) for name, term in trace.terms.items()}

    def test_trace_proof_builds_no_annulus_window(self, monkeypatch):
        calls = []
        windows = proof_tracer._annulus_windows
        monkeypatch.setattr(proof_tracer, "_annulus_windows",
                            lambda *args: calls.append(args[1]) or windows(*args))
        assert main(["trace-proof"]) == 0
        assert calls == []
        # the spy is live: the opt-in decomposition of the same point goes through it
        phi = harness._trace_sample(SuiteConfig(), 0, None)
        t = 4096.0
        proof_tracer.trace_terms(phi, t, -t * harness._dominant_speed(phi, 0.5), 0.5,
                                 with_annuli=True)
        assert calls
