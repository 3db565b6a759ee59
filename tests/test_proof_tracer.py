"""Band partition, kernel lower bounds, q0 infima, and the traced proof terms."""

import numpy as np
import pytest

from dispersive_decay import propagator, proof_tracer
from dispersive_decay.errors import (AccuracyNotMetError, DomainTooSmallError, ParameterError,
                                     UndefinedRatioError)
from dispersive_decay.grid import GridSpec, SampledFunction, SpectralFunction, forward_ft, inverse_ft
from dispersive_decay.harness import _dominant_speed
from dispersive_decay.littlewood_paley import BumpFunction
from dispersive_decay.proof_tracer import (
    _annulus_intervals,
    _intersect,
    _min_abs_dq,
    build_partition,
    choose_l0,
    kernel_lower_bound,
    lambda_high,
    lambda_low,
    q0_estimate,
    trace_terms,
)
from dispersive_decay.propagator import (
    PhaseSpec,
    SpectralAmplitude,
    _windowed_integrals,
    evolve_spectral,
    oscillatory_integral,
    stationary_point,
)
from dispersive_decay.schwartz import band_window, generate_schwartz


GRID = GridSpec(half_width=200.0, size=32768)


class TestBandPartition:
    def test_t_zero_rejected(self, grid40):
        with pytest.raises(ParameterError):
            build_partition(0.0, 1.0)
        with pytest.raises(ParameterError, match="t must be nonzero"):
            trace_terms(SampledFunction(grid40, np.exp(-grid40.x ** 2)), 0.0, 1.0)

    def test_small_t_empty_middle(self):
        part = build_partition(1.0, -1.0)
        assert lambda_low(1.0) == 2.0 ** 9
        assert lambda_high(1.0) == 2.0 ** -9
        assert part.middle == ()
        assert part.I1 == part.I2 == part.I3 == ()

    def test_unit_ray_all_middle_in_I2(self):
        # |t/x| = 1: I2 covers k in [-8, 8], which contains the whole middle band
        part = build_partition(2048.0, -2048.0)
        assert part.middle == (-1, 0, 1)
        assert part.I2 == (-1, 0, 1)
        assert part.I1 == () and part.I3 == ()

    def test_middle_band_definition(self):
        t = 2.0 ** 13
        part = build_partition(t, -37.0)
        for k in range(-20, 21):
            inside = lambda_low(t) <= 2.0 ** k <= lambda_high(t)
            assert (k in part.middle) == inside

    def test_I2_size_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = float(rng.uniform(2.0 ** 10, 2.0 ** 16))
            x = -float(rng.uniform(1.0, t))
            part = build_partition(t, x)
            assert len(part.I2) <= 17

    def test_union_covers_middle(self):
        part = build_partition(2.0 ** 14, -100.0)
        assert set(part.I1) | set(part.I2) | set(part.I3) == set(part.middle)

    def test_boundary_k_kept_in_both(self):
        # ray = 16 * 2^{k/2} at k = 0 puts k on the I1/I2 boundary
        part = build_partition(2048.0, -128.0)
        assert 0 in part.I1 and 0 in part.I2

    def test_x_zero_flagged(self):
        part = build_partition(2048.0, 0.0)
        assert part.flagged
        assert part.I1 == part.middle
        assert part.I2 == () and part.I3 == ()

    def test_general_alpha_sets(self):
        # alpha = 0.4: membership via 2^{0.6 k} against the margin M = 16
        t, x, M = 2.0 ** 14, -4.0, 16.0
        part = build_partition(t, x, alpha=0.4)
        ray = abs(t / x)
        for k in part.middle:
            v = 2.0 ** (0.6 * k)
            assert (k in part.I1) == (v <= ray / M)
            assert (k in part.I2) == (ray / M <= v <= M * ray)
            assert (k in part.I3) == (v >= M * ray)


class TestKernelLowerBound:
    def test_x_zero_exact(self):
        # no cancellation: min |Phi'| on the annulus, attained at xi = 2^{k+1}
        for k in (-1, 0, 1):
            res = kernel_lower_bound(k, 2048.0, 0.0)
            exact = 0.5 * 2.0 ** (-(k + 1) / 2.0)
            assert res.value == pytest.approx(exact, rel=1e-6)

    def test_slow_ray_extreme(self):
        # |x/t| = 2^{-k/2}/32 with k in I1: min >= 0.32 * 2^{-k/2}
        t, k = 4096.0, 2
        x = -t * 2.0 ** (-k / 2.0) / 32.0
        part = build_partition(t, x)
        assert k in part.I1
        res = kernel_lower_bound(k, t, x)
        assert res.value > 0.32 * 2.0 ** (-k / 2.0)
        assert res.ratio > 0

    def test_grid_vs_endpoint_analytic(self):
        # |x/t + Phi'| is monotone in |xi| on each sign branch, so the min is
        # an endpoint value
        t, k = 4096.0, 2
        x = -t * 2.0 ** (-k / 2.0) / 32.0
        res = kernel_lower_bound(k, t, x)
        r = abs(x / t)
        ends = [abs(-r + 0.5 * xi ** -0.5) for xi in (2.0 ** (k - 1), 2.0 ** (k + 1))]
        ends += [abs(r + 0.5 * xi ** -0.5) for xi in (2.0 ** (k - 1), 2.0 ** (k + 1))]
        assert res.value == pytest.approx(min(ends), rel=1e-6)

    def test_inadmissible_k(self):
        part = build_partition(2048.0, -2048.0)
        assert 0 in part.I2 and 0 not in part.I1 and 0 not in part.I3
        with pytest.raises(ParameterError):
            kernel_lower_bound(0, 2048.0, -2048.0)


class TestMinAbsDq:
    """The endpoint minimum of |x + t Phi'| against the dense sampling it replaced."""

    @staticmethod
    def dense(intervals, t, x, alpha):
        spec = PhaseSpec(alpha=alpha, t=t, x=x)
        return min(float(np.min(np.abs(spec.dq(np.linspace(a, b, 1 << 14)))))
                   for a, b in intervals)

    def test_q0_sweep_matches_dense_reference(self):
        checked = 0
        for alpha in (0.4, 0.5):
            for t in (2048.0, 16384.0):
                for k in range(-4, 11, 2):
                    for factor in (0.5, 1.0, 2.0):
                        x = -t / (factor * 2.0 ** (k * (1.0 - alpha)))
                        xi0 = stationary_point(t, x, alpha)
                        l0 = choose_l0(k, t, alpha)
                        for l in range(l0 + 1, l0 + 9):
                            est = q0_estimate(k, l, t, x, alpha)
                            if est is None:
                                continue
                            shifted = [(xi0 + a, xi0 + b) for a, b in _annulus_intervals(l)]
                            pieces = _intersect(_annulus_intervals(k), shifted)
                            assert est.value == self.dense(pieces, t, x, alpha)
                            checked += 1
        assert checked > 300

    def test_kernel_sweep_matches_dense_reference(self):
        for t in (2048.0, 16384.0):
            for k in range(-4, 11, 2):
                for factor in (64.0, 1.0 / 64.0):
                    x = -t / (factor * 2.0 ** (k / 2.0))
                    res = kernel_lower_bound(k, t, x)
                    ref = self.dense(_annulus_intervals(k), t / abs(t), x / abs(t), 0.5)
                    assert res.value == ref

    def test_interval_holding_xi0_refused(self):
        t, x = 4096.0, -64.0
        xi0 = stationary_point(t, x, 0.5)
        with pytest.raises(ParameterError):
            _min_abs_dq([(xi0 / 2.0, 2.0 * xi0)], t, x, 0.5)


class TestQ0Estimate:
    T, X = 4096.0, -64.0  # ray 64, xi0 = 2^{10}, k = 10 in I2

    def test_spec_case_positive(self):
        assert stationary_point(self.T, self.X, 0.5) == pytest.approx(1024.0)
        res = q0_estimate(10, 7, self.T, self.X)
        assert res is not None
        assert res.value > 0 and res.ratio > 0

    def test_brute_force_oracle(self):
        # independent 10^6-sample minimum over the same intersection
        res = q0_estimate(10, 7, self.T, self.X)
        xi0 = 1024.0
        pieces = []
        for (a, b) in [(xi0 + 64.0, xi0 + 256.0), (xi0 - 256.0, xi0 - 64.0)]:
            lo, hi = max(a, 2.0 ** 9), min(b, 2.0 ** 11)
            if lo < hi:
                pieces.append((lo, hi))
        samples = np.concatenate([np.linspace(a, b, 500000) for a, b in pieces])
        brute = np.min(np.abs(self.X + self.T * 0.5 * samples ** -0.5))
        assert abs(res.value - brute) / brute < 0.01

    def test_empty_intersection_skips(self):
        # 2^l far larger than the annulus: no xi satisfies both constraints
        assert q0_estimate(10, 30, self.T, self.X) is None

    def test_monotone_in_l(self):
        vals = []
        for l in (5, 6, 7, 8):
            r = q0_estimate(10, l, self.T, self.X)
            if r is not None:
                vals.append(r.value)
        assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_k_not_in_I2(self):
        with pytest.raises(ParameterError):
            q0_estimate(2, 5, self.T, self.X)


class TestAnnulusDecomposition:
    def test_triangle_and_telescoping(self):
        # the annuli of band k split its integral, so their magnitudes add up
        # to at least the band's own magnitude and the Gauss reference's
        t = 2048.0
        phi = generate_schwartz(0, 0, (0.5, 16.0), GRID)
        x = -t * 0.5 / np.sqrt(2.0)  # ray along the xi ~ 2 stationary ray
        trace = trace_terms(phi, t, x, with_annuli=True)
        k = next(k for k in trace.annuli if 0 <= k <= 3)
        total = sum(m for _, m in trace.annuli[k])
        amp = SpectralAmplitude(forward_ft(phi))
        bump = BumpFunction()

        def band_amp(xi):
            return amp(xi) * bump.dyadic_piece(xi, k)

        band = _intersect(_annulus_intervals(k), amp.support)
        whole = abs(oscillatory_integral(band_amp, band, t, x, 0.5,
                                         amp_scale=min(8 * amp.xi_spacing, 2.0 ** k / 8))
                    ) / (2 * np.pi)
        assert abs(whole - trace.piece_mags[k]) < 1e-11
        assert total >= whole - 1e-8

    def test_center_zero_when_spectrum_avoids_xi0(self):
        # data supported well away from xi0 = 1 +- 2^{l0+1}
        t = 2048.0
        x = -t / 2.0  # xi0 = 1
        hat = (np.exp(-((np.abs(GRID.xi) - 0.7) / 0.05) ** 2)
               * band_window(GRID.xi, 0.55, 0.85)).astype(complex)
        phi = inverse_ft(SpectralFunction(GRID, hat))
        part = build_partition(t, x)
        assert 0 in part.I2
        pieces = trace_terms(phi, t, x, with_annuli=True).annuli[0]
        assert pieces[0] == ("center", 0.0)

    def test_l0_choice(self):
        # 2^{l0} ~ 2^{(2-alpha)k/2} / sqrt(|t|)
        assert choose_l0(10, 4096.0, 0.5) == round(7.5 - 6.0)
        assert choose_l0(4, 2.0 ** 11, 0.4) == round(3.2 - 5.5)


class TestTraceTerms:
    def test_zero_input(self):
        phi = SampledFunction(GRID, np.zeros(GRID.size))
        trace = trace_terms(phi, 2048.0, -10.0)
        assert list(trace.terms) == ["A", "B1", "B2", "B3", "C"]
        assert all(term == (0.0, 0.0) for term in trace.terms.values())
        assert trace.reconstruction_defect == 0.0

    def test_vanishing_bound_raises(self):
        # seed-0 sample 0 scaled by 1e-170: every norm underflows to 0, while B2 and C
        # stay nonzero (2.0e-174 and 4.8e-174), and a ratio of 0.0 would pass every gate
        phi = generate_schwartz(0, 0, (0.5, 8.0), GRID)
        tiny = SampledFunction(GRID, phi.values * 1e-170)
        t = 4096.0
        with pytest.raises(UndefinedRatioError, match="bound vanishes"):
            trace_terms(tiny, t, -t * _dominant_speed(tiny, 0.5))

    def test_reconstruction_and_triangle(self):
        t = 2048.0
        phi = generate_schwartz(0, 0, (0.5, 16.0), GRID)
        x = -t * 0.5 / np.sqrt(2.0)
        trace = trace_terms(phi, t, x, with_annuli=False)
        assert trace.reconstruction_defect < 1e-8
        total = trace.low_mag + sum(trace.piece_mags.values())
        assert total >= abs(trace.u_value) - 1e-6

    def test_ratios_finite(self):
        t = 2048.0
        phi = generate_schwartz(1, 3, (0.5, 16.0), GRID)
        x = -t * 0.5 / np.sqrt(2.0)
        trace = trace_terms(phi, t, x, with_annuli=True)
        assert list(trace.terms) == ["A", "B1", "B2", "B3", "C"]
        for _, r in trace.terms.values():
            assert np.isfinite(r) and r >= 0
        for bv in trace.q0_map.values():
            assert bv.ratio > 0


class TestOccupiedSpectrum:
    """The consumers of the occupied spectrum against a mask built here.

    The sample's spectrum fills 0.5 < |xi| < 1 and 4 < |xi| < 8 and vanishes
    in between, so the annulus of k = 1 (1 < |xi| < 4) holds none of it.
    """

    GRID = GridSpec(half_width=40.0, size=4096)

    @pytest.fixture
    def gapped(self):
        xi = self.GRID.xi
        hat = band_window(xi, 0.5, 1.0) + (1.0 + 0.5j) * band_window(xi, 4.0, 8.0)
        phi = inverse_ft(SpectralFunction(self.GRID, hat.astype(complex)))
        mag = np.abs(forward_ft(phi).values)
        oracle = np.abs(xi[(mag > 1e-13 * np.max(mag)) & (xi != 0.0)])
        return phi, oracle

    def test_amplitude_support(self, gapped):
        phi, oracle = gapped
        d = self.GRID.xi_spacing
        lo, hi = np.min(oracle) - d, np.max(oracle) + d
        amp = SpectralAmplitude(forward_ft(phi))
        assert amp.support == [(-hi, -lo), (lo, hi)]
        assert amp.excluded_mass == 0.0

    def test_wrap_guard_min_half_width(self, gapped):
        phi, oracle = gapped
        t, alpha = 1000.0, 0.5
        with pytest.raises(DomainTooSmallError) as exc:
            evolve_spectral(phi, t, alpha)
        expected = alpha * np.min(oracle) ** (alpha - 1.0) * t / 0.4
        assert exc.value.min_half_width == pytest.approx(expected, rel=1e-14)

    def test_active_bands(self, gapped):
        phi, oracle = gapped
        expected = [k for k in range(-64, 65)
                    if 2.0 ** (k + 1) <= self.GRID.nyquist
                    and np.any((oracle > 2.0 ** (k - 1)) & (oracle < 2.0 ** (k + 1)))]
        assert 1 not in expected
        trace = trace_terms(phi, 64.0, -10.0, with_annuli=False)
        assert sorted(trace.piece_mags) == expected


class TestTraceEngine:
    """The shared panel pass of trace_terms against one quadrature per window."""

    T = 2048.0
    X = -T * 0.5 / np.sqrt(2.0)

    @pytest.fixture(scope="class")
    def phi(self):
        return generate_schwartz(0, 0, (0.5, 16.0), GRID)

    @staticmethod
    def magnitudes(trace):
        out = {"u": abs(trace.u_value), "low": trace.low_mag}
        out.update({("piece", k): m for k, m in trace.piece_mags.items()})
        out.update({(k, l): m for k, ann in trace.annuli.items() for l, m in ann})
        return out

    @pytest.mark.parametrize("seed, band, t", [(0, (0.5, 16.0), 2048.0),
                                               (39, (0.5, 8.0), 4096.0)])
    def test_matches_per_window_quadrature(self, seed, band, t):
        # the second case is a trace-proof point whose centre windows need
        # panels as fine as a quadrature of their own
        phi = generate_schwartz(seed, 0, band, GRID)
        x = -t * _dominant_speed(phi, 0.5) if seed else self.X
        trace = trace_terms(phi, t, x, with_annuli=True)
        assert trace.annuli
        amp = SpectralAmplitude(forward_ft(phi))
        bump = BumpFunction()
        scale8 = 8.0 * amp.xi_spacing

        def integral(weight, intervals, cap):
            if not intervals:
                return 0.0j
            return oscillatory_integral(lambda xi: amp(xi) * weight(xi), intervals,
                                        t, x, 0.5, amp_scale=cap)

        for k, mag in trace.piece_mags.items():
            band = _intersect(_annulus_intervals(k), amp.support)
            val = integral(lambda xi: bump.dyadic_piece(xi, k), band,
                           min(scale8, 2.0 ** k / 8.0))
            assert abs(abs(val) / (2 * np.pi) - mag) < 1e-11
        k_lo = min(trace.piece_mags)
        d = amp.xi_spacing
        low_band = _intersect([(-(2.0 ** k_lo), -0.25 * d), (0.25 * d, 2.0 ** k_lo)],
                              amp.support)
        val = integral(lambda xi: bump(xi / 2.0 ** (k_lo - 1)), low_band,
                       min(scale8, 2.0 ** k_lo / 8.0))
        assert abs(abs(val) / (2 * np.pi) - trace.low_mag) < 1e-11

        xi0 = stationary_point(t, x, 0.5)
        for k, ann in trace.annuli.items():
            l0 = choose_l0(k, t, 0.5)
            band = _intersect(_annulus_intervals(k), amp.support)
            scale = min(scale8, 2.0 ** k / 8.0)
            center = _intersect(band, [(xi0 - 2.0 ** (l0 + 1), xi0 + 2.0 ** (l0 + 1))])
            expected = [("center", integral(
                lambda xi: bump.dyadic_piece(xi, k) * bump((xi - xi0) / 2.0 ** l0),
                center, min(scale, 2.0 ** l0 / 4.0)))]
            l = l0 + 1
            while 2.0 ** (l - 1) <= 2.0 ** (k + 1) + abs(xi0):
                pieces = _intersect(band, [(xi0 + a, xi0 + b)
                                           for a, b in _annulus_intervals(l)])
                if pieces:
                    expected.append((l, integral(
                        lambda xi: bump.dyadic_piece(xi, k) * bump.dyadic_piece(xi - xi0, l),
                        pieces, min(scale, 2.0 ** l / 4.0))))
                l += 1
            assert [lab for lab, _ in ann] == [lab for lab, _ in expected]
            for (_, m), (_, val) in zip(ann, expected):
                assert abs(m - abs(val) / (2 * np.pi)) < 1e-11

    def test_full_integral_has_its_own_panels(self, phi, monkeypatch):
        # the reconstruction defect must compare two quadratures, not restate
        # the partition of unity on one set of nodes
        passes = []
        windowed = proof_tracer._windowed_integrals
        rules = {name: getattr(propagator, name) for name in ("_levin_rule", "_gauss_rule")}

        def spy_windowed(*args, **kwargs):
            passes.append([])
            return windowed(*args, **kwargs)

        def spy_rule(name):
            def spy(*args):
                for nodes, weights in rules[name](*args):
                    passes[-1].append(nodes)
                    yield nodes, weights
            return spy

        monkeypatch.setattr(proof_tracer, "_windowed_integrals", spy_windowed)
        for name in rules:
            monkeypatch.setattr(propagator, name, spy_rule(name))
        trace = trace_terms(phi, self.T, self.X, with_annuli=True)
        assert len(passes) == 2
        shared, full = (np.concatenate(p) for p in passes)
        assert full.size > 1000 and shared.size > 1000
        assert np.intersect1d(full, shared).size < 0.01 * shared.size
        assert 0.0 < trace.reconstruction_defect < 1e-8

    def test_window_caps_stay_on_their_intervals(self, phi, monkeypatch):
        # the centre window's narrow cap must not narrow the rest of the pass
        passes = []
        cut = propagator._pieces

        def spy(*args):
            passes.append(cut(*args))
            return passes[-1]

        monkeypatch.setattr(propagator, "_pieces", spy)
        trace = trace_terms(phi, self.T, self.X, with_annuli=True)
        pieces = [(a, b) for a, b, _ in passes[0]]
        caps = [cap for *_, cap in passes[0]]
        xi0 = stationary_point(self.T, self.X, 0.5)
        k = min(trace.annuli)
        l0 = choose_l0(k, self.T, 0.5)
        center_cap = 2.0 ** l0 / 4.0
        assert center_cap < 8.0 * GRID.xi_spacing
        assert min(caps) == center_cap
        # away from the low block and the small-k pieces, near xi0 = 2 but
        # outside the centre window
        outside = [cap for (a, b), cap in zip(pieces, caps)
                   if min(abs(a), abs(b)) >= 1.0
                   and (b <= xi0 - 2.0 ** (l0 + 1) or a >= xi0 + 2.0 ** (l0 + 1))]
        assert outside and min(outside) > center_cap

    def test_block_size_does_not_matter(self, phi, monkeypatch):
        # odd chunks of 101 nodes put window edges inside them; the sums only
        # regroup, so they agree to rounding of the integrand's mass
        ref = self.magnitudes(trace_terms(phi, self.T, self.X, with_annuli=True))
        monkeypatch.setattr(propagator, "_NODE_CHUNK", 101)
        got = self.magnitudes(trace_terms(phi, self.T, self.X, with_annuli=True))
        mass = np.sum(np.abs(forward_ft(phi).values)) * GRID.xi_spacing / (2 * np.pi)
        assert got.keys() == ref.keys()
        for key, value in ref.items():
            assert abs(got[key] - value) <= 1e-15 * mass

    def test_panel_budget(self, phi):
        amp = SpectralAmplitude(forward_ft(phi))
        windows = [(None, None, 0.1), (amp.support, lambda xi: np.ones_like(xi), 0.1)]
        _windowed_integrals(amp, amp.support, windows, self.T, self.X, 0.5, budget=1 << 20)
        with pytest.raises(AccuracyNotMetError):
            _windowed_integrals(amp, amp.support, windows, self.T, self.X, 0.5, budget=100)
