"""Dyadic decomposition: bump, projections, Bernstein and weighted-norm ratios."""

import contextlib
import threading

import numpy as np
import pytest

from dispersive_decay.errors import (
    OutOfBandError,
    ParameterError,
    UndefinedRatioError,
)
from dispersive_decay import harness, littlewood_paley
from dispersive_decay.calculus import _lp, lp_norm
from dispersive_decay.grid import (GridSpec, SampledFunction, SpectralFunction, _forward_raw,
                                   _inverse_raw, _l2,
                                   forward_ft, inverse_ft)
from dispersive_decay.harness import _ROW_RATIOS, LEMMA_GRID, SuiteConfig, run_lemma_suites
from dispersive_decay.littlewood_paley import (
    _bump_window,
    _lemma_denominator,
    _usable_bands,
    _Piece,
    BumpFunction,
    bernstein_derivative_ratio,
    bernstein_ratio,
    lemma1_ratio,
    lemma2_ratio,
    project,
)
from dispersive_decay.schwartz import schwartz_sample

from conftest import gaussian


class TestBump:
    def test_plateau_and_support(self, bump):
        assert bump(0.5) == 1.0
        assert bump(0.0) == 1.0
        assert bump(3.0) == 0.0
        assert bump(-2.0) == 0.0

    def test_midpoint(self, bump):
        # theta(u) + theta(1-u) = 1, so psi(1.5) = 1 - theta(0.5) = 0.5
        assert bump(1.5) == pytest.approx(0.5, abs=1e-15)

    def test_range_and_symmetry(self, bump):
        x = np.linspace(-3, 3, 1001)
        v = bump(x)
        assert np.all((0 <= v) & (v <= 1))
        np.testing.assert_array_equal(v, bump(-x))

    def test_dyadic_support_exact(self, bump):
        xi = np.linspace(-40, 40, 20001)
        for k in (-1, 0, 2):
            pk = bump.dyadic_piece(xi, k)
            outside = (np.abs(xi) < 2.0 ** (k - 1)) | (np.abs(xi) > 2.0 ** (k + 1))
            assert np.all(pk[outside] == 0.0)

    def test_telescoping(self, bump):
        xi = np.linspace(-40, 40, 4001)
        xi = xi[np.abs(xi) >= 2.0 ** -19]  # below 2^{k_min-1} the sum cannot reach 1
        total = sum(bump.dyadic_piece(xi, k) for k in range(-20, 6))
        assert np.max(np.abs(total - bump(xi / 2.0 ** 5))) < 1e-12

    def test_partition_of_unity(self, bump):
        K = 8
        xi = np.concatenate([np.linspace(2.0 ** (-K + 1), 2.0 ** (K - 1), 30000),
                             -np.linspace(2.0 ** (-K + 1), 2.0 ** (K - 1), 30000)])
        total = sum(bump.dyadic_piece(xi, k) for k in range(-K, K + 1))
        assert np.max(np.abs(total - 1.0)) < 1e-12


class TestProject:
    def test_disjoint_support_vanishes(self, grid40):
        f = gaussian(grid40, a=50.0)  # fhat concentrated in [-1/2, 1/2]
        hat = forward_ft(f).values
        mask = np.abs(grid40.xi) > 0.5
        # make the spectrum exactly supported in [-1/2, 1/2]
        from dispersive_decay.grid import SpectralFunction, inverse_ft
        hat = np.where(mask, 0.0, hat)
        g = inverse_ft(SpectralFunction(grid40, hat))
        pk = project(g, 4)
        assert np.max(np.abs(pk.values)) < 1e-14 * np.max(np.abs(g.values))

    def test_three_pieces_recover_ring(self, grid40):
        # narrow spectrum near 3 * 2^k: psi_k + psi_{k+1} + psi_{k+2} == 1 there
        k = 1
        f = gaussian(grid40, a=0.02, b=3.0 * 2.0 ** k)  # sigma_xi ~ 0.2
        rec = sum(project(f, j).values for j in (k, k + 1, k + 2))
        assert np.max(np.abs(rec - f.values)) < 1e-10 * np.max(np.abs(f.values))

    def test_linearity(self, grid40):
        f = schwartz_sample(grid40, 2, 0)
        a = 3.5 - 2j
        lhs = project(SampledFunction(f.grid, a * f.values), 2).values
        rhs = a * project(f, 2).values
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14 * np.max(np.abs(rhs)))

    def test_out_of_band(self, grid40):
        with pytest.raises(OutOfBandError):
            project(gaussian(grid40), 12)

    def test_support_confinement(self, grid40):
        f = schwartz_sample(grid40, 2, 1)
        pk_hat = forward_ft(project(f, 3)).values
        outside = (np.abs(grid40.xi) < 2.0 ** 2) | (np.abs(grid40.xi) > 2.0 ** 4)
        assert np.max(np.abs(pk_hat[outside])) < 1e-12 * np.max(np.abs(pk_hat))


class TestBernstein:
    def test_p_equals_q(self, grid40):
        f = gaussian(grid40, a=1.0, b=2.0)
        assert bernstein_ratio(f, 1, 2, 2) == pytest.approx(1.0)

    def test_p_greater_than_q_rejected(self, grid40):
        f = gaussian(grid40, b=2.0)
        # "2" is no exponent: it is rejected before p and q are compared
        for p, q in ((4, 2), ("2", 4)):
            with pytest.raises(ParameterError):
                bernstein_ratio(f, 1, p, q)

    def test_zero_piece_signals(self, grid40):
        f = gaussian(grid40, a=1.0, b=2.0)
        with pytest.raises(UndefinedRatioError):
            bernstein_ratio(f, -30, 2, np.inf)

    def test_suite_bounded_and_median(self, grid200):
        ratios = {}
        for i in range(20):
            f = schwartz_sample(grid200, 0, i)
            for k in range(-6, 7):
                try:
                    ratios[(i, k)] = bernstein_ratio(f, k, 2, np.inf)
                except UndefinedRatioError:
                    pass
        vals = np.array(list(ratios.values()))
        assert np.all(np.isfinite(vals))
        med = np.median(vals)
        # modulated Gaussian centered at xi = 1.5 * 2^k sits within factor 4
        k = 2
        g = gaussian(grid200, a=1.0, b=1.5 * 2.0 ** k)
        r = bernstein_ratio(g, k, 2, np.inf)
        assert med / 4 <= r <= 4 * med

    def test_derivative_ratio_s0(self, grid40):
        f = gaussian(grid40, a=1.0, b=2.0)
        lo, hi = bernstein_derivative_ratio(f, 1, 0.0, 2)
        assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)

    def test_derivative_ratio_s1_k3(self, grid40):
        # |xi| 2^{-k} in [1/2, 2] on supp psi_k gives both ratios in [1/2, 2];
        # [1/4, 4] allows margin
        f = gaussian(grid40, a=1.0, b=3.0 * 2.0 ** 3 / 2.0)
        lo, hi = bernstein_derivative_ratio(f, 3, 1.0, 2)
        assert 0.25 <= lo <= 4.0 and 0.25 <= hi <= 4.0

    def test_derivative_ratio_two_sided(self, grid200):
        vals = []
        for i in range(10):
            f = schwartz_sample(grid200, 1, i)
            for k in range(-4, 5):
                try:
                    vals.extend(bernstein_derivative_ratio(f, k, 0.5, 2))
                except UndefinedRatioError:
                    pass
        vals = np.array(vals)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)

    def test_s_out_of_range(self, grid40):
        with pytest.raises(ParameterError):
            bernstein_derivative_ratio(gaussian(grid40, b=2.0), 1, 2.5, 2)


@pytest.mark.parametrize("ratio", [
    lambda f, k: bernstein_ratio(f, k, 2, np.inf),
    lambda f, k: bernstein_derivative_ratio(f, k, 1.0, 2),
    lambda f, k: lemma1_ratio(f, k),
    lambda f, k: lemma2_ratio(f, k, 0.75),
], ids=["bernstein", "bernstein_derivative", "lemma1", "lemma2"])
def test_ratio_above_nyquist_rejected(ratio):
    # Nyquist 40.2: the annulus of k = 6 straddles it, that of k = 8 lies
    # wholly above it, where the piece is identically zero on the grid
    grid = GridSpec(half_width=40.0, size=1024)
    f = gaussian(grid, a=1.0, b=2.0)
    for k in (6, 8):
        with pytest.raises(OutOfBandError):
            ratio(f, k)


class TestLemmaRatios:
    def test_lemma1_zero_piece(self, grid40):
        f = gaussian(grid40, a=1.0, b=2.0)
        assert lemma1_ratio(f, -30) == 0.0

    def test_lemma1_suite_finite(self, grid200):
        vals = [lemma1_ratio(schwartz_sample(grid200, 0, i), k)
                for i in range(10) for k in range(-6, 7)]
        assert all(np.isfinite(v) and v >= 0 for v in vals)

    def test_lemma1_dilation_consistency(self, grid200):
        # phi(x) -> phi(x/2) shifts the per-k profile down one index
        f = schwartz_sample(grid200, 6, 0)
        dil = SampledFunction(
            grid200,
            np.interp(grid200.x / 2.0, grid200.x, f.values.real)
            + 1j * np.interp(grid200.x / 2.0, grid200.x, f.values.imag),
        )
        ks = range(-5, 6)
        prof = np.array([lemma1_ratio(f, k) for k in ks])
        prof_dil = np.array([lemma1_ratio(dil, k - 1) for k in ks])
        assert abs(prof.max() - prof_dil.max()) / prof.max() < 0.05

    def test_lemma2_s_validation(self, grid40):
        f = gaussian(grid40, a=1.0, b=2.0)
        for s in (0.5, 1.0, 0.2):
            with pytest.raises(ParameterError):
                lemma2_ratio(f, 1, s)

    def test_lemma2_zero_piece(self, grid40):
        assert lemma2_ratio(gaussian(grid40, a=1.0, b=2.0), -30, 0.75) == 0.0

    def test_lemma2_two_exponents(self, grid200):
        f = schwartz_sample(grid200, 0, 3)
        for s in (0.6, 0.9, 0.75):
            v = lemma2_ratio(f, 2, s)
            assert np.isfinite(v) and v >= 0


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _full_grid_scalars(f, k, derivatives):
    """A piece's scalars formed the full-grid way: psi_k fhat on all N nodes, then the plain
    transforms and norms. (peak, hat_l2, the four norms, dxi_l2) and one d_norm per (s, p)."""
    grid, h = f.grid, f.grid.spacing
    piece_hat = BumpFunction().dyadic_piece(grid.xi, k) * f.spectrum.values
    phys = _inverse_raw(grid, piece_hat)
    scalars = [float(np.max(np.abs(piece_hat))),
               _l2(piece_hat, grid.xi_spacing) / np.sqrt(2.0 * np.pi)]
    scalars += [_lp(np.abs(phys), h, q, np.abs(phys)) for q in (1, 2, 4, np.inf)]
    scalars.append(_l2(_forward_raw(grid, grid.x * phys), grid.xi_spacing))
    d_norms = {}
    for s, p in derivatives:
        d = np.abs(_inverse_raw(grid, np.abs(grid.xi) ** s * piece_hat))
        d_norms[s, p] = _lp(d, h, p, d.copy())
    return scalars, d_norms


_NODE_GRID = GridSpec(half_width=np.pi, size=256)
_DERIVATIVES = [(1.0, 2), (0.5, 1), (0.5, 4), (0.5, np.inf)]
# (samples, the (s, p) of the |D|^s P_k f norm) of each case of the full-grid oracle
_ORACLE_CASES = {
    "lemma-grid": (lambda: [schwartz_sample(LEMMA_GRID, 0, i) for i in range(3)], [(1.0, 2)]),
    "lemma-grid-derivative": (lambda: [schwartz_sample(LEMMA_GRID, 0, 0)], _DERIVATIVES[1:]),
    "L4-N16": (lambda: [gaussian(GridSpec(4.0, 16), a=1.0, b=b) for b in (0.0, 2.5)],
               _DERIVATIVES),
    "node-grid": (lambda: [gaussian(_NODE_GRID, a=0.1, b=b) for b in (0.0, 3.0, 20.0)],
                  _DERIVATIVES),
    "h-above-1": (lambda: [gaussian(GridSpec(64.0, 32), a=0.002, b=b) for b in (0.0, 0.3)],
                  _DERIVATIVES),
    "zero-sample": (lambda: [SampledFunction(_NODE_GRID, np.zeros(_NODE_GRID.size))],
                    _DERIVATIVES),
}


class TestPieceEngine:
    """_Piece at its transforms: a windowed bump, pooled workspaces, one norm per (piece, p)."""

    def test_windowed_bump_is_bit_equal(self, bump):
        # pi / L = 1 puts the nodes on the integers, so 2^{k-1} and 2^{k+1} are nodes;
        # the window's psi is the bump on xi > 0 and, mirrored, on xi < 0, and off
        # the window the bump is exactly 0.0
        assert {2.0 ** k for k in range(0, 7)} <= set(np.abs(_NODE_GRID.xi))
        for grid in (LEMMA_GRID, GridSpec(half_width=4.0, size=16), _NODE_GRID):
            ks = [k for k in range(-12, 12) if _usable_bands(grid, (k,), np.abs(grid.xi))]
            assert len(ks) >= 2
            m = grid.size // 2
            for k in ks:
                lo, hi, psi = _bump_window(grid, k)
                full = bump.dyadic_piece(grid.xi, k)
                off = np.ones(grid.size, dtype=bool)
                off[m + lo:m + hi] = off[m - hi + 1:m - lo + 1] = False
                for got, want in ((psi, full[m + lo:m + hi]),
                                  (psi[::-1], full[m - hi + 1:m - lo + 1]),
                                  (np.zeros(np.count_nonzero(off)), full[off])):
                    np.testing.assert_array_equal(bits(got), bits(want), err_msg=f"{grid}, k = {k}")

    def test_escaping_arrays_own_their_memory(self, grid200, monkeypatch):
        # a piece hands out scalars alone: every row of every piece keeps its
        # bits while later pieces run in the same workspace, and no piece holds
        # an array; serial pieces reuse one pooled workspace
        monkeypatch.setattr(littlewood_paley, "_FREE", [])
        f = schwartz_sample(grid200, 0, 1)
        denom = _lemma_denominator(f)

        def rows(piece):
            return [np.float64(ratio(piece, denom)).view(np.uint64)
                    for ratio in _ROW_RATIOS.values()]

        pieces, kept = [], []
        for k in range(-4, 6):
            pieces.append(_Piece(f, k))
            kept.append(rows(pieces[-1]))
        assert [rows(piece) for piece in pieces] == kept
        for piece in pieces:
            assert not any(isinstance(v, np.ndarray) for v in vars(piece).values())
        free = littlewood_paley._FREE
        assert len(free) == 1 and free[0][0].size == grid200.size

    def test_lemma1_transform_of_x_is_bit_equal_to_minus_i_x(self, grid200):
        # d/dxi (psi_k fhat) is the transform of -i x P_k f; the piece transforms
        # x P_k f, whose magnitudes, and so the L^2 norm, must keep every bit
        for grid in (grid200, GridSpec(half_width=40.0, size=4096)):
            for i in range(3):
                f = schwartz_sample(grid, 1, i)
                for k in (k for k in range(-8, 9) if _usable_bands(grid, (k,), np.abs(grid.xi))):
                    dxi = _forward_raw(grid, -1j * grid.x * project(f, k).values)
                    assert _Piece(f, k).dxi_l2 == _l2(dxi, grid.xi_spacing), (grid, i, k)

    def test_concurrent_pieces_never_share_a_workspace(self, grid200, monkeypatch):
        # the first two pieces of each run wait for each other while they hold
        # their workspaces, so the two threads do overlap
        held, runs, lock = [], [], threading.Lock()
        overlap = threading.Barrier(2, timeout=30)
        checkout = littlewood_paley._workspace

        @contextlib.contextmanager
        def spied(n):
            with checkout(n) as ws:
                with lock:
                    for other in held:
                        assert not any(np.shares_memory(a, b) for a in ws for b in other)
                    held.append(ws)
                    runs[-1].append(ws)
                    first_two = len(runs[-1]) <= 2
                if first_two:
                    overlap.wait()
                try:
                    yield ws
                finally:
                    with lock:
                        held[:] = [w for w in held if w is not ws]

        monkeypatch.setattr(littlewood_paley, "_workspace", spied)
        monkeypatch.setattr(littlewood_paley, "_FREE", [])
        monkeypatch.setattr(harness, "_cpus", lambda: 2)
        cfg = SuiteConfig(seed=0, n_samples=2)
        for _ in range(2):
            runs.append([])
            run_lemma_suites(cfg, grid200)
            pool = list(littlewood_paley._FREE)
            assert 1 <= len(pool) <= harness._cpus()
        # the second run checks out only workspaces of the first run's pool
        assert {id(ws) for ws in runs[1]} <= {id(ws) for ws in runs[0]}
        assert {id(ws) for ws in runs[1]} == {id(ws) for ws in pool}

    def test_one_norm_per_piece_and_p(self, grid200, monkeypatch):
        # four norms of P_k f and one of |D| P_k f, however many rows read them
        calls = []
        lp = littlewood_paley._lp
        monkeypatch.setattr(littlewood_paley, "_lp", lambda *a: calls.append(a[2]) or lp(*a))
        f = schwartz_sample(grid200, 0, 1)
        piece = _Piece(f, 2)
        denom = _lemma_denominator(f)
        for ratio in _ROW_RATIOS.values():
            ratio(piece, denom)
        assert sorted(calls, key=float) == [1, 2, 2, 4, np.inf]

    @pytest.mark.parametrize("case", list(_ORACLE_CASES))
    def test_scalars_are_bit_equal_to_full_grid_form(self, case):
        # the piece forms psi_k fhat on the bump's window alone and writes it straight
        # into the FFT's order; every scalar must keep the bits of the full-grid form
        samples, derivatives = _ORACLE_CASES[case]
        for i, f in enumerate(samples()):
            ks = [k for k in range(-16, 16) if _usable_bands(f.grid, (k,), np.abs(f.grid.xi))]
            assert len(ks) >= 2
            for k in ks:
                scalars, d_norms = _full_grid_scalars(f, k, derivatives)
                for s, p in derivatives:
                    piece = _Piece(f, k, (s, p))
                    got = [piece.peak, piece.hat_l2, *piece.norms.values(), piece.dxi_l2]
                    assert piece.vanishes == (case == "zero-sample")
                    np.testing.assert_array_equal(bits(np.array(got + [piece.d_norm])),
                                                  bits(np.array(scalars + [d_norms[s, p]])),
                                                  err_msg=f"sample {i}, k = {k}, (s, p) = {s, p}")
                    if (s, p) != (1.0, 2) and not piece.vanishes:
                        lhs = scalars[2 + (1, 2, 4, np.inf).index(p)]
                        rhs = 2.0 ** (-s * k) * d_norms[s, p]
                        assert bernstein_derivative_ratio(f, k, s, p) == (lhs / rhs, rhs / lhs)

    @pytest.mark.parametrize("p", [1, 4, np.inf])
    def test_derivative_ratio_matches_lp_norm(self, grid200, p):
        f = schwartz_sample(grid200, 0, 2)
        bump = BumpFunction()
        for s in (0.5, 1.0):
            for k in (-2, 0, 3):
                piece_hat = bump.dyadic_piece(grid200.xi, k) * f.spectrum.values
                dpiece = inverse_ft(SpectralFunction(grid200, np.abs(grid200.xi) ** s * piece_hat))
                lhs = lp_norm(project(f, k), p)
                rhs = 2.0 ** (-s * k) * lp_norm(dpiece, p)
                assert bernstein_derivative_ratio(f, k, s, p) == (lhs / rhs, rhs / lhs)
