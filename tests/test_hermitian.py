import numpy as np
import pytest
import scipy.linalg

from cstarlab import (
    DEFAULT_TOL,
    DimensionMismatchError,
    DomainError,
    HermitianDefectError,
    HermitianMatrix,
    InputError,
    NonPositiveError,
    SpectrumInterval,
    ToleranceConfig,
    UnboundedIntervalError,
    apply_function,
    eig_hermitian,
    geometric_mean,
    hull_membership,
    loewner_leq,
    parse_function,
    sample_hermitian,
    spectral_interval_oracle,
)
from cstarlab.hermitian import SCALE_FLOOR

from conftest import specnorm


class TestConstruction:
    def test_accepts_hermitian(self):
        h = HermitianMatrix([[1.0, 1j], [-1j, 2.0]])
        assert h.dim == 2
        assert np.allclose(h.array, h.array.conj().T)

    def test_rejects_defect(self):
        with pytest.raises(HermitianDefectError):
            HermitianMatrix([[1.0, 1.0], [0.5, 2.0]])

    def test_accepts_rotated_large_scale(self):
        # U diag(1e6, 2e6, 3e6) U* carries rounding defects of about 1e-10
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        a = (u * np.array([1e6, 2e6, 3e6])) @ u.conj().T
        assert np.max(np.abs(a - a.conj().T)) > 1e-12
        h = HermitianMatrix(a)
        assert np.allclose(np.linalg.eigvalsh(h.array), [1e6, 2e6, 3e6])

    def test_rejects_relative_defect_at_large_scale(self):
        a = np.array([[1e6, 1e6], [1e6 + 1.0, 2e6]])
        with pytest.raises(HermitianDefectError):
            HermitianMatrix(a)

    def test_rejects_nonsquare(self):
        with pytest.raises(InputError):
            HermitianMatrix(np.zeros((2, 3)))

    def test_real_symmetric_embeds(self):
        h = HermitianMatrix([[2.0, 0.5], [0.5, 1.0]])
        assert h.array.dtype == np.complex128

    def test_entries_read_only(self):
        h = HermitianMatrix(np.eye(3))
        with pytest.raises(ValueError):
            h.array[0, 0] = 5.0


class TestEig:
    def test_diagonal(self):
        d = eig_hermitian(HermitianMatrix(np.diag([3.0, 1.0])))
        assert np.allclose(d.eigenvalues, [1.0, 3.0])
        # columns are permuted identity columns
        assert np.allclose(np.abs(d.unitary), [[0, 1], [1, 0]])

    def test_pauli_x(self):
        d = eig_hermitian(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(d.eigenvalues, [-1.0, 1.0])

    def test_reconstruction_oracle_5x5(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = HermitianMatrix((g + g.conj().T) / 2)
        d = eig_hermitian(h)
        recon = (d.unitary * d.eigenvalues) @ d.unitary.conj().T
        rel = specnorm(recon - h.array) / specnorm(h.array)
        assert rel < 1e-10
        assert specnorm(d.unitary.conj().T @ d.unitary - np.eye(5)) < 1e-10

    def test_deterministic(self, rand_herm):
        h = rand_herm(4, -1.0, 1.0, 3)
        d1, d2 = eig_hermitian(h), eig_hermitian(h)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.unitary, d2.unitary)

    def test_shift_invariance(self, rand_herm):
        h = rand_herm(4, -2.0, 2.0, 9)
        c = 0.731
        shifted = HermitianMatrix(h.array + c * np.eye(4))
        w0 = eig_hermitian(h).eigenvalues
        w1 = eig_hermitian(shifted).eigenvalues
        assert np.max(np.abs(w1 - (w0 + c))) < 1e-10


class TestLoewner:
    def test_identity_pair(self):
        r = loewner_leq(HermitianMatrix(np.eye(2)), HermitianMatrix(2 * np.eye(2)))
        assert r.holds and abs(r.margin - 1.0) < 1e-12

    def test_indefinite_difference(self):
        a = HermitianMatrix(np.diag([2.0, 1.0]))
        b = HermitianMatrix(np.diag([1.0, 2.0]))
        assert not loewner_leq(a, b).holds
        assert not loewner_leq(b, a).holds

    def test_reflexive(self, rand_herm):
        a = rand_herm(3, -1.0, 1.0, 5)
        r = loewner_leq(a, a)
        assert r.holds and abs(r.margin) < 1e-14

    def test_antisymmetry_up_to_tolerance(self, rand_herm):
        a = rand_herm(3, 0.0, 1.0, 6)
        b = HermitianMatrix(a.array + 1e-12 * np.eye(3))
        assert loewner_leq(a, b).holds and loewner_leq(b, a).holds
        scale = max(specnorm(a.array), specnorm(b.array))
        assert specnorm(a.array - b.array) <= 2 * DEFAULT_TOL.psd(scale)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            loewner_leq(HermitianMatrix(np.eye(2)), HermitianMatrix(np.eye(3)))


class TestApplyFunction:
    def test_sqrt_diagonal(self):
        out = apply_function(parse_function("t^0.5"), HermitianMatrix(np.diag([4.0, 9.0])))
        assert np.allclose(out.array, np.diag([2.0, 3.0]))

    def test_inverse_identity(self, rand_herm):
        h = rand_herm(3, 0.5, 3.0, 2)
        inv = apply_function(parse_function("t^-1"), h)
        assert specnorm(h.array @ inv.array - np.eye(3)) < 1e-10

    def test_unitary_conjugation_oracle(self):
        # f(U diag(d) U*) must equal U diag(f(d)) U*
        rng = np.random.default_rng(4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(g)
        d = rng.uniform(-2.0, 2.0, 4)
        h = HermitianMatrix(u @ np.diag(d) @ u.conj().T)
        out = apply_function(parse_function("t^2"), h)
        expected = u @ np.diag(d**2) @ u.conj().T
        assert specnorm(out.array - expected) < 1e-10

    def test_identity_function(self, rand_herm):
        h = rand_herm(4, -3.0, 3.0, 8)
        out = apply_function(parse_function("t"), h)
        assert specnorm(out.array - h.array) < 1e-12

    def test_domain_violation_reports_eigenvalue(self):
        h = HermitianMatrix(np.diag([1.0, -0.5]))
        with pytest.raises(DomainError) as err:
            apply_function(parse_function("t^-1"), h)
        assert "-0.5" in str(err.value) and "0" in str(err.value)

    def test_sqrt_matches_scipy(self, rand_herm):
        h = rand_herm(4, 0.2, 3.0, 13)
        ours = apply_function(parse_function("t^0.5"), h).array
        theirs = scipy.linalg.sqrtm(h.array)
        assert specnorm(ours - theirs) < 1e-9


class TestGeometricMean:
    def test_idempotent(self, rand_herm):
        a = rand_herm(3, 0.5, 2.0, 1)
        g = geometric_mean(a, a)
        assert specnorm(g.array - a.array) < 1e-10

    def test_identity_left(self, rand_herm):
        b = rand_herm(3, 0.5, 2.0, 2)
        g = geometric_mean(HermitianMatrix(np.eye(3)), b)
        root = apply_function(parse_function("t^0.5"), b)
        assert specnorm(g.array - root.array) < 1e-10

    def test_commuting_diagonals(self):
        g = geometric_mean(HermitianMatrix(np.diag([1.0, 4.0])), HermitianMatrix(np.diag([4.0, 1.0])))
        assert np.allclose(g.array, 2.0 * np.eye(2))

    def test_symmetry(self, rand_herm):
        for seed in range(10):
            a = rand_herm(3, 0.1, 3.0, seed)
            b = rand_herm(3, 0.1, 3.0, seed + 100)
            g1, g2 = geometric_mean(a, b), geometric_mean(b, a)
            assert specnorm(g1.array - g2.array) / specnorm(g1.array) < 1e-8

    def test_congruence_invariance(self, rand_herm):
        rng = np.random.default_rng(21)
        for seed in range(10):
            a = rand_herm(3, 0.1, 3.0, seed)
            b = rand_herm(3, 0.1, 3.0, seed + 50)
            c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            lhs = c.conj().T @ geometric_mean(a, b).array @ c
            rhs = geometric_mean(
                HermitianMatrix(c.conj().T @ a.array @ c),
                HermitianMatrix(c.conj().T @ b.array @ c),
            ).array
            assert specnorm(lhs - rhs) / specnorm(rhs) < 1e-8

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveError):
            geometric_mean(HermitianMatrix(np.diag([1.0, 0.0])), HermitianMatrix(np.eye(2)))


class TestSampling:
    def test_seed_determinism(self):
        a = sample_hermitian(3, SpectrumInterval(0.0, 1.0), 7)
        b = sample_hermitian(3, SpectrumInterval(0.0, 1.0), 7)
        assert np.array_equal(a.array, b.array)

    def test_eigenvalues_inside_interval(self):
        for seed in range(20):
            h = sample_hermitian(4, SpectrumInterval(1.0, 2.0), seed)
            w = eig_hermitian(h).eigenvalues
            assert np.all(w > 1.0) and np.all(w < 2.0)

    def test_dim_one_tiny_interval(self):
        eps = 1e-9
        h = sample_hermitian(1, SpectrumInterval(5.0, 5.0 + eps), 3)
        v = float(h.array[0, 0].real)
        assert 5.0 <= v <= 5.0 + eps

    def test_unbounded_requires_scale(self):
        with pytest.raises(UnboundedIntervalError):
            sample_hermitian(2, SpectrumInterval(0.0, np.inf), 1)
        h = sample_hermitian(2, SpectrumInterval(0.0, np.inf), 1, scale=4.0)
        w = eig_hermitian(h).eigenvalues
        assert np.all(w > 0.0) and np.all(w < 4.0)
        for interval in (SpectrumInterval(0.0, np.inf), SpectrumInterval(), SpectrumInterval(hi=1.0)):
            for scale in (np.inf, np.nan, -1.0, 0.0):
                with pytest.raises(InputError, match="sampling scale must be finite and positive"):
                    sample_hermitian(2, interval, 1, scale=scale)
        # a bounded interval never uses the scale
        h = sample_hermitian(2, SpectrumInterval(0.0, 1.0), 1, scale=-1.0)
        assert h.array.tobytes() == sample_hermitian(2, SpectrumInterval(0.0, 1.0), 1).array.tobytes()

    @pytest.mark.parametrize("interval, scale", [
        (SpectrumInterval(-1e308, 1e308), None),
        (SpectrumInterval(1e308, np.inf), 1e308),
        (SpectrumInterval(hi=-1e308), 1e308),
    ])
    def test_window_of_overflowing_width_is_an_input_error(self, interval, scale):
        # the width hi - lo of these finite windows overflows to inf
        with pytest.raises(InputError, match="has no finite width"):
            sample_hermitian(2, interval, 1, scale=scale)


class TestTolerances:
    def test_relative_with_floor(self):
        tol = ToleranceConfig()
        assert tol.psd(1.0) == 1e-8
        assert tol.psd(0.0) == 1e-22
        assert tol.psd(1e-12) == 1e-20
        assert tol.psd(100.0) == 1e-6

    def test_invalid_config(self):
        with pytest.raises(InputError):
            ToleranceConfig(psd_tol=-1.0)
        # a NaN or infinite band would pass every margin
        for bad in (np.nan, np.inf):
            with pytest.raises(InputError, match="finite"):
                ToleranceConfig(psd_tol=bad)

    @pytest.mark.parametrize("t", [1e-14, 1e-11, 1e-9, 1e-8, 1e-6])
    def test_solver_tol_is_derived_from_psd_tol(self, t):
        assert ToleranceConfig(t).solver_tol == min(1e-9, t)

    def test_solver_tol_is_not_a_field(self):
        with pytest.raises(TypeError):
            ToleranceConfig(solver_tol=1e-9)

    def test_psd_on_an_array_matches_each_scale(self):
        scales = [0.0, SCALE_FLOOR, 1.0, 1e12, np.nan]
        for tol in (DEFAULT_TOL, ToleranceConfig(1e-11)):
            each = np.array([tol.psd(s) for s in scales])
            rule = np.array([tol.psd_tol * max(s, SCALE_FLOOR) for s in scales])
            stacked = tol.psd(np.array(scales))
            assert stacked.view(np.uint64).tolist() == each.view(np.uint64).tolist()
            assert each.view(np.uint64).tolist() == rule.view(np.uint64).tolist()

    def test_band_decisions_are_python_bools(self):
        # psd gives a numpy float, so a comparison with it a numpy bool
        a, b = HermitianMatrix(np.diag([1.0, 2.0])), HermitianMatrix(np.diag([1.0, 3.0]))
        assert type(loewner_leq(a, b).holds) is bool and bool(loewner_leq(a, b))
        assert type(spectral_interval_oracle(b, a).inside) is bool
        assert type(hull_membership(b, a).check.valid) is bool


class TestSpectrumInterval:
    def test_open_endpoints(self):
        j = SpectrumInterval(0.0, 1.0, open_lo=True, open_hi=False)
        assert not j.contains(0.0)
        assert j.contains(1.0)
        assert j.contains(0.5)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            SpectrumInterval(2.0, 1.0)
