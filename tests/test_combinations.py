import numpy as np
import pytest

from cstarlab import (
    CoefficientTuple,
    DimensionMismatchError,
    HermitianMatrix,
    InputError,
    KrausMap,
    NonContractionError,
    OperatorTuple,
    UnitalMapFamily,
    apply_combination,
    apply_log_combination,
    complete_contraction,
    eig_hermitian,
    eigenvalue_scalarization_witness,
    haar_unitary,
    positive_family_combination,
    sample_map_family,
    sample_tuple,
    split_sum_witness,
    validate_tuple,
)

from conftest import specnorm


def scalar_tuple(dim, lam):
    return CoefficientTuple([np.sqrt(lam) * np.eye(dim), np.sqrt(1 - lam) * np.eye(dim)])


class TestValidateTuple:
    def test_scalar_weights(self):
        check = validate_tuple(scalar_tuple(3, 0.3))
        assert check.ok and check.defect <= 1e-15

    def test_single_unitary(self):
        u = haar_unitary(3, np.random.default_rng(0))
        assert validate_tuple(CoefficientTuple([u])).ok

    def test_two_identities_fail(self):
        check = validate_tuple(CoefficientTuple([np.eye(2), np.eye(2)]))
        assert not check.ok
        assert abs(check.defect - 1.0) < 1e-15


class TestSampleTuple:
    @pytest.mark.parametrize("dim,m", [(2, 1), (3, 4), (4, 2), (1, 3)])
    def test_normalized(self, dim, m):
        t = sample_tuple(dim, m, 1)
        assert validate_tuple(t).defect <= 1e-12

    def test_single_is_unitary(self):
        t = sample_tuple(2, 1, 17)
        assert abs(abs(np.linalg.det(t.coeffs[0])) - 1.0) < 1e-10

    def test_seed_determinism(self):
        t1, t2 = sample_tuple(3, 3, 9), sample_tuple(3, 3, 9)
        for a, b in zip(t1.coeffs, t2.coeffs):
            assert np.array_equal(a, b)


class TestApplyCombination:
    def test_scalar_weights_reduce_to_convex_combination(self, rand_herm):
        lam = 0.35
        x = rand_herm(3, -1.0, 1.0, 4)
        y = rand_herm(3, -1.0, 1.0, 5)
        out = apply_combination(scalar_tuple(3, lam), [x, y])
        assert specnorm(out.array - (lam * x.array + (1 - lam) * y.array)) < 1e-12

    def test_single_unitary_conjugates(self, rand_herm):
        x = rand_herm(3, -1.0, 1.0, 6)
        u = haar_unitary(3, np.random.default_rng(2))
        out = apply_combination(CoefficientTuple([u]), [x])
        assert specnorm(out.array - u.conj().T @ x.array @ u) < 1e-12

    def test_unitality(self):
        t = sample_tuple(3, 4, 2)
        out = apply_combination(t, [HermitianMatrix.identity(3)] * 4)
        assert specnorm(out.array - np.eye(3)) < 1e-12

    def test_componentwise_on_operator_tuples(self, rand_herm):
        t = sample_tuple(2, 2, 3)
        pairs = [
            OperatorTuple([rand_herm(2, 0.0, 1.0, s), rand_herm(2, 0.0, 1.0, s + 10)])
            for s in (1, 2)
        ]
        out = apply_combination(t, pairs)
        for j in range(2):
            direct = apply_combination(t, [p.components[j] for p in pairs])
            assert specnorm(out.components[j].array - direct.array) < 1e-14

    def test_length_mismatch(self, rand_herm):
        with pytest.raises(DimensionMismatchError):
            apply_combination(sample_tuple(2, 2, 0), [rand_herm(2, 0.0, 1.0, 0)])


class TestApplyLogCombination:
    def test_scalar_matrix_fixed_point(self):
        t = sample_tuple(3, 2, 1)
        alpha = 1.7
        xs = [HermitianMatrix(alpha * np.eye(3))] * 2
        out = apply_log_combination(t, xs)
        assert specnorm(out.array - alpha * np.eye(3)) < 1e-12

    def test_single_unitary(self, rand_herm):
        x = rand_herm(3, 0.5, 2.0, 7)
        u = haar_unitary(3, np.random.default_rng(5))
        out = apply_log_combination(CoefficientTuple([u]), [x])
        assert specnorm(out.array - u.conj().T @ x.array @ u) < 1e-11

    def test_commuting_diagonals_weighted_harmonic_mean(self):
        lam = 0.25
        x = np.array([1.0, 2.0])
        y = np.array([4.0, 0.5])
        out = apply_log_combination(
            scalar_tuple(2, lam),
            [HermitianMatrix(np.diag(x)), HermitianMatrix(np.diag(y))],
        )
        expected = 1.0 / (lam / x + (1 - lam) / y)
        assert np.allclose(np.diag(out.array).real, expected)

    def test_inverse_unwinding(self, rand_herm):
        t = sample_tuple(3, 3, 8)
        xs = [rand_herm(3, 0.3, 2.0, s) for s in (1, 2, 3)]
        out = apply_log_combination(t, xs)
        inv_comb = apply_combination(
            t, [HermitianMatrix(np.linalg.inv(x.array)) for x in xs]
        )
        assert specnorm(np.linalg.inv(out.array) - inv_comb.array) < 1e-9

    def test_below_arithmetic_combination(self, rand_herm):
        # operator AM-HM: log-combination <= plain combination
        for seed in range(10):
            t = sample_tuple(3, 2, seed)
            xs = [rand_herm(3, 0.2, 3.0, seed + 20), rand_herm(3, 0.2, 3.0, seed + 40)]
            lo = apply_log_combination(t, xs)
            hi = apply_combination(t, xs)
            assert float(np.linalg.eigvalsh(hi.array - lo.array)[0]) > -1e-8


class TestCompleteContraction:
    def test_scalar_half(self):
        t = complete_contraction(np.sqrt(0.5) * np.eye(2))
        assert specnorm(t.coeffs[1] - np.sqrt(0.5) * np.eye(2)) < 1e-12

    def test_zero(self):
        t = complete_contraction(np.zeros((3, 3)))
        assert specnorm(t.coeffs[1] - np.eye(3)) < 1e-15

    def test_random_contraction(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c = g / (np.linalg.norm(g, 2) * 1.25)
        t = complete_contraction(c)
        d = t.coeffs[1]
        assert specnorm(c.conj().T @ c + d.conj().T @ d - np.eye(3)) <= 1e-12
        assert validate_tuple(t).ok

    def test_rejects_expansion(self):
        with pytest.raises(NonContractionError):
            complete_contraction(2.0 * np.eye(2))


class TestSplitSumWitness:
    def test_equal_identities(self):
        one = HermitianMatrix.identity(2)
        c1, c2 = split_sum_witness(one, one)
        assert specnorm(c1 - np.sqrt(0.5) * np.eye(2)) < 1e-12
        assert specnorm(c2 - np.sqrt(0.5) * np.eye(2)) < 1e-12

    def test_near_projections_reconstruct(self):
        eps = 1e-4
        x = HermitianMatrix(np.diag([1.0, 0.0]) + eps * np.eye(2))
        y = HermitianMatrix(np.diag([0.0, 1.0]) + eps * np.eye(2))
        c1, c2 = split_sum_witness(x, y)
        s = x.array + y.array
        assert specnorm(c1.conj().T @ s @ c1 - x.array) <= 1e-9
        assert specnorm(c2.conj().T @ s @ c2 - y.array) <= 1e-9

    def test_contractions_and_adjoint_normalization(self, rand_herm):
        # the pair reconstructs the summands and is jointly co-isometric:
        # sum C_i C_i* = I. The adjoint-flipped sum C_i* C_i only
        # recovers I when X and Y commute.
        for seed in range(8):
            x = rand_herm(3, 0.1, 2.0, seed)
            y = rand_herm(3, 0.1, 2.0, seed + 30)
            c1, c2 = split_sum_witness(x, y)
            assert np.linalg.norm(c1, 2) <= 1.0 + 1e-10
            assert np.linalg.norm(c2, 2) <= 1.0 + 1e-10
            co = c1 @ c1.conj().T + c2 @ c2.conj().T
            assert specnorm(co - np.eye(3)) < 1e-12

    def test_rejects_singular_sum(self):
        z = HermitianMatrix.zero(2)
        with pytest.raises(Exception):
            split_sum_witness(z, z)


class TestEigenvalueScalarization:
    def test_two_by_two_min(self):
        x = HermitianMatrix(np.diag([5.0, 2.0]))
        t = eigenvalue_scalarization_witness(x, 1)
        out = apply_combination(t, [x] * 2)
        assert specnorm(out.array - 2.0 * np.eye(2)) < 1e-12

    def test_all_indices_random(self, rand_herm):
        x = rand_herm(3, -2.0, 2.0, 14)
        lam = eig_hermitian(x).eigenvalues
        for k in range(1, 4):
            t = eigenvalue_scalarization_witness(x, k)
            assert validate_tuple(t).defect <= 1e-12
            out = apply_combination(t, [x] * 3)
            assert specnorm(out.array - lam[k - 1] * np.eye(3)) < 1e-10

    def test_index_range(self):
        with pytest.raises(InputError):
            eigenvalue_scalarization_witness(HermitianMatrix.identity(2), 3)


class TestPositiveFamilyCombination:
    def test_identity_map(self, rand_herm):
        x = rand_herm(3, -1.0, 1.0, 20)
        fam = UnitalMapFamily([KrausMap([np.eye(3)])])
        res = positive_family_combination(fam, [x])
        assert specnorm(res.value.array - x.array) < 1e-12
        rebuilt = sum(
            c.conj().T @ (lam * np.eye(3)) @ c
            for c, lam in zip(res.equivalent_tuple.coeffs, res.scalars)
        )
        assert specnorm(rebuilt - x.array) < 1e-9
        assert validate_tuple(res.equivalent_tuple).defect <= 1e-10

    def test_cross_check_with_tuple(self, rand_herm):
        t = sample_tuple(3, 2, 4)
        fam = UnitalMapFamily([KrausMap([c]) for c in t.coeffs])
        xs = [rand_herm(3, -1.0, 1.0, s) for s in (31, 32)]
        res = positive_family_combination(fam, xs)
        direct = apply_combination(t, xs)
        assert specnorm(res.value.array - direct.array) < 1e-12

    def test_transpose_map(self):
        x = HermitianMatrix([[1.0, 1j], [-1j, 1.0]])
        fam = UnitalMapFamily([KrausMap([np.eye(2)], transpose=True)])
        res = positive_family_combination(fam, [x])
        assert np.allclose(res.value.array, [[1.0, -1j], [1j, 1.0]])
        assert np.allclose(eig_hermitian(res.value).eigenvalues, [0.0, 2.0], atol=1e-12)
        rebuilt = sum(
            c.conj().T @ (lam * np.eye(2)) @ c
            for c, lam in zip(res.equivalent_tuple.coeffs, res.scalars)
        )
        assert specnorm(rebuilt - res.value.array) < 1e-9

    def test_non_unital_rejected(self):
        with pytest.raises(InputError):
            UnitalMapFamily([KrausMap([np.eye(2)]), KrausMap([np.eye(2)])])

    def test_spectrum_containment(self, rand_herm):
        fam = sample_map_family(3, 3, 77)
        xs = [rand_herm(3, 0.5, 1.5, s) for s in (1, 2, 3)]
        res = positive_family_combination(fam, xs)
        w = eig_hermitian(res.value).eigenvalues
        assert np.all(w > 0.5 - 1e-8) and np.all(w < 1.5 + 1e-8)

    def test_family_values_hermitian(self, rand_herm):
        fam = sample_map_family(2, 2, 5, transpose_prob=1.0)
        xs = [rand_herm(2, -1.0, 1.0, s) for s in (8, 9)]
        res = positive_family_combination(fam, xs)
        assert specnorm(res.value.array - res.value.array.conj().T) == 0.0


class TestStackedMaps:
    @pytest.mark.parametrize("prob", [0.0, 0.5, 1.0])
    def test_stack_matches_each_sample(self, prob):
        from cstarlab.combinations import _family_at, _sample_families

        mixed = 0  # stacked maps whose samples disagree on the transpose
        for dim in (2, 3, 4):
            for m in (1, 2, 3):
                rngs = [np.random.default_rng((dim, m, j)) for j in range(8)]
                fams = _sample_families(dim, m, rngs, prob)
                fam, sizes = fams
                g = rngs[0].standard_normal((m, 8, dim, dim, 2))
                xs = list(g[..., 0] + 1j * g[..., 1])
                stacked = fam.apply_arr(xs)
                for j in range(8):
                    one = _family_at(fams, j)
                    assert [len(phi.kraus) for phi in one.maps] == sizes[j].tolist()
                    assert all(type(phi.transpose) is bool for phi in one.maps)
                    assert np.array_equal(stacked[j], one.apply_arr([x[j] for x in xs]))
                if prob in (0.0, 1.0):
                    assert all(np.all(phi.transpose == bool(prob)) for phi in fam.maps)
                mixed += sum(0 < phi.transpose.sum() < 8 for phi in fam.maps)
        assert (mixed > 0) == (prob == 0.5)

    def test_map_on_a_stack_matches_each_operand(self):
        phi = sample_map_family(3, 2, 11, transpose_prob=1.0).maps[0]
        g = np.random.default_rng(12).standard_normal((4, 3, 3, 2))
        xs = g[..., 0] + 1j * g[..., 1]
        out = phi.apply_arr(xs)
        for j in range(4):
            assert np.array_equal(out[j], phi.apply_arr(xs[j]))

    def test_malformed_stacks_rejected(self):
        with pytest.raises(InputError):
            KrausMap([np.zeros((2, 3, 3)), np.zeros((3, 3, 3))])
        with pytest.raises(InputError):
            KrausMap([np.zeros((2, 3, 3)), np.zeros((2, 2, 2))])
        with pytest.raises(InputError):
            KrausMap([np.zeros((2, 3, 2))])
        with pytest.raises(InputError):
            KrausMap([np.zeros((2, 3, 3))], transpose=[True, False, True])
        with pytest.raises(InputError):
            KrausMap([np.eye(2)], transpose=[True])
