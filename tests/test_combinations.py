import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarlab import (
    CoefficientTuple,
    DimensionMismatchError,
    HermitianMatrix,
    InputError,
    KrausMap,
    SpectrumInterval,
    UnitalMapFamily,
    apply_combination,
    apply_log_combination,
    eig_hermitian,
    haar_unitary,
    sample_hermitian,
    sample_map_family,
    sample_tuple,
    validate_tuple,
)
from cstarlab.combinations import _combine_arr, _sample_families, _sample_tuple_arrs
from cstarlab.hermitian import CONSTRUCTION_TOL, _rand_hermitians, _sym

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


# each sampler as (dim, m, seed) -> the arrays it drew
SAMPLERS = {
    "sample_tuple": lambda d, m, seed: sample_tuple(d, m, seed).coeffs,
    "sample_map_family": lambda d, m, seed: [
        a for phi in sample_map_family(d, m, seed).maps for a in phi.kraus],
    "sample_hermitian": lambda d, m, seed: [
        sample_hermitian(d, SpectrumInterval(0.0, 1.0), seed).array],
}
# (samplers, dim, m, seed, message); sample_hermitian takes no m
BAD_SAMPLER_ARGS = [
    (tuple(SAMPLERS), 2.5, 2, 7, "dim must be an integer, got 2.5"),
    (("sample_tuple", "sample_map_family"), 2, 1.5, 7, "m must be an integer, got 1.5"),
    (tuple(SAMPLERS), 2, 2, -1, "seed must be at least 0, got -1"),
    (tuple(SAMPLERS), 2, 2, 2.5, "seed must be an integer, got 2.5"),
    (tuple(SAMPLERS), 2, 2, True, "seed must be an integer, got True"),
]


@pytest.mark.parametrize("samplers, dim, m, seed, message", BAD_SAMPLER_ARGS,
                         ids=[f"d{d}-m{m}-seed{s}" for _, d, m, s, _ in BAD_SAMPLER_ARGS])
def test_samplers_reject_sizes_and_seeds_that_are_not_integers(samplers, dim, m, seed, message):
    for sampler in samplers:
        with pytest.raises(InputError) as err:
            SAMPLERS[sampler](dim, m, seed)
        assert type(err.value) is InputError
        assert str(err.value) == message


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_samplers_draw_the_same_from_a_numpy_integer_seed(sampler):
    by_numpy, by_int = SAMPLERS[sampler](2, 2, np.int64(7)), SAMPLERS[sampler](2, 2, 7)
    assert [a.tobytes() for a in by_numpy] == [a.tobytes() for a in by_int]


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
        out = apply_combination(t, [HermitianMatrix(np.eye(3))] * 4)
        assert specnorm(out.array - np.eye(3)) < 1e-12

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


class TestUnitalMapFamily:
    def test_identity_map(self, rand_herm):
        x = rand_herm(3, -1.0, 1.0, 20)
        fam = UnitalMapFamily([KrausMap([np.eye(3)])])
        assert specnorm(fam.apply_arr([x.array]) - x.array) < 1e-12

    def test_cross_check_with_tuple(self, rand_herm):
        t = sample_tuple(3, 2, 4)
        fam = UnitalMapFamily([KrausMap([c]) for c in t.coeffs])
        xs = [rand_herm(3, -1.0, 1.0, s) for s in (31, 32)]
        direct = apply_combination(t, xs)
        assert specnorm(fam.apply_arr([x.array for x in xs]) - direct.array) < 1e-12

    def test_transpose_map(self):
        x = HermitianMatrix([[1.0, 1j], [-1j, 1.0]])
        fam = UnitalMapFamily([KrausMap([np.eye(2)], transpose=True)])
        value = fam.apply_arr([x.array])
        assert np.allclose(value, [[1.0, -1j], [1j, 1.0]])
        assert np.allclose(eig_hermitian(HermitianMatrix(value)).eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_non_unital_rejected(self):
        with pytest.raises(InputError):
            UnitalMapFamily([KrausMap([np.eye(2)]), KrausMap([np.eye(2)])])


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_unit_defect_is_bounded_by_the_construction_tolerance(factor):
    # C* C = (1 + eps) I: a unit-image defect of eps for the tuple (C) and
    # for the family of the one map X -> C* X C
    c = np.sqrt(1.0 + factor * CONSTRUCTION_TOL) * np.eye(2)
    check = validate_tuple(CoefficientTuple([c]))
    assert check.defect == pytest.approx(factor * CONSTRUCTION_TOL, rel=1e-3)
    assert check.ok == (factor < 1.0)
    if factor < 1.0:
        UnitalMapFamily([KrausMap([c])])
    else:
        with pytest.raises(InputError, match="not unital"):
            UnitalMapFamily([KrausMap([c])])


class TestStackedMaps:
    @pytest.mark.parametrize("prob", [0.0, 0.5, 1.0])
    def test_stack_matches_each_sample(self, prob):
        from cstarlab.combinations import _family_at, _sample_families

        mixed = 0  # stacked maps whose samples disagree on the transpose
        for dim in (2, 3, 4):
            for m in (1, 2, 3):
                rngs = [np.random.default_rng((dim, m, j)) for j in range(8)]
                fam, sizes = _sample_families(dim, m, rngs)
                if prob != 0.5:  # every sample's maps transposed (1.0) or none (0.0)
                    fam = UnitalMapFamily([KrausMap(phi.kraus, [bool(prob)] * 8)
                                           for phi in fam.maps])
                fams = fam, sizes
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

    def test_sampled_families_match_the_public_constructors(self):
        # the sampler builds its families without the constructors' copy
        # and unitality check; the families must be the ones they would build
        from cstarlab.combinations import _family_at

        for dim, m in ((1, 1), (2, 3), (4, 2)):
            fams = _sample_families(dim, m, [np.random.default_rng((dim, j)) for j in range(5)])
            for fam in (fams[0], *(_family_at(fams, j) for j in range(5))):
                checked = UnitalMapFamily([KrausMap(phi.kraus, phi.transpose)
                                           for phi in fam.maps])
                for phi, ref in zip(fam.maps, checked.maps):
                    assert type(phi.transpose) is type(ref.transpose)
                    assert np.array_equal(phi.transpose, ref.transpose)
                    assert len(phi.kraus) == len(ref.kraus)
                    for a, b in zip(phi.kraus, ref.kraus):
                        assert a.dtype == b.dtype and a.shape == b.shape
                        assert a.flags.c_contiguous and not a.flags.writeable
                        assert a.tobytes() == b.tobytes()

    def test_map_on_a_stack_matches_each_operand(self):
        phi = KrausMap(sample_map_family(3, 2, 11).maps[0].kraus, transpose=True)
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


@settings(deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
       st.floats(-1e6, 1e6), st.floats(1e-9, 1e6))
def test_combinations_keep_spectra_in_the_interval(seed, dim, m, n, lo, width):
    # a C*-combination of operators with spectra in [lo, hi], or a unital
    # positive-map image of them, has its spectrum in [lo, hi]: so the
    # jensen and epigraph suites never apply f outside the sampled window
    hi = lo + width
    rngs = [np.random.default_rng((seed, j)) for j in range(n)]
    xs = _rand_hermitians(m, dim, lo, hi, rngs)
    family, _ = _sample_families(dim, m, rngs)
    band = 1e-12 * max(abs(lo), abs(hi))
    for out in (_combine_arr(_sample_tuple_arrs(dim, m, rngs), xs), _sym(family.apply_arr(xs))):
        eig = np.linalg.eigvalsh(out)
        assert lo - band <= eig.min() and eig.max() <= hi + band
