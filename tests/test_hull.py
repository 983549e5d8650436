import json

import numpy as np
import pytest

from cstarlab import (
    DEFAULT_TOL,
    DimensionMismatchError,
    HermitianMatrix,
    InputError,
    NonPositiveError,
    SpectrumInterval,
    ToleranceConfig,
    eig_hermitian,
    harmonic_sum_closure_test,
    haar_unitary,
    hull_membership,
    lch_membership,
    sample_hermitian,
    sample_hull_member,
    sample_tuple,
    recheck_payload,
    spectral_interval_oracle,
    two_point_witness,
)
from cstarlab.convexity import _harmonic_split, _parallel_sum
from cstarlab.io import canonical_dumps, feasibility_to_payload

from conftest import specnorm


# the tolerances of `hull member --tol 1e-11`
TOL_1E11 = ToleranceConfig(psd_tol=1e-11)
# gap 5e-10: within the default solver band, beyond that of TOL_1E11
NEAR_FLAT = (1.0, 1.0 + 5e-10)


def herm_with_eigs(eigs, seed):
    rng = np.random.default_rng(seed)
    u = haar_unitary(len(eigs), rng)
    return HermitianMatrix((u * np.asarray(eigs, float)) @ u.conj().T)


class TestOracle:
    def test_trivial_inside(self):
        t = HermitianMatrix(np.diag([1.0, 3.0]))
        r = spectral_interval_oracle(t, HermitianMatrix(2 * np.eye(2)))
        assert r.inside and abs(r.margin - 1.0) < 1e-12

    def test_degenerate_hull(self):
        t = HermitianMatrix(2.0 * np.eye(3))
        assert spectral_interval_oracle(t, HermitianMatrix(2.0 * np.eye(3))).inside
        bumped = HermitianMatrix(2.0 * np.eye(3) + np.diag([1e-4, 0, 0]))
        assert not spectral_interval_oracle(t, bumped).inside

    def test_sampled_members_pass(self):
        t = herm_with_eigs([0.5, 1.0, 2.5], 1)
        for seed in range(50):
            tup = sample_tuple(3, 1 + seed % 4, seed)
            member = sample_hull_member(t, tup)
            assert spectral_interval_oracle(t, member).inside


class TestHullMembership:
    def test_forced_witness(self):
        t = HermitianMatrix(np.diag([1.0, 3.0]))
        res = hull_membership(t, HermitianMatrix(2 * np.eye(2)))
        assert res.status == "member"
        for block in res.witness.blocks:
            assert specnorm(block.array - 0.5 * np.eye(2)) < 1e-7

    def test_scalar_certificate(self):
        t = HermitianMatrix(np.diag([1.0, 3.0]))
        res = hull_membership(t, HermitianMatrix(np.diag([0.0, 2.0])))
        assert res.status == "non-member"
        cert = res.certificate
        assert abs(cert.value - 0.0) < 1e-12
        assert abs(cert.margin - 1.0) < 1e-12
        quad = float((cert.vector.conj() @ np.diag([0.0, 2.0]) @ cert.vector).real)
        assert quad < cert.interval[0]

    def test_degenerate_branch(self):
        t = HermitianMatrix(1.5 * np.eye(2))
        assert hull_membership(t, HermitianMatrix(1.5 * np.eye(2))).status == "member"
        off = HermitianMatrix(1.5 * np.eye(2) + np.diag([1e-3, 0.0]))
        assert hull_membership(t, off).status == "non-member"

    def test_boundary_touching_member(self):
        # X = T sits exactly on the hull boundary and must still witness
        t = herm_with_eigs([0.5, 1.2, 3.0], 40)
        res = hull_membership(t, t)
        assert res.status == "member"
        assert res.witness.validate(t).valid

    def test_tie_never_certifies(self):
        # escapes inside the psd band are never resolved to non-member;
        # beyond witness reach they come back as boundary
        t = HermitianMatrix(np.diag([0.0, 1.0]))
        barely = hull_membership(t, HermitianMatrix(np.diag([1.0 + 5e-10, 0.5])))
        assert barely.status != "non-member"
        mid_band = hull_membership(t, HermitianMatrix(np.diag([1.0 + 5e-9, 0.5])))
        assert mid_band.status == "boundary"
        # the same relative tie at a non-unit scale
        c = 1e3
        scaled_tie = hull_membership(
            HermitianMatrix(np.diag([0.0, c])), HermitianMatrix(np.diag([c * (1 + 3e-9), c / 2]))
        )
        assert scaled_tie.status == "boundary"

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hull_membership(HermitianMatrix(np.eye(2)), HermitianMatrix(np.eye(3)))

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, TOL_1E11], ids=("default", "tol-1e-11"))
    @pytest.mark.parametrize("xe", [
        (NEAR_FLAT[0],) * 2, (NEAR_FLAT[1],) * 2, NEAR_FLAT, (sum(NEAR_FLAT) / 2,) * 2,
    ], ids=("lam-min", "lam-max", "t-itself", "center"))
    def test_near_degenerate_t_members(self, tol, xe):
        # a spectrum of X inside [lam_min, lam_max] is a member whether the
        # gap of T falls within the solver band of tol (degenerate branch) or
        # beyond it (two-point branch)
        t = HermitianMatrix(np.diag(NEAR_FLAT))
        x = HermitianMatrix(np.diag(xe))
        res = hull_membership(t, x, tol)
        assert res.status == "member"
        assert res.witness.validate(x).valid

    @pytest.mark.parametrize("xe,escape", [
        ((NEAR_FLAT[0] - 1e-9, NEAR_FLAT[0]), 1e-9),
        ((NEAR_FLAT[1] + 1e-9,) * 2, 1e-9),
    ], ids=("below", "above"))
    def test_near_degenerate_t_escape_certificate(self, xe, escape):
        # an escape beyond the psd band of --tol 1e-11 is a non-member whose
        # certificate measures that escape and rechecks after a JSON round
        # trip; the default psd band of 1e-8 holds it as a tie
        t = HermitianMatrix(np.diag(NEAR_FLAT))
        x = HermitianMatrix(np.diag(xe))
        res = hull_membership(t, x, TOL_1E11)
        assert res.status == "non-member"
        assert res.residual == res.certificate.margin
        assert abs(res.certificate.margin - escape) < 1e-15
        payload = json.loads(canonical_dumps(feasibility_to_payload(res)["certificate"]))
        assert recheck_payload(payload).ok
        assert hull_membership(t, x).status == "boundary"

    def test_agreement_with_oracle(self):
        rng = np.random.default_rng(99)
        checked = 0
        for dim in (2, 3, 4, 5):
            for _ in range(30):
                lam = np.sort(rng.uniform(-1.0, 2.0, dim))
                t = herm_with_eigs(lam, int(rng.integers(1 << 30)))
                width = lam[-1] - lam[0]
                xe = rng.uniform(lam[0] - 0.25 * width - 1e-3, lam[-1] + 0.25 * width + 1e-3, dim)
                x = herm_with_eigs(xe, int(rng.integers(1 << 30)))
                oracle = spectral_interval_oracle(t, x)
                if abs(oracle.margin) <= 1e-6:
                    continue
                res = hull_membership(t, x)
                checked += 1
                assert res.status == ("member" if oracle.inside else "non-member")
                if res.status == "member":
                    check = res.witness.validate(x)
                    assert check.valid
                else:
                    # the decision and the oracle read one interval
                    assert res.residual == -oracle.margin
        assert checked > 80

    def test_idempotence(self):
        t = herm_with_eigs([0.2, 1.0, 1.7], 3)
        for seed in range(10):
            member = sample_hull_member(t, sample_tuple(3, 2, seed))
            assert hull_membership(t, member).status == "member"

    def test_unitary_invariance(self):
        t = herm_with_eigs([0.0, 1.0, 2.0], 5)
        x_in = herm_with_eigs([0.4, 0.9, 1.6], 6)
        x_out = herm_with_eigs([-0.5, 0.9, 1.6], 7)
        u = haar_unitary(3, np.random.default_rng(8))
        for x, expected in ((x_in, "member"), (x_out, "non-member")):
            rotated_t = HermitianMatrix(u.conj().T @ t.array @ u)
            rotated_x = HermitianMatrix(u.conj().T @ x.array @ u)
            assert hull_membership(t, x).status == expected
            assert hull_membership(rotated_t, rotated_x).status == expected

    def test_transpose_stability(self):
        t = herm_with_eigs([0.3, 1.1, 2.2], 9)
        for seed in range(10):
            member = sample_hull_member(t, sample_tuple(3, 3, seed))
            transposed = HermitianMatrix(member.array.T)
            assert spectral_interval_oracle(t, transposed).inside
            assert hull_membership(t, transposed).status == "member"

    def test_inverse_closed_set_combinations(self):
        # K = {X: a I <= X <= I/a} contains the inverses of its members, and
        # C*-combinations of members stay inside
        alpha = 0.5
        interval = SpectrumInterval(alpha, 1.0 / alpha)
        for dim in (2, 3, 4):
            for seed in range(10):
                xs = [sample_hermitian(dim, interval, (dim, seed, j)) for j in range(2)]
                for x in xs:
                    inv_eigs = 1.0 / eig_hermitian(x).eigenvalues
                    assert np.all(inv_eigs >= alpha - 1e-9)
                    assert np.all(inv_eigs <= 1.0 / alpha + 1e-9)
                tup = sample_tuple(dim, 2, (seed, dim))
                from cstarlab import apply_combination

                combo = apply_combination(tup, xs)
                w = eig_hermitian(combo).eigenvalues
                assert np.all(w >= alpha - 1e-9) and np.all(w <= 1.0 / alpha + 1e-9)


class TestTwoPointWitness:
    def test_forced(self):
        t = HermitianMatrix(np.diag([1.0, 3.0]))
        w = two_point_witness(t, HermitianMatrix(2 * np.eye(2)))
        assert specnorm(w.blocks[0].array - 0.5 * np.eye(2)) < 1e-14
        assert specnorm(w.blocks[-1].array - 0.5 * np.eye(2)) < 1e-14

    def test_min_corner(self):
        t = HermitianMatrix(np.diag([1.0, 3.0]))
        w = two_point_witness(t, HermitianMatrix(np.eye(2)))
        assert specnorm(w.blocks[0].array - np.eye(2)) < 1e-14
        assert specnorm(w.blocks[-1].array) < 1e-14

    def test_random_member_dim5(self):
        t = herm_with_eigs([-0.5, 0.1, 0.4, 1.0, 1.5], 10)
        x = herm_with_eigs([-0.3, 0.0, 0.2, 0.9, 1.4], 11)
        w = two_point_witness(t, x)
        check = w.validate(x)
        assert check.valid
        assert check.sum_defect <= 1e-10 and check.moment_defect <= 1e-10

    def test_degenerate_errors(self):
        t = HermitianMatrix(np.eye(2))
        with pytest.raises(InputError):
            two_point_witness(t, HermitianMatrix(np.diag([1.0, 2.0])))
        w = two_point_witness(t, HermitianMatrix(np.eye(2)))
        assert w.validate(HermitianMatrix(np.eye(2))).valid

    def test_outside_rejected(self):
        t = HermitianMatrix(np.diag([1.0, 3.0]))
        with pytest.raises(InputError):
            two_point_witness(t, HermitianMatrix(np.diag([0.0, 2.0])))

    def test_interval_feasible_always_admits_witness(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            lam = np.sort(rng.uniform(-1.0, 2.0, dim))
            if lam[-1] - lam[0] < 1e-6:
                continue
            t = herm_with_eigs(lam, int(rng.integers(1 << 30)))
            xe = rng.uniform(lam[0], lam[-1], dim)
            x = herm_with_eigs(xe, int(rng.integers(1 << 30)))
            assert two_point_witness(t, x).validate(x).valid

    def test_witness_converts_to_explicit_tuple(self):
        # a witness is not just a parametrization: it unpacks into actual
        # coefficients with sum C* T C = X
        from cstarlab import apply_combination, validate_tuple, witness_to_tuple

        rng = np.random.default_rng(32)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            lam = np.sort(rng.uniform(-1.0, 2.0, dim))
            if lam[-1] - lam[0] < 1e-3:
                continue
            t = herm_with_eigs(lam, int(rng.integers(1 << 30)))
            xe = rng.uniform(lam[0], lam[-1], dim)
            x = herm_with_eigs(xe, int(rng.integers(1 << 30)))
            tup = witness_to_tuple(t, two_point_witness(t, x))
            assert validate_tuple(tup).defect < 1e-10
            rebuilt = apply_combination(tup, [t] * tup.m)
            assert specnorm(rebuilt.array - x.array) < 1e-9


class TestSampleHullMember:
    def test_unitary_preserves_spectrum(self):
        t = herm_with_eigs([0.1, 0.7, 1.3], 12)
        member = sample_hull_member(t, sample_tuple(3, 1, 4))
        assert np.allclose(
            eig_hermitian(member).eigenvalues, eig_hermitian(t).eigenvalues, atol=1e-10
        )

    def test_scalar_weights_fixed_point(self):
        t = herm_with_eigs([0.1, 0.7], 13)
        tup_coeffs = [np.sqrt(0.4) * np.eye(2), np.sqrt(0.6) * np.eye(2)]
        from cstarlab import CoefficientTuple

        member = sample_hull_member(t, CoefficientTuple(tup_coeffs))
        assert specnorm(member.array - t.array) < 1e-12

    def test_invalid_tuple_rejected(self):
        from cstarlab import CoefficientTuple

        with pytest.raises(InputError):
            sample_hull_member(
                HermitianMatrix(np.eye(2)), CoefficientTuple([np.eye(2), np.eye(2)])
            )


class TestLchMembership:
    def test_self_membership(self):
        t = herm_with_eigs([0.5, 2.0, 3.0], 14)
        assert lch_membership(t, t).status == "member"

    def test_interval_reduction(self):
        t = HermitianMatrix(np.diag([1.0, 4.0]))
        assert lch_membership(t, HermitianMatrix(2 * np.eye(2))).status == "member"
        assert lch_membership(t, HermitianMatrix(0.5 * np.eye(2))).status == "non-member"

    def test_requires_positive(self):
        with pytest.raises(NonPositiveError):
            lch_membership(HermitianMatrix(np.diag([1.0, 0.0])), HermitianMatrix(np.eye(2)))


class TestHarmonicSplit:
    CASES = {
        "two-intervals": (0.5, 2.0, 1.0, 3.0),
        "x-point": (1.5, 1.5, 1.0, 3.0),
        "y-point": (0.5, 2.0, 2.0, 2.0),
        "both-points": (2.0, 2.0, 3.0, 3.0),
    }

    @pytest.mark.parametrize("bounds", CASES.values(), ids=CASES.keys())
    def test_inside_meets_parallel_sum(self, bounds):
        # each eigenvalue w in [p(a1, a2), p(b1, b2)] splits into x in
        # [a1, b1] and y in [a2, b2] on the diagonal path with p(x, y) = w
        a1, b1, a2, b2 = bounds
        lo, hi = _parallel_sum(a1, a2), _parallel_sum(b1, b2)
        w = np.linspace(lo, hi, 7)
        xs, ys, residual = _harmonic_split(w, a1, b1, a2, b2)
        assert residual < 1e-14
        assert np.allclose(_parallel_sum(xs, ys), w, rtol=0.0, atol=1e-14)
        assert np.all((a1 <= xs) & (xs <= b1)) and np.all((a2 <= ys) & (ys <= b2))
        # one path parameter t places both x and y
        if b1 > a1 and b2 > a2:
            assert np.allclose((xs - a1) / (b1 - a1), (ys - a2) / (b2 - a2), atol=1e-12)
        assert np.all(np.diff(xs) >= 0.0) and np.all(np.diff(ys) >= 0.0)

    @pytest.mark.parametrize("side", ("below", "above"))
    def test_outside_clips_to_path_end(self, side):
        # an eigenvalue outside the interval splits at the nearer end of the
        # path, and its residual is its distance from that end
        a1, b1, a2, b2 = self.CASES["two-intervals"]
        lo, hi = _parallel_sum(a1, a2), _parallel_sum(b1, b2)
        w = np.array([lo - 0.25]) if side == "below" else np.array([hi + 0.25])
        xs, ys, residual = _harmonic_split(w, a1, b1, a2, b2)
        end = (a1, a2) if side == "below" else (b1, b2)
        assert (xs[0], ys[0]) == pytest.approx(end, abs=1e-14)
        assert residual == pytest.approx(0.25, abs=1e-14)

    def test_stacked_spectra_one_residual_each(self):
        # a stack of spectra returns one residual per spectrum, the same as
        # splitting each spectrum alone
        a1, b1, a2, b2 = self.CASES["two-intervals"]
        lo, hi = _parallel_sum(a1, a2), _parallel_sum(b1, b2)
        rng = np.random.default_rng(31)
        w = np.sort(rng.uniform(lo - 0.1, hi + 0.1, (5, 3)), axis=-1)
        xs, ys, residual = _harmonic_split(w, a1, b1, a2, b2)
        assert xs.shape == ys.shape == (5, 3) and residual.shape == (5,)
        for row, r in zip(w, residual):
            assert _harmonic_split(row, a1, b1, a2, b2)[2] == r
        # each residual is the row's largest distance from [lo, hi]
        outside = np.max(np.maximum(lo - w, w - hi).clip(min=0.0), axis=-1)
        assert np.allclose(residual, outside, rtol=0.0, atol=1e-14)


class TestHarmonicSumClosure:
    def test_scalar_singleton(self):
        a, b = 2.0, 3.0
        v = harmonic_sum_closure_test(
            HermitianMatrix(a * np.eye(2)), HermitianMatrix(b * np.eye(2)), 50, seed=1
        )
        assert v.status == "no-violation-found"
        # the set collapses to the single parallel sum
        assert abs(_parallel_sum(a, b) - (a * b) / (a + b)) < 1e-15

    def test_random_dim3(self):
        t1 = sample_hermitian(3, SpectrumInterval(0.5, 2.0), 21)
        t2 = sample_hermitian(3, SpectrumInterval(1.0, 3.0), 22)
        v = harmonic_sum_closure_test(t1, t2, 300, seed=42)
        assert v.status == "no-violation-found"

    def test_unitary_combination_exact(self):
        # a single-unitary log-combination conjugates, so membership in the
        # harmonic-sum set is preserved exactly
        rng = np.random.default_rng(24)
        a1, b1, a2, b2 = 0.5, 2.0, 1.0, 3.0
        lo, hi = _parallel_sum(a1, a2), _parallel_sum(b1, b2)
        for _ in range(20):
            ux, uy = haar_unitary(3, rng), haar_unitary(3, rng)
            x = (ux * rng.uniform(a1, b1, 3)) @ ux.conj().T
            y = (uy * rng.uniform(a2, b2, 3)) @ uy.conj().T
            z = np.linalg.inv(np.linalg.inv(x) + np.linalg.inv(y))
            u = haar_unitary(3, rng)
            conj = u.conj().T @ z @ u
            w = np.linalg.eigvalsh(conj)
            assert np.all(w >= lo - 1e-10) and np.all(w <= hi + 1e-10)
            assert np.allclose(np.sort(w), np.sort(np.linalg.eigvalsh(z)), atol=1e-10)

    def test_interval_characterization_brute_force_dim2(self):
        # the harmonic-sum set of two interval hulls is itself an interval
        # set: every (X^{-1}+Y^{-1})^{-1} lands inside, and every matrix with
        # spectrum inside decomposes back into admissible parts, also when
        # one interval is a point and the decomposition's equation is linear
        rng = np.random.default_rng(23)
        for a1, b1, a2, b2 in ((0.5, 2.0, 1.0, 3.0), (1.5, 1.5, 1.0, 3.0), (0.5, 2.0, 2.0, 2.0)):
            lo, hi = _parallel_sum(a1, a2), _parallel_sum(b1, b2)
            for _ in range(200):
                ux, uy = haar_unitary(2, rng), haar_unitary(2, rng)
                x = (ux * rng.uniform(a1, b1, 2)) @ ux.conj().T
                y = (uy * rng.uniform(a2, b2, 2)) @ uy.conj().T
                z = np.linalg.inv(np.linalg.inv(x) + np.linalg.inv(y))
                w = np.linalg.eigvalsh(z)
                assert np.all(w >= lo - 1e-10) and np.all(w <= hi + 1e-10)
            for _ in range(200):
                uz = haar_unitary(2, rng)
                z = (uz * rng.uniform(lo, hi, 2)) @ uz.conj().T
                w, u = np.linalg.eigh(z)
                xw, yw, residual = _harmonic_split(w, a1, b1, a2, b2)
                xs, ys = (u * xw) @ u.conj().T, (u * yw) @ u.conj().T
                assert residual < 1e-10
                assert np.all(np.linalg.eigvalsh(xs) >= a1 - 1e-9)
                assert np.all(np.linalg.eigvalsh(xs) <= b1 + 1e-9)
                assert np.all(np.linalg.eigvalsh(ys) >= a2 - 1e-9)
                assert np.all(np.linalg.eigvalsh(ys) <= b2 + 1e-9)
                rebuilt = np.linalg.inv(np.linalg.inv(xs) + np.linalg.inv(ys))
                assert specnorm(rebuilt - z) < 1e-9

    def test_requires_positive(self):
        with pytest.raises(NonPositiveError):
            harmonic_sum_closure_test(
                HermitianMatrix(np.diag([1.0, -0.1])), HermitianMatrix(np.eye(2)), 10, seed=0
            )
