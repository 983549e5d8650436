"""The falsifiers' draws keep the stream of the sampler they replaced.

The reference functions below are the former samplers, kept here only: one
`standard_normal` call per generator for each Ginibre matrix, one
`uniform(lo, hi, dim)` call per generator for each Hermitian operand (one
scalar `uniform(lo, hi)` per candidate eigenvalue for a sublevel member),
and one Haar QR per operand. The stacked single-pass draws must give the same
arrays bit for bit and leave every generator in the same state.
"""

import numpy as np
import pytest

from cstarlab import InputError, SpectrumInterval
from cstarlab.combinations import _MAX_KRAUS, _sample_families, _sample_tuple_arrs
from cstarlab.convexity import _round_windows, _sample_rngs, _sublevel_draws, _tuple_draws
from cstarlab.hermitian import _rand_hermitians

CHUNKS = (1, 16, 219)


def ref_haar(rows, cols, rngs):
    parts = np.array([rng.standard_normal((2, rows, cols)) for rng in rngs])
    q, r = np.linalg.qr(parts[:, 0] + 1j * parts[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def ref_rand_hermitian(dim, lo, hi, rngs):
    u = ref_haar(dim, dim, rngs)
    if np.isscalar(lo):
        lo, hi = [lo] * len(rngs), [hi] * len(rngs)
    w = np.array([rng.uniform(a, b, size=dim) for rng, a, b in zip(rngs, lo, hi)])
    a = (u * w[..., None, :]) @ u.conj().mT
    return (a + a.conj().mT) / 2.0


def ref_sample_families(dim, m, rngs):
    sizes = np.array([[int(rng.integers(1, _MAX_KRAUS + 1)) for _ in range(m)] for rng in rngs])
    totals = sizes.sum(axis=1)
    kraus = np.zeros((m, _MAX_KRAUS, len(rngs), dim, dim), dtype=np.complex128)
    for total in dict.fromkeys(totals.tolist()):
        group = np.flatnonzero(totals == total)
        blocks = ref_haar(total * dim, dim, [rngs[j] for j in group])
        blocks = blocks.reshape(len(group), total, dim, dim)
        for pos, j in enumerate(group):
            at = 0
            for i, size in enumerate(sizes[j].tolist()):
                kraus[i, :size, j] = blocks[pos, at : at + size]
                at += size
    flips = np.array([[rng.random() < 0.5 for _ in range(m)] for rng in rngs])
    return kraus, flips, sizes


def ref_feasible_eigs(rng, lo, hi, dim, feasible):
    eigs = []
    rejects = 0
    while len(eigs) < dim:
        t = float(rng.uniform(lo, hi))
        if feasible(t):
            eigs.append(t)
        else:
            rejects += 1
            if rejects > 200 * dim:
                raise InputError("sublevel bounds are infeasible over the sampled window")
    return eigs


def ref_sublevel_draws(rngs, dim, m, windows, feasible):
    coeffs = _sample_tuple_arrs(dim, m, rngs)
    xs = []
    for _ in range(m):
        eigs = [ref_feasible_eigs(rng, lo, hi, dim, feasible) for rng, (lo, hi) in zip(rngs, windows)]
        u = ref_haar(dim, dim, rngs)
        a = (u * np.array(eigs)[..., None, :]) @ u.conj().mT
        xs.append((a + a.conj().mT) / 2.0)
    return coeffs, xs


def twin_rngs(n, seed):
    """Two lists of generators with identical streams."""
    return [_sample_rngs(seed, 2, range(1, 1 + n)) for _ in range(2)]


def assert_same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_same_states(rngs, ref_rngs):
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]


def windows(n, seed):
    """Per-sample windows: ordinary, negative, and as narrow as 1e-12."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-50.0, 50.0, n)
    width = 10.0 ** rng.uniform(-12.0, 2.0, n)
    return lo, lo + width


@pytest.mark.parametrize("n", CHUNKS)
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_hermitians_match_the_former_sampler(count, dim, n):
    seed = 100 * count + 10 * dim + n
    per_sample = windows(n, seed)
    for lo, hi in [(0.5, 4.0), (-3.5, -0.25), (1.0, 1.0 + 1e-12), per_sample]:
        rngs, ref_rngs = twin_rngs(n, seed)
        got = _rand_hermitians(count, dim, lo, hi, rngs)
        want = np.array([ref_rand_hermitian(dim, lo, hi, ref_rngs) for _ in range(count)])
        assert_same(got, want)
        assert_same_states(rngs, ref_rngs)


@pytest.mark.parametrize("n", CHUNKS)
@pytest.mark.parametrize("dim, m", [(1, 1), (2, 3), (3, 2), (4, 1)])
def test_one_pass_of_tuple_operands_and_noise_matches(dim, m, n):
    lo, hi = windows(n, 7 * n + dim)
    for noise in (False, True):
        rngs, ref_rngs = twin_rngs(n, 31 * dim + m)
        coeffs, xs, z = _tuple_draws(rngs, dim, m, lo, hi, noise=noise)
        q = ref_haar(m * dim, dim, ref_rngs)
        for i, c in enumerate(coeffs):
            assert_same(c, q[:, i * dim : (i + 1) * dim])
        assert_same(xs, [ref_rand_hermitian(dim, lo, hi, ref_rngs) for _ in range(m)])
        if noise:
            assert_same(z, [[rng.standard_normal((2, dim, dim)) for rng in ref_rngs]
                            for _ in range(m)])
        else:
            assert z is None
        assert_same_states(rngs, ref_rngs)


@pytest.mark.parametrize("n", CHUNKS)
def test_harmonic_operand_pairs_match(n):
    # harmonic-sum draws X_i in [a1, b1], then Y_i in [a2, b2], for each i
    dim, m, (a1, b1), (a2, b2) = 2, 3, (1.0, 5.0), (0.3, 1.2)
    rngs, ref_rngs = twin_rngs(n, 5)
    _, xys, _ = _tuple_draws(rngs, dim, m, [[a1], [a2]] * m, [[b1], [b2]] * m, count=2 * m)
    ref_haar(m * dim, dim, ref_rngs)
    want = []
    for _ in range(m):
        want += [ref_rand_hermitian(dim, a1, b1, ref_rngs), ref_rand_hermitian(dim, a2, b2, ref_rngs)]
    assert_same(xys, want)
    assert_same_states(rngs, ref_rngs)


@pytest.mark.parametrize("n", CHUNKS)
@pytest.mark.parametrize("dim, m", [(1, 1), (2, 2), (3, 3), (4, 2)])
def test_map_families_match_the_former_sampler(dim, m, n):
    for seed in (11 * dim + m, 11 * dim + m + 100, 11 * dim + m + 200):
        rngs, ref_rngs = twin_rngs(n, seed)
        family, sizes = _sample_families(dim, m, rngs)
        kraus, flips, ref_sizes = ref_sample_families(dim, m, ref_rngs)
        assert_same(sizes, ref_sizes)
        for i, phi in enumerate(family.maps):
            assert_same(phi.kraus, kraus[i])
            assert_same(phi.transpose, flips[:, i])
        assert_same_states(rngs, ref_rngs)


def test_uniform_is_lo_plus_width_times_random():
    # numpy's uniform(lo, hi, k) is lo + (hi - lo) * random(k), bit for bit
    pick = np.random.default_rng(2024)
    for trial in range(10_000):
        lo = pick.standard_normal() * 10.0 ** pick.integers(-12, 13)
        hi = lo + abs(pick.standard_normal()) * 10.0 ** pick.integers(-12, 13) * (trial % 10 != 0)
        k = int(pick.integers(1, 6))
        a, b = np.random.default_rng(trial), np.random.default_rng(trial)
        assert_same(lo + (hi - lo) * a.random(k), b.uniform(lo, hi, k))


# the joint domain (0, inf) of t^2 <= 4 and t^-1 <= 3, whose feasible set
# [1/3, 2] covers from 67% of the first round's window to 10% of the last's
SUBLEVEL_WINDOWS = _round_windows(SpectrumInterval(0.0, open_lo=True), 300)


def sublevel_feasible(t):
    return t * t <= 4.0 and 1.0 / t <= 3.0


@pytest.mark.parametrize("n", CHUNKS)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_sublevel_members_match_the_former_sampler(m, dim, n):
    # chunks that start in each escalation round; 219 from 81 spans all three
    for start in ((81,) if n == 219 else (0, 100, 200)):
        windows = SUBLEVEL_WINDOWS(range(start, start + n))
        rngs, ref_rngs = twin_rngs(n, 1000 * m + 10 * dim + start)
        coeffs, xs = _sublevel_draws(rngs, dim, m, windows, sublevel_feasible)
        ref_coeffs, ref_xs = ref_sublevel_draws(ref_rngs, dim, m, windows, sublevel_feasible)
        assert_same(coeffs, ref_coeffs)
        assert_same(xs, ref_xs)
        assert_same_states(rngs, ref_rngs)


@pytest.mark.parametrize("n", CHUNKS)
def test_infeasible_sublevel_bounds_raise_as_before(n):
    # a feasible set of 1/300 of the window: some samples find their
    # eigenvalues within 200 * dim rejections, others raise
    dim, m, windows = 2, 2, [(0.01, 1.0)] * n

    def narrow(t):
        return 0.5 <= t <= 0.5 + 0.99 / 300

    def outcome(draw, rngs):
        try:
            return draw(rngs, dim, m, windows, narrow), None
        except InputError as exc:
            return None, str(exc)

    # each sample alone, as the sampling loop reruns a chunk that raised
    rngs, ref_rngs = twin_rngs(n, 77)
    raised = []
    for j in range(n):
        got, message = outcome(_sublevel_draws, rngs[j : j + 1])
        want, ref_message = outcome(ref_sublevel_draws, ref_rngs[j : j + 1])
        assert message == ref_message
        if message is None:
            assert_same(got[1], want[1])
        raised.append(message is not None)
    assert_same_states(rngs, ref_rngs)
    # the whole chunk raises the same message iff one of its samples does
    rngs, ref_rngs = twin_rngs(n, 77)
    message = outcome(_sublevel_draws, rngs)[1]
    assert message == outcome(ref_sublevel_draws, ref_rngs)[1]
    assert (message is not None) == any(raised)
    if n > 1:
        assert 0 < sum(raised) < n
