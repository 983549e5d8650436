import numpy as np
import pytest

from cstarlab import HermitianMatrix, SpectrumInterval, sample_hermitian


@pytest.fixture
def rand_herm():
    def make(dim, lo, hi, seed):
        return sample_hermitian(dim, SpectrumInterval(lo, hi), seed)

    return make


def mineig(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a)[0])


def specnorm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def wrap(a) -> HermitianMatrix:
    return HermitianMatrix(a)


def non_native_leaves(obj, path="$") -> list:
    """Where a tree of dicts and lists holds a leaf that is not exactly a
    str, int, float, bool or None, or a key that is not a str: the values
    that `json.loads` gives back."""
    if type(obj) is dict:
        bad = [f"{path} key {k!r}" for k in obj if type(k) is not str]
        return bad + [p for k, v in obj.items() for p in non_native_leaves(v, f"{path}.{k}")]
    if type(obj) is list:
        return [p for i, v in enumerate(obj) for p in non_native_leaves(v, f"{path}[{i}]")]
    return [] if type(obj) in (str, int, float, bool, type(None)) else [f"{path}: {type(obj)}"]
