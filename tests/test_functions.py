import math

import numpy as np
import pytest

from cstarlab import InputError, catalog, parse_function
from cstarlab.functions import (
    CLASS_NEITHER,
    CLASS_OPERATOR_CONVEX,
    CLASS_OPERATOR_LOG_CONVEX,
    polynomial_function,
    power_function,
)


def test_catalog_labels():
    cat = catalog()
    for label in ("t", "t^1.5", "t^2", "t^4", "t^-1"):
        assert label in cat


def test_catalog_specs_are_built_once_and_each_call_gets_a_new_dict():
    first, second = catalog(), catalog()
    assert first is not second
    assert list(first) == ["t", "t^0.5", "t^1.5", "t^2", "t^3", "t^4", "t^-0.5", "t^-1"]
    assert all(first[label] is second[label] for label in first)
    first.clear()
    assert parse_function(" t^2 ") is parse_function("t^2") is second["t^2"]
    assert parse_function("t^2.5") is not parse_function("t^2.5")


@pytest.mark.parametrize(
    "alpha,expected,source",
    [
        (1.0, CLASS_OPERATOR_CONVEX, "literature"),
        (1.5, CLASS_OPERATOR_CONVEX, "literature"),
        (2.0, CLASS_OPERATOR_CONVEX, "literature"),
        (0.5, CLASS_NEITHER, "derived"),
        (3.0, CLASS_NEITHER, "derived"),
        (4.0, CLASS_NEITHER, "derived"),
        (-1.0, CLASS_OPERATOR_LOG_CONVEX, "derived"),
        (-0.5, CLASS_OPERATOR_LOG_CONVEX, "derived"),
        (-2.0, CLASS_NEITHER, "derived"),
    ],
)
def test_power_classification(alpha, expected, source):
    f = power_function(alpha)
    assert f.expected_class == expected
    assert f.class_source == source


def test_power_domains():
    assert parse_function("t^2").domain.lo == -math.inf
    f15 = parse_function("t^1.5")
    assert f15.domain.lo == 0.0 and not f15.domain.open_lo
    finv = parse_function("t^-1")
    assert finv.domain.lo == 0.0 and finv.domain.open_lo
    assert finv.positive_domain
    assert not parse_function("t^2").positive_domain


def test_evaluators_vectorized():
    f = parse_function("t^2")
    assert np.allclose(f.evaluator(np.array([1.0, 3.0])), [1.0, 9.0])
    c = parse_function("const:2.5")
    assert np.allclose(c.evaluator(np.array([0.0, 7.0])), [2.5, 2.5])


def test_polynomial_classification():
    assert polynomial_function([1.0, 2.0]).expected_class == CLASS_OPERATOR_CONVEX
    assert polynomial_function([0.0, 0.0, 3.0]).expected_class == CLASS_OPERATOR_CONVEX
    assert polynomial_function([0.0, 0.0, -1.0]).expected_class == CLASS_NEITHER
    assert polynomial_function([0.0, 0.0, 0.0, 1.0]).expected_class == CLASS_NEITHER


def test_polynomial_evaluator():
    f = parse_function("poly:1,0,2")  # 1 + 2 t^2
    assert np.allclose(f.evaluator(np.array([0.0, 2.0])), [1.0, 9.0])


def test_parse_errors():
    for bad in ("sin", "t^", "poly:", "const:abc", "const:-1",
                # non-finite parameters
                "t^nan", "t^inf", "t^-inf", "const:nan", "const:inf", "poly:1,nan", "poly:inf",
                "poly:1,-inf,0"):
        with pytest.raises(InputError):
            parse_function(bad)
