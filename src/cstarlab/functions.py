"""Named scalar functions with domains and expected operator-convexity class.

The catalog carries, for each function, the classification the test suites
are expected to reproduce. `class_source` records whether that expectation
is established in the operator-inequality literature or was derived with
this package's own falsifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError
from .hermitian import SpectrumInterval

__all__ = [
    "ScalarFunctionSpec",
    "CLASS_OPERATOR_CONVEX",
    "CLASS_OPERATOR_LOG_CONVEX",
    "CLASS_NEITHER",
    "CLASS_UNKNOWN",
    "catalog",
    "parse_function",
    "power_function",
    "constant_function",
    "polynomial_function",
]

CLASS_OPERATOR_CONVEX = "operator-convex"
CLASS_OPERATOR_LOG_CONVEX = "operator-log-convex"
CLASS_NEITHER = "neither"
CLASS_UNKNOWN = "unknown"

_CLASSES = (
    CLASS_OPERATOR_CONVEX,
    CLASS_OPERATOR_LOG_CONVEX,
    CLASS_NEITHER,
    CLASS_UNKNOWN,
)

REALS = SpectrumInterval()
NONNEGATIVE = SpectrumInterval(lo=0.0)
POSITIVE = SpectrumInterval(lo=0.0, open_lo=True)


@dataclass(frozen=True, eq=False)
class ScalarFunctionSpec:
    """A real scalar function with its domain and expected classification.

    The evaluator must accept numpy arrays elementwise. Log-convexity
    candidates must map (0, inf) into (0, inf).
    """

    label: str
    domain: SpectrumInterval
    evaluator: Callable
    expected_class: str = CLASS_UNKNOWN
    class_source: str = "derived"  # 'literature' or 'derived'

    def __post_init__(self):
        if self.expected_class not in _CLASSES:
            raise InputError(f"unknown classification {self.expected_class!r}")

    @property
    def positive_domain(self) -> bool:
        """True when the natural domain is exactly the positive half-line."""
        return (
            self.domain.lo == 0.0
            and self.domain.open_lo
            and not math.isfinite(self.domain.hi)
        )

    def __repr__(self):
        return f"ScalarFunctionSpec({self.label!r})"


def _power_class(alpha: float) -> tuple[str, str]:
    # t^a is operator convex exactly for a in [-1, 0] U [1, 2]; on the
    # negative part it is also operator monotone decreasing, hence
    # operator log-convex.
    if alpha == 0.0:
        return CLASS_OPERATOR_CONVEX, "derived"
    if 1.0 <= alpha <= 2.0:
        return CLASS_OPERATOR_CONVEX, "literature"
    if -1.0 <= alpha < 0.0:
        return CLASS_OPERATOR_LOG_CONVEX, "derived"
    return CLASS_NEITHER, "derived"


def power_function(alpha: float) -> ScalarFunctionSpec:
    """t^alpha on its natural domain.

    Nonnegative integer powers live on the whole real line, fractional
    positive powers on [0, inf), negative powers on (0, inf).
    """
    _require_finite("exponent", alpha)
    if alpha < 0:
        domain = POSITIVE
    elif float(alpha).is_integer():
        domain = REALS
    else:
        domain = NONNEGATIVE
    expected, source = _power_class(float(alpha))
    label = f"t^{_fmt_exp(alpha)}" if alpha != 1.0 else "t"
    return ScalarFunctionSpec(
        label=label,
        domain=domain,
        evaluator=lambda t, a=float(alpha): np.power(np.asarray(t, float), a),
        expected_class=expected,
        class_source=source,
    )


def _require_finite(name: str, value: float) -> None:
    """`InputError` unless the parameter `value` is finite."""
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {value!r}")


def _fmt_exp(alpha: float) -> str:
    return str(int(alpha)) if float(alpha).is_integer() else repr(float(alpha))


def constant_function(c: float) -> ScalarFunctionSpec:
    _require_finite("constant", c)
    if c <= 0:
        # keep log suites meaningful; nonpositive constants are rejected
        raise InputError("constant functions must be positive")
    return ScalarFunctionSpec(
        label=f"const:{c!r}",
        domain=REALS,
        evaluator=lambda t, c=float(c): np.full_like(np.asarray(t, float), c),
        expected_class=CLASS_OPERATOR_CONVEX,
        class_source="derived",
    )


def polynomial_function(coeffs) -> ScalarFunctionSpec:
    """Polynomial sum(coeffs[k] * t^k) on the real line.

    Degree <= 1 is affine, hence operator convex; degree 2 is operator
    convex iff the leading coefficient is nonnegative; on the whole line
    nothing of degree >= 3 is operator convex.
    """
    cs = [float(c) for c in coeffs]
    if not cs:
        raise InputError("polynomial needs at least one coefficient")
    for c in cs:
        _require_finite("coefficient", c)
    while len(cs) > 1 and cs[-1] == 0.0:
        cs.pop()
    deg = len(cs) - 1
    if deg <= 1 or (deg == 2 and cs[2] >= 0):
        expected = CLASS_OPERATOR_CONVEX
    else:
        expected = CLASS_NEITHER
    label = "poly:" + ",".join(repr(c) for c in cs)
    rev = list(reversed(cs))
    return ScalarFunctionSpec(
        label=label,
        domain=REALS,
        evaluator=lambda t, rev=tuple(rev): np.polyval(rev, np.asarray(t, float)),
        expected_class=expected,
        class_source="derived",
    )


_CATALOG = {f.label: f for f in map(power_function, (1.0, 0.5, 1.5, 2.0, 3.0, 4.0, -0.5, -1.0))}


def catalog() -> dict[str, ScalarFunctionSpec]:
    """The built-in function catalog, keyed by label; a new dict per call."""
    return dict(_CATALOG)


def parse_function(label: str) -> ScalarFunctionSpec:
    """Resolve a label: catalog entry, `t^<float>`, `const:<c>`, or
    `poly:<c0,c1,...>` (ascending-degree coefficients)."""
    label = label.strip()
    if label in _CATALOG:
        return _CATALOG[label]
    if label.startswith("t^"):
        try:
            return power_function(float(label[2:]))
        except ValueError:
            raise InputError(f"bad power spec {label!r}") from None
    if label.startswith("const:"):
        try:
            return constant_function(float(label[6:]))
        except ValueError:
            raise InputError(f"bad constant spec {label!r}") from None
    if label.startswith("poly:"):
        try:
            return polynomial_function([float(c) for c in label[5:].split(",")])
        except ValueError:
            raise InputError(f"bad polynomial spec {label!r}") from None
    raise InputError(f"unknown function label {label!r}")
