import math

import numpy as np
import pytest

from dualflow.quadrature import interval_rule, triangle_rule


def reference_monomial_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_weights_sum_to_reference_area():
    for d in range(1, 11):
        _, weights = triangle_rule(d)
        assert abs(weights.sum() - 0.5) < 1e-14
        assert np.all(weights > 0)


def test_constant_integral():
    _, weights = triangle_rule(2)
    assert abs(np.sum(weights) - 0.5) < 1e-15


def test_linear_integral():
    points, weights = triangle_rule(1)
    val = np.sum(weights * points[:, 0])
    assert abs(val - 1.0 / 6.0) < 1e-15


def test_x2y2_integral():
    points, weights = triangle_rule(4)
    x, y = points[:, 0], points[:, 1]
    val = np.sum(weights * x**2 * y**2)
    assert abs(val - 1.0 / 180.0) < 1e-15


@pytest.mark.parametrize("degree", range(1, 11))
def test_exactness_all_monomials(degree):
    points, weights = triangle_rule(degree)
    x, y = points[:, 0], points[:, 1]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.sum(weights * x**a * y**b)
            exact = reference_monomial_integral(a, b)
            assert abs(val - exact) < 1e-14, (a, b)


def test_interval_rule_exactness():
    for d in range(1, 9):
        t, w = interval_rule(d)
        for p in range(d + 1):
            assert abs(np.sum(w * t**p) - 1.0 / (p + 1)) < 1e-14
