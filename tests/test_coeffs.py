"""Coefficients in Z[b1, b2, ...]: each t-coefficient of a series is a dict
{trimmed b-exponent: int | Fraction} with no zero values."""

from fractions import Fraction

from cobcalc.series import GradedSeries

from .oracles import _trim, _weight, nested


def const(c, p=4):
    """A constant series in one variable with coefficient dict ``c``."""
    return GradedSeries.from_terms(1, p, {(0,): c})


def test_trim_and_weight():
    assert _trim((1, 0, 0)) == (1,)
    assert _trim((0, 0)) == ()
    assert _weight((2, 1)) == 4  # b1^2 b2
    assert _weight(()) == 0
    rows = [{"t": [0], "b": [0, 0], "c": "5"}, {"t": [1], "b": [0, 1, 0], "c": "2"}]
    f = GradedSeries.from_json({"nvars": 1, "precision": 3, "terms": rows})
    assert nested(f) == {(0,): {(): 5}, (1,): {(0, 1): 2}}


def test_arithmetic():
    b1 = const({(1,): 1})
    b2 = const({(0, 1): 1})
    c = b1 * b1 + b2.scale(3)
    assert nested(c) == {(0,): {(2,): 1, (0, 1): 3}}
    assert (c - c).is_zero()
    assert c * GradedSeries.constant(1, 1, 4) == c
    assert (-c) + c == GradedSeries.zero(1, 4)
    t = GradedSeries.variable(0, 1, 4)
    f = t.scale({(2,): 1, (0, 1): 3})  # (b1^2 + 3 b2) t
    assert nested(f - f) == {}
    assert nested(f + t.scale({(2,): -1})) == {(1,): {(0, 1): 3}}


def test_equality_with_scalars():
    assert GradedSeries.constant(7, 1, 4) == const({(): 7})
    assert GradedSeries.constant(Fraction(7), 1, 4) == const({(): 7})
    assert nested(GradedSeries.constant(0, 1, 4)) == {}
    assert const({(1,): 1}) != GradedSeries.constant(1, 1, 4)


def test_weights():
    # b_i has weight i: b1^2 b2 weighs 4, b2^2 weighs 4, b1 weighs 1
    assert GradedSeries.from_terms(1, 6, {(4,): {(2, 1): 1}}).homogeneous_degree() == 0
    mixed_weights = GradedSeries.from_terms(1, 6, {(2,): {(1,): 1}, (5,): {(0, 2): 1}})
    assert mixed_weights.homogeneous_degree() == 1
    mixed = GradedSeries.from_terms(1, 6, {(2,): {(1,): 1, (0, 2): 1}})
    assert mixed.homogeneous_degree() is None
