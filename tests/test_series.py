import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cobcalc.errors import (
    ConstantTermError,
    IndexOutOfRangeError,
    NotDivisibleError,
    NVarsMismatchError,
    PrecisionMismatchError,
)
from cobcalc.fgl import build_law
from cobcalc.sampling import random_homogeneous
from cobcalc.series import (
    Divisor,
    GradedSeries,
    complete_homogeneous,
    divide_exact,
    elementary_symmetric,
)

from .oracles import nested


def var(i, n=2, p=5):
    return GradedSeries.variable(i, n, p)


def test_add_cancellation():
    t1 = var(0)
    assert (t1 + (-t1)).is_zero()


def test_mul_basic():
    t1, t2 = var(0), var(1)
    prod = t1 * t2
    assert nested(prod) == {(1, 1): {(): 1}}
    assert prod.precision == 5


def test_product_of_chern_classes_is_monomial():
    ctx = build_law("universal:2", 3)
    x1 = ctx.formal_sum((1, 0))
    x2 = ctx.formal_sum((0, 1))
    assert nested(x1 * x2) == {(1, 1): {(): 1}}


def test_precision_rules():
    a = var(0, 2, 5)
    b = var(1, 2, 3)
    assert (a + b).precision == 3
    assert (a * b).precision == 3
    assert a.truncate(2).precision == 2
    assert a.truncate(9).precision == 5


def test_equality_requires_matching_precision():
    a = var(0, 2, 5)
    b = var(0, 2, 4)
    with pytest.raises(PrecisionMismatchError):
        a == b
    assert a.truncate(4) == b
    with pytest.raises(NVarsMismatchError):
        a == var(0, 3, 5)


def test_homogeneity():
    ctx = build_law("universal:3", 4)
    x = ctx.formal_sum((1, 1))
    assert x.is_homogeneous(1)
    t1, t2 = var(0, 2, 4), var(1, 2, 4)
    assert not (t1 + t1 * t2).is_homogeneous()
    assert GradedSeries.zero(2, 4).is_homogeneous()


def test_homogeneity_preserved_by_ring_ops():
    ctx = build_law("universal:4", 5)
    rng = Random(7)
    for _ in range(20):
        p = rng.randint(1, 3)
        q = rng.randint(1, 2)
        f = random_homogeneous(rng, ctx, 2, p)
        g = random_homogeneous(rng, ctx, 2, q)
        assert (f * g).is_homogeneous(p + q) or (f * g).is_zero()
        h = random_homogeneous(rng, ctx, 2, p)
        assert (f + h).is_homogeneous(p) or (f + h).is_zero()


def test_substitute_swap_symmetric():
    t1, t2 = var(0), var(1)
    f = t1 + t2
    assert f.substitute([t2, t1]) == f


def test_substitute_additive_character():
    ctx = build_law("additive", 5)
    image = ctx.formal_sum((1, -1))
    t1, t2 = var(0), var(1)
    assert GradedSeries.variable(0, 1, 5).substitute([image]) == t1 - t2


def test_substitute_doubling():
    ctx = build_law("universal:2", 3)
    f = GradedSeries.variable(0, 1, 3)
    image = ctx.k_series(2)
    got = f.substitute([image]).truncate(2)
    t = GradedSeries.variable(0, 1, 2)
    expected = (t.scale(2) + (t * t).scale({(1,): 2})).truncate(2)
    assert got == expected


def test_substitute_rejects_constant_term():
    t1 = var(0)
    img = t1 + GradedSeries.constant(1, 2, 5)
    with pytest.raises(ConstantTermError):
        t1.substitute([img, t1])


def test_divide_exact_factorization():
    t1, t2 = var(0), var(1)
    q = divide_exact(t1 * t1 - t2 * t2, t1 - t2)
    assert q == (t1 + t2).truncate(4)


def test_divide_exact_character_example():
    ctx = build_law("additive", 5)
    x_chi = ctx.formal_sum((1, 0))
    s_chi = ctx.formal_sum((0, 1))
    x_alpha = ctx.formal_sum((1, -1))
    q = divide_exact(x_chi - s_chi, x_alpha)
    assert q == GradedSeries.constant(1, 2, 4)


def test_divide_exact_not_divisible():
    t1, t2 = var(0), var(1)
    with pytest.raises(NotDivisibleError) as err:
        divide_exact(t1, t2)
    assert err.value.degree == 1


def test_divide_exact_roundtrip_property():
    ctx = build_law("universal:4", 5)
    rng = Random(12)
    for _ in range(25):
        f = random_homogeneous(rng, ctx, 2, rng.randint(1, 3))
        g = random_homogeneous(rng, ctx, 2, rng.randint(1, 2), b_free=True)
        if g.is_zero() or g.order() < 1:
            continue
        q = divide_exact(f * g, g)
        assert q.equals_truncated(f, q.precision)


def test_character_division_matches_generic():
    ctx = build_law("universal:4", 5)
    rng = Random(3)
    chi = (1, -1)
    x_chi = ctx.formal_sum(chi)
    for _ in range(10):
        f = random_homogeneous(rng, ctx, 2, rng.randint(1, 3))
        product = f * x_chi
        via_char = ctx.divide_by_character(product, chi)
        via_generic = divide_exact(product, x_chi)
        assert via_char.equals_truncated(via_generic)
        assert via_char.equals_truncated(f, via_char.precision)


def test_elementary_symmetric():
    t1, t2 = var(0), var(1)
    assert elementary_symmetric(2, [t1, t2]) == t1 * t2
    assert elementary_symmetric(1, [t1, t2]) == t1 + t2
    with pytest.raises(IndexOutOfRangeError):
        elementary_symmetric(3, [t1, t2])


def test_complete_homogeneous():
    t1, t2 = var(0), var(1)
    h2 = complete_homogeneous(2, [t1, t2])
    assert h2 == t1 * t1 + t1 * t2 + t2 * t2
    t = GradedSeries.variable(0, 1, 6)
    assert complete_homogeneous(4, [t]) == t ** 4
    assert complete_homogeneous(0, [t1, t2]) == GradedSeries.constant(1, 2, 5)


def test_formal_sum_basics():
    ctx = build_law("additive", 5)
    assert ctx.formal_sum((1, 0)) == var(0)
    assert ctx.formal_sum((1, -1)) == var(0) - var(1)
    uni = build_law("universal:2", 3)
    f = uni.formal_sum((1, 1)).truncate(2)
    t1, t2 = var(0, 2, 2), var(1, 2, 2)
    assert f == t1 + t2 + (t1 * t2).scale({(1,): 2})


def test_formal_sum_linear_term():
    ctx = build_law("universal:4", 5)
    rng = Random(5)
    for _ in range(10):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(3))
        x = ctx.formal_sum(coeffs)
        linear = {e: c for e, c in nested(x).items() if sum(e) == 1}
        expected = {
            tuple(1 if j == i else 0 for j in range(3)): {(): c}
            for i, c in enumerate(coeffs)
            if c
        }
        assert linear == expected


def test_formal_sum_fold_order_irrelevant():
    ctx = build_law("universal:4", 5)
    rng = Random(9)
    for _ in range(5):
        coeffs = [rng.randint(-2, 2) for _ in range(3)]
        x = ctx.formal_sum(coeffs)
        # fold in reverse order through explicit group-law substitution
        acc = GradedSeries.zero(3, ctx.precision)
        for i in reversed(range(3)):
            xi = ctx.k_series(coeffs[i]).substitute(
                [GradedSeries.variable(i, 3, ctx.precision)]
            )
            acc = xi if acc.is_zero() else ctx.group_law.substitute([acc, xi])
        assert acc == x


def test_wire_format_roundtrip():
    ctx = build_law("universal:3", 4)
    rng = Random(21)
    for _ in range(10):
        f = random_homogeneous(rng, ctx, 2, rng.randint(1, 3))
        blob = json.dumps(f.to_json(ctx.ngens), sort_keys=True)
        back = GradedSeries.from_json(json.loads(blob))
        assert back == f
        assert json.dumps(back.to_json(ctx.ngens), sort_keys=True) == blob


def test_wire_format_term_order():
    # canonical order: total t-degree first, then exponent-tuple comparison
    t1, t2 = var(0), var(1)
    f = t2 * t2 + t1 + t2
    rows = f.to_json(0)["terms"]
    assert [r["t"] for r in rows] == [[0, 1], [1, 0], [0, 2]]


def test_lemma_div_property_b2_g2():
    """Divisibility of f - s(f) by the root class holds on non-simply-laced
    data too, where long roots are primitive with non-unit leading entries."""
    from cobcalc.roots import build_root_datum, weyl_act

    for tag in ("b2", "g2"):
        datum = build_root_datum(tag)
        ctx = build_law("universal:4", 5)
        rng = Random(19)
        for _ in range(10):
            f = random_homogeneous(rng, ctx, datum.rank, rng.randint(1, 4))
            for beta in datum.positive_roots:
                s = datum.reflection_element(beta)
                diff = f - weyl_act(s, f, ctx, datum)
                q = ctx.divide_by_character(diff, beta)
                assert (q * ctx.formal_sum(beta)).equals_truncated(
                    diff, q.precision
                )


# -- coefficients in Z[b1, b2, ...] --------------------------------------------


def const(c, p=4):
    """A constant series in one variable with coefficient dict ``c``."""
    return GradedSeries.from_terms(1, p, {(0,): c})


def test_mixed_length_b_exponents_multiply():
    # 2 b1 * 5 b3 = 10 b1 b3, keys trimmed to different lengths
    assert nested(const({(1,): 2}) * const({(0, 0, 1): 5})) == {(0,): {(1, 0, 1): 10}}
    t = GradedSeries.variable(0, 1, 4)
    assert nested(t.scale({(1,): 2}) * t.scale({(): 3, (0, 1): 1})) == {
        (2,): {(1,): 6, (1, 1): 2}
    }


def test_division_by_non_unit_leading_value():
    t = GradedSeries.variable(0, 1, 4)
    q = divide_exact(t.scale(3), t.scale(2))
    assert q == GradedSeries.constant(Fraction(3, 2), 1, 3)
    assert q.to_json()["terms"][0]["c"] == "3/2"
    # (b1 + 2)(b1^2 - 3) / (b1 + 2) = b1^2 - 3, with int values
    num = const({(1,): 1, (): 2}) * const({(2,): 1, (): -3})
    q = divide_exact(num, const({(1,): 1, (): 2}))
    assert q == const({(2,): 1, (): -3})
    assert all(type(v) is int for _, _, v in q.items())


def test_b2_not_divisible_by_b1():
    t = GradedSeries.variable(0, 1, 4)
    with pytest.raises(NotDivisibleError) as err:
        divide_exact(t.scale({(0, 1): 1}), t.scale({(1,): 1}))
    assert err.value.degree == 1


def test_specialize_b_zero_keeps_the_b_free_part():
    t = GradedSeries.variable(0, 1, 4)
    f = t.scale({(): 4, (1,): 7}) + (t * t).scale({(2,): 1})
    assert nested(f.specialize_b_zero()) == {(1,): {(): 4}}


def test_wire_format_normalises_integral_fractions():
    row = {"t": [1], "b": [1, 0], "c": "4/2"}
    f = GradedSeries.from_json({"nvars": 1, "precision": 3, "terms": [row]})
    assert nested(f) == {(1,): {(1,): 2}}
    assert f.to_json(2)["terms"] == [{"t": [1], "b": [1, 0], "c": "2"}]
    # b1 written with and without a trailing zero is one monomial
    rows = [{"t": [1], "b": [1, 0], "c": "2"}, {"t": [1], "b": [1], "c": "-2"}]
    assert GradedSeries.from_json({"nvars": 1, "precision": 3, "terms": rows}).is_zero()


# -- ring-law properties -------------------------------------------------------

NV, PREC = 2, 4
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _trim(exp):
    exp = list(exp)
    while exp and exp[-1] == 0:
        exp.pop()
    return tuple(exp)


_coeffs = st.dictionaries(
    st.lists(st.integers(0, 2), max_size=3).map(_trim),
    st.integers(-3, 3).filter(bool),
    min_size=1,
    max_size=3,
)
_texps = st.tuples(st.integers(0, PREC), st.integers(0, PREC)).filter(
    lambda e: sum(e) <= PREC
)
series = st.dictionaries(_texps, _coeffs, max_size=4).map(
    lambda terms: GradedSeries.from_terms(NV, PREC, terms)
)


@PROPERTY
@given(series, series, series)
def test_ring_laws(f, g, h):
    before = [nested(x) for x in (f, g, h)]
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f + g) - g == f
    # results never change their inputs
    assert [nested(x) for x in (f, g, h)] == before


def _with_leading_coefficient(g: GradedSeries, c: dict) -> GradedSeries:
    """g with the coefficient of the lex-leading term of its lowest
    component replaced by c (g = c * t1 when g is zero)."""
    if g.is_zero():
        return GradedSeries.from_terms(NV, PREC, {(1, 0): c})
    m = g.order()
    lead = max(e for e in nested(g) if sum(e) == m)
    return GradedSeries.from_terms(NV, PREC, {**nested(g), lead: c})


_monomial_coeffs = _coeffs.filter(lambda c: len(c) == 1)
_polynomial_coeffs = _coeffs.filter(lambda c: len(c) > 1)
# divisors whose leading coefficient is one b-monomial, +-1 among them
# (whole-coefficient steps), and divisors where it is not (one term per step)
divisors = st.one_of(
    st.builds(_with_leading_coefficient, series, st.sampled_from([{(): 1}, {(): -1}])),
    st.builds(_with_leading_coefficient, series, _monomial_coeffs),
    st.builds(_with_leading_coefficient, series, _polynomial_coeffs),
)


@PROPERTY
@given(series, divisors, st.booleans(), st.integers(1, 3))
@example(  # (b1 + 2) * t1
    f=GradedSeries.from_terms(NV, PREC, {(1, 1): {(1,): 3, (): -1}, (0, 2): {(): 2}}),
    g=GradedSeries.from_terms(NV, PREC, {(1, 0): {(1,): 1, (): 2}}),
    rational=False,
    den=1,
)
@example(  # 3 * b1 * t1 + t2^2
    f=GradedSeries.from_terms(NV, PREC, {(2, 0): {(1,): 1}, (1, 1): {(): 2}}),
    g=GradedSeries.from_terms(NV, PREC, {(1, 0): {(1,): 3}, (0, 2): {(): 1}}),
    rational=True,
    den=2,
)
def test_divide_exact_inverts_multiplication(f, g, rational, den):
    if rational:
        f = f.scale(Fraction(1, den))
    product = f * g
    before = nested(product)
    q = divide_exact(product, g)
    assert q == f.truncate(q.precision)
    assert divide_exact(product, Divisor(g)) == q
    assert nested(product) == before


@PROPERTY
@given(series, st.integers(2, 4))
def test_wire_format_roundtrip_property(f, ngens):
    assert GradedSeries.from_json(f.to_json()) == f
    assert GradedSeries.from_json(json.loads(json.dumps(f.to_json(ngens)))) == f


@PROPERTY
@given(series)
def test_identity_substitution(f):
    assert f.substitute([var(i, NV, PREC) for i in range(NV)]) == f
