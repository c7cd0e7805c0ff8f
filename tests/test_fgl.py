import pytest
import sympy

from cobcalc.errors import (
    CobcalcError,
    InsufficientGeneratorsError,
    NonPrimitiveCharacterError,
    PrecisionTooSmallError,
)
from cobcalc.fgl import (
    LawSpec,
    build_law,
    fgl_axiom_report,
    inverse_series,
    k_series,
    kappa_series,
)
from cobcalc.series import GradedSeries


def test_law_spec_parsing():
    assert LawSpec.parse("additive").canonical() == "additive"
    assert LawSpec.parse("multiplicative").canonical() == "multiplicative:1"
    assert LawSpec.parse("multiplicative:2").scale == 2
    assert LawSpec.parse("universal:4").ngens == 4


def test_preconditions():
    with pytest.raises(PrecisionTooSmallError):
        build_law("additive", 0)
    with pytest.raises(InsufficientGeneratorsError):
        build_law("universal:2", 6)
    build_law("universal:2", 2)  # N = D - 1 + 1 is fine
    build_law("universal:1", 2)  # N = D - 1 exactly


def test_additive_law():
    ctx = build_law("additive", 5)
    x = GradedSeries.variable(0, 2, 5)
    y = GradedSeries.variable(1, 2, 5)
    assert ctx.group_law == x + y
    assert inverse_series(ctx) == -GradedSeries.variable(0, 1, 5)
    assert kappa_series(ctx).is_zero()


def test_multiplicative_law():
    ctx = build_law("multiplicative", 3)
    x = GradedSeries.variable(0, 2, 3)
    y = GradedSeries.variable(1, 2, 3)
    beta = {(1,): 1}
    assert ctx.group_law == x + y - (x * y).scale(beta)
    t = GradedSeries.variable(0, 1, 3)
    # iota = -x - beta x^2 - beta^2 x^3
    assert inverse_series(ctx) == -t - (t ** 2).scale(beta) - (t ** 3).scale(
        {(2,): 1}
    )
    # kappa is the constant beta
    assert kappa_series(ctx) == GradedSeries(1, ctx.precision - 1, {(0,): beta})
    # [2](x) = 2x - beta x^2
    assert k_series(ctx, 2) == t.scale(2) - (t ** 2).scale(beta)


def _sympy_universal_law(ngens: int, degree: int):
    """Independent expansion of B(Binv(x) + Binv(y)) by series reversion."""
    bs = sympy.symbols(f"b1:{ngens + 1}")
    x, y, u = sympy.symbols("x y u")

    def b_poly(t):
        return t + sum(bs[i] * t ** (i + 2) for i in range(ngens))

    # reversion by undetermined coefficients
    cs = sympy.symbols(f"c2:{degree + 2}")
    binv = u + sum(cs[i] * u ** (i + 2) for i in range(degree))
    comp = sympy.expand(b_poly(binv))
    comp = comp + sympy.O(u ** (degree + 2))
    sol = {}
    series = sympy.Poly(comp.removeO(), u)
    eqs = []
    for k in range(2, degree + 2):
        eqs.append(series.coeff_monomial(u ** k))
    sol = sympy.solve(eqs, cs, dict=True)[0]
    binv = binv.subs(sol)
    f = sympy.expand(b_poly(binv.subs(u, x) + binv.subs(u, y)))
    out = {}
    poly = sympy.Poly(f, x, y, *bs)
    for monom, coef in poly.terms():
        ex, ey = monom[0], monom[1]
        if ex + ey > degree:
            continue
        bexp = monom[2:]
        out[((ex, ey), tuple(bexp))] = out.get(((ex, ey), tuple(bexp)), 0) + int(coef)
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("ngens,degree", [(1, 2), (2, 3), (3, 4)])
def test_universal_law_against_sympy_reversion(ngens, degree):
    ctx = build_law(f"universal:{ngens}", degree)
    got = {}
    for e, c in ctx.group_law.terms.items():
        for bexp, val in c.items():
            padded = tuple(bexp) + (0,) * (ngens - len(bexp))
            got[(e, padded)] = val
    assert got == _sympy_universal_law(ngens, degree)


def test_universal_2_frozen_values():
    ctx = build_law("universal:2", 2)
    t1, t2 = GradedSeries.variable(0, 2, 2), GradedSeries.variable(1, 2, 2)
    two_b1 = {(1,): 2}
    assert ctx.group_law == t1 + t2 + (t1 * t2).scale(two_b1)
    u = GradedSeries.variable(0, 1, 2)
    assert inverse_series(ctx) == -u + (u * u).scale(two_b1)
    # kappa's constant term: forced by kappa * x * iota = x + iota, so -2 b1
    assert kappa_series(ctx).terms[(0,)] == {(1,): -2}


def test_k_series():
    ctx = build_law("universal:4", 5)
    u = GradedSeries.variable(0, 1, 5)
    assert k_series(ctx, 1) == u
    assert k_series(ctx, 0).is_zero()
    assert k_series(ctx, -1) == inverse_series(ctx)
    for k, m in [(2, 2), (-1, 3), (-2, -2), (4, -3)]:
        lhs = k_series(ctx, k + m)
        rhs = ctx.group_law.substitute([k_series(ctx, k), k_series(ctx, m)])
        assert lhs == rhs


def test_axiom_report_all_laws():
    for law in ("additive", "multiplicative", "universal:4"):
        report = fgl_axiom_report(build_law(law, 5))
        assert all(c["pass"] for c in report), report


def test_kappa_identity_precision():
    ctx = build_law("universal:4", 5)
    kap = kappa_series(ctx)
    assert kap.precision == ctx.precision - 1
    u = GradedSeries.variable(0, 1, ctx.precision)
    lhs = kap * u * inverse_series(ctx)
    rhs = (u + inverse_series(ctx)).truncate(lhs.precision)
    assert lhs == rhs


def test_specialization_to_additive():
    ctx = build_law("universal:4", 5)
    add = build_law("additive", 5)
    assert ctx.group_law.specialize_b_zero() == add.group_law
    assert inverse_series(ctx).specialize_b_zero() == inverse_series(add)
    assert kappa_series(ctx).specialize_b_zero() == kappa_series(add)
    x = ctx.formal_sum((2, -1, 1))
    assert x.specialize_b_zero() == add.formal_sum((2, -1, 1))


def test_divide_by_character_nonprimitive_rejected():
    ctx = build_law("additive", 4)
    f = ctx.formal_sum((2, 0))
    with pytest.raises(NonPrimitiveCharacterError) as info:
        ctx.divide_by_character(f, (2, 0))
    # a package error with a one-line message, not a bare ValueError
    assert isinstance(info.value, CobcalcError)
    assert not isinstance(info.value, ValueError)
    assert str(info.value) == (
        "character (2, 0) is not primitive; divisibility by its class is "
        "defined only for primitive characters"
    )


def test_k_series_additivity_full_range():
    ctx = build_law("universal:4", 5)
    for k in range(-4, 5):
        for m in range(-4, 5):
            lhs = k_series(ctx, k + m)
            rhs = ctx.group_law.substitute([k_series(ctx, k), k_series(ctx, m)])
            assert lhs == rhs, (k, m)


def test_law_axioms_on_random_series():
    """Commutativity and associativity composed with arbitrary positive-order
    series arguments, not just the variables themselves."""
    from random import Random

    from cobcalc.sampling import random_homogeneous

    for law in ("multiplicative", "universal:4"):
        ctx = build_law(law, 5)
        rng = Random(99)
        f = ctx.group_law
        for _ in range(5):
            u = random_homogeneous(rng, ctx, 2, 1)
            v = random_homogeneous(rng, ctx, 2, rng.randint(1, 2))
            w = random_homogeneous(rng, ctx, 2, 1)
            assert f.substitute([u, v]) == f.substitute([v, u])
            lhs = f.substitute([f.substitute([u, v]), w])
            rhs = f.substitute([u, f.substitute([v, w])])
            assert lhs == rhs
