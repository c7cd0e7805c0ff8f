from fractions import Fraction
from random import Random

import pytest
import sympy

from cobcalc.errors import (
    CobcalcError,
    InsufficientGeneratorsError,
    NonPrimitiveCharacterError,
    NotDivisibleError,
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
from cobcalc.roots import build_root_datum
from cobcalc.sampling import random_homogeneous
from cobcalc.series import GradedSeries, Substitution

from .oracles import BasisChangeDivider


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


# characters whose first nonzero coordinate is not +-1, besides the roots
_EXTRA_CHARACTERS = {
    "gl3": [(2, 1, 0), (0, 3, -2), (-2, 0, 1)],
    "b2": [(2, 3), (-3, 1)],
    "g2": [(5, 2), (-2, 1)],
}


def _division_outcome(divide, f):
    try:
        q = divide(f)
    except NotDivisibleError as exc:
        return "not divisible", exc.degree
    return "quotient", q.precision, q.terms


@pytest.mark.parametrize("rational", [False, True], ids=["Z", "Q"])
@pytest.mark.parametrize("law", ["additive", "multiplicative", "universal:5"])
@pytest.mark.parametrize("type_tag", ["gl3", "b2", "g2"])
def test_divide_by_character_matches_basis_change(type_tag, law, rational):
    """One long division by x_chi gives the quotient and the failure degree of
    the change-of-basis route, on exact, perturbed and scaled numerators and
    on numerators above the context's precision."""
    datum = build_root_datum(type_tag)
    n, d = datum.rank, 5
    ctx = build_law(law, d, rational=rational)
    rng = Random(f"{type_tag}/{law}/{rational}")
    chars = [c for b in datum.positive_roots for c in (b, tuple(-x for x in b))]
    seen = {"quotient": 0, "not divisible": 0}
    for chi in chars + _EXTRA_CHARACTERS[type_tag]:
        x_chi = ctx.formal_sum(chi)
        reference = BasisChangeDivider(ctx, chi)
        for _ in range(3):
            q = random_homogeneous(rng, ctx, n, rng.randint(0, 3))
            if rational:
                q = q.scale(Fraction(1, rng.randint(2, 5)))
            exact = q * x_chi
            noise = random_homogeneous(rng, ctx, n, rng.randint(1, 4))
            # the numerator declared at precision d + 2, with a term in
            # degree d + 1, above the context's precision
            high = GradedSeries(n, d + 2, dict(exact.terms))
            high = high + GradedSeries(n, d + 2, {(d + 1,) + (0,) * (n - 1): {(): 1}})
            for f in (
                exact,
                exact + noise,
                exact.scale(Fraction(1, 3)),
                (exact + noise).scale(2),
                high,
                high + noise,
            ):
                got = _division_outcome(lambda g: ctx.divide_by_character(g, chi), f)
                assert got == _division_outcome(reference.divide, f), (chi, f)
                seen[got[0]] += 1
    assert all(seen.values()), seen


def test_kappa_of_character_is_memoised():
    from cobcalc.schubert import kappa_of_character

    ctx = build_law("universal:4", 5)
    chi = (1, -1, 0)
    got = kappa_of_character(ctx, chi)
    assert got == Substitution([ctx.formal_sum(chi)]).apply(ctx.kappa)
    assert kappa_of_character(ctx, [1, -1, 0]) is got
    # contexts with another law or precision keep their own entries
    for other in (build_law("multiplicative", 5), build_law("universal:4", 4)):
        theirs = kappa_of_character(other, chi)
        assert theirs == Substitution([other.formal_sum(chi)]).apply(other.kappa)
        assert theirs is not got
    assert kappa_of_character(ctx, chi) is got


def test_substitution_is_memoised_per_characters(monkeypatch):
    from cobcalc.roots import weyl_act

    datum = build_root_datum("gl3")
    ctx = build_law("universal:4", 5)
    chars = [(0, 1, 0), (1, -1, 0), (0, 0, 1)]
    sub = ctx.substitution(chars)
    f = random_homogeneous(Random(5), ctx, 3, 2)
    explicit = Substitution([ctx.formal_sum(c) for c in chars])
    assert sub.apply(f) == explicit.apply(f)
    assert ctx.substitution([list(c) for c in chars]) is sub
    # a repeated Weyl element reuses the substitution of its matrix columns
    w = datum.simple_reflections[0]
    built = []

    def recording(chars):
        built.append(type(ctx).substitution(ctx, chars))
        return built[-1]

    monkeypatch.setattr(ctx, "substitution", recording, raising=False)
    first = weyl_act(w, f, ctx, datum)
    assert weyl_act(w, f, ctx, datum) == first
    assert len(built) == 2 and built[0] is built[1]
    assert first == Substitution(
        [ctx.formal_sum(col) for col in zip(*w.matrix)]
    ).apply(f)


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
