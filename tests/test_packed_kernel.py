"""The packed-key series kernel against the tuple-keyed one it replaced
(``oracles.TupleSeries``): products, sums, negation, truncation, equality,
substitution, the divided difference and exact division, compared after
unpacking, on seeded random series with int and Fraction values, the
b-exponents of laws with 0, 1, 4 and 9 generators, and precisions up to 12.
Then the bounds of the packing: weights past a layout's bound widen it, and
a weight past the supported one is refused."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cobcalc.errors import (
    InternalConsistencyError,
    NotDivisibleError,
    PrecisionExhaustedError,
)
from cobcalc.fgl import build_law
from cobcalc.roots import build_root_datum
from cobcalc.series import (
    MAX_PRECISION,
    MAX_WEIGHT,
    DividedDifference,
    Divisor,
    GradedSeries,
    Substitution,
    divide_exact,
)

from .oracles import (
    TupleDividedDifference,
    TupleDivisor,
    TupleSeries,
    TupleSubstitution,
    _trim,
    from_tuple,
    nested,
    to_tuple,
    tuple_divide_exact,
)

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=80)
# generator counts of the laws additive, multiplicative, universal:4, universal:9
NGENS = (0, 1, 4, 9)


def _same(series, ref: TupleSeries) -> bool:
    return (series.nvars, series.precision, nested(series)) == (
        ref.nvars, ref.precision, ref.terms,
    )


@st.composite
def _value(draw, fractions):
    v = draw(st.integers(-4, 4).filter(bool))
    if fractions and draw(st.booleans()):
        return Fraction(v, draw(st.integers(2, 5)))
    return v


@st.composite
def _terms(draw, nvars, precision, ngens, fractions, max_terms=6, min_order=0):
    """A canonical tuple-keyed term dict: t-degrees in min_order..precision,
    trimmed b-exponents over ``ngens`` generators, nonzero values."""
    terms: dict = {}
    for _ in range(draw(st.integers(0, max_terms))):
        degree = draw(st.integers(min(min_order, precision), precision))
        t = [0] * nvars
        for _ in range(degree):
            t[draw(st.integers(0, nvars - 1))] += 1
        b = ()
        if ngens:
            b = _trim(draw(st.lists(st.integers(0, 2), max_size=ngens)))
        v = draw(_value(fractions))
        terms.setdefault(tuple(t), {})[b] = v
    return terms


@st.composite
def _pair(draw, max_precision=12):
    """Two tuple series in the same variables, maybe of different precision."""
    nvars = draw(st.integers(1, 3))
    ngens = draw(st.sampled_from(NGENS))
    fractions = draw(st.booleans())
    out = []
    for _ in range(2):
        p = draw(st.integers(0, max_precision))
        out.append(TupleSeries(nvars, p, draw(_terms(nvars, p, ngens, fractions))))
    return out


@SETTINGS
@given(_pair())
@example(  # b4^2 * b4^2: the b4 field would carry into b3 without the guard
    pair=[
        TupleSeries(1, 4, {(1,): {(0, 0, 0, 2): 1}}),
        TupleSeries(1, 4, {(1,): {(0, 0, 0, 2): 3, (1,): 1}, (0,): {(): 2}}),
    ]
)
def test_ring_operations_match_the_tuple_kernel(pair):
    f, g = pair
    pf, pg = from_tuple(f), from_tuple(g)
    assert _same(pf, f) and _same(pg, g)
    assert _same(pf * pg, f * g)
    assert _same(pf + pg, f + g)
    assert _same(pf - pg, f - g)
    assert _same(-pf, -f)
    for d in range(f.precision + 2):
        assert _same(pf.truncate(d), f.truncate(d))
    assert pf.order() == f.order()
    assert pf.homogeneous_degree() == f.homogeneous_degree()
    assert _same(pf.specialize_b_zero(), f.specialize_b_zero())
    if f.precision == g.precision:
        assert (pf == pg) == (f == g)
    assert GradedSeries.from_json(pf.to_json()) == pf


@lru_cache(maxsize=None)
def _law(law: str, precision: int):
    return build_law(law, precision)


_LAWS = st.sampled_from(
    [("additive", 12), ("multiplicative", 12), ("universal:4", 5), ("universal:9", 10)]
)


@SETTINGS
@given(st.data(), _LAWS, st.integers(1, 3), st.integers(1, 3))
def test_substitution_matches_the_tuple_kernel(data, law, nvars_in, nvars_out):
    """Images are law classes x_chi (1 -> 2 variables as in the law's own
    construction) or random series of positive order."""
    name, top = law
    precision = data.draw(st.integers(1, top))
    ctx = _law(name, precision)
    images = []
    for _ in range(nvars_in):
        if data.draw(st.booleans()):
            chi = data.draw(
                st.lists(st.integers(-2, 2), min_size=nvars_out, max_size=nvars_out)
                .filter(any)
            )
            images.append(ctx.formal_sum(chi))
        else:
            terms = data.draw(
                _terms(nvars_out, precision, ctx.ngens, False, min_order=1)
            )
            terms = {t: c for t, c in terms.items() if sum(t)} or {
                (1,) + (0,) * (nvars_out - 1): {(): 1}
            }
            images.append(GradedSeries.from_terms(nvars_out, precision, terms))
    fp = data.draw(st.integers(0, precision + 1))
    fractions = data.draw(st.booleans())
    f = TupleSeries(nvars_in, fp, data.draw(_terms(nvars_in, fp, ctx.ngens, fractions)))
    subst = Substitution(images)
    ref = TupleSubstitution([to_tuple(img) for img in images])
    assert _same(subst.apply(from_tuple(f)), ref.apply(f))
    # the memo serves a second series too
    half = fp // 2
    assert _same(subst.apply(from_tuple(f).truncate(half)), ref.apply(f.truncate(half)))


def _outcome(thunk, unpack):
    try:
        q = thunk()
    except NotDivisibleError as exc:
        return ("NotDivisibleError", exc.degree)
    except PrecisionExhaustedError:
        return ("PrecisionExhaustedError",)
    return ("quotient", q.precision, unpack(q))


_ROOT_DATA = st.sampled_from(["gl2", "gl3", "a2", "b2"])


@SETTINGS
@given(st.data(), _ROOT_DATA, _LAWS)
def test_divided_difference_matches_the_tuple_kernel(data, tag, law):
    """(f - w f) / x_beta for w the reflection in beta, and for another
    reflection, which takes the fallback to one long division."""
    name, top = law
    datum = build_root_datum(tag)
    ctx = _law(name, min(top, 6))
    n = datum.rank
    beta = data.draw(st.sampled_from(datum.positive_roots))
    gamma = data.draw(st.sampled_from(datum.positive_roots))
    w = datum.reflection_element(gamma)
    subst = ctx.substitution(zip(*w.matrix))
    divisor = Divisor(ctx.formal_sum(beta))
    op = DividedDifference(subst, divisor)
    ref = TupleDividedDifference(
        TupleSubstitution([to_tuple(img) for img in subst.images]),
        TupleDivisor(to_tuple(ctx.formal_sum(beta))),
    )
    for _ in range(3):
        fp = data.draw(st.integers(0, ctx.precision + 1))
        fractions = data.draw(st.booleans())
        f = TupleSeries(n, fp, data.draw(_terms(n, fp, ctx.ngens, fractions)))
        got = _outcome(lambda: op.apply(from_tuple(f)), nested)
        assert got == _outcome(lambda: ref.apply(f), lambda q: q.terms)
        if beta == gamma and fp >= 1:
            assert got[0] == "quotient"


_MONOMIAL = st.sampled_from([{(): 1}, {(): -1}, {(): 3}, {(1,): 2}, {(0, 1): -1}])
_POLYNOMIAL = st.sampled_from([{(1,): 1, (): 2}, {(2,): 1, (0, 1): -3}])


@SETTINGS
@given(_pair(max_precision=8), st.one_of(_MONOMIAL, _POLYNOMIAL), st.booleans())
def test_divide_exact_matches_the_tuple_kernel(pair, lead, exact):
    """Quotients and NotDivisibleError degrees, with a leading coefficient
    of one b-monomial (whole-coefficient steps) or not (one term a step)."""
    f, g = pair
    nvars = f.nvars
    # g gets order 1 and a lowest component led by ``lead`` at t1 (the
    # lex-greatest degree-1 exponent); f is a multiple of g, or not
    terms = {t: c for t, c in g.terms.items() if sum(t) >= 1}
    terms[(1,) + (0,) * (nvars - 1)] = dict(lead)
    g = TupleSeries(nvars, max(g.precision, 1), terms)
    if exact:
        f = f * g
    pf, pg = from_tuple(f), from_tuple(g)
    got = _outcome(lambda: divide_exact(pf, pg), nested)
    assert got == _outcome(lambda: tuple_divide_exact(f, g), lambda q: q.terms)
    prepared = Divisor(pg)
    assert _outcome(lambda: divide_exact(pf, prepared), nested) == got


# -- the bounds of the packing ----------------------------------------------------


def test_weights_past_the_layout_bound_widen_it():
    # b-weights through 15 fit the layout of precision 4; b1^12 * b1^12 does
    # not, so the product is redone in a wider one, and truncating the heavy
    # terms away narrows the result again
    t = (1, 0)
    f = GradedSeries.from_terms(2, 4, {t: {(12,): 1, (): 2}})
    g = GradedSeries.from_terms(2, 4, {t: {(12,): 1, (0, 1): 1}, (0, 3): {(): 1}})
    ref = to_tuple(f) * to_tuple(g)
    assert _same(f * g, ref)
    assert nested(f * g)[(2, 0)] == {(24,): 1, (12, 1): 1, (12,): 2, (0, 1): 2}
    assert f * g == from_tuple(ref)
    assert _same((f * g).truncate(2) - (f * g).truncate(2), TupleSeries(2, 2, {}))
    light = (f * g).specialize_b_zero()
    assert _same(light, ref.specialize_b_zero())
    assert light == GradedSeries.from_terms(2, 4, {(1, 3): {(): 2}})


def test_weight_above_the_supported_bound_is_refused():
    heavy = GradedSeries.from_terms(1, 4, {(0,): {(600,): 1}})
    with pytest.raises(InternalConsistencyError):
        heavy * heavy
    with pytest.raises(ValueError):
        GradedSeries.from_terms(1, 4, {(0,): {(MAX_WEIGHT + 1,): 1}})
    with pytest.raises(ValueError):
        GradedSeries.from_json(
            {"nvars": 1, "precision": MAX_PRECISION + 1, "terms": []}
        )


def test_precisions_in_different_layouts_meet():
    # precision 14 and 15 use t-fields of different widths
    ctx = build_law("additive", 16)
    x = ctx.formal_sum((1, -1))
    f = GradedSeries.from_terms(2, 14, {(7, 7): {(): 1}, (1, 0): {(3,): 2}})
    g = GradedSeries.from_terms(2, 15, {(15, 0): {(): 1}, (0, 1): {(): -1}})
    for a, b in ((f, g), (g, f), (f, x), (x, g)):
        for op in ("__add__", "__sub__", "__mul__"):
            got = getattr(a, op)(b)
            assert _same(got, getattr(to_tuple(a), op)(to_tuple(b)))
    assert _same(g.truncate(14), to_tuple(g).truncate(14))
    subst = Substitution([x, GradedSeries.variable(0, 2, 16)])
    ref = TupleSubstitution([to_tuple(x), to_tuple(GradedSeries.variable(0, 2, 16))])
    for h in (f, g):
        assert _same(subst.apply(h), ref.apply(to_tuple(h)))
    q = divide_exact(x * g, x)
    assert _same(q, tuple_divide_exact(to_tuple(x * g), to_tuple(x)))


# -- renaming the variables ----------------------------------------------------


def _renamed(terms: dict, src) -> dict:
    return {tuple(t[s] for s in src): c for t, c in terms.items()}


@SETTINGS
@given(st.data())
def test_rename_permutes_the_t_exponents(data):
    nvars = data.draw(st.integers(1, 4))
    p = data.draw(st.integers(0, 12))
    ngens = data.draw(st.sampled_from(NGENS))
    fractions = data.draw(st.booleans())
    f = GradedSeries.from_terms(nvars, p, data.draw(_terms(nvars, p, ngens, fractions)))
    src = data.draw(st.permutations(range(nvars)))
    g = f.rename(src)
    assert nested(g) == _renamed(nested(f), src)
    kept = (f.nvars, f.precision, f.order(), f.homogeneous_degree())
    assert (g.nvars, g.precision, g.order(), g.homogeneous_degree()) == kept
    inverse = sorted(range(nvars), key=src.__getitem__)
    assert g.rename(inverse) == f


def test_rename_keeps_a_homogeneous_series_and_the_identity_keeps_itself():
    f = build_law("universal:4", 5).formal_sum((1, 0, -1))
    assert f.rename((0, 1, 2)) is f
    g = f.rename((2, 0, 1))
    assert nested(g) == _renamed(nested(f), (2, 0, 1))
    assert (g.precision, g.order(), g.homogeneous_degree()) == (5, 1, 1)
    for bad in ((0, 0, 1), (0, 1), (1, 2, 3)):
        with pytest.raises(ValueError):
            f.rename(bad)


def test_rename_of_a_wide_series():
    # b-weight 20 is above the bound 15 of the layout of precision 4
    f = GradedSeries.from_terms(
        3, 4, {(1, 0, 2): {(20,): 1, (): 2}, (0, 1, 0): {(0, 1): 3}}
    )
    g = GradedSeries.from_terms(3, 4, {(0, 0, 1): {(4,): 1}, (1, 0, 0): {(): -1}})
    r = f.rename((2, 0, 1))
    assert nested(r) == {(2, 1, 0): {(20,): 1, (): 2}, (0, 0, 1): {(0, 1): 3}}
    assert _same(r * g, to_tuple(r) * to_tuple(g))
    assert _same(g * r + r, to_tuple(g) * to_tuple(r) + to_tuple(r))


def test_a_renamed_copy_sorts_its_own_terms():
    f = build_law("universal:4", 5).formal_sum((1, -1, 0))
    g = GradedSeries.variable(0, 3, 5)
    # the longer factor keeps its sorted terms from its second product on
    first = f * g
    assert f * g == first
    r = f.rename((1, 2, 0))
    assert _same(r * g, to_tuple(r) * to_tuple(g))
