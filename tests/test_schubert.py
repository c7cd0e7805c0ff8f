from itertools import product
from random import Random

import pytest

from cobcalc.errors import PrecisionExhaustedError
from cobcalc.fgl import build_law
from cobcalc.gkm import (
    constant_class,
    flag_gkm,
    line_bundle_class,
    membership,
    tensor_to_gkm,
)
from cobcalc.roots import build_root_datum, weyl_act
from cobcalc.sampling import random_homogeneous
from cobcalc.schubert import (
    bott_samelson,
    demazure,
    demazure_gkm,
    kappa_of_character,
    point_class,
    sw_linearity_check,
)
from cobcalc.series import GradedSeries, elementary_symmetric

from .oracles import (
    ClassicalFlagOracle,
    Poly,
    classical_divided_difference,
    demazure_gkm_reference,
    engine_permutation,
    engine_series_to_poly,
)


def member(c):
    """``c``, after asserting that it meets every edge congruence."""
    ok, witness = membership(c, c.graph)
    assert ok, witness
    return c


def test_demazure_of_unit_is_kappa():
    ctx = build_law("universal:4", 5)
    gl2 = build_root_datum("gl2")
    one = GradedSeries.constant(1, 2, 5)
    got = demazure(one, 0, ctx, gl2)
    assert got == kappa_of_character(ctx, (1, -1)).truncate(got.precision)


def test_demazure_additive_examples():
    ctx = build_law("additive", 5)
    gl2 = build_root_datum("gl2")
    t1 = GradedSeries.variable(0, 2, 5)
    assert demazure(t1, 0, ctx, gl2) == GradedSeries.constant(-1, 2, 4)
    x_alpha = ctx.formal_sum((1, -1))
    assert demazure(x_alpha, 0, ctx, gl2) == GradedSeries.constant(-2, 2, 4)


@pytest.mark.parametrize("law", ["additive", "multiplicative", "universal:4"])
def test_demazure_invariance_and_degree(law):
    ctx = build_law(law, 5)
    gl2 = build_root_datum("gl2")
    rng = Random(17)
    s = gl2.simple_reflections[0]
    for _ in range(30):
        m = rng.randint(1, 4)
        f = random_homogeneous(rng, ctx, 2, m)
        df = demazure(f, 0, ctx, gl2)
        assert weyl_act(s, df, ctx, gl2).equals_truncated(df)
        assert df.is_zero() or df.homogeneous_degree() == m - 1


def test_demazure_matches_rational_expression_on_invariant_multiples():
    # del(g * x_alpha) for invariant g: (1 + s)(g x_alpha / x_{-alpha}) is
    # g * (1 + s)(x_alpha / x_{-alpha}), both summands separately defined
    ctx = build_law("universal:4", 5)
    gl2 = build_root_datum("gl2")
    x_alpha = ctx.formal_sum((1, -1))
    x_neg = ctx.formal_sum((-1, 1))
    from cobcalc.series import divide_exact

    ratio = divide_exact(x_alpha, x_neg)
    s = gl2.simple_reflections[0]
    expected = ratio + weyl_act(s, ratio, ctx, gl2)
    got = demazure(x_alpha, 0, ctx, gl2)
    assert got.equals_truncated(expected)


def test_sw_linearity():
    ctx = build_law("universal:4", 5)
    gl2 = build_root_datum("gl2")
    rng = Random(23)
    t1 = GradedSeries.variable(0, 2, 5)
    t2 = GradedSeries.variable(1, 2, 5)
    one = GradedSeries.constant(1, 2, 5)
    e2 = elementary_symmetric(2, [t1, t2])
    f = random_homogeneous(rng, ctx, 2, 2)
    assert sw_linearity_check(f, one, 0, ctx, gl2)
    assert sw_linearity_check(f, e2, 0, ctx, gl2)
    addctx = build_law("additive", 5)
    fa = random_homogeneous(rng, addctx, 2, 2)
    assert sw_linearity_check(fa, t1 + t2, 0, addctx, gl2)


@pytest.mark.parametrize("tag", ["gl2", "gl3"])
def test_additive_demazure_is_minus_classical(tag):
    """The documented sign: with the x_{-alpha} denominator the additive
    specialization is the negative of the classical divided difference."""
    ctx = build_law("additive", 5)
    datum = build_root_datum(tag)
    n = datum.rank
    from .oracles import transposition

    for i in range(datum.nsimple):
        perm = transposition(i, i + 1, n)
        alpha = datum.simple_roots[i]
        exps = [
            e
            for d in range(0, 6)
            for e in _monomials(n, d)
        ]
        for e in exps:
            f = GradedSeries.from_terms(n, 5, {e: {(): 1}})
            got = demazure(f, i, ctx, datum)
            oracle = classical_divided_difference(
                Poly({e: 1}), alpha, perm
            )
            assert engine_series_to_poly(got) == -oracle


def _monomials(n, d):
    if n == 1:
        return [(d,)]
    out = []
    for k in range(d + 1):
        out.extend((k,) + rest for rest in _monomials(n - 1, d - k))
    return out


# -- equivariant operators on the flag graph ----------------------------------------


def test_point_class_gl2():
    ctx = build_law("universal:4", 5)
    graph = flag_gkm(build_root_datum("gl2"), ctx)
    pt = member(point_class(graph))
    assert pt.values[0] == ctx.formal_sum((-1, 1))
    assert pt.values[1].is_zero()


def test_point_class_gl3_additive_frozen():
    ctx = build_law("additive", 5)
    graph = flag_gkm(build_root_datum("gl3"), ctx)
    pt = member(point_class(graph))
    t = [GradedSeries.variable(i, 3, 5) for i in range(3)]
    expected = (t[1] - t[0]) * (t[2] - t[0]) * (t[2] - t[1])
    assert pt.values[0] == expected


def test_demazure_gkm_constant_one():
    ctx = build_law("universal:4", 5)
    graph = flag_gkm(build_root_datum("gl2"), ctx)
    out = member(demazure_gkm(constant_class(graph, 1), 0))
    for i, w in enumerate(graph.weyl_vertices):
        expected = kappa_of_character(ctx, w.act((1, -1)))
        assert out.values[i] == expected.truncate(out.precision)


@pytest.mark.parametrize("law", ["additive", "multiplicative", "universal:4"])
def test_rank_one_bott_samelson_is_unit(law):
    ctx = build_law(law, 5)
    graph = flag_gkm(build_root_datum("gl2"), ctx)
    bs = member(bott_samelson((0,), graph))
    assert bs == constant_class(graph, 1).truncate(bs.precision)


def test_empty_word_returns_point_class():
    ctx = build_law("multiplicative", 5)
    graph = flag_gkm(build_root_datum("gl2"), ctx)
    assert member(bott_samelson((), graph)) == member(point_class(graph))


def test_precision_exhaustion():
    ctx = build_law("additive", 3)
    graph = flag_gkm(build_root_datum("gl3"), ctx)
    with pytest.raises(PrecisionExhaustedError):
        bott_samelson((0, 1), graph)  # needs 2 + 3 > 3


def test_demazure_gkm_additive_matches_classical_gkm():
    ctx = build_law("additive", 5)
    datum = build_root_datum("gl3")
    graph = flag_gkm(datum, ctx)
    oracle = ClassicalFlagOracle(3)
    perm_of_vertex = [engine_permutation(w, 3) for w in graph.weyl_vertices]
    rng = Random(31)
    # random membership-satisfying class: tensor image
    a = random_homogeneous(rng, ctx, 3, 2, b_free=True)
    c = member(tensor_to_gkm(a, GradedSeries.constant(1, 3, 5), graph))
    for i in range(datum.nsimple):
        got = member(demazure_gkm(c, i))
        values = [None] * len(oracle.vertices)
        for v, perm in enumerate(perm_of_vertex):
            values[oracle.index[perm]] = engine_series_to_poly(c.values[v])
        expected = oracle.demazure(values, i)
        for v, perm in enumerate(perm_of_vertex):
            assert engine_series_to_poly(got.values[v]) == expected[oracle.index[perm]]


@pytest.mark.parametrize("tag", ["gl3", "gl4", "b2", "g2"])
@pytest.mark.parametrize("law", ["additive", "multiplicative", "universal"])
def test_demazure_gkm_matches_both_vertices_reference(tag, law):
    # one result per {w, w s_alpha} pair equals the formula at each vertex:
    # on a line bundle class and on Bott-Samelson classes
    datum = build_root_datum(tag)
    precision = len(datum.positive_roots) + 2
    if law == "universal":
        law = f"universal:{precision - 1}"
    graph = flag_gkm(datum, build_law(law, precision))
    c = member(line_bundle_class((1,) + (0,) * (datum.rank - 1), graph))
    for i in range(datum.nsimple):
        assert member(demazure_gkm(c, i)) == demazure_gkm_reference(c, i), i
    c = member(point_class(graph))
    for i in (0, 1):
        got = member(demazure_gkm(c, i))
        assert got == demazure_gkm_reference(c, i), i
        c = got


def test_bott_samelson_gl3_additive_against_oracle():
    ctx = build_law("additive", 6)
    datum = build_root_datum("gl3")
    graph = flag_gkm(datum, ctx)
    oracle = ClassicalFlagOracle(3)
    perm_of_vertex = [engine_permutation(w, 3) for w in graph.weyl_vertices]
    words = [()]
    for length in (1, 2, 3):
        words.extend(product(range(2), repeat=length))
    for word in words:
        got = member(bott_samelson(word, graph))
        expected = oracle.bott_samelson(word)
        for v, perm in enumerate(perm_of_vertex):
            assert engine_series_to_poly(got.values[v]) == expected[oracle.index[perm]], (
                word,
                graph.ids[v],
            )


@pytest.mark.parametrize(
    "law, exact", [("additive", True), ("multiplicative", True), ("universal:5", False)]
)
def test_braid_relation(law, exact):
    """Bressler-Evens: d1 d2 d1 = d2 d1 d2 holds exactly for the additive and
    multiplicative laws and fails for the universal law."""
    datum = build_root_datum("gl3")
    ctx = build_law(law, 6)
    rng = Random(0)

    def d(f, i):
        return demazure(f, i, ctx, datum)

    results = []
    for _ in range(4):
        f = random_homogeneous(rng, ctx, 3, rng.randint(1, 3))
        results.append(d(d(d(f, 0), 1), 0) == d(d(d(f, 1), 0), 1))
    assert all(results) == exact


def test_demazure_gkm_compatible_with_tensor_model():
    ctx = build_law("universal:4", 5)
    datum = build_root_datum("gl2")
    graph = flag_gkm(datum, ctx)
    rng = Random(37)
    one = GradedSeries.constant(1, 2, 5)
    for _ in range(8):
        a = random_homogeneous(rng, ctx, 2, rng.randint(1, 3), b_free=True)
        lhs = member(demazure_gkm(member(tensor_to_gkm(a, one, graph)), 0))
        da = demazure(a, 0, ctx, datum)
        rhs = member(tensor_to_gkm(da, one, graph))
        assert (lhs - rhs.truncate(lhs.precision)).is_zero()


def test_every_produced_class_passes_membership():
    ctx = build_law("universal:4", 5)
    graph = flag_gkm(build_root_datum("gl3"), ctx)
    cls = bott_samelson((0, 1), graph)
    ok, witness = membership(cls, graph)
    assert ok, witness
