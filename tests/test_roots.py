from random import Random

import pytest

from cobcalc.errors import (
    InvolutionError,
    NotMinimalRankError,
    NVarsMismatchError,
    UnsupportedTypeError,
)
from cobcalc.fgl import build_law
from cobcalc.roots import (
    build_root_datum,
    build_symmetric_datum,
    product_datum,
    weyl_act,
)
from cobcalc.sampling import random_homogeneous
from cobcalc.series import GradedSeries

from .oracles import nested


@pytest.mark.parametrize(
    "tag,order,npos",
    [
        ("a1", 2, 1),
        ("a2", 6, 3),
        ("b2", 8, 4),
        ("g2", 12, 6),
        ("gl2", 2, 1),
        ("gl3", 6, 3),
        ("gl4", 24, 6),
        ("psl2xpsl2", 4, 2),
    ],
)
def test_type_facts(tag, order, npos):
    datum = build_root_datum(tag)
    assert datum.order() == order
    assert len(datum.positive_roots) == npos


def test_unknown_type():
    with pytest.raises(UnsupportedTypeError):
        build_root_datum("e8")


def test_a1_reflection():
    a1 = build_root_datum("a1")
    alpha = a1.simple_roots[0]
    assert a1.reflect(alpha, alpha) == (-1,)


def test_gl3_simple_reflection_permutes():
    gl3 = build_root_datum("gl3")
    s1 = gl3.simple_reflections[0]
    assert s1.word == (0,)
    assert s1.matrix == ((0, 1, 0), (1, 0, 0), (0, 0, 1))


def test_reflections_are_involutions():
    for tag in ("a2", "b2", "g2", "gl3"):
        datum = build_root_datum(tag)
        idm = tuple(
            tuple(1 if i == j else 0 for j in range(datum.rank))
            for i in range(datum.rank)
        )
        for beta in datum.roots:
            m = datum.reflection(beta)
            sq = tuple(
                tuple(
                    sum(m[i][k] * m[k][j] for k in range(datum.rank))
                    for j in range(datum.rank)
                )
                for i in range(datum.rank)
            )
            assert sq == idm


@pytest.mark.parametrize(
    "tag",
    ["gl2", "gl3", "gl4", "a1", "a2", "a3", "psl3", "b2", "g2", "psl2xpsl2",
     "product:psl3,psl3"],
)
def test_simple_coordinates_expand_every_root(tag):
    datum = build_root_datum(tag)
    assert set(datum.simple_coordinates) == set(datum.roots)
    for beta in datum.roots:
        coords = datum.simple_coordinates[beta]
        assert len(coords) == datum.nsimple
        assert all(isinstance(c, int) for c in coords)
        expansion = tuple(
            sum(c * alpha[k] for c, alpha in zip(coords, datum.simple_roots))
            for k in range(datum.rank)
        )
        assert expansion == beta
    nonneg = [
        beta for beta in datum.roots
        if all(c >= 0 for c in datum.simple_coordinates[beta])
    ]
    assert 2 * len(nonneg) == len(datum.roots)
    assert tuple(nonneg) == datum.positive_roots


@pytest.mark.parametrize("tag", ["a2", "b2", "g2", "gl4", "a3", "psl2xpsl2"])
def test_word_lengths_match_geometric_length(tag):
    datum = build_root_datum(tag)
    assert datum.order() <= 48
    for w in datum.weyl():
        assert len(w.word) == datum.matrix_length(w)


def test_bfs_words_are_lex_least():
    gl3 = build_root_datum("gl3")
    words = {w.id_string() for w in gl3.weyl()}
    assert words == {"e", "1", "2", "12", "21", "121"}


def test_weyl_act_permutes_variables_for_gl():
    ctx = build_law("universal:4", 5)
    gl3 = build_root_datum("gl3")
    rng = Random(4)
    f = random_homogeneous(rng, ctx, 3, 2)
    for w in gl3.weyl():
        g = weyl_act(w, f, ctx, gl3)
        # permutation of variables: same multiset of coefficients per degree
        assert sorted(sorted(c.items()) for c in nested(g).values()) == sorted(
            sorted(c.items()) for c in nested(f).values()
        )


def test_weyl_act_identity_and_rank_check():
    ctx = build_law("additive", 4)
    gl2 = build_root_datum("gl2")
    e = gl2.weyl()[0]
    f = GradedSeries.variable(0, 2, 4)
    assert weyl_act(e, f, ctx, gl2) == f
    with pytest.raises(NVarsMismatchError):
        weyl_act(e, GradedSeries.variable(0, 3, 4), ctx, gl2)


def test_adjoint_a1_reflection_gives_inverse_class():
    # on the adjoint lattice s_alpha(x_alpha) is the inverse series of t
    ctx = build_law("universal:3", 4)
    a1 = build_root_datum("a1")
    s = a1.weyl()[1]
    x_alpha = ctx.formal_sum((1,))
    got = weyl_act(s, x_alpha, ctx, a1)
    assert got == ctx.formal_sum((-1,))
    assert got == ctx.inverse


def test_weyl_action_is_group_action():
    ctx = build_law("universal:4", 5)
    a2 = build_root_datum("a2")
    rng = Random(11)
    weyl = a2.weyl()
    for _ in range(6):
        f = random_homogeneous(rng, ctx, 2, rng.randint(1, 2))
        v = weyl[rng.randrange(len(weyl))]
        w = weyl[rng.randrange(len(weyl))]
        vw = v.compose(w)
        lhs = weyl_act(vw, f, ctx, a2)
        rhs = weyl_act(v, weyl_act(w, f, ctx, a2), ctx, a2)
        assert lhs.equals_truncated(rhs)


def test_weyl_act_is_ring_homomorphism():
    ctx = build_law("universal:4", 5)
    b2 = build_root_datum("b2")
    rng = Random(13)
    w = b2.weyl()[5]
    for _ in range(5):
        f = random_homogeneous(rng, ctx, 2, 1)
        g = random_homogeneous(rng, ctx, 2, 2)
        lhs = weyl_act(w, f * g, ctx, b2)
        rhs = weyl_act(w, f, ctx, b2) * weyl_act(w, g, ctx, b2)
        assert lhs.equals_truncated(rhs)


# -- symmetric data -------------------------------------------------------------


def test_group_case_psl2():
    sd = build_symmetric_datum("group:a1")
    counts = sd.counts()
    assert counts["weyl_order"] == 4
    assert counts["w_L_order"] == 1
    assert counts["w_GK_order"] == 2
    assert counts["w_theta_order"] == 2
    assert [gamma for gamma, _, _ in sd.restricted] == [(1, -1)]
    assert sd.sigma_L == ()


def test_group_case_larger():
    sd = build_symmetric_datum("group:a2")
    counts = sd.counts()
    assert counts["weyl_order"] == 36
    assert counts["w_theta_order"] == 6
    assert counts["w_GK_order"] == 6
    assert len(sd.restricted) == 2


def test_group_case_requires_adjoint():
    with pytest.raises(UnsupportedTypeError):
        build_symmetric_datum("group:gl2")


def test_identity_involution_rejected():
    g = product_datum(build_root_datum("a1"), build_root_datum("a1"))
    identity = [[1, 0], [0, 1]]
    with pytest.raises(NotMinimalRankError):
        build_symmetric_datum(g, identity)


def test_negation_involution_rejected():
    a1 = build_root_datum("a1")
    with pytest.raises(NotMinimalRankError):
        build_symmetric_datum(a1, [[-1]])


def test_non_involution_rejected():
    g = product_datum(build_root_datum("a1"), build_root_datum("a1"))
    with pytest.raises(InvolutionError):
        build_symmetric_datum(g, [[1, 1], [0, 1]])


def test_custom_swap_equals_group_case():
    g = product_datum(build_root_datum("a2"), build_root_datum("a2"))
    n = 2
    theta = [[1 if (i + n) % (2 * n) == j else 0 for j in range(2 * n)]
             for i in range(2 * n)]
    sd = build_symmetric_datum(g, theta)
    assert sd.counts()["w_GK_order"] == 6


def test_symmetric_datum_group_psl2():
    sd = build_symmetric_datum("group:psl2")
    assert [gamma for gamma, _, _ in sd.restricted] == [(1, -1)]
    assert sd.theta == ((0, 1), (1, 0))
    assert sd.datum.rank == 2
