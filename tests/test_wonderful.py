from random import Random

import pytest

from cobcalc.errors import RepeatedWeightError
from cobcalc.fgl import build_law
from cobcalc.gkm import membership, span_equal
from cobcalc.linalg import canonical_sign
from cobcalc.roots import build_symmetric_datum, weyl_act
from cobcalc.sampling import random_homogeneous
from cobcalc.series import GradedSeries
from cobcalc.wonderful import (
    build_wonderful_graph,
    group_psl2_projective_model,
    invariant_subring_X,
    invariant_subring_Y,
    invariant_tuple_basis,
    projective_space_model,
    verify_esph,
)


@pytest.fixture(scope="module")
def psl2():
    return build_symmetric_datum("group:a1")


def test_wonderful_counts(psl2):
    ctx = build_law("additive", 3)
    model = build_wonderful_graph(psl2, ctx)
    counts = model.counts()
    assert counts["x_vertices"] == 4
    assert counts["x_edges"] == 6
    assert counts["x_root_edges"] == 4
    assert counts["x_restricted_edges"] == 2
    assert counts["y_vertices"] == 2
    assert counts["y_edges"] == 1
    assert model.y_graph.edges[0][2] == (1, -1)


def test_group_case_vertex_count_is_weyl_order(psl2):
    # L = T in the group case, so the fixed points are the full Weyl group
    ctx = build_law("additive", 3)
    model = build_wonderful_graph(psl2, ctx)
    assert model.x_graph.nvertices == psl2.datum.order()


def test_edges_are_weyl_translates_of_base_edges(psl2):
    ctx = build_law("additive", 3)
    model = build_wonderful_graph(psl2, ctx)
    datum = psl2.datum
    base_chars = [beta for beta in datum.positive_roots] + [
        gamma for gamma, _, _ in psl2.restricted
    ]
    for (_, _, chi) in model.x_graph.edges:
        translates = {
            canonical_sign(w.act(c))
            for w in datum.weyl()
            for c in base_chars
        }
        assert chi in translates


def test_larger_group_case_counts():
    sd = build_symmetric_datum("group:a2")
    ctx = build_law("additive", 2)
    model = build_wonderful_graph(sd, ctx)
    counts = model.counts()
    assert counts["x_vertices"] == 36
    # |W| * |Sigma^+ \ Sigma_L^+| / 2 root edges, |W| * |Delta_GK| / 2 restricted
    assert counts["x_root_edges"] == 36 * 6 // 2
    assert counts["x_restricted_edges"] == 36 * 2 // 2
    assert counts["y_vertices"] == 6


def test_esph_additive_ranks(psl2):
    ctx = build_law("additive", 3)
    model = build_wonderful_graph(psl2, ctx)
    report = verify_esph(model, 3)
    assert report["pass"]
    assert [d["rank"] for d in report["degrees"]] == [1, 1, 3, 3]


def test_esph_group_b2_additive_degree_two():
    # its X-tuple system has 4480 rows and 640 unknowns: a rational statement
    # solved by the certified modular kernel
    model = build_wonderful_graph(
        build_symmetric_datum("group:b2"), build_law("additive", 2)
    )
    report = verify_esph(model, 2)
    assert report["pass"], report
    assert [d["x_tuple_rank"] for d in report["degrees"]] == [1, 2, 6]


@pytest.mark.parametrize("law", ["additive", "universal:3"])
def test_esph_passes(psl2, law):
    ctx = build_law(law, 3)
    model = build_wonderful_graph(psl2, ctx)
    report = verify_esph(model, 3)
    assert report["pass"], report


def test_esph_degree_one_additive_explicit(psl2):
    # the only invariant linear classes are multiples of the restricted class
    ctx = build_law("additive", 3)
    model = build_wonderful_graph(psl2, ctx)
    basis = invariant_subring_X(model, 1)
    assert len(basis) == 1
    t1 = GradedSeries.variable(0, 2, 3)
    t2 = GradedSeries.variable(1, 2, 3)
    f = basis[0]
    assert f == t1 - t2 or f == t2 - t1


def test_root_congruences_automatic(psl2):
    """The root-curve congruence holds for every series, invariant or not."""
    ctx = build_law("universal:3", 3)
    model = build_wonderful_graph(psl2, ctx)
    datum = psl2.datum
    rng = Random(3)
    for _ in range(20):
        f = random_homogeneous(rng, ctx, 2, rng.randint(1, 3))
        for beta in datum.positive_roots:
            s = datum.reflection_element(beta)
            diff = f - weyl_act(s, f, ctx, datum)
            ctx.divide_by_character(diff, beta)  # must not raise


def test_y_route_equals_reduced_route_degreewise(psl2):
    ctx = build_law("universal:3", 3)
    model = build_wonderful_graph(psl2, ctx)
    for m in range(0, 4):
        x_basis = invariant_subring_X(model, m)
        y_basis = invariant_subring_Y(model, m)
        assert span_equal(x_basis, y_basis)


def test_invariant_tuples_pass_membership(psl2):
    ctx = build_law("universal:3", 3)
    model = build_wonderful_graph(psl2, ctx)
    datum = psl2.datum
    gens = datum.simple_reflections
    for cls in invariant_tuple_basis(model.x_graph, gens, 2):
        ok, witness = membership(cls, model.x_graph)
        assert ok, witness


# -- projective space model ----------------------------------------------------------


def test_projective_line():
    ctx = build_law("universal:3", 3)
    graph, zeta, report = projective_space_model([(1, 0), (0, 0)], ctx)
    assert graph.nvertices == 2
    assert len(graph.edges) == 1
    assert graph.edges[0][2] == (1, 0)
    assert report["zeta_is_member"] and report["relation_vanishes"]


def test_projective_repeated_weight_rejected():
    ctx = build_law("additive", 3)
    with pytest.raises(RepeatedWeightError):
        projective_space_model([(1, 0), (1, 0)], ctx)


@pytest.mark.parametrize("law", ["additive", "universal:3"])
def test_group_psl2_projective_model(psl2, law):
    ctx = build_law(law, 3)
    model = build_wonderful_graph(psl2, ctx)
    graph, zeta, report = group_psl2_projective_model(model)
    assert graph.nvertices == 4 and len(graph.edges) == 6
    assert report["edges_match_wonderful"]
    assert report["zeta_is_member"]
    assert report["relation_vanishes"]


def test_projective_route_matches_reduced_subring(psl2):
    ctx = build_law("universal:3", 3)
    model = build_wonderful_graph(psl2, ctx)
    graph, _, _ = group_psl2_projective_model(model)
    datum = psl2.datum
    w_gens = datum.simple_reflections
    for m in range(0, 4):
        via_projective = [
            c.values[0] for c in invariant_tuple_basis(graph, w_gens, m)
        ]
        via_reduced = invariant_subring_X(model, m)
        assert span_equal(via_projective, via_reduced)


def test_specialization_reduces_universal_bases_to_additive(psl2):
    uctx = build_law("universal:3", 3)
    actx = build_law("additive", 3)
    um = build_wonderful_graph(psl2, uctx)
    am = build_wonderful_graph(psl2, actx)
    for m in range(0, 4):
        bu = [f.specialize_b_zero() for f in invariant_subring_X(um, m)]
        bu = [f for f in bu if not f.is_zero()]
        ba = invariant_subring_X(am, m)
        assert span_equal(bu, ba)
        assert len(ba) <= len(invariant_subring_X(um, m))


# -- a custom minimal-rank involution: the linear/symplectic pair ---------------------


@pytest.fixture(scope="module")
def linear_symplectic():
    from cobcalc.roots import build_root_datum, build_symmetric_datum

    a3 = build_root_datum("a3")
    # theta fixes the outer simples and folds the middle one across the
    # lowest root; the restricted system has rank one
    theta = [[1, -1, 0], [0, -1, 0], [0, -1, 1]]
    return build_symmetric_datum(a3, theta)


def test_linear_symplectic_structure(linear_symplectic):
    sd = linear_symplectic
    counts = sd.counts()
    assert counts["weyl_order"] == 24
    assert counts["w_L_order"] == 4
    assert counts["w_theta_order"] == 8
    assert counts["w_GK_order"] == 2
    assert [gamma for gamma, _, _ in sd.restricted] == [(1, 2, 1)]
    r = sd.restricted_reflection(0)
    assert r.compose(r).matrix == tuple(
        tuple(int(i == j) for j in range(3)) for i in range(3)
    )


def test_linear_symplectic_wonderful(linear_symplectic):
    ctx = build_law("additive", 3)
    model = build_wonderful_graph(linear_symplectic, ctx)
    counts = model.counts()
    assert counts["x_vertices"] == 6  # |W| / |W_L|
    assert counts["y_vertices"] == 2
    assert counts["y_edges"] == 1
    report = verify_esph(model, 3)
    assert report["pass"], report
    assert [d["rank"] for d in report["degrees"]] == [1, 1, 2, 3]


def test_linear_symplectic_esph_universal(linear_symplectic):
    ctx = build_law("universal:3", 3)
    model = build_wonderful_graph(linear_symplectic, ctx)
    report = verify_esph(model, 2)
    assert report["pass"], report
