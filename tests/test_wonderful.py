from random import Random

import pytest

from cobcalc import linalg, wonderful
from cobcalc.cli import main
from cobcalc.errors import InternalConsistencyError, RepeatedWeightError
from cobcalc.fgl import build_law
from cobcalc.gkm import GKMClass, GKMGraph, TupleSystem, membership, span_equal
from cobcalc.linalg import canonical_sign
from cobcalc.roots import build_root_datum, build_symmetric_datum, weyl_act
from cobcalc.sampling import random_homogeneous
from cobcalc.series import GradedSeries
from cobcalc.wonderful import (
    _w_theta_generators,
    build_wonderful_graph,
    group_psl2_projective_model,
    invariant_subring_X,
    invariant_subring_Y,
    invariant_tuple_basis,
    invariant_tuple_system,
    projective_space_model,
    reduced_system,
    root_congruence_system,
    verify_esph,
    vertex_orbits,
)

from .oracles import invariant_tuple_basis_reference


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
    for cls in _expand(model.x_graph, gens, invariant_tuple_basis(model.x_graph, gens, 2)):
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
            values[0] for values in invariant_tuple_basis(graph, w_gens, m)
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


def _linear_symplectic_datum():
    a3 = build_root_datum("a3")
    # theta fixes the outer simples and folds the middle one across the
    # lowest root; the restricted system has rank one
    theta = [[1, -1, 0], [0, -1, 0], [0, -1, 1]]
    return build_symmetric_datum(a3, theta)


@pytest.fixture(scope="module")
def linear_symplectic():
    return _linear_symplectic_datum()


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


# -- orbit coordinates against the per-vertex oracle ----------------------------------


def _model(case, law, precision):
    ctx = build_law(law, precision)
    if case == "linear_symplectic":
        return build_wonderful_graph(_linear_symplectic_datum(), ctx)
    return build_wonderful_graph(build_symmetric_datum(case), ctx)


def _expand(graph, gens, basis):
    """Whole tuples from values at the orbit roots: f at u is t_u(f at its root)."""
    orbits = vertex_orbits(graph, gens)
    ctx, datum = graph.ctx, graph.datum
    return [
        GKMClass(graph, [
            weyl_act(orbits.transversal[u], values[orbits.root_of[u]], ctx, datum)
            for u in range(graph.nvertices)
        ])
        for values in basis
    ]


def _check_against_reference(graph, gens, degrees):
    for d in degrees:
        got = _expand(graph, gens, invariant_tuple_basis(graph, gens, d))
        reference = invariant_tuple_basis_reference(graph, gens, d)
        assert len(got) == len(reference), (graph.kind, d)
        assert span_equal(got, reference), (graph.kind, d)


def _check_both_graphs(model, degrees):
    sd = model.sd
    _check_against_reference(model.x_graph, sd.datum.simple_reflections, degrees)
    _check_against_reference(model.y_graph, _w_theta_generators(sd), degrees)


@pytest.mark.parametrize(
    "case,law,top",
    [
        ("group:psl2", "additive", 3),
        ("group:psl3", "additive", 3),
        ("group:b2", "additive", 3),
        ("group:g2", "additive", 3),
        ("group:psl3", "universal:3", 2),
    ],
)
def test_invariant_tuples_match_all_conditions(case, law, top):
    _check_both_graphs(_model(case, law, 3), range(top + 1))


def test_invariant_tuples_match_all_conditions_linear_symplectic(linear_symplectic):
    model = build_wonderful_graph(linear_symplectic, build_law("additive", 3))
    # one orbit on each graph, its root's stabilizer of order 4 (24/6 on the
    # X-graph, 8/2 on the Y-graph), so the stabilizer conditions are not empty
    x_orbits = vertex_orbits(model.x_graph, linear_symplectic.datum.simple_reflections)
    y_orbits = vertex_orbits(model.y_graph, _w_theta_generators(linear_symplectic))
    assert (len(x_orbits.roots), len(x_orbits.stabilizer)) == (1, 6)
    assert (len(y_orbits.roots), len(y_orbits.stabilizer)) == (1, 4)
    _check_both_graphs(model, range(4))


@pytest.mark.parametrize(
    "case,orbits,ranks",
    [("group:psl2", 2, [1, 1, 4, 4]), ("group:psl3", 6, [1, 2, 7, 17])],
)
def test_invariant_tuples_on_several_orbits(case, orbits, ranks):
    # W_theta acting on the X-graph: one orbit per coset of W_theta in W
    model = _model(case, "additive", 3)
    graph, gens = model.x_graph, _w_theta_generators(model.sd)
    data = vertex_orbits(graph, gens)
    assert len(data.roots) == orbits and data.roots[0] == 0
    assert [len(invariant_tuple_basis(graph, gens, d)) for d in range(4)] == ranks
    _check_against_reference(graph, gens, range(4))


def test_orbits_are_kept_on_the_graph():
    model = _model("group:psl3", "additive", 1)
    gens = model.sd.datum.simple_reflections
    orbits = vertex_orbits(model.x_graph, gens)
    assert vertex_orbits(model.x_graph, list(gens)) is orbits
    assert vertex_orbits(model.x_graph, _w_theta_generators(model.sd)) is not orbits
    for u in range(model.x_graph.nvertices):
        root = orbits.roots[orbits.root_of[u]]
        assert model.x_graph.act_vertex(orbits.transversal[u], root) == u


@pytest.mark.parametrize(
    "edges",
    [
        # the last edge dropped: a generator maps a kept edge onto the gap
        lambda edges: edges[:-1],
        # the last edge relabelled: its translates no longer match
        lambda edges: edges[:-1] + ((*edges[-1][:2], (1, 2)),),
    ],
    ids=["missing", "relabelled"],
)
def test_a_generator_that_breaks_an_edge_raises(edges):
    x = _model("group:psl2", "additive", 1).x_graph
    broken = GKMGraph(
        x.ctx, x.ids, edges(x.edges), datum=x.datum, weyl_vertices=x.weyl_vertices,
        element_to_vertex=x.element_to_vertex, kind=x.kind,
    )
    with pytest.raises(InternalConsistencyError, match="does not map the edge"):
        invariant_tuple_basis(broken, x.datum.simple_reflections, 1)


# -- pinned work and ranks -----------------------------------------------------------


def test_esph_psl3_additive_linear_systems_pinned(monkeypatch, capsys):
    # deterministic work counters: a lost reduction shows up here first
    counts = [0, 0, 0]
    tie_quotient = linalg._tie_quotient

    def counted(rows, ncols):
        classes, quotient = tie_quotient(rows, ncols)
        counts[0] += 1
        counts[1] += len(rows)
        counts[2] += len(quotient)
        return classes, quotient

    monkeypatch.setattr(linalg, "_tie_quotient", counted)
    argv = ["verify", "esph", "--case", "group:psl3", "--law", "additive", "--degree", "3"]
    assert main(argv) == 0
    capsys.readouterr()
    assert counts == [4, 20, 20]


@pytest.mark.parametrize(
    "case,law,ranks",
    [
        ("group:psl3", "universal:3", [54, 34, 19, 13]),
        ("group:b2", "additive", [1, 2, 6, 12]),
        ("group:b2", "universal:3", [147, 104, 66, 36, 24]),
    ],
)
def test_esph_ranks_pinned(case, law, ranks):
    top = len(ranks) - 1
    report = verify_esph(_model(case, law, top), top)
    assert report["pass"], report
    assert [(d["rank"], d["x_tuple_rank"], d["y_rank"]) for d in report["degrees"]] == [
        (r, r, r) for r in ranks
    ]


# -- one solve per distinct route system -----------------------------------------------


def _route_keys(model, degree):
    sd = model.sd
    return [
        system.canonical_rows()
        for system in (
            reduced_system(model, degree),
            invariant_tuple_system(model.x_graph, sd.datum.simple_reflections, degree),
            invariant_tuple_system(model.y_graph, _w_theta_generators(sd), degree),
        )
    ]


def test_canonical_rows_key_the_set_of_rows():
    model = _model("linear_symplectic", "additive", 3)
    reduced = reduced_system(model, 1)
    x = invariant_tuple_system(model.x_graph, model.sd.datum.simple_reflections, 1)
    key, x_key = reduced.canonical_rows(), x.canonical_rows()
    # as many distinct rows on the same unknowns, but other rows
    assert key[:2] == x_key[:2] and len(key[2]) == len(x_key[2])
    assert key != x_key
    # neither the order of the rows nor a repeated row changes the key
    reduced.rows = reduced.rows[::-1] + reduced.rows[:1]
    assert reduced.canonical_rows() == key


def _count_work(monkeypatch):
    """Record the canonical rows of every solved system, and every span_equal
    call of ``verify_esph``."""
    solved, compared = [], []
    solve, span = TupleSystem.solve, wonderful.span_equal

    def counted_solve(self, over="Z"):
        solved.append(self.canonical_rows())
        return solve(self, over)

    def counted_span(a, b):
        compared.append((len(a), len(b)))
        return span(a, b)

    monkeypatch.setattr(TupleSystem, "solve", counted_solve)
    monkeypatch.setattr(wonderful, "span_equal", counted_span)
    return solved, compared


@pytest.mark.parametrize(
    "case,law,top,distinct",
    [
        ("group:psl3", "additive", 3, [1, 1, 1, 1]),
        ("group:b2", "universal:3", 3, [1, 1, 1, 1]),
        ("linear_symplectic", "additive", 3, None),
    ],
)
def test_esph_solves_each_distinct_route_system_once(monkeypatch, case, law, top, distinct):
    model = _model(case, law, top)
    keys = [_route_keys(model, d) for d in range(top + 1)]
    solved, compared = _count_work(monkeypatch)
    report = verify_esph(model, top)
    assert report["pass"], report
    # one solve per distinct row set and degree, in route order
    expected = [key for per_degree in keys for key in dict.fromkeys(per_degree)]
    assert solved == expected
    counts = [len(set(per_degree)) for per_degree in keys]
    if distinct is not None:
        assert counts == distinct and not compared
    else:
        # outside the group case the routes differ, and span_equal compares them
        assert max(counts) > 1 and compared


def _wrong_character(model):
    (w, _), (_, other) = model.restricted_pairs[:2]
    return model, "restricted_pairs", [(w, other)] + model.restricted_pairs[1:]


def _dropped_edge(model):
    restricted = {gamma for _, gamma in model.restricted_pairs}
    orbits = vertex_orbits(model.x_graph, model.sd.datum.simple_reflections)
    drop = next(e for e in orbits.edges if e[2] in restricted)
    return orbits, "edges", [e for e in orbits.edges if e != drop]


@pytest.mark.parametrize(
    "patch,affected",
    [
        # the reduced route loses a restricted congruence's character: both
        # tuple routes now disagree with it
        (_wrong_character, ("x", "y")),
        # the X-tuple route loses a restricted edge representative
        (_dropped_edge, ("x",)),
    ],
    ids=["wrong-character", "dropped-edge"],
)
def test_esph_fallback_comparison_fails_on_a_changed_route(monkeypatch, patch, affected):
    model = _model("group:psl3", "additive", 3)
    monkeypatch.setattr(*patch(model))
    _, compared = _count_work(monkeypatch)
    report = verify_esph(model, 3)
    assert not report["pass"]
    assert compared
    for route in ("x", "y"):
        agrees = [d[f"{route}_route_agrees"] for d in report["degrees"]]
        assert all(agrees) != (route in affected), (route, agrees)
    assert all(d["root_congruences_automatic"] for d in report["degrees"])


# -- the root congruences: no row survives ---------------------------------------------


@pytest.mark.parametrize("law", ["additive", "universal:3"])
@pytest.mark.parametrize("case", ["group:psl3", "group:b2", "group:g2", "linear_symplectic"])
def test_root_congruence_rows_are_empty(case, law):
    model = _model(case, law, 3)
    assert model.root_pairs
    for d in range(4):
        system = root_congruence_system(model, d)
        assert system.monos and system.rows == [], (case, law, d)


def test_a_root_paired_with_another_reflection_leaves_rows(monkeypatch):
    model = _model("group:psl3", "additive", 3)
    pairs = model.root_pairs
    # each root with the reflection of the next one: never its own
    wrong = [(w, beta) for (w, _), (_, beta) in zip(pairs[1:] + pairs[:1], pairs)]
    monkeypatch.setattr(model, "root_pairs", wrong)
    assert root_congruence_system(model, 0).rows == []  # constants are fixed
    assert all(root_congruence_system(model, d).rows for d in (1, 2, 3))
    report = verify_esph(model, 3)
    assert not report["pass"]
    assert [d["root_congruences_automatic"] for d in report["degrees"]] == [
        True, False, False, False
    ]
    assert all(d["x_route_agrees"] and d["y_route_agrees"] for d in report["degrees"])
