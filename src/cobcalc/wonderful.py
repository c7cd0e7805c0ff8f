"""Moment graphs of wonderful compactifications of minimal-rank symmetric
spaces, the two invariant subrings attached to them, and the projective-space
model of the rank-one group case.

The fixed points are the cosets w * z over W/W_L.  Curves come in two
species: translates of the root curves (character w(alpha) for alpha a
positive root outside the Levi) joining w z to w s_alpha z, and translates of
the restricted curves (character w(gamma), gamma = alpha - theta(alpha))
joining w z to w s_alpha s_{theta(alpha)} z.  The toric subvariety sees only
the restricted curves.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import (
    CoefficientModeError,
    PrecisionExhaustedError,
    RepeatedWeightError,
    UnsupportedTypeError,
)
from .gkm import (
    GKMClass,
    GKMGraph,
    TupleSystem,
    ambient_monomials,
    constant_class,
    membership,
    span_equal,
)
from .linalg import canonical_sign, vneg, vsub
from .roots import SymmetricDatum, WeylElement, mat_mul, weyl_act
from .series import GradedSeries


class WonderfulModel:
    """The X- and Y-graphs of one wonderful compactification, with coset data."""

    def __init__(self, sd: SymmetricDatum, ctx):
        self.sd = sd
        self.ctx = ctx
        self.precision = ctx.precision
        datum = sd.datum
        weyl = datum.weyl()
        wl = set(sd.w_L)

        # cosets of W/W_L, represented by their least-BFS-index element
        index_of = {w.matrix: i for i, w in enumerate(weyl)}
        rep_of: dict = {}
        reps: list[int] = []
        for i, w in enumerate(weyl):
            if w.matrix in rep_of:
                continue
            members = sorted(index_of[mat_mul(w.matrix, l)] for l in wl)
            rep = members[0]
            if rep == i:
                reps.append(i)
            for k in members:
                rep_of[weyl[k].matrix] = rep
        vertex_of_rep = {rep: v for v, rep in enumerate(reps)}
        element_to_vertex = {
            m: vertex_of_rep[rep] for m, rep in rep_of.items()
        }
        vertices = [weyl[rep] for rep in reps]

        sigma_plus_outside = [
            beta
            for beta in datum.positive_roots
            if beta not in set(sd.sigma_L_pos)
        ]
        edges: dict = {}

        def add_edge(i, j, chi):
            if i == j:
                return
            key = (min(i, j), max(i, j), canonical_sign(chi))
            edges[key] = True

        root_edge_count = 0
        for w in weyl:
            wi = element_to_vertex[w.matrix]
            for beta in sigma_plus_outside:
                wj = element_to_vertex[mat_mul(w.matrix, datum.reflection(beta))]
                add_edge(wi, wj, w.act(beta))
        root_edge_count = len(edges)
        for w in weyl:
            wi = element_to_vertex[w.matrix]
            for k in range(len(sd.restricted)):
                r = sd.restricted_reflection(k)
                wj = element_to_vertex[mat_mul(w.matrix, r.matrix)]
                gamma = sd.restricted[k][0]
                add_edge(wi, wj, w.act(gamma))
        self.root_edge_count = root_edge_count
        self.restricted_edge_count = len(edges) - root_edge_count

        self.x_graph = GKMGraph(
            ctx,
            ids=[v.id_string() for v in vertices],
            edges=[(i, j, chi) for (i, j, chi) in sorted(edges)],
            base=0,
            datum=datum,
            weyl_vertices=vertices,
            element_to_vertex=element_to_vertex,
            kind="wonderful",
        )

        # toric subgraph: the W^theta-orbit of the base point, restricted curves
        y_vertex_set = sorted(
            {element_to_vertex[w.matrix] for w in sd.w_theta}
        )
        y_index = {v: i for i, v in enumerate(y_vertex_set)}
        y_edges: dict = {}
        for w in sd.w_theta:
            wi = element_to_vertex[w.matrix]
            for k in range(len(sd.restricted)):
                r = sd.restricted_reflection(k)
                wj = element_to_vertex[mat_mul(w.matrix, r.matrix)]
                gamma = sd.restricted[k][0]
                key = (
                    min(y_index[wi], y_index[wj]),
                    max(y_index[wi], y_index[wj]),
                    canonical_sign(w.act(gamma)),
                )
                y_edges[key] = True
        y_element_to_vertex = {
            w.matrix: y_index[element_to_vertex[w.matrix]] for w in sd.w_theta
        }
        self.y_graph = GKMGraph(
            ctx,
            ids=[self.x_graph.ids[v] for v in y_vertex_set],
            edges=[(i, j, chi) for (i, j, chi) in sorted(y_edges)],
            base=0,
            datum=datum,
            weyl_vertices=[vertices[v] for v in y_vertex_set],
            element_to_vertex=y_element_to_vertex,
            kind="toric",
        )
        self.y_vertex_set = y_vertex_set

    def counts(self) -> dict:
        out = self.sd.counts()
        out.update(
            {
                "x_vertices": self.x_graph.nvertices,
                "x_edges": len(self.x_graph.edges),
                "x_root_edges": self.root_edge_count,
                "x_restricted_edges": self.restricted_edge_count,
                "y_vertices": self.y_graph.nvertices,
                "y_edges": len(self.y_graph.edges),
            }
        )
        return out


def build_wonderful_graph(sd: SymmetricDatum, ctx) -> WonderfulModel:
    # graphs are integral objects; only the subring solvers insist on Q
    return WonderfulModel(sd, ctx)


# -- invariant subrings ------------------------------------------------------------


def invariant_subring_X(
    model: WonderfulModel, degree: int, impose_root_edges: bool = False
) -> list[GradedSeries]:
    """Rational basis of the degree-``degree`` piece of the invariant
    subring, in its reduced description: Levi-invariant f with
    f = s_alpha s_{theta alpha}(f) mod x_gamma for every restricted basis
    root.

    Root-curve congruences are *not* imposed (they hold automatically; pass
    ``impose_root_edges=True`` to check that imposing them changes nothing).
    """
    ctx = model.ctx
    if not ctx.rational:
        raise CoefficientModeError("invariant subrings are computed rationally")
    if degree > ctx.precision:
        raise PrecisionExhaustedError("degree exceeds working precision")
    sd = model.sd
    datum = sd.datum
    system = TupleSystem(ctx, datum.rank, 1, ambient_monomials(ctx, datum.rank, degree))
    monos = system.monomials
    if not monos:
        return []
    for i in sd.delta_L:
        g = datum.simple_reflections[i]
        system.require([(0, 1, [weyl_act(g, f, ctx, datum) for f in monos]),
                        (0, -1, monos)])
    # f = w(f) mod x_chi for each (w, chi)
    pairs = [
        (sd.restricted_reflection(k), gamma)
        for k, (gamma, _, _) in enumerate(sd.restricted)
    ]
    if impose_root_edges:
        pairs += [
            (datum.reflection_element(beta), beta)
            for beta in datum.positive_roots
            if beta not in set(sd.sigma_L_pos)
        ]
    for (w, chi) in pairs:
        system.require([(0, 1, [f - weyl_act(w, f, ctx, datum) for f in monos])], chi)
    return [values[0] for values in system.solve(over="Q")]


def invariant_tuple_basis(
    graph: GKMGraph, generators: Sequence[WeylElement], degree: int
) -> list[GKMClass]:
    """Rational basis of degree-``degree`` classes on the graph invariant
    under the group generated by ``generators`` acting by
    (w f)_v = w(f at w^{-1} v)."""
    ctx = graph.ctx
    if not ctx.rational:
        raise CoefficientModeError("invariant subrings are computed rationally")
    datum = graph.datum
    system = TupleSystem(
        ctx, graph.nvars, graph.nvertices, ambient_monomials(ctx, graph.nvars, degree)
    )
    monos = system.monomials
    if not monos:
        return []
    for (i, j, chi) in graph.edges:
        system.require([(i, 1, monos), (j, -1, monos)], chi)
    # invariance: g(f at u) = f at g u
    for g in generators:
        images = [weyl_act(g, f, ctx, datum) for f in monos]
        for u in range(graph.nvertices):
            system.require([(u, 1, images), (graph.act_vertex(g, u), -1, monos)])
    return [GKMClass(graph, values) for values in system.solve(over="Q")]


def _w_theta_generators(sd: SymmetricDatum) -> list[WeylElement]:
    gens = [sd.datum.simple_reflections[i] for i in sd.delta_L]
    gens += [sd.restricted_reflection(k) for k in range(len(sd.restricted))]
    return gens


def invariant_subring_Y(model: WonderfulModel, degree: int) -> list[GradedSeries]:
    """Invariant classes on the toric subgraph, restricted at the base point."""
    ctx = model.ctx
    if not ctx.rational:
        raise CoefficientModeError("invariant subrings are computed rationally")
    if degree > ctx.precision:
        raise PrecisionExhaustedError("degree exceeds working precision")
    basis = invariant_tuple_basis(
        model.y_graph, _w_theta_generators(model.sd), degree
    )
    return [c.values[model.y_graph.base] for c in basis]


def verify_esph(model: WonderfulModel, degree: int) -> dict:
    """Compare, degree by degree, four routes to the invariant subring:

    * the reduced description (Levi invariance + restricted congruences),
    * the same with the automatic root congruences imposed as well,
    * full invariant tuples on the X-graph restricted at the base point,
    * invariant tuples on the toric subgraph restricted at the base point.
    """
    ctx = model.ctx
    if not ctx.rational:
        raise CoefficientModeError("the comparison is a rational statement")
    sd = model.sd
    datum = sd.datum
    report = {"degrees": [], "pass": True}
    for m in range(0, degree + 1):
        reduced = invariant_subring_X(model, m)
        with_root_edges = invariant_subring_X(model, m, impose_root_edges=True)
        x_tuples = invariant_tuple_basis(model.x_graph, datum.simple_reflections, m)
        x_restricted = [c.values[model.x_graph.base] for c in x_tuples]
        y_restricted = invariant_subring_Y(model, m)
        agree_root = span_equal(reduced, with_root_edges)
        agree_x = span_equal(reduced, x_restricted)
        agree_y = span_equal(reduced, y_restricted)
        entry = {
            "degree": m,
            "rank": len(reduced),
            "x_tuple_rank": len(x_tuples),
            "y_rank": len(y_restricted),
            "root_congruences_automatic": bool(agree_root),
            "x_route_agrees": bool(agree_x),
            "y_route_agrees": bool(agree_y),
        }
        report["degrees"].append(entry)
        report["pass"] = report["pass"] and agree_root and agree_x and agree_y
    return report


# -- projective space models ---------------------------------------------------------


def projective_space_model(weights, ctx, weyl_vertices=None, element_to_vertex=None,
                           datum=None, ids=None):
    """The moment graph of P(V) for a torus module with the given (pairwise
    distinct) weights: one vertex per weight, edges labelled by differences.

    Returns (graph, report); the report records that the projective-bundle
    relation prod_i (zeta +_F x_{chi_i}) vanishes on the tautological tuple
    zeta|_j = x_{-chi_j}, and that this tuple satisfies the congruences.
    """
    weights = [tuple(w) for w in weights]
    if len(set(weights)) != len(weights):
        raise RepeatedWeightError("projective model needs pairwise distinct weights")
    n = len(weights[0])
    edges = []
    for i in range(len(weights)):
        for j in range(i + 1, len(weights)):
            edges.append((i, j, canonical_sign(vsub(weights[i], weights[j]))))
    graph = GKMGraph(
        ctx,
        ids=ids or [f"p{i}" for i in range(len(weights))],
        edges=edges,
        base=0,
        datum=datum,
        weyl_vertices=weyl_vertices,
        element_to_vertex=element_to_vertex,
        nvars=n,
        kind="projective",
    )
    zeta = GKMClass(graph, [ctx.formal_sum(vneg(w)) for w in weights])
    ok, witness = membership(zeta, graph)
    relation = GKMClass(
        graph,
        [GradedSeries.constant(1, n, ctx.precision)] * len(weights),
    )
    for chi in weights:
        x_chi = ctx.formal_sum(chi)
        factor = GKMClass(
            graph,
            [
                ctx.group_law.substitute([zeta.values[v], x_chi])
                for v in range(len(weights))
            ],
        )
        relation = relation * factor
    report = {
        "zeta_is_member": bool(ok),
        "zeta_witness": witness,
        "relation_vanishes": relation.is_zero(),
    }
    return graph, zeta, report


_GROUP_A1_WEIGHTS = {
    # coset id -> weight of the corresponding fixed point of P(End(k^2)),
    # shifted into the lattice (differences are what matter)
    "e": (1, 0),
    "1": (0, 0),
    "2": (1, 1),
    "12": (0, 1),
}


def group_psl2_projective_model(model: WonderfulModel):
    """The direct projective-space route for the rank-one group case.

    The wonderful compactification is the projectivised endomorphism space;
    its four fixed points are matched to the Weyl cosets, and the graph built
    from weight differences must agree edge for edge with the abstract one.
    """
    sd = model.sd
    if sd.datum.rank != 2 or len(sd.restricted) != 1:
        raise UnsupportedTypeError(
            "the projective model is wired for the rank-one group case"
        )
    x = model.x_graph
    try:
        weights = [_GROUP_A1_WEIGHTS[vid] for vid in x.ids]
    except KeyError:
        raise UnsupportedTypeError("unexpected coset labels") from None
    graph, zeta, report = projective_space_model(
        weights,
        model.ctx,
        weyl_vertices=x.weyl_vertices,
        element_to_vertex=x.element_to_vertex,
        datum=x.datum,
        ids=x.ids,
    )
    report["edges_match_wonderful"] = set(graph.edges) == set(x.edges)
    return graph, zeta, report


def naive_presentation_report(model: WonderfulModel) -> dict:
    """Record (without asserting) whether the literal polynomial relations of
    the rank-one worked example vanish on the moment-graph tuples: on X the
    square of x^2 - t1^2 t2^2 and on Y the square of x - t1 t2, with x read as
    the tautological hyperplane tuple and t_i as constants."""
    graph, zeta, _ = group_psl2_projective_model(model)
    ctx = model.ctx
    n = graph.nvars
    p = ctx.precision
    t1 = GradedSeries.variable(0, n, p)
    t2 = GradedSeries.variable(1, n, p)
    t1sq_t2sq = t1 * t1 * t2 * t2
    x_expr = zeta * zeta - constant_class(graph, t1sq_t2sq)
    x_rel = x_expr * x_expr
    y_vertices = [graph.ids.index(model.y_graph.ids[i])
                  for i in range(model.y_graph.nvertices)]
    y_vals = []
    for v in y_vertices:
        expr = zeta.values[v] - t1 * t2
        y_vals.append(expr * expr)
    return {
        "x_relation_literal_zero": x_rel.is_zero(),
        "y_relation_literal_zero": all(s.is_zero() for s in y_vals),
    }
