"""Moment graphs of wonderful compactifications of minimal-rank symmetric
spaces, the two invariant subrings attached to them, and the projective-space
model of the rank-one group case.

The fixed points are the cosets w * z over W/W_L.  Curves come in two
species: translates of the root curves (character w(alpha) for alpha a
positive root outside the Levi) joining w z to w s_alpha z, and translates of
the restricted curves (character w(gamma), gamma = alpha - theta(alpha))
joining w z to w s_alpha s_{theta(alpha)} z.  The toric subvariety has the
fixed points w z for w in W^theta and sees only the restricted curves.  Both
graphs are coset graphs, each built by one call of :func:`gkm.coset_graph`.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import (
    InternalConsistencyError,
    PrecisionExhaustedError,
    RepeatedWeightError,
    UnsupportedTypeError,
)
from .gkm import (
    GKMClass,
    GKMGraph,
    TupleSystem,
    ambient_monomials,
    coset_graph,
    membership,
    span_equal,
)
from .linalg import canonical_sign, vneg, vsub
from .roots import SymmetricDatum, WeylElement, weyl_act
from .series import GradedSeries


class WonderfulModel:
    """The X- and Y-graphs of one wonderful compactification, with coset data."""

    def __init__(self, sd: SymmetricDatum, ctx):
        self.sd = sd
        self.ctx = ctx
        self.precision = ctx.precision
        datum = sd.datum
        levi_roots = set(sd.sigma_L_pos)
        root_curves = [
            (datum.reflection(beta), beta)
            for beta in datum.positive_roots
            if beta not in levi_roots
        ]
        restricted_curves = [
            (sd.restricted_reflection(k).matrix, gamma)
            for k, (gamma, _, _) in enumerate(sd.restricted)
        ]
        self.x_graph, (self.root_edge_count, self.restricted_edge_count) = (
            coset_graph(ctx, datum, datum.weyl(), sd.w_L,
                        [root_curves, restricted_curves], "wonderful")
        )
        self.y_graph, _ = coset_graph(
            ctx, datum, sd.w_theta, sd.w_L, [restricted_curves], "toric"
        )

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
    # the graphs are integral objects; the invariant subrings below are
    # rational statements, solved with TupleSystem.solve(over="Q")
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
    (w f)_v = w(f at w^{-1} v).

    Invariance under g is the condition g(f at u) = f at g u for every
    vertex u.  For an involution g the conditions at u and at g u are
    equivalent (apply g to one to get the other), so one per 2-cycle of g
    on the vertices is imposed, at the lesser vertex, and a fixed vertex
    keeps its own.  That g is an involution is read off its matrix and then
    checked on the series: g must send each image g(m) back to the monomial
    m, or ``InternalConsistencyError`` is raised.  Every other generator
    keeps all its conditions.  The solution space, and so the basis, is the
    same either way."""
    ctx = graph.ctx
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
        involution = _is_involution(g, monos, images, ctx, datum)
        for u in range(graph.nvertices):
            gu = graph.act_vertex(g, u)
            if involution and gu < u:
                continue  # imposed at gu
            system.require([(u, 1, images), (gu, -1, monos)])
    return [GKMClass(graph, values) for values in system.solve(over="Q")]


def _is_involution(g: WeylElement, monos, images, ctx, datum) -> bool:
    """Whether g squares to the identity matrix; if it does, g must also
    send every image ``images[k] = g(monos[k])`` back to ``monos[k]``."""
    square = g.compose(g).matrix
    if any(x != (i == j) for i, row in enumerate(square) for j, x in enumerate(row)):
        return False
    for k, (f, image) in enumerate(zip(monos, images)):
        if weyl_act(g, image, ctx, datum) != f:
            raise InternalConsistencyError(
                f"Weyl element {g.id_string()} squares to the identity but "
                f"does not undo its action on monomial {k}"
            )
    return True


def _w_theta_generators(sd: SymmetricDatum) -> list[WeylElement]:
    gens = [sd.datum.simple_reflections[i] for i in sd.delta_L]
    gens += [sd.restricted_reflection(k) for k in range(len(sd.restricted))]
    return gens


def invariant_subring_Y(model: WonderfulModel, degree: int) -> list[GradedSeries]:
    """Invariant classes on the toric subgraph, restricted at the base point."""
    ctx = model.ctx
    if degree > ctx.precision:
        raise PrecisionExhaustedError("degree exceeds working precision")
    basis = invariant_tuple_basis(
        model.y_graph, _w_theta_generators(model.sd), degree
    )
    return [c.values[0] for c in basis]


def verify_esph(model: WonderfulModel, degree: int) -> dict:
    """Compare, degree by degree, four routes to the invariant subring:

    * the reduced description (Levi invariance + restricted congruences),
    * the same with the automatic root congruences imposed as well,
    * full invariant tuples on the X-graph restricted at the base point,
    * invariant tuples on the toric subgraph restricted at the base point.
    """
    datum = model.sd.datum
    report = {"degrees": [], "pass": True}
    for m in range(0, degree + 1):
        reduced = invariant_subring_X(model, m)
        with_root_edges = invariant_subring_X(model, m, impose_root_edges=True)
        x_tuples = invariant_tuple_basis(model.x_graph, datum.simple_reflections, m)
        x_restricted = [c.values[0] for c in x_tuples]
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
