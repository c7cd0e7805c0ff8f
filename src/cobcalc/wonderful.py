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
from .roots import SymmetricDatum, WeylElement
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
    if not system.monos:
        return []
    for i in sd.delta_L:
        system.require([(0, 1, datum.simple_reflections[i]), (0, -1, None)])
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
        system.require([(0, 1, None), (0, -1, w)], chi)
    return [values[0] for values in system.solve(over="Q")]


class VertexOrbits:
    """The orbits of the group generated by ``generators`` on the vertices of
    a Weyl-labelled graph, read off the graph.

    Orbits are found by breadth-first search over the generators from each
    unvisited vertex in increasing order, so vertex 0 is the root of orbit
    0.  ``roots[k]`` is the root of orbit k, ``root_of[u]`` the orbit of
    vertex u and ``transversal[u]`` a Weyl element t_u with t_u(root) = u,
    where t_{g u} = g t_u along the search tree.

    ``stabilizer`` lists the triples (k, a, b) with a = g t_u and b = t_{g u}
    distinct matrices, for a vertex u of orbit k and a generator g; b^{-1} a
    is a Schreier generator of the stabilizer of the root, so an invariant
    tuple has a(f_k) = b(f_k).  Each (k, a, b) is listed once.  ``edges``
    holds one edge (i, j, chi) per orbit of edges, the first in graph order
    that touches an orbit root.  Each generator must map every edge to an
    edge with the translated character, or ``InternalConsistencyError`` is
    raised: one edge then stands for its whole orbit.
    """

    def __init__(self, graph: GKMGraph, generators: Sequence[WeylElement]):
        n = graph.nvertices
        perms = [[graph.act_vertex(g, u) for u in range(n)] for g in generators]
        rank = graph.datum.rank
        identity = WeylElement(
            tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank)), ()
        )
        self.roots: list[int] = []
        self.root_of: list = [None] * n
        self.transversal: list = [None] * n
        for start in range(n):
            if self.root_of[start] is not None:
                continue
            k = len(self.roots)
            self.roots.append(start)
            self.root_of[start] = k
            self.transversal[start] = identity
            queue = [start]
            for u in queue:
                for g, perm in zip(generators, perms):
                    gu = perm[u]
                    if self.root_of[gu] is None:
                        self.root_of[gu] = k
                        self.transversal[gu] = g.compose(self.transversal[u])
                        queue.append(gu)
        stabilizer = {}
        for u in range(n):
            for g, perm in zip(generators, perms):
                a = g.compose(self.transversal[u])
                b = self.transversal[perm[u]]
                if a.matrix != b.matrix:
                    k = self.root_of[u]
                    stabilizer.setdefault((k, a.matrix, b.matrix), (k, a, b))
        self.stabilizer = list(stabilizer.values())
        self.edges = self._edge_orbit_representatives(graph, generators, perms)

    def _edge_orbit_representatives(self, graph, generators, perms) -> list:
        edges = graph.edges
        index = {(i, j): e for e, (i, j, _) in enumerate(edges)}
        is_root = set(self.roots)
        seen = [False] * len(edges)
        out = []
        for e, (i, j, _) in enumerate(edges):
            if seen[e] or (i not in is_root and j not in is_root):
                continue
            out.append(edges[e])
            seen[e] = True
            queue = [e]
            for f in queue:
                i, j, chi = edges[f]
                for g, perm in zip(generators, perms):
                    image = index.get((min(perm[i], perm[j]), max(perm[i], perm[j])))
                    if image is None or edges[image][2] != canonical_sign(g.act(chi)):
                        raise InternalConsistencyError(
                            f"Weyl element {g.id_string()} does not map the edge "
                            f"{graph.ids[i]}-{graph.ids[j]} to an edge of the graph"
                        )
                    if not seen[image]:
                        seen[image] = True
                        queue.append(image)
        return out


def vertex_orbits(graph: GKMGraph, generators: Sequence[WeylElement]) -> VertexOrbits:
    """The :class:`VertexOrbits` of ``generators`` on ``graph``, computed on
    first use and kept on the graph, keyed by the generators' matrices."""
    memo = vars(graph).setdefault("vertex_orbits", {})
    key = tuple(g.matrix for g in generators)
    orbits = memo.get(key)
    if orbits is None:
        orbits = memo[key] = VertexOrbits(graph, generators)
    return orbits


def invariant_tuple_basis(
    graph: GKMGraph, generators: Sequence[WeylElement], degree: int
) -> list[list[GradedSeries]]:
    """Rational basis of degree-``degree`` classes on the graph invariant
    under the group generated by ``generators`` acting by
    (w f)_v = w(f at w^{-1} v), each given by its values at the orbit roots
    of :func:`vertex_orbits`: entry k is the value at ``roots[k]``, so entry
    0 is the value at vertex 0.

    An invariant class is fixed by these values (Goresky, Kottwitz and
    MacPherson): f at u is t_u(f at its root).  Such a tuple is invariant
    exactly when a(f_k) = b(f_k) for each stabilizer condition (k, a, b), and
    it is a class exactly when it meets the congruence of one edge per edge
    orbit; so restriction to the roots is a bijection from the invariant
    classes onto the solutions of these conditions."""
    ctx = graph.ctx
    orbits = vertex_orbits(graph, generators)
    system = TupleSystem(
        ctx, graph.nvars, len(orbits.roots), ambient_monomials(ctx, graph.nvars, degree)
    )
    if not system.monos:
        return []
    for k, a, b in orbits.stabilizer:
        system.require([(k, 1, a), (k, -1, b)])
    root_of, transversal = orbits.root_of, orbits.transversal
    for (i, j, chi) in orbits.edges:
        system.require([(root_of[i], 1, transversal[i]), (root_of[j], -1, transversal[j])], chi)
    return system.solve(over="Q")


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
    return [values[0] for values in basis]


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
        x_restricted = [values[0] for values in x_tuples]
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
