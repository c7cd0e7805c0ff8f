"""Moment-graph models: fixed points with character-labelled edges, the
congruence (membership) test, line bundle classes, graded basis solvers, and
the comparison map from the Borel presentation, a (x) b -> (w(a) * b)_w.

Every Weyl-labelled graph is a coset graph, built by :func:`coset_graph`:
the fixed points are cosets w W_L and each curve (r, chi) joins w W_L to
w r W_L with the character w(chi).  The flag graph takes all of W, the
trivial W_L and the reflections of the positive roots; the wonderful and
toric graphs of :mod:`cobcalc.wonderful` take root and restricted curves.

A class on a graph is a tuple of series, one per vertex; it is a member of
the model ring when for every edge (v, w, chi) the difference of the two
entries is exactly divisible by the character class x_chi.
"""

from __future__ import annotations

from .errors import (
    InternalConsistencyError,
    NotDivisibleError,
    NVarsMismatchError,
    PrecisionExhaustedError,
    UnsupportedTypeError,
)
from . import linalg
from .linalg import canonical_sign
from .roots import RootDatum, WeylElement, mat_mul, weyl_act
from .series import GradedSeries, elementary_symmetric


class GKMGraph:
    """Vertices, labelled edges, and the bound law context; vertex 0 is the
    base point.

    ``weyl_vertices`` (when present) identifies vertices with Weyl cosets so
    the group can act; ``element_to_vertex`` sends *every* Weyl matrix to the
    vertex of its coset.
    """

    def __init__(
        self,
        ctx,
        ids,
        edges,
        datum: RootDatum | None = None,
        weyl_vertices=None,
        element_to_vertex=None,
        nvars: int | None = None,
        kind: str = "generic",
    ):
        self.ctx = ctx
        self.precision = ctx.precision
        self.ids = tuple(ids)
        self.edges = tuple(
            (i, j, tuple(chi)) for (i, j, chi) in edges
        )
        self.datum = datum
        self.weyl_vertices = tuple(weyl_vertices) if weyl_vertices else None
        self.element_to_vertex = element_to_vertex
        self.nvars = nvars if nvars is not None else (datum.rank if datum else 0)
        self.kind = kind
        for (i, j, chi) in self.edges:
            if not any(chi):
                raise InternalConsistencyError("edge character must be nonzero")

    @property
    def nvertices(self) -> int:
        return len(self.ids)

    def act_vertex(self, w: WeylElement, i: int) -> int:
        """Left translation: the vertex of w * (coset of vertex i)."""
        if self.element_to_vertex is None or self.weyl_vertices is None:
            raise UnsupportedTypeError("graph has no Weyl vertex action")
        return self.element_to_vertex[mat_mul(w.matrix, self.weyl_vertices[i].matrix)]

    def act_vertex_right(self, i: int, s: WeylElement) -> int:
        """Right multiplication, used for the {w, w s_alpha} edge pairing."""
        if self.element_to_vertex is None or self.weyl_vertices is None:
            raise UnsupportedTypeError("graph has no Weyl vertex action")
        return self.element_to_vertex[mat_mul(self.weyl_vertices[i].matrix, s.matrix)]

    def to_json(self) -> dict:
        return {
            "vertices": list(self.ids),
            "base": self.ids[0],
            "edges": [
                {"v": self.ids[i], "w": self.ids[j], "chi": list(chi)}
                for (i, j, chi) in self.edges
            ],
        }


class GKMClass:
    __slots__ = ("graph", "values", "precision")

    def __init__(self, graph: GKMGraph, values):
        values = tuple(values)
        if len(values) != graph.nvertices:
            raise NVarsMismatchError("one series per vertex required")
        p = min(v.precision for v in values)
        self.graph = graph
        self.values = tuple(v.truncate(p) for v in values)
        self.precision = p

    def __add__(self, other: "GKMClass") -> "GKMClass":
        return GKMClass(self.graph, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "GKMClass") -> "GKMClass":
        return GKMClass(self.graph, [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self) -> "GKMClass":
        return GKMClass(self.graph, [-a for a in self.values])

    def __mul__(self, other: "GKMClass") -> "GKMClass":
        return GKMClass(self.graph, [a * b for a, b in zip(self.values, other.values)])

    def truncate(self, d: int) -> "GKMClass":
        return GKMClass(self.graph, [a.truncate(d) for a in self.values])

    def specialize_b_zero(self) -> "GKMClass":
        return GKMClass(self.graph, [a.specialize_b_zero() for a in self.values])

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def __eq__(self, other):
        if not isinstance(other, GKMClass):
            return NotImplemented
        if self.graph is not other.graph:
            raise NVarsMismatchError("classes live on different graphs")
        return all(a == b for a, b in zip(self.values, other.values))

    __hash__ = None

    def to_json(self, ngens: int | None = None) -> dict:
        if ngens is None:
            ngens = self.graph.ctx.bgens
        return {
            vid: v.to_json(ngens) for vid, v in zip(self.graph.ids, self.values)
        }

    def __repr__(self):
        return f"GKMClass({dict(zip(self.graph.ids, self.values))!r})"


def constant_class(graph: GKMGraph, f) -> GKMClass:
    if not isinstance(f, GradedSeries):
        f = GradedSeries.constant(f, graph.nvars, graph.precision)
    return GKMClass(graph, [f] * graph.nvertices)


# -- graphs ------------------------------------------------------------------------


def coset_graph(ctx, datum: RootDatum, elements, levi, families, kind: str):
    """The moment graph on the cosets w W_L of ``elements``.

    ``elements`` are Weyl elements in BFS order, a union of cosets of the
    subgroup ``levi`` (its matrices); each coset is a vertex, numbered in
    first-seen order and represented by its element of least BFS index.
    ``families`` are lists of curves (r, chi), r a Weyl matrix: each gives,
    for every w, the edge {w W_L, w r W_L} labelled by w(chi) up to sign.
    A loop, or two characters on one vertex pair, is a defect.  Returns the
    graph and, per family, the number of edges it was the first to add.
    """
    element_to_vertex = {}
    vertices = []
    for w in elements:
        if w.matrix not in element_to_vertex:
            for m in levi:
                element_to_vertex[mat_mul(w.matrix, m)] = len(vertices)
            vertices.append(w)
    edges: dict = {}
    counts = []
    for family in families:
        before = len(edges)
        for w in elements:
            i = element_to_vertex[w.matrix]
            for r, chi in family:
                j = element_to_vertex[mat_mul(w.matrix, r)]
                if i == j:
                    raise InternalConsistencyError(f"curve {chi} is a loop")
                key = (min(i, j), max(i, j))
                label = canonical_sign(w.act(chi))
                if edges.setdefault(key, label) != label:
                    raise InternalConsistencyError(
                        f"conflicting edge characters on vertices {key}"
                    )
        counts.append(len(edges) - before)
    graph = GKMGraph(
        ctx,
        ids=[w.id_string() for w in vertices],
        edges=[(i, j, chi) for (i, j), chi in sorted(edges.items())],
        datum=datum,
        weyl_vertices=vertices,
        element_to_vertex=element_to_vertex,
        kind=kind,
    )
    return graph, counts


def flag_gkm(datum: RootDatum, ctx) -> GKMGraph:
    """The flag moment graph: vertices are Weyl elements, one edge {w, w s_beta}
    per positive root beta, labelled by w(beta)."""
    weyl = datum.weyl()
    curves = [(datum.reflection(beta), beta) for beta in datum.positive_roots]
    graph, _ = coset_graph(ctx, datum, weyl, [weyl[0].matrix], [curves], "flag")
    return graph


def line_bundle_class(chi, graph: GKMGraph) -> GKMClass:
    """The class restricting at w to x_{w(chi)}."""
    if graph.weyl_vertices is None:
        raise UnsupportedTypeError("line bundle classes need a Weyl-labelled graph")
    chi = tuple(chi)
    values = [
        graph.ctx.formal_sum(w.act(chi)) for w in graph.weyl_vertices
    ]
    return GKMClass(graph, values)


def membership(c, graph: GKMGraph):
    """Check every edge congruence; returns (ok, witness-or-None)."""
    values = c.values if isinstance(c, GKMClass) else tuple(c)
    for (i, j, chi) in graph.edges:
        diff = values[i] - values[j]
        try:
            graph.ctx.divide_by_character(diff, chi)
        except NotDivisibleError as exc:
            return False, {
                "edge": [graph.ids[i], graph.ids[j]],
                "chi": list(chi),
                "degree": exc.degree,
            }
    return True, None


def class_elementary_symmetric(i: int, classes: list[GKMClass]) -> GKMClass:
    graph = classes[0].graph
    values = [
        elementary_symmetric(i, [c.values[v] for c in classes])
        for v in range(graph.nvertices)
    ]
    return GKMClass(graph, values)


def gln_relations(n: int, graph: GKMGraph) -> dict:
    """Check that e_i(line bundles) - e_i(t) restricts to zero everywhere."""
    if graph.datum is None or not graph.datum.is_gln():
        raise UnsupportedTypeError("relations check needs a gl_n flag graph")
    if graph.datum.rank != n:
        raise NVarsMismatchError("rank mismatch")
    bundles = [
        line_bundle_class(tuple(1 if j == i else 0 for j in range(n)), graph)
        for i in range(n)
    ]
    variables = [
        GradedSeries.variable(i, n, graph.precision) for i in range(n)
    ]
    relations = []
    for i in range(1, n + 1):
        lhs = class_elementary_symmetric(i, bundles)
        rhs = constant_class(graph, elementary_symmetric(i, variables))
        relations.append({"i": i, "zero": (lhs - rhs).is_zero()})
    return {"relations": relations, "pass": all(r["zero"] for r in relations)}


# -- graded solvers ------------------------------------------------------------------


def t_monomials(nvars: int, degree: int) -> list[tuple]:
    """All exponent tuples of the given total degree, deglex order."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        out.extend((first,) + rest for rest in t_monomials(nvars - 1, degree - first))
    return sorted(out, key=lambda e: (sum(e), e))


def b_monomials_of_weight(weight: int, ngens: int) -> list[tuple]:
    """Trimmed exponent tuples of b-monomials of the given weight."""
    if weight == 0:
        return [()]
    out = []

    def rec(remaining, max_gen, acc):
        if remaining == 0:
            exp = [0] * ngens
            for g in acc:
                exp[g - 1] += 1
            trimmed = tuple(exp)
            while trimmed and trimmed[-1] == 0:
                trimmed = trimmed[:-1]
            out.append(trimmed)
            return
        for g in range(min(remaining, max_gen), 0, -1):
            rec(remaining - g, g, acc + [g])

    rec(weight, min(weight, ngens), [])
    return sorted(out)


def ambient_monomials(ctx, nvars: int, coh_degree: int) -> list[tuple]:
    """(t-exponent, b-exponent) pairs of homogeneous cohomological degree;
    a degree above the working precision has none to offer and is refused."""
    if coh_degree > ctx.precision:
        raise PrecisionExhaustedError("degree exceeds working precision")
    out = []
    for tdeg in range(coh_degree, ctx.precision + 1):
        bmonos = b_monomials_of_weight(tdeg - coh_degree, ctx.bgens)
        if not bmonos:
            continue
        for texp in t_monomials(nvars, tdeg):
            for bexp in bmonos:
                out.append((texp, bexp))
    return out


class TupleSystem:
    """Linear conditions on tuples of series, one per vertex, each an unknown
    combination of the monomials ``monos`` ((t-exponent, b-exponent) pairs);
    the unknown for (vertex v, monomial k) is column v * len(monos) + k.
    Each row is a sparse ``{column: value}`` dict.

    A condition names Weyl elements, and the system keeps one memo per Weyl
    matrix: the images of the monomials, through the law context's memoised
    substitution as :func:`roots.weyl_act` computes them, and their
    coordinates per character, from :meth:`coords_modulo`.  However many
    conditions reuse a matrix, its images are computed once and reduced once
    per character.
    """

    def __init__(self, ctx, nvars: int, nvertices: int, monos):
        self.ctx = ctx
        self.nvars = nvars
        self.nvertices = nvertices
        self.monos = list(monos)
        self.monomials = [
            GradedSeries.from_terms(nvars, ctx.precision, {t: {b: 1}})
            for t, b in self.monos
        ]
        self.rows: list[dict] = []
        # Weyl matrix -> (images of the monomials, {chi: their coordinates});
        # the identity, also named by None, maps each monomial to itself
        identity = tuple(tuple(int(i == j) for j in range(nvars)) for i in range(nvars))
        self._memo: dict = dict.fromkeys((None, identity), (self.monomials, {}))

    def coords_modulo(self, series: list[GradedSeries], chi) -> list[dict]:
        """The coordinates of each series, or, given ``chi``, of its normal
        form modulo x_chi: the ring map t_k -> remainder(t_k, x_chi) of
        ``FGLContext.remainder_map`` (Weierstrass preparation), zero exactly
        when x_chi divides the series."""
        if chi is not None:
            series = map(self.ctx.remainder_map(chi).apply, series)
        return [f.coords(self.ctx.precision) for f in series]

    def _reduced(self, w: WeylElement | None, chi) -> list[dict]:
        matrix = None if w is None else w.matrix
        entry = self._memo.get(matrix)
        if entry is None:
            subst = self.ctx.substitution(zip(*matrix))
            entry = self._memo[matrix] = ([subst.apply(f) for f in self.monomials], {})
        images, reduced = entry
        got = reduced.get(chi)
        if got is None:
            got = reduced[chi] = self.coords_modulo(images, chi)
        return got

    def require(self, parts, chi=None) -> None:
        """Impose one linear condition on the unknown tuple f.

        A part ``(v, scale, w)`` stands for ``scale * w(f_v)``, with w a
        :class:`WeylElement` or None for the identity.  The parts must sum to
        zero, exactly or, given ``chi``, modulo x_chi.  Adds one row per
        touched coordinate (of the normal form, modulo x_chi) in sorted order
        and drops zero rows.
        """
        chi = None if chi is None else tuple(chi)
        nm = len(self.monos)
        coords: dict = {}
        for v, scale, w in parts:
            for k, img in enumerate(self._reduced(w, chi)):
                col = v * nm + k
                for key, val in img.items():
                    entry = coords.setdefault(key, {})
                    entry[col] = entry.get(col, 0) + scale * val
        for key in sorted(coords):
            row = {col: val for col, val in coords[key].items() if val}
            if row:
                self.rows.append(row)

    def canonical_rows(self) -> tuple:
        """A key that two systems share exactly when they have the same
        unknowns and the same set of rows, and so the same solutions:
        (nvertices, monos, the frozenset of each row's sorted items)."""
        return (
            self.nvertices,
            tuple(self.monos),
            frozenset(tuple(sorted(row.items())) for row in self.rows),
        )

    def solve(self, over: str = "Z") -> list[list[GradedSeries]]:
        """A basis of the solutions, each as one series per vertex; empty
        when there are no monomials, hence no unknowns.

        ``over="Q"``: the certified reduced basis of the rational solutions,
        one primitive integer vector per free unknown.  ``over="Z"``: the
        basis of the lattice of integer solutions that saturates it, in
        Hermite normal form on the free unknowns.  Both come from
        ``linalg.kernel`` on the sparse rows as they are, and both are
        canonical, so they do not depend on the order of the conditions.
        Column v * len(monos) + k of a solution is the coefficient of
        monomial k at vertex v."""
        nm = len(self.monos)
        if not nm:
            return []
        basis = linalg.kernel(self.rows, self.nvertices * nm, over)
        p = self.ctx.precision
        labels = [label for m in self.monomials for label in m.coords(p)]
        out = []
        for vec in basis:
            coords = [{} for _ in range(self.nvertices)]
            for col in sorted(vec):
                v, k = divmod(col, nm)
                coords[v][labels[k]] = vec[col]
            out.append([GradedSeries.from_coords(self.nvars, p, c) for c in coords])
        return out


def subring_basis(graph: GKMGraph, d: int) -> list[GKMClass]:
    """Integer-lattice basis of degree-d congruence tuples whose entries are
    forms of t-degree d.

    Exact linear algebra on the finite monomial basis: one unknown per
    (vertex, monomial), one equation per (edge, remainder coordinate).
    """
    if d > graph.precision:
        raise PrecisionExhaustedError("degree exceeds graph precision")
    system = TupleSystem(
        graph.ctx,
        graph.nvars,
        graph.nvertices,
        [(m, ()) for m in t_monomials(graph.nvars, d)],
    )
    for (i, j, chi) in graph.edges:
        system.require([(i, 1, None), (j, -1, None)], chi)
    return [GKMClass(graph, values) for values in system.solve()]


def invariants_basis(datum: RootDatum, ctx, d: int) -> list[GradedSeries]:
    """Generators of the Weyl-invariant series of homogeneous degree <= d,
    found by an exact kernel computation degree by degree.

    Invariance under the simple reflections suffices since they generate; it
    is imposed as the single summed condition sum_g (g f - f) = 0."""
    n = datum.rank
    gens = datum.simple_reflections
    out = []
    # every degree's unknowns first: a degree past the precision is refused
    # before any solve
    for amb in [ambient_monomials(ctx, n, m) for m in range(d + 1)]:
        system = TupleSystem(ctx, n, 1, amb)
        system.require([(0, 1, g) for g in gens] + [(0, -len(gens), None)])
        out.extend(values[0] for values in system.solve())
    return out


# -- comparison map ------------------------------------------------------------------


def tensor_to_gkm(a: GradedSeries, b: GradedSeries, graph: GKMGraph) -> GKMClass:
    """The image of the pure tensor a (x) b under the comparison map: the
    class restricting at w to w(a) * b.  The map is a ring homomorphism,
    (a1 (x) b1)(a2 (x) b2) = a1 a2 (x) b1 b2, and linear in each factor."""
    if graph.weyl_vertices is None:
        raise UnsupportedTypeError("tensor model needs a Weyl-labelled graph")
    ctx, datum = graph.ctx, graph.datum
    values = [weyl_act(w, a, ctx, datum) * b for w in graph.weyl_vertices]
    return GKMClass(graph, values)


def span_equal(a, b, over: str = "Q") -> bool:
    """Whether two families of series, or of classes on one graph, have the
    same span: the same Q-vector space (``over="Q"``, compared by rank) or
    the same lattice (``over="Z"``, compared by canonical Hermite normal
    form)."""

    def values(x):
        return x.values if isinstance(x, GKMClass) else (x,)

    # one label precision, so that equal labels name equal monomials
    top = max((s.precision for x in [*a, *b] for s in values(x)), default=0)

    def coords(x):
        if isinstance(x, GKMClass):
            return {
                (v, key): val
                for v, s in enumerate(x.values)
                for key, val in s.coords(top).items()
            }
        return x.coords(top)

    return linalg.span_equal([coords(x) for x in a], [coords(x) for x in b], over)


def surjectivity_probe(graph: GKMGraph, d: int, over: str = "Z") -> dict:
    """Degreewise comparison of the span of tensor-model images of monomial
    tensors against the congruence-tuple basis.

    Meaningful when both spans consist of forms: on gl-type data, where the
    Weyl image of a monomial is again a monomial, and on any root datum under
    the additive law, where Weyl elements act linearly on the t-variables.
    """
    if graph.datum is None or not (
        graph.datum.is_gln() or graph.ctx.law.kind == "additive"
    ):
        raise UnsupportedTypeError(
            "surjectivity probe supports gl_n graphs, or any root datum under "
            "the additive law"
        )
    n = graph.nvars
    ctx, datum, prec = graph.ctx, graph.datum, graph.precision
    report = {"degrees": [], "pass": True, "over": over}
    for delta in range(0, d + 1):
        # the image of a (x) b is tensor_to_gkm's: w(a) * b at vertex w,
        # with the w(a) of each first factor a computed once
        images = []
        for p in range(0, delta + 1):
            seconds = [
                GradedSeries.from_terms(n, prec, {eb: {(): 1}})
                for eb in t_monomials(n, delta - p)
            ]
            for ea in t_monomials(n, p):
                a = GradedSeries.from_terms(n, prec, {ea: {(): 1}})
                wa = [weyl_act(w, a, ctx, datum) for w in graph.weyl_vertices]
                for b in seconds:
                    images.append(GKMClass(graph, [x * b for x in wa]))
        basis = subring_basis(graph, delta)
        same = span_equal(images, basis, over)
        report["degrees"].append(
            {
                "degree": delta,
                "image_count": len(images),
                "basis_rank": len(basis),
                "spans_agree": bool(same),
            }
        )
        report["pass"] = report["pass"] and same
    return report
