"""Moment-graph models: fixed points with character-labelled edges, the
congruence (membership) test, line bundle classes, graded basis solvers, and
the tensor-product model with its comparison map.

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
from .linalg import (
    canonical_sign,
    kernel_int,
    kernel_rational,
    span_equal_int,
    span_equal_rational,
)
from .roots import RootDatum, WeylElement, mat_mul, weyl_act
from .series import GradedSeries, elementary_symmetric

# When true, every produced class is membership-checked (slow; used in tests).
DEBUG_VALIDATE = False


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
            ngens = self.graph.ctx.ngens
        return {
            vid: v.to_json(ngens) for vid, v in zip(self.graph.ids, self.values)
        }

    def __repr__(self):
        return f"GKMClass({dict(zip(self.graph.ids, self.values))!r})"


def constant_class(graph: GKMGraph, f) -> GKMClass:
    if not isinstance(f, GradedSeries):
        f = GradedSeries.constant(f, graph.nvars, graph.precision)
    return GKMClass(graph, [f] * graph.nvertices)


def validate(cls: GKMClass) -> GKMClass:
    """Membership-check ``cls`` when DEBUG_VALIDATE is set; returns it."""
    if DEBUG_VALIDATE:
        ok, witness = membership(cls, cls.graph)
        if not ok:
            raise InternalConsistencyError(
                f"produced class violates congruences: {witness}"
            )
    return cls


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
    return validate(GKMClass(graph, values))


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
    if graph.datum is None or not graph.datum.label.startswith("gl"):
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
    """(t-exponent, b-exponent) pairs of homogeneous cohomological degree."""
    out = []
    for tdeg in range(coh_degree, ctx.precision + 1):
        w = tdeg - coh_degree
        if w < 0:
            continue
        bmonos = b_monomials_of_weight(w, ctx.ngens)
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

    def require(self, parts, chi=None) -> None:
        """Impose one linear condition on the unknown tuple f.

        A part ``(v, scale, images)`` stands for ``scale * T(f_v)``, with the
        linear map T given on monomials by ``images[k] = T(monomials[k])``.
        The parts must sum to zero, exactly or, given ``chi``, modulo x_chi.
        Adds one row per touched coordinate (of the remainder, modulo x_chi)
        in sorted order and drops zero rows; each distinct images list is
        reduced once.
        """
        reduce = None if chi is None else self.ctx.remainder_map(chi).apply
        p = self.ctx.precision
        nm = len(self.monos)
        coords: dict = {}
        reduced: dict = {}
        for v, scale, images in parts:
            red = reduced.get(id(images))
            if red is None:
                # modulo x_chi: the remainder of the long division by x_chi,
                # which is zero exactly when x_chi divides
                red = reduced[id(images)] = [
                    (s if reduce is None else reduce(s)).coords(p) for s in images
                ]
            for k, img in enumerate(red):
                col = v * nm + k
                for key, val in img.items():
                    entry = coords.setdefault(key, {})
                    entry[col] = entry.get(col, 0) + scale * val
        for key in sorted(coords):
            row = {col: val for col, val in coords[key].items() if val}
            if row:
                self.rows.append(row)

    def solve(self, over: str = "Z") -> list[list[GradedSeries]]:
        """A basis of the solutions, each as one series per vertex.

        ``over="Q"``: the certified reduced basis of the rational solutions,
        one primitive integer vector per free unknown.  ``over="Z"``: the
        basis of the lattice of integer solutions that saturates it, in
        Hermite normal form on the free unknowns (``kernel_int``); both are
        canonical, so they do not depend on the order of the conditions."""
        nm = len(self.monos)
        ncols = self.nvertices * nm
        if over == "Z":
            dense = [[row.get(c, 0) for c in range(ncols)] for row in self.rows]
            basis = kernel_int(dense, ncols)
        else:
            basis = kernel_rational(self.rows, ncols)
        p = self.ctx.precision
        labels = [label for m in self.monomials for label in m.coords(p)]
        return [
            [
                GradedSeries.from_coords(
                    self.nvars,
                    p,
                    {k: c for k, c in zip(labels, vec[v * nm:(v + 1) * nm]) if c},
                )
                for v in range(self.nvertices)
            ]
            for vec in basis
        ]


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
    monos = system.monomials
    for (i, j, chi) in graph.edges:
        system.require([(i, 1, monos), (j, -1, monos)], chi)
    return [validate(GKMClass(graph, values)) for values in system.solve()]


def invariants_basis(datum: RootDatum, ctx, d: int) -> list[GradedSeries]:
    """Generators of the Weyl-invariant series of homogeneous degree <= d,
    found by an exact kernel computation degree by degree.

    Invariance under the simple reflections suffices since they generate; it
    is imposed as the single summed condition sum_g (g f - f) = 0."""
    if d > ctx.precision:
        raise PrecisionExhaustedError("degree exceeds working precision")
    n = datum.rank
    gens = datum.simple_reflections
    out = []
    for m in range(0, d + 1):
        amb = ambient_monomials(ctx, n, m)
        if not amb:
            continue
        system = TupleSystem(ctx, n, 1, amb)
        monos = system.monomials
        parts = [
            (0, 1, [weyl_act(g, f, ctx, datum) for f in monos]) for g in gens
        ]
        system.require(parts + [(0, -len(gens), monos)])
        out.extend(values[0] for values in system.solve())
    return out


# -- tensor model ----------------------------------------------------------------------


class TensorClass:
    """A finite sum of a (x) b pairs; equality is decided via the GKM image."""

    def __init__(self, pairs):
        self.pairs = [(a, b) for (a, b) in pairs]

    @staticmethod
    def of(a: GradedSeries, b: GradedSeries) -> "TensorClass":
        return TensorClass([(a, b)])

    def __add__(self, other: "TensorClass") -> "TensorClass":
        return TensorClass(self.pairs + other.pairs)

    def __neg__(self) -> "TensorClass":
        return TensorClass([(-a, b) for (a, b) in self.pairs])

    def __sub__(self, other: "TensorClass") -> "TensorClass":
        return self + (-other)

    def __mul__(self, other: "TensorClass") -> "TensorClass":
        return TensorClass(
            [
                (a1 * a2, b1 * b2)
                for (a1, b1) in self.pairs
                for (a2, b2) in other.pairs
            ]
        )


def tensor_to_gkm(tc: TensorClass, graph: GKMGraph) -> GKMClass:
    """The comparison map: a (x) b restricts at w to w(a) * b."""
    if graph.weyl_vertices is None:
        raise UnsupportedTypeError("tensor model needs a Weyl-labelled graph")
    ctx = graph.ctx
    datum = graph.datum
    values = [
        GradedSeries.zero(graph.nvars, graph.precision)
        for _ in range(graph.nvertices)
    ]
    for (a, b) in tc.pairs:
        for i, w in enumerate(graph.weyl_vertices):
            values[i] = values[i] + weyl_act(w, a, ctx, datum) * b
    return validate(GKMClass(graph, values))


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

    ca = [coords(x) for x in a]
    cb = [coords(x) for x in b]
    keys = sorted({key for c in ca + cb for key in c})
    index = {key: i for i, key in enumerate(keys)}

    def vector(c):
        vec = [0] * len(keys)
        for key, val in c.items():
            vec[index[key]] = val
        return tuple(vec)

    va, vb = [vector(c) for c in ca], [vector(c) for c in cb]
    if over == "Z":
        return span_equal_int(va, vb, len(keys))
    return span_equal_rational(va, vb, len(keys))


def surjectivity_probe(graph: GKMGraph, d: int, over: str = "Z") -> dict:
    """Degreewise comparison of the span of tensor-model images of monomial
    tensors against the congruence-tuple basis.

    Meaningful when both spans consist of forms: on gl-type data, where the
    Weyl image of a monomial is again a monomial, and on any root datum under
    the additive law, where Weyl elements act linearly on the t-variables.
    """
    if graph.datum is None or not (
        graph.datum.label.startswith("gl") or graph.ctx.law.kind == "additive"
    ):
        raise UnsupportedTypeError(
            "surjectivity probe supports gl_n graphs, or any root datum under "
            "the additive law"
        )
    n = graph.nvars
    report = {"degrees": [], "pass": True, "over": over}
    for delta in range(0, d + 1):
        images = []
        for p in range(0, delta + 1):
            for ea in t_monomials(n, p):
                for eb in t_monomials(n, delta - p):
                    a = GradedSeries.from_terms(n, graph.precision, {ea: {(): 1}})
                    b = GradedSeries.from_terms(n, graph.precision, {eb: {(): 1}})
                    images.append(tensor_to_gkm(TensorClass.of(a, b), graph))
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
