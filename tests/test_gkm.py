from collections import Counter
from random import Random

import pytest

from cobcalc import gkm, series
from cobcalc.errors import (
    InternalConsistencyError,
    PrecisionExhaustedError,
    UnsupportedTypeError,
)
from cobcalc.fgl import build_law
from cobcalc.gkm import (
    GKMClass,
    GKMGraph,
    TupleSystem,
    constant_class,
    coset_graph,
    flag_gkm,
    gln_relations,
    invariants_basis,
    line_bundle_class,
    membership,
    span_equal,
    subring_basis,
    surjectivity_probe,
    t_monomials,
    tensor_to_gkm,
)
from cobcalc.roots import WeylElement, build_root_datum, build_symmetric_datum
from cobcalc.sampling import random_homogeneous
from cobcalc.series import GradedSeries
from cobcalc.wonderful import (
    _w_theta_generators,
    build_wonderful_graph,
    invariant_subring_X,
    invariant_subring_Y,
    invariant_tuple_basis,
    projective_space_model,
    reduced_system,
    root_congruence_system,
)

from .oracles import (
    ClassicalFlagOracle,
    engine_permutation,
    flag_graph_reference,
    wonderful_graphs_reference,
)


def test_flag_graph_counts():
    ctx = build_law("universal:4", 5)
    g = flag_gkm(build_root_datum("gl2"), ctx)
    assert g.nvertices == 2 and len(g.edges) == 1
    assert g.edges[0][2] == (1, -1)
    a2 = flag_gkm(build_root_datum("a2"), ctx)
    assert a2.nvertices == 6 and len(a2.edges) == 9
    gl3 = flag_gkm(build_root_datum("gl3"), ctx)
    assert gl3.nvertices == 6 and len(gl3.edges) == 9


def test_graph_json():
    ctx = build_law("additive", 4)
    g = flag_gkm(build_root_datum("gl2"), ctx)
    blob = g.to_json()
    assert blob["vertices"] == ["e", "1"]
    assert blob["base"] == "e"
    assert blob["edges"] == [{"v": "e", "w": "1", "chi": [1, -1]}]


def test_line_bundle_restrictions():
    ctx = build_law("universal:4", 5)
    datum = build_root_datum("gl3")
    g = flag_gkm(datum, ctx)
    for i in range(3):
        chi = tuple(1 if j == i else 0 for j in range(3))
        cls = line_bundle_class(chi, g)
        for v, w in enumerate(g.weyl_vertices):
            img = engine_permutation(w, 3)[i]
            assert cls.values[v] == GradedSeries.variable(img, 3, 5)


def test_line_bundle_zero_character():
    ctx = build_law("universal:4", 5)
    g = flag_gkm(build_root_datum("gl2"), ctx)
    cls = line_bundle_class((0, 0), g)
    assert cls.is_zero()


def test_line_bundle_edge_quotient_additive():
    ctx = build_law("additive", 5)
    g = flag_gkm(build_root_datum("gl2"), ctx)
    cls = line_bundle_class((1, 0), g)
    q = ctx.divide_by_character(cls.values[0] - cls.values[1], (1, -1))
    assert q == GradedSeries.constant(1, 2, 4)


def test_line_bundle_addition_follows_group_law():
    ctx = build_law("universal:4", 5)
    g = flag_gkm(build_root_datum("gl2"), ctx)
    rng = Random(5)
    for _ in range(5):
        chi1 = tuple(rng.randint(-2, 2) for _ in range(2))
        chi2 = tuple(rng.randint(-2, 2) for _ in range(2))
        lhs = line_bundle_class(tuple(a + b for a, b in zip(chi1, chi2)), g)
        c1 = line_bundle_class(chi1, g)
        c2 = line_bundle_class(chi2, g)
        composed = [
            ctx.group_law.substitute([a, b]) for a, b in zip(c1.values, c2.values)
        ]
        assert all(x == y for x, y in zip(lhs.values, composed))


def test_membership_examples():
    ctx = build_law("universal:4", 5)
    g = flag_gkm(build_root_datum("gl2"), ctx)
    f = GradedSeries.variable(0, 2, 5) ** 2
    ok, _ = membership(constant_class(g, f), g)
    assert ok
    x_alpha = ctx.formal_sum((1, -1))
    zero = GradedSeries.zero(2, 5)
    ok, _ = membership((x_alpha, zero), g)
    assert ok
    t1 = GradedSeries.variable(0, 2, 5)
    ok, witness = membership((t1, zero), g)
    assert not ok
    assert witness == {"edge": ["e", "1"], "chi": [1, -1], "degree": 1}


def test_gln_relations():
    for law in ("additive", "universal:4"):
        ctx = build_law(law, 5)
        for tag, n in (("gl2", 2), ("gl3", 3)):
            g = flag_gkm(build_root_datum(tag), ctx)
            assert gln_relations(n, g)["pass"]


def test_gln_non_relation_detected():
    ctx = build_law("additive", 5)
    g = flag_gkm(build_root_datum("gl2"), ctx)
    x1 = line_bundle_class((1, 0), g)
    t1 = constant_class(g, GradedSeries.variable(0, 2, 5))
    diff = x1 - t1
    assert diff.values[0].is_zero()
    assert not diff.values[1].is_zero()


def test_gln_relations_requires_gl():
    ctx = build_law("additive", 5)
    g = flag_gkm(build_root_datum("a2"), ctx)
    with pytest.raises(UnsupportedTypeError):
        gln_relations(2, g)


# -- graded bases -----------------------------------------------------------------


def test_subring_basis_degree_zero():
    ctx = build_law("universal:4", 5)
    g = flag_gkm(build_root_datum("gl2"), ctx)
    basis = subring_basis(g, 0)
    assert len(basis) == 1


def test_subring_basis_gl2_degree_one_span():
    ctx = build_law("additive", 5)
    g = flag_gkm(build_root_datum("gl2"), ctx)
    basis = subring_basis(g, 1)
    assert len(basis) == 3
    t1 = GradedSeries.variable(0, 2, 5)
    t2 = GradedSeries.variable(1, 2, 5)
    zero = GradedSeries.zero(2, 5)
    stated = [(t1, t1), (t2, t2), (t1 - t2, zero)]
    stated_classes = [GKMClass(g, list(v)) for v in stated]
    assert span_equal(basis, stated_classes)


def test_span_equal_tells_lattice_from_vector_space():
    ctx = build_law("additive", 3)
    g = flag_gkm(build_root_datum("gl2"), ctx)
    t1 = GradedSeries.variable(0, 2, 3)
    for a, b in (
        ([t1 + t1], [t1]),
        ([GKMClass(g, [t1 + t1, t1 + t1])], [GKMClass(g, [t1, t1])]),
    ):
        assert span_equal(a, b, over="Q")
        assert not span_equal(a, b, over="Z")
        assert span_equal(a, a, over="Z")


def test_span_equal_over_z_on_subring_basis():
    g = flag_gkm(build_root_datum("gl3"), build_law("universal:3", 3))
    basis = subring_basis(g, 2)
    assert len(basis) > 2
    b0, b1, rest = basis[0], basis[1], basis[2:]
    # a unimodular remix spans the same lattice
    assert span_equal([b0 + b1, b1, *rest], basis, over="Z")
    assert span_equal([b0 + b1, b0 + b1 + b1, *rest], basis, over="Z")
    # doubling one basis class gives a sublattice of index 2, the same space
    doubled = [b0 + b0, b1, *rest]
    assert not span_equal(doubled, basis, over="Z")
    assert span_equal(doubled, basis, over="Q")


def _graph_data(graph) -> dict:
    return {
        "ids": list(graph.ids),
        "edges": list(graph.edges),
        "element_to_vertex": graph.element_to_vertex,
        "weyl_vertices": [w.id_string() for w in graph.weyl_vertices],
    }


def _reference_data(ref: dict) -> dict:
    return dict(ref, weyl_vertices=[w.id_string() for w in ref["weyl_vertices"]])


# a3 with theta fixing the outer simples: the linear/symplectic pair
_LINEAR_SYMPLECTIC = (build_root_datum("a3"), [[1, -1, 0], [0, -1, 0], [0, -1, 1]])


@pytest.mark.parametrize(
    "kind, case",
    [("flag", tag) for tag in ("gl2", "gl3", "gl4", "a1", "a2", "a3", "b2",
                               "g2", "psl2xpsl2", "psl3")]
    + [("wonderful", c) for c in ("group:a1", "group:psl2", "group:psl3",
                                  "group:b2", "group:g2", "linear-symplectic")],
)
def test_coset_graphs_match_reference(kind, case):
    """One coset-graph builder rebuilds the separately built flag, wonderful
    and toric graphs exactly: ids, edges, coset map and representatives."""
    ctx = build_law("additive", 2)
    if kind == "flag":
        datum = build_root_datum(case)
        pairs = [(flag_gkm(datum, ctx), flag_graph_reference(datum))]
    else:
        sd = build_symmetric_datum(
            *(_LINEAR_SYMPLECTIC if case == "linear-symplectic" else (case,))
        )
        model = build_wonderful_graph(sd, ctx)
        x, y, root_edges, restricted_edges = wonderful_graphs_reference(sd)
        assert (model.root_edge_count, model.restricted_edge_count) == (
            root_edges, restricted_edges
        )
        pairs = [(model.x_graph, x), (model.y_graph, y)]
    for graph, ref in pairs:
        assert _graph_data(graph) == _reference_data(ref)


def test_coset_graph_rejects_inconsistent_curves():
    """Two characters on one vertex pair, or a curve from a vertex to
    itself, are defects."""
    ctx = build_law("additive", 2)
    datum = build_root_datum("gl2")
    weyl = datum.weyl()
    identity, s = weyl[0].matrix, datum.reflection((1, -1))
    for family in ([(s, (1, -1)), (s, (1, 0))], [(identity, (1, 0))]):
        with pytest.raises(InternalConsistencyError):
            coset_graph(ctx, datum, weyl, [identity], [family], "flag")


def test_zero_edge_character_rejected():
    ctx = build_law("additive", 3)
    with pytest.raises(InternalConsistencyError):
        GKMGraph(ctx, ids=["a", "b"], edges=[(0, 1, (0, 0))], nvars=2)


def test_subring_ranks_match_classical_oracle():
    """Additive ranks agree with the closed-form cell count
    sum_w dim Sym^(d - length(w)) on gl2, gl3, b2 and g2, and on gl2 and gl3
    with a brute-force classical computation.  The b2 and g2 remainder rows
    carry Fractions (leading values 2 and 3); the basis is still integral."""
    expected = {("gl2", 0): 1, ("gl2", 1): 3, ("gl2", 2): 5,
                ("gl3", 0): 1, ("gl3", 1): 5, ("gl3", 2): 14,
                ("b2", 0): 1, ("b2", 1): 4, ("b2", 2): 9, ("b2", 3): 16,
                ("g2", 0): 1, ("g2", 1): 4, ("g2", 2): 9, ("g2", 3): 16}
    ctx = build_law("additive", 5)
    for tag, top in (("gl2", 2), ("gl3", 2), ("b2", 3), ("g2", 3)):
        datum = build_root_datum(tag)
        n = datum.rank
        g = flag_gkm(datum, ctx)
        oracle = ClassicalFlagOracle(n) if tag.startswith("gl") else None
        for d in range(top + 1):
            basis = subring_basis(g, d)
            assert all(
                type(v) is int for c in basis for s in c.values for _, _, v in s.items()
            )
            got = len(basis)
            assert got == expected[(tag, d)]
            if oracle is not None:
                assert got == _classical_tuple_rank(oracle, d)
            lengths = [len(w.word) for w in datum.weyl()]
            closed_form = sum(
                _dim_forms(n, d - l) for l in lengths if l <= d
            )
            assert got == closed_form


def _dim_forms(n, d):
    from math import comb

    return comb(d + n - 1, n - 1)


def _restrict_to_hyperplane(mono, w_beta):
    """Expand a monomial after substituting the hyperplane w_beta = 0
    (eliminating the last variable with nonzero coefficient)."""
    from fractions import Fraction

    n = len(mono)
    lead = max(i for i, c in enumerate(w_beta) if c)
    ratio = {
        i: Fraction(-w_beta[i], w_beta[lead]) for i in range(n) if i != lead
    }
    out = {tuple(0 for _ in range(n)): Fraction(1)}
    for i, e in enumerate(mono):
        for _ in range(e):
            nxt = {}
            for key, val in out.items():
                if i != lead:
                    k2 = list(key)
                    k2[i] += 1
                    nxt[tuple(k2)] = nxt.get(tuple(k2), 0) + val
                else:
                    for o, c in ratio.items():
                        k2 = list(key)
                        k2[o] += 1
                        nxt[tuple(k2)] = nxt.get(tuple(k2), 0) + val * c
            out = {k: v for k, v in nxt.items() if v}
    return out


def _classical_tuple_rank(oracle: ClassicalFlagOracle, d: int) -> int:
    """Brute force: congruence tuples of degree-d forms over Q, where each
    congruence is imposed by restricting the difference to the hyperplane cut
    out by the curve's character (no division, independent of the engine)."""
    from .oracles import compose, permutation_act_form, transposition

    monos = t_monomials(oracle.n, d)
    nv = len(oracle.vertices)
    ncols = nv * len(monos)
    eqs = []
    for vi, p in enumerate(oracle.vertices):
        for beta in oracle.positive:
            i = beta.index(1)
            j = beta.index(-1)
            vj = oracle.index[compose(p, transposition(i, j, oracle.n))]
            if vj <= vi:
                continue
            w_beta = permutation_act_form(p, beta)
            coords: dict = {}
            for k, mono in enumerate(monos):
                for key, val in _restrict_to_hyperplane(mono, w_beta).items():
                    coords.setdefault(key, {})[k] = val
            for key in sorted(coords):
                eq = {}
                for k, val in coords[key].items():
                    eq[vi * len(monos) + k] = val
                    eq[vj * len(monos) + k] = -val
                if eq:
                    eqs.append(eq)
    from cobcalc.linalg import kernel

    return len(kernel(eqs, ncols, over="Z"))


# -- tensor model -------------------------------------------------------------------


def test_tensor_basic_images():
    ctx = build_law("universal:4", 5)
    g = flag_gkm(build_root_datum("gl2"), ctx)
    one = GradedSeries.constant(1, 2, 5)
    b = GradedSeries.variable(0, 2, 5) ** 2
    img = tensor_to_gkm(one, b, g)
    assert (img - constant_class(g, b)).is_zero()
    x = ctx.formal_sum((1, -2))
    img = tensor_to_gkm(x, one, g)
    assert (img - line_bundle_class((1, -2), g)).is_zero()


def test_tensor_difference_class():
    # the map is linear: the image of x_alpha (x) 1 - 1 (x) x_alpha is the
    # difference of the two images
    ctx = build_law("universal:4", 5)
    g = flag_gkm(build_root_datum("gl2"), ctx)
    one = GradedSeries.constant(1, 2, 5)
    x_alpha = ctx.formal_sum((1, -1))
    img = tensor_to_gkm(x_alpha, one, g) - tensor_to_gkm(one, x_alpha, g)
    assert img.values[0].is_zero()
    assert img.values[1] == ctx.formal_sum((-1, 1)) - x_alpha
    ok, _ = membership(img, g)
    assert ok


def test_tensor_is_ring_homomorphism():
    ctx = build_law("universal:4", 5)
    g = flag_gkm(build_root_datum("gl3"), ctx)
    rng = Random(41)
    for _ in range(5):
        a1 = random_homogeneous(rng, ctx, 3, 1, b_free=True)
        b1 = random_homogeneous(rng, ctx, 3, 1, b_free=True)
        a2 = random_homogeneous(rng, ctx, 3, 2, b_free=True)
        b2 = random_homogeneous(rng, ctx, 3, 1, b_free=True)
        lhs = tensor_to_gkm(a1 * a2, b1 * b2, g)
        rhs = tensor_to_gkm(a1, b1, g) * tensor_to_gkm(a2, b2, g)
        assert (lhs - rhs).is_zero()


def test_tensor_needs_weyl_vertices():
    ctx = build_law("additive", 3)
    graph = projective_space_model([(1, 0), (0, 0)], ctx)[0]
    one = GradedSeries.constant(1, 2, 3)
    with pytest.raises(UnsupportedTypeError):
        tensor_to_gkm(one, one, graph)


def test_surjectivity_probe_gl2():
    ctx = build_law("universal:4", 5)
    g = flag_gkm(build_root_datum("gl2"), ctx)
    report = surjectivity_probe(g, 3, over="Z")
    assert report["pass"]
    deg1 = report["degrees"][1]
    assert deg1["basis_rank"] == 3
    assert report["degrees"][0]["basis_rank"] == 1


def test_surjectivity_probe_gl3_additive():
    ctx = build_law("additive", 5)
    g = flag_gkm(build_root_datum("gl3"), ctx)
    assert surjectivity_probe(g, 2, over="Z")["pass"]
    assert surjectivity_probe(g, 2, over="Q")["pass"]


@pytest.mark.parametrize(
    "tag, degree, over_z",
    [
        # over Z only degree 0 agrees on the adjoint a1, a2 and b2: their
        # fundamental weights are not characters
        ("a1", 3, [True, False, False, False]),
        ("a2", 3, [True, False, False, False]),
        ("b2", 4, [True, False, False, False, False]),
        # g2 agrees through degree 2 and fails from degree 3 on, where
        # H*(G2/T; Z) needs a generator of degree 3 (2 is a torsion prime)
        ("g2", 4, [True, True, True, False, False]),
    ],
    ids=["a1", "a2", "b2", "g2"],
)
def test_surjectivity_probe_additive_root_data(tag, degree, over_z):
    g = flag_gkm(build_root_datum(tag), build_law("additive", 5))
    over_q = surjectivity_probe(g, degree, over="Q")
    assert over_q["pass"]
    assert len(over_q["degrees"]) == degree + 1
    report = surjectivity_probe(g, degree, over="Z")
    assert [d["spans_agree"] for d in report["degrees"]] == over_z
    assert not report["pass"]


@pytest.mark.parametrize(
    "tag, law", [("gl2", "universal:4"), ("gl3", "multiplicative"), ("gl3", "additive")]
)
def test_surjectivity_probe_images_are_the_comparison_map(monkeypatch, tag, law):
    ctx = build_law(law, 4)
    g = flag_gkm(build_root_datum(tag), ctx)
    n = g.nvars
    seen = []

    def recording(images, basis, over):
        seen.append(images)
        return span_equal(images, basis, over)

    monkeypatch.setattr(gkm, "span_equal", recording)
    surjectivity_probe(g, 3)
    assert len(seen) == 4
    for delta, images in enumerate(seen):
        expected = [
            tensor_to_gkm(
                GradedSeries.from_terms(n, 4, {ea: {(): 1}}),
                GradedSeries.from_terms(n, 4, {eb: {(): 1}}),
                g,
            )
            for p in range(delta + 1)
            for ea in t_monomials(n, p)
            for eb in t_monomials(n, delta - p)
        ]
        assert images == expected


def test_surjectivity_probe_rejects_non_gl():
    # off gl_n only the additive law makes the Weyl images forms
    for law in ("multiplicative", "universal:4"):
        g = flag_gkm(build_root_datum("a2"), build_law(law, 5))
        with pytest.raises(UnsupportedTypeError):
            surjectivity_probe(g, 1)


# -- the tuple system's memo of reduced images ----------------------------------------


def test_tuple_system_substitutes_once_per_matrix_and_reduces_once_per_character(
    monkeypatch,
):
    # conditions reuse the identity, the simple reflections, their product and
    # fresh elements with the same matrices (two by longer words), under every
    # edge character and exactly; each Weyl substitution must be applied once
    # per monomial, and each remainder map once per monomial and matrix
    # used with its character
    ctx = build_law("universal:3", 3)
    datum = build_root_datum("gl3")
    g = flag_gkm(datum, ctx)
    monos = [(m, ()) for m in t_monomials(3, 2)]
    s1, s2 = datum.simple_reflections
    elements = [
        None, s1, s2, s1.compose(s2), s2.compose(s2), s1.compose(s2).compose(s2),
        WeylElement(s2.matrix, s2.word),
    ]
    identity = datum.weyl()[0].matrix
    matrices = {identity if w is None else w.matrix for w in elements}
    assert len(matrices) == 4
    weyl = {m: ctx.substitution(zip(*m)) for m in matrices}
    rmaps = {tuple(chi): ctx.remainder_map(chi) for _, _, chi in g.edges}
    calls = Counter()
    apply = series.Substitution.apply

    def counting(self, f):
        calls[id(self)] += 1
        return apply(self, f)

    conditions = []
    used: dict = {}
    for k, (i, j, chi) in enumerate(g.edges * 2):
        a, b = elements[k % len(elements)], elements[(k + 3) % len(elements)]
        for c in (tuple(chi), None):
            conditions.append(([(i, 1, a), (j, -1, b)], c))
            used.setdefault(c, set()).update(
                identity if w is None else w.matrix for w in (a, b)
            )
    reference = TupleSystem(ctx, 3, g.nvertices, monos)
    for parts, c in conditions:
        reference.require(
            [(v, s, None if w is None else datum.element(w.matrix)) for v, s, w in parts], c
        )
    monkeypatch.setattr(series.Substitution, "apply", counting)
    system = TupleSystem(ctx, 3, g.nvertices, monos)
    for parts, c in conditions:
        system.require(parts, c)
    assert calls[id(weyl[identity])] == 0
    for m in matrices - {identity}:
        assert calls[id(weyl[m])] == len(monos)
    for chi, rmap in rmaps.items():
        assert calls[id(rmap)] == len(monos) * len(used[chi])
    assert system.rows == reference.rows
    assert len(system.rows) > 0


# -- invariants ---------------------------------------------------------------------


def test_invariants_additive_gl():
    ctx = build_law("additive", 5)
    for tag, n in (("gl2", 2), ("gl3", 3)):
        datum = build_root_datum(tag)
        basis = invariants_basis(datum, ctx, 1)
        by_degree = {}
        for f in basis:
            by_degree.setdefault(f.homogeneous_degree(), []).append(f)
        assert len(by_degree[0]) == 1
        assert len(by_degree[1]) == 1
        s1 = by_degree[1][0]
        expected = GradedSeries.zero(n, 5)
        for i in range(n):
            expected = expected + GradedSeries.variable(i, n, 5)
        # the basis element is s1 up to sign
        assert s1 == expected or s1 == -expected


def test_invariants_adjoint_a1_additive():
    ctx = build_law("additive", 5)
    datum = build_root_datum("a1")
    basis = invariants_basis(datum, ctx, 1)
    assert [f.homogeneous_degree() for f in basis] == [0]


def test_invariants_universal_contains_s1():
    ctx = build_law("universal:2", 2)
    datum = build_root_datum("gl2")
    basis = invariants_basis(datum, ctx, 1)
    t1 = GradedSeries.variable(0, 2, 2)
    t2 = GradedSeries.variable(1, 2, 2)
    s1 = t1 + t2
    deg1 = [f for f in basis if f.homogeneous_degree() == 1]
    assert span_equal(deg1 + [s1], deg1)


def test_invariants_are_invariant():
    from cobcalc.roots import weyl_act

    # b2 and g2 have two simple reflections that are not permutations, so
    # they exercise the summed invariance condition beyond the gl case
    for tag, law, precision, d in (
        ("a2", "universal:3", 4, 2),
        ("b2", "multiplicative", 4, 3),
        ("g2", "additive", 4, 4),
    ):
        ctx = build_law(law, precision)
        datum = build_root_datum(tag)
        basis = invariants_basis(datum, ctx, d)
        assert any(f.homogeneous_degree() == 2 for f in basis), tag
        for f in basis:
            for w in datum.weyl():
                assert weyl_act(w, f, ctx, datum).equals_truncated(f), tag


def test_degree_exceeds_precision():
    # one degree past the precision has no unknowns; every builder refuses
    # it rather than report an empty, vacuously satisfied system
    ctx = build_law("additive", 3)
    g = flag_gkm(build_root_datum("gl2"), ctx)
    with pytest.raises(PrecisionExhaustedError):
        subring_basis(g, 4)
    with pytest.raises(PrecisionExhaustedError):
        invariants_basis(build_root_datum("a2"), ctx, 4)
    model = build_wonderful_graph(build_symmetric_datum("group:psl3"), ctx)
    gens = model.sd.datum.simple_reflections
    builders = [
        lambda: reduced_system(model, 4),
        lambda: root_congruence_system(model, 4),
        lambda: invariant_subring_X(model, 4),
        lambda: invariant_subring_Y(model, 4),
        lambda: invariant_tuple_basis(model.x_graph, gens, 4),
        lambda: invariant_tuple_basis(model.y_graph, _w_theta_generators(model.sd), 4),
    ]
    for build in builders:
        with pytest.raises(PrecisionExhaustedError):
            build()
