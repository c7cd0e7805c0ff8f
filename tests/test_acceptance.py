"""Acceptance gate: one test per criterion, exact (zero-tolerance) equality
everywhere, with the stated runtime budgets enforced.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines).
"""

import json
import time
from itertools import product
from random import Random

from cobcalc.cli import main as cli_main
from cobcalc.fgl import build_law, fgl_axiom_report
from cobcalc.gkm import (
    constant_class,
    flag_gkm,
    gln_relations,
    span_equal,
    subring_basis,
    surjectivity_probe,
)
from cobcalc.roots import build_root_datum, build_symmetric_datum, weyl_act
from cobcalc.sampling import random_homogeneous
from cobcalc.schubert import (
    bott_samelson,
    demazure,
    kappa_of_character,
    point_class,
    sw_linearity_check,
)
from cobcalc.series import GradedSeries
from cobcalc.wonderful import (
    build_wonderful_graph,
    group_psl2_projective_model,
    invariant_subring_X,
    invariant_subring_Y,
    invariant_tuple_basis,
    verify_esph,
)

from .oracles import (
    ClassicalFlagOracle,
    Poly,
    classical_divided_difference,
    engine_permutation,
    engine_series_to_poly,
    nested,
    transposition,
)

LAW_MATRIX = ("additive", "multiplicative", "universal:4")


def _announce(n, label):
    print(f"ACCEPTANCE {n}: PASS - {label}")


def _monomials(n, d):
    if n == 1:
        return [(d,)]
    out = []
    for k in range(d + 1):
        out.extend((k,) + rest for rest in _monomials(n - 1, d - k))
    return out


def test_criterion_01_fgl_axioms():
    start = time.monotonic()
    ctx = build_law("universal:4", 5)
    report = fgl_axiom_report(ctx)
    by_name = {c["name"]: c["pass"] for c in report}
    for name in (
        "unit_left",
        "unit_right",
        "commutative",
        "associative",
        "inverse",
        "kappa_identity",
    ):
        assert by_name[name], name
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _announce(1, f"formal group law axioms at universal:4, D=5 ({elapsed:.2f}s)")


def test_criterion_02_divisibility():
    start = time.monotonic()
    rng = Random(2024)
    total = 0
    for tag in ("gl2", "gl3", "a2"):
        datum = build_root_datum(tag)
        for law in LAW_MATRIX:
            ctx = build_law(law, 5)
            reflections = [
                (beta, datum.reflection_element(beta))
                for beta in datum.positive_roots
            ]
            for _ in range(200):
                f = random_homogeneous(rng, ctx, datum.rank, rng.randint(1, 5))
                for beta, s in reflections:
                    diff = f - weyl_act(s, f, ctx, datum)
                    q = ctx.divide_by_character(diff, beta)  # must not raise
                    assert (q * ctx.formal_sum(beta)).equals_truncated(
                        diff, q.precision
                    )
                    total += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _announce(
        2,
        f"f - s(f) divisible by the root class, {total} exact divisions "
        f"({elapsed:.1f}s)",
    )


def test_criterion_03_demazure_contract():
    start = time.monotonic()
    datum = build_root_datum("gl2")
    rng = Random(3)

    # invariance and degree lowering, 200 random inputs across the law matrix
    for k in range(200):
        law = LAW_MATRIX[k % 3]
        ctx = build_law(law, 5)
        m = rng.randint(1, 4)
        f = random_homogeneous(rng, ctx, 2, m)
        i = rng.randrange(datum.nsimple)
        df = demazure(f, i, ctx, datum)
        s = datum.simple_reflections[i]
        assert weyl_act(s, df, ctx, datum).equals_truncated(df)
        assert df.is_zero() or df.homogeneous_degree() == m - 1

    # del(1) = kappa(x_alpha) exactly
    for law in LAW_MATRIX:
        ctx = build_law(law, 5)
        one = GradedSeries.constant(1, 2, 5)
        got = demazure(one, 0, ctx, datum)
        assert got == kappa_of_character(ctx, (1, -1)).truncate(got.precision)

    # S^W-linearity on 50 random (f, invariant g) pairs
    ctx = build_law("universal:4", 5)
    weyl = datum.weyl()
    for _ in range(50):
        f = random_homogeneous(rng, ctx, 2, rng.randint(1, 3))
        mono = random_homogeneous(rng, ctx, 2, rng.randint(1, 2), b_free=True)
        g = GradedSeries.zero(2, 5)
        for w in weyl:
            g = g + weyl_act(w, mono, ctx, datum)
        assert sw_linearity_check(f, g, 0, ctx, datum)

    # additive specialization equals minus the classical operator on all
    # monomials of degree <= 5 (the documented sign)
    addctx = build_law("additive", 5)
    perm = transposition(0, 1, 2)
    alpha = datum.simple_roots[0]
    checked = 0
    for d in range(0, 6):
        for e in _monomials(2, d):
            f = GradedSeries.from_terms(2, 5, {e: {(): 1}})
            got = demazure(f, 0, addctx, datum)
            oracle = classical_divided_difference(Poly({e: 1}), alpha, perm)
            assert engine_series_to_poly(got) == -oracle
            checked += 1
    elapsed = time.monotonic() - start
    _announce(
        3,
        f"Demazure operator contract (incl. {checked} oracle monomials, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_04_gln_presentation():
    start = time.monotonic()
    ctx = build_law("universal:4", 5)
    for tag, n, probe_d in (("gl2", 2, 3), ("gl3", 3, 2)):
        graph = flag_gkm(build_root_datum(tag), ctx)
        rel = gln_relations(n, graph)
        assert rel["pass"], rel
        probe = surjectivity_probe(graph, probe_d, over="Z")
        assert probe["pass"], probe
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _announce(
        4,
        "gl_n symmetric-function relations vanish and tensor images span the "
        f"congruence lattice over Z ({elapsed:.1f}s)",
    )


def test_criterion_05_rank_one_bott_samelson():
    for law in LAW_MATRIX:
        ctx = build_law(law, 5)
        graph = flag_gkm(build_root_datum("gl2"), ctx)
        bs = bott_samelson((0,), graph)
        assert bs == constant_class(graph, 1).truncate(bs.precision), law
        assert bott_samelson((), graph) == point_class(graph)
    _announce(5, "rank-one Bott-Samelson class is the unit for every law")


def test_criterion_06_bott_samelson_vs_classical_oracle():
    ctx = build_law("additive", 6)
    graph = flag_gkm(build_root_datum("gl3"), ctx)
    oracle = ClassicalFlagOracle(3)
    perm_of_vertex = [engine_permutation(w, 3) for w in graph.weyl_vertices]
    words = [()]
    for length in (1, 2, 3):
        words.extend(product(range(2), repeat=length))
    for word in words:
        got = bott_samelson(word, graph)
        expected = oracle.bott_samelson(word)
        for v, perm in enumerate(perm_of_vertex):
            assert (
                engine_series_to_poly(got.values[v])
                == expected[oracle.index[perm]]
            ), (word, graph.ids[v])
    _announce(
        6, f"{len(words)} Bott-Samelson classes match the classical oracle"
    )


def test_criterion_07_esph():
    start = time.monotonic()
    sd = build_symmetric_datum("group:psl2")
    for law in ("additive", "universal:3"):
        ctx = build_law(law, 3)
        model = build_wonderful_graph(sd, ctx)
        report = verify_esph(model, 3)
        assert report["pass"], (law, report)
        # direct projective-bundle route agrees with the abstract one
        graph, _, prep = group_psl2_projective_model(model)
        assert prep["edges_match_wonderful"]
        assert prep["zeta_is_member"] and prep["relation_vanishes"]
        datum = sd.datum
        w_gens = datum.simple_reflections
        for m in range(0, 4):
            via_projective = [
                c.values[0]
                for c in invariant_tuple_basis(graph, w_gens, m)
            ]
            assert span_equal(
                via_projective, invariant_subring_X(model, m)
            ), (law, m)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _announce(
        7,
        "wonderful-variety invariant subrings agree along every route "
        f"({elapsed:.1f}s)",
    )


def test_criterion_08_structural_counts():
    ctx = build_law("universal:4", 5)
    a2 = flag_gkm(build_root_datum("a2"), ctx)
    assert a2.nvertices == 6 and len(a2.edges) == 9
    sd = build_symmetric_datum("group:a1")
    model = build_wonderful_graph(sd, build_law("additive", 3))
    counts = model.counts()
    assert counts["x_vertices"] == 4 and counts["x_edges"] == 6
    assert counts["y_vertices"] == 2 and counts["y_edges"] == 1
    _announce(8, "fixed-point and curve counts match the closed forms")


def test_criterion_09_specialization_coherence():
    start = time.monotonic()
    uctx = build_law("universal:4", 5)
    actx = build_law("additive", 5)

    # core series
    assert uctx.group_law.specialize_b_zero() == actx.group_law
    assert uctx.inverse.specialize_b_zero() == actx.inverse
    assert uctx.kappa.specialize_b_zero() == actx.kappa

    rng = Random(9)
    # divisibility quotients, Demazure outputs (shared generator-free inputs)
    for tag in ("gl2", "a2"):
        datum = build_root_datum(tag)
        for _ in range(25):
            f = random_homogeneous(rng, uctx, datum.rank, rng.randint(1, 4),
                                   b_free=True)
            fa = GradedSeries.from_terms(datum.rank, 5, nested(f))
            for beta in datum.positive_roots:
                s = datum.reflection_element(beta)
                qu = uctx.divide_by_character(
                    f - weyl_act(s, f, uctx, datum), beta
                )
                qa = actx.divide_by_character(
                    fa - weyl_act(s, fa, actx, datum), beta
                )
                assert qu.specialize_b_zero() == qa
            i = rng.randrange(datum.nsimple)
            du = demazure(f, i, uctx, datum)
            da = demazure(fa, i, actx, datum)
            assert du.specialize_b_zero() == da

    # gl_n relations vanish in both worlds (trivially comparable) and the
    # congruence-tuple lattices agree outright
    for tag in ("gl2", "gl3"):
        gu = flag_gkm(build_root_datum(tag), uctx)
        ga = flag_gkm(build_root_datum(tag), actx)
        for d in (1, 2):
            bu = subring_basis(gu, d)
            ba = subring_basis(ga, d)
            assert span_equal(bu, ba, over="Z"), (tag, d)

    # Bott-Samelson classes specialize to the additive ones entrywise
    for tag, word in (("gl2", (0,)), ("gl3", (0, 1))):
        gu = flag_gkm(build_root_datum(tag), uctx)
        ga = flag_gkm(build_root_datum(tag), actx)
        cu = bott_samelson(word, gu)
        ca = bott_samelson(word, ga)
        for su, sa in zip(cu.values, ca.values):
            assert su.specialize_b_zero() == sa

    # wonderful-variety subring bases specialize to the additive bases
    sd = build_symmetric_datum("group:a1")
    u3 = build_law("universal:3", 3)
    a3 = build_law("additive", 3)
    um = build_wonderful_graph(sd, u3)
    am = build_wonderful_graph(sd, a3)
    for m in range(0, 4):
        bu = [f.specialize_b_zero() for f in invariant_subring_X(um, m)]
        bu = [f for f in bu if not f.is_zero()]
        assert span_equal(bu, invariant_subring_X(am, m)), m
        by = [f.specialize_b_zero() for f in invariant_subring_Y(um, m)]
        by = [f for f in by if not f.is_zero()]
        assert span_equal(by, invariant_subring_Y(am, m)), m

    elapsed = time.monotonic() - start
    _announce(
        9,
        "setting every generator to zero reproduces the additive results "
        f"coefficient for coefficient ({elapsed:.1f}s)",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    blobs = {}
    for label in ("first", "second"):
        out = str(tmp_path / f"{label}.json")
        code = cli_main(
            [
                "verify", "esph", "--case", "group:psl2",
                "--law", "universal:3", "--degree", "3", "--seed", "5",
                "--out", out,
            ]
        )
        assert code == 0
        with open(out, "rb") as fh:
            blobs[label] = fh.read()
    assert blobs["first"] == blobs["second"]

    for label in ("first", "second"):
        out = str(tmp_path / f"bs-{label}.json")
        code = cli_main(
            [
                "schubert", "bott-samelson", "--type", "gl3",
                "--law", "universal:4", "--degree", "5", "--word", "1,2",
                "--out", out,
            ]
        )
        assert code == 0
        with open(out, "rb") as fh:
            blobs[f"bs-{label}"] = fh.read()
    assert blobs["bs-first"] == blobs["bs-second"]
    json.loads(blobs["bs-first"])  # artifacts are valid JSON
    capsys.readouterr()
    _announce(10, "byte-identical artifacts for identical configurations")
