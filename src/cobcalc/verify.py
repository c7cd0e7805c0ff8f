"""The machine-checkable verification suites behind ``cobcalc verify``.

Each suite returns a JSON-ready report: a ``checks`` list with one pass/fail
entry per named check (witnesses attached on failure) and a top-level
``pass``.  Randomised checks draw from a seeded generator recorded in the
config, so reports are deterministic byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .errors import ConfigError, NotDivisibleError, UnsupportedTypeError
from .fgl import LawSpec, build_law, fgl_axiom_report
from .gkm import (
    constant_class,
    flag_gkm,
    gln_relations,
    line_bundle_class,
    membership,
    span_equal,
    surjectivity_probe,
    tensor_to_gkm,
)
from .roots import build_root_datum, build_symmetric_datum, weyl_act
from .sampling import random_homogeneous, random_monomial_series
from .schubert import (
    bott_samelson,
    demazure,
    demazure_gkm,
    kappa_of_character,
    point_class,
    sw_linearity_check,
)
from .series import GradedSeries
from .wonderful import (
    build_wonderful_graph,
    group_psl2_projective_model,
    invariant_subring_X,
    invariant_tuple_basis,
    verify_esph,
)

@dataclass
class RunConfig:
    law: str = "universal:4"
    degree: int = 5
    type_tag: str = "gl2"
    case: str = "group:psl2"
    seed: int = 0
    word: tuple = ()
    count: int = 200
    probe_degree: int | None = None

    def law_spec(self) -> LawSpec:
        return LawSpec.parse(self.law)

    def context(self):
        return build_law(self.law_spec(), self.degree)

    def word_on(self, datum) -> tuple:
        """The word, checked letter by letter against the simple roots."""
        for i in self.word:
            if not 0 <= i < datum.nsimple:
                raise ConfigError(
                    f"word letter {i + 1} is not in 1..{datum.nsimple} "
                    f"for {datum.label}"
                )
        return tuple(self.word)

    def to_json(self) -> dict:
        return {
            "law": self.law_spec().canonical(),
            "degree": self.degree,
            "type": self.type_tag,
            "case": self.case,
            "seed": self.seed,
            "word": [i + 1 for i in self.word],
            "count": self.count,
        }


def _require_degree(cfg: RunConfig, needed: int, what: str) -> None:
    """A ``--degree`` below what a suite needs is a usage error."""
    if cfg.degree < needed:
        raise ConfigError(f"{what} needs --degree >= {needed}, got {cfg.degree}")


def _report(suite: str, cfg: RunConfig, checks: list[dict]) -> dict:
    return {
        "suite": suite,
        "config": cfg.to_json(),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


# -- suites ---------------------------------------------------------------------


def suite_fgl_check(cfg: RunConfig) -> dict:
    ctx = cfg.context()
    return _report("fgl-check", cfg, fgl_axiom_report(ctx))


def suite_lemma_div(cfg: RunConfig) -> dict:
    """Divisibility of f - s_beta(f) by the class of beta, for seeded random
    homogeneous f and every positive root.  The law context's memoised
    operators for beta (the substitution s_beta, the divided difference
    (f - s_beta(f)) / x_beta and x_beta itself) are fetched once per root;
    each sample's quotient is certified by multiplying it back, in one pass
    that adds q * x_beta to -(f - s_beta(f)) (see
    :meth:`GradedSeries.equals_product`)."""
    datum = build_root_datum(cfg.type_tag)
    ctx = cfg.context()
    rng = Random(cfg.seed)
    max_deg = min(5, ctx.precision)
    samples = [
        random_homogeneous(rng, ctx, datum.rank, rng.randrange(1, max_deg + 1))
        for _ in range(cfg.count)
    ]
    operators = []
    for beta in datum.positive_roots:
        chars = list(zip(*datum.reflection_element(beta).matrix))
        operators.append((
            beta,
            ctx.substitution(chars).apply,
            ctx.divided_difference(chars, beta).apply,
            ctx.formal_sum(beta),
        ))

    def run(f: GradedSeries):
        failures = []
        for beta, act, quotient, x_beta in operators:
            try:
                q = quotient(f)
            except NotDivisibleError as exc:
                failures.append({"root": list(beta), "degree": exc.degree})
                continue
            if not (f - act(f)).equals_product(q, x_beta, q.precision):
                failures.append({"root": list(beta), "certificate": "failed"})
        return failures

    all_failures = [f for sample in samples for f in run(sample)]
    checks = [
        {
            "name": "divisibility",
            "pass": not all_failures,
            "samples": len(samples),
            "roots": len(operators),
            "witnesses": all_failures[:5],
        }
    ]
    return _report("lemma-div", cfg, checks)


def suite_demazure(cfg: RunConfig) -> dict:
    datum = build_root_datum(cfg.type_tag)
    _require_degree(cfg, 2, "the demazure suite")
    ctx = cfg.context()
    rng = Random(cfg.seed)
    n = datum.rank
    max_deg = min(5, ctx.precision - 1)
    checks = []

    bad_invariance = []
    bad_degree = []
    for k in range(cfg.count):
        f = random_homogeneous(rng, ctx, n, rng.randint(1, max_deg))
        i = rng.randrange(datum.nsimple)
        df = demazure(f, i, ctx, datum)
        s = datum.simple_reflections[i]
        if not weyl_act(s, df, ctx, datum).equals_truncated(df):
            bad_invariance.append(k)
        m = f.homogeneous_degree()
        if not (df.is_zero() or df.homogeneous_degree() == m - 1):
            bad_degree.append(k)
    checks.append(
        {
            "name": "invariance",
            "pass": not bad_invariance,
            "samples": cfg.count,
            "witnesses": bad_invariance[:5],
        }
    )
    checks.append(
        {
            "name": "degree_lowering",
            "pass": not bad_degree,
            "witnesses": bad_degree[:5],
        }
    )

    one = GradedSeries.constant(1, n, ctx.precision)
    ok = True
    for i in range(datum.nsimple):
        alpha = datum.simple_roots[i]
        if not demazure(one, i, ctx, datum).equals_truncated(
            kappa_of_character(ctx, alpha)
        ):
            ok = False
    checks.append({"name": "unit_maps_to_kappa", "pass": ok})

    bad_linear = []
    npairs = max(1, cfg.count // 4)
    weyl = datum.weyl()
    for k in range(npairs):
        f = random_homogeneous(rng, ctx, n, rng.randint(1, max_deg))
        mono = random_monomial_series(rng, n, rng.randint(1, 2), ctx.precision)
        g = GradedSeries.zero(n, ctx.precision)
        for w in weyl:
            g = g + weyl_act(w, mono, ctx, datum)
        i = rng.randrange(datum.nsimple)
        if not sw_linearity_check(f, g, i, ctx, datum):
            bad_linear.append(k)
    checks.append(
        {
            "name": "invariant_linearity",
            "pass": not bad_linear,
            "pairs": npairs,
            "witnesses": bad_linear[:5],
        }
    )

    # frozen additive values: del(t1) = -1 and del(x_alpha) = -2 for gl2-like data
    addctx = build_law(LawSpec.additive(), cfg.degree)
    gl2 = build_root_datum("gl2")
    t1 = GradedSeries.variable(0, 2, addctx.precision)
    neg_one = GradedSeries.constant(-1, 2, addctx.precision - 1)
    neg_two = GradedSeries.constant(-2, 2, addctx.precision - 1)
    x_alpha = addctx.formal_sum((1, -1))
    checks.append(
        {
            "name": "additive_sign_convention",
            "pass": demazure(t1, 0, addctx, gl2) == neg_one
            and demazure(x_alpha, 0, addctx, gl2) == neg_two,
        }
    )
    return _report("demazure", cfg, checks)


def suite_gln(cfg: RunConfig) -> dict:
    datum = build_root_datum(cfg.type_tag)
    if not datum.is_gln():
        raise UnsupportedTypeError("the relations suite needs a gl_n type")
    n = datum.rank
    probe_degree = cfg.probe_degree if cfg.probe_degree is not None else (
        3 if n == 2 else 2
    )
    _require_degree(cfg, probe_degree, f"a probe through degree {probe_degree}")
    ctx = cfg.context()
    graph = flag_gkm(datum, ctx)
    checks = []
    rel = gln_relations(n, graph)
    checks.append({"name": "symmetric_relations_vanish", "pass": rel["pass"],
                   "relations": rel["relations"]})
    probe = surjectivity_probe(graph, probe_degree, over="Z")
    checks.append(
        {
            "name": "tensor_image_spans_basis_over_Z",
            "pass": probe["pass"],
            "degrees": probe["degrees"],
        }
    )
    return _report("gln", cfg, checks)


def suite_tensor_iso(cfg: RunConfig) -> dict:
    datum = build_root_datum(cfg.type_tag)
    if not datum.is_gln():
        raise UnsupportedTypeError("the tensor suite needs a gl_n type")
    probe_degree = 2 if cfg.probe_degree is None else cfg.probe_degree
    _require_degree(cfg, 2, "the tensor-iso suite")
    _require_degree(cfg, probe_degree, f"a probe through degree {probe_degree}")
    ctx = cfg.context()
    graph = flag_gkm(datum, ctx)
    rng = Random(cfg.seed)
    n = datum.rank
    checks = []

    probe = surjectivity_probe(graph, probe_degree, over="Z")
    checks.append({"name": "surjectivity_probe", "pass": probe["pass"],
                   "degrees": probe["degrees"]})

    ok = True
    for _ in range(10):
        a1 = random_homogeneous(rng, ctx, n, rng.randint(1, 2), b_free=True)
        b1 = random_homogeneous(rng, ctx, n, rng.randint(1, 2), b_free=True)
        a2 = random_homogeneous(rng, ctx, n, 1, b_free=True)
        b2 = random_homogeneous(rng, ctx, n, 1, b_free=True)
        lhs = tensor_to_gkm(a1 * a2, b1 * b2, graph)
        rhs = tensor_to_gkm(a1, b1, graph) * tensor_to_gkm(a2, b2, graph)
        if not (lhs - rhs).is_zero():
            ok = False
    checks.append({"name": "ring_homomorphism", "pass": ok})

    ok = True
    one = GradedSeries.constant(1, n, ctx.precision)
    for i in range(n):
        chi = tuple(1 if j == i else 0 for j in range(n))
        img = tensor_to_gkm(ctx.formal_sum(chi), one, graph)
        if not (img - line_bundle_class(chi, graph)).is_zero():
            ok = False
    chi = tuple(rng.randint(-2, 2) for _ in range(n))
    if any(chi):
        img = tensor_to_gkm(ctx.formal_sum(chi), one, graph)
        if not (img - line_bundle_class(chi, graph)).is_zero():
            ok = False
    checks.append({"name": "first_factor_restricts_as_line_bundle", "pass": ok})

    b = random_homogeneous(rng, ctx, n, 2, b_free=True)
    img = tensor_to_gkm(one, b, graph)
    checks.append(
        {
            "name": "second_factor_is_constant",
            "pass": (img - constant_class(graph, b)).is_zero(),
        }
    )
    return _report("tensor-iso", cfg, checks)


def suite_bott_samelson(cfg: RunConfig) -> dict:
    datum = build_root_datum(cfg.type_tag)
    word = cfg.word_on(datum)
    # the point class alone has degree len(positive_roots)
    positive = len(datum.positive_roots)
    _require_degree(cfg, max(2, positive), f"the bott-samelson suite on {cfg.type_tag}")
    # an explicit word that does not fit is a usage error, as for
    # `schubert bott-samelson`; only the seeded default word is skipped
    if word and cfg.degree < len(word) + positive:
        raise ConfigError(
            f"word of length {len(word)} needs precision >= {len(word) + positive}"
        )
    ctx = cfg.context()
    graph = flag_gkm(datum, ctx)
    rng = Random(cfg.seed)
    n = datum.rank
    checks = []

    pt = point_class(graph)
    checks.append(
        {"name": "empty_word_is_point_class",
         "pass": bott_samelson((), graph) == pt}
    )
    ok_member, witness = membership(pt, graph)
    checks.append({"name": "point_class_congruences", "pass": ok_member,
                   "witness": witness})

    if datum.label == "gl2":
        bs = bott_samelson((0,), graph)
        one = constant_class(graph, 1).truncate(bs.precision)
        checks.append({"name": "rank_one_word_is_unit", "pass": bs == one})

    word = word or tuple(
        rng.randrange(datum.nsimple) for _ in range(2)
    )
    skipped = None
    if graph.precision < len(word) + positive:
        skipped = {
            "checks": ["word_class_congruences", "edge_pair_constancy_after_step"],
            "word": [i + 1 for i in word],
            "reason": f"the seeded word needs precision >= {len(word) + positive}",
        }
    else:
        c = bott_samelson(word, graph)
        ok_member, witness = membership(c, graph)
        checks.append(
            {"name": "word_class_congruences", "pass": ok_member,
             "word": [i + 1 for i in word], "witness": witness}
        )
        ok_pairs = True
        for i in word:
            s = datum.simple_reflections[i]
            d = demazure_gkm(c, i)
            for v in range(graph.nvertices):
                j = graph.act_vertex_right(v, s)
                if not d.values[v].equals_truncated(d.values[j]):
                    ok_pairs = False
        checks.append({"name": "edge_pair_constancy_after_step", "pass": ok_pairs})

    ok = True
    one = GradedSeries.constant(1, n, ctx.precision)
    for _ in range(5):
        a = random_homogeneous(rng, ctx, n, rng.randint(1, 2), b_free=True)
        i = rng.randrange(datum.nsimple)
        lhs = demazure_gkm(tensor_to_gkm(a, one, graph), i)
        rhs = tensor_to_gkm(demazure(a, i, ctx, datum), one, graph)
        if not (lhs - rhs.truncate(lhs.precision)).is_zero():
            ok = False
    checks.append({"name": "compatible_with_tensor_model", "pass": ok})
    report = _report("bott-samelson", cfg, checks)
    if skipped:
        report["skipped"] = skipped
    return report


def suite_esph(cfg: RunConfig) -> dict:
    sd = build_symmetric_datum(cfg.case)
    ctx = cfg.context()
    model = build_wonderful_graph(sd, ctx)
    checks = []
    counts = model.counts()
    checks.append({"name": "structure_counts", "pass": True, "counts": counts})
    rep = verify_esph(model, min(cfg.degree, ctx.precision))
    checks.append(
        {"name": "invariant_subrings_coincide", "pass": rep["pass"],
         "degrees": rep["degrees"]}
    )
    if sd.datum.rank == 2 and len(sd.restricted) == 1:
        graph, zeta, prep = group_psl2_projective_model(model)
        checks.append(
            {
                "name": "projective_model",
                "pass": prep["edges_match_wonderful"]
                and prep["zeta_is_member"]
                and prep["relation_vanishes"],
                "detail": prep,
            }
        )
        datum = sd.datum
        ok = True
        detail = []
        for m in range(0, min(cfg.degree, ctx.precision) + 1):
            via_p = [
                values[0]
                for values in invariant_tuple_basis(graph, datum.simple_reflections, m)
            ]
            via_x = invariant_subring_X(model, m)
            same = span_equal(via_p, via_x)
            detail.append({"degree": m, "agree": bool(same), "rank": len(via_x)})
            ok = ok and same
        checks.append(
            {"name": "projective_route_agrees", "pass": ok, "degrees": detail}
        )
    return _report("esph", cfg, checks)


_SUITE_FUNCS = {
    "lemma-div": suite_lemma_div,
    "demazure": suite_demazure,
    "gln": suite_gln,
    "tensor-iso": suite_tensor_iso,
    "bott-samelson": suite_bott_samelson,
    "esph": suite_esph,
}
SUITES = tuple(_SUITE_FUNCS)


def run_suite(name: str, cfg: RunConfig) -> dict:
    fn = _SUITE_FUNCS.get(name)
    if fn is None:
        raise ConfigError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return fn(cfg)
