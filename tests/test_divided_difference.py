"""The memoised divided difference (f - w(f)) / x_beta against the direct
long division of the whole difference, and the one-pass sample builder
against the old one-term-at-a-time construction."""

from fractions import Fraction
from random import Random

import pytest

from cobcalc import series
from cobcalc.errors import NotDivisibleError, PrecisionExhaustedError
from cobcalc.fgl import FGLContext, build_law
from cobcalc.roots import build_root_datum, divided_difference, weyl_act
from cobcalc.sampling import random_homogeneous
from cobcalc.schubert import demazure, kappa_of_character
from cobcalc.series import Divisor, GradedSeries
from cobcalc.verify import RunConfig, suite_lemma_div

from .oracles import nested, random_homogeneous_reference

D = 5
LAWS = ("additive", "multiplicative", "universal:4")


def _outcome(thunk):
    """The quotient's wire form, or the exception type and witness degree."""
    try:
        q = thunk()
    except NotDivisibleError as exc:
        return ("NotDivisibleError", exc.degree)
    except PrecisionExhaustedError:
        return ("PrecisionExhaustedError",)
    return q.to_json()


def _direct(w, beta, f, ctx, datum):
    return ctx.divide_by_character(f - weyl_act(w, f, ctx, datum), beta)


def _inputs(rng, ctx, datum, rational):
    n = datum.rank
    out = []
    for _ in range(4):
        f = random_homogeneous(rng, ctx, n, rng.randint(1, D))
        if rational:
            g = random_homogeneous(rng, ctx, n, rng.randint(1, D))
            f = f.scale(Fraction(2, 3)) + g.scale(Fraction(-1, 2))
        out.append(f)
    # terms above the context's precision are dropped, as in f - w(f)
    high = (D + 1,) + (0,) * (n - 1), (1,) * (n - 1) + (D + 2 - (n - 1),)
    out.append(
        GradedSeries.from_terms(n, D + 2, {**nested(f), **{e: {(): 1} for e in high}})
    )
    out += [f.truncate(D - 2), f.truncate(1)]
    out += [GradedSeries.zero(n, D), GradedSeries.zero(n, 2)]
    return out


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("tag", ["gl3", "b2", "g2"])
def test_divided_difference_matches_direct_division(tag, law, rational):
    datum = build_root_datum(tag)
    ctx = build_law(law, D)
    rng = Random(f"{tag}-{law}-{rational}")
    inputs = _inputs(rng, ctx, datum, rational)
    for beta in datum.positive_roots:
        s = datum.reflection_element(beta)
        for f in inputs:
            q = divided_difference(s, beta, f, ctx, datum)
            assert q == _direct(s, beta, f, ctx, datum)
            assert q.to_json() == _direct(s, beta, f, ctx, datum).to_json()
            assert q.precision == min(f.precision, D) - 1
        # a series of precision 0 leaves nothing to divide, as before
        for f in (inputs[0].truncate(0), GradedSeries.zero(datum.rank, 0)):
            with pytest.raises(PrecisionExhaustedError):
                divided_difference(s, beta, f, ctx, datum)
            with pytest.raises(PrecisionExhaustedError):
                _direct(s, beta, f, ctx, datum)


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("tag", ["gl3", "b2", "g2"])
def test_divided_difference_witness_degree(tag, law):
    # with w != s_beta some monomial difference is not divisible, and the
    # operator must fail exactly where the division of the whole does
    datum = build_root_datum(tag)
    ctx = build_law(law, D)
    rng = Random(f"witness-{tag}-{law}")
    n = datum.rank
    samples = [random_homogeneous(rng, ctx, n, rng.randint(1, D)) for _ in range(3)]
    raised = passed = 0
    for beta in datum.positive_roots:
        for gamma in datum.positive_roots:
            if gamma == beta:
                continue
            w = datum.reflection_element(gamma)
            # f + w(f) is w-invariant: its difference is 0, divisible although
            # its monomials' differences are not
            inputs = samples + [samples[0] + weyl_act(w, samples[0], ctx, datum)]
            for f in inputs:
                got = _outcome(lambda: divided_difference(w, beta, f, ctx, datum))
                assert got == _outcome(lambda: _direct(w, beta, f, ctx, datum))
                if isinstance(got, dict):
                    passed += 1
                else:
                    raised += got[0] == "NotDivisibleError"
    assert raised and passed


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("tag", ["gl3", "b2", "g2"])
def test_demazure_matches_the_direct_quotient(tag, law):
    datum = build_root_datum(tag)
    ctx = build_law(law, D)
    rng = Random(f"demazure-{tag}-{law}")
    for _ in range(4):
        f = random_homogeneous(rng, ctx, datum.rank, rng.randint(1, D - 1))
        for i, alpha in enumerate(datum.simple_roots):
            s = datum.simple_reflections[i]
            quotient = _direct(s, alpha, f, ctx, datum)
            expected = (kappa_of_character(ctx, alpha) * f - quotient).truncate(
                f.precision - 1
            )
            assert demazure(f, i, ctx, datum) == expected


def test_lemma_div_divides_each_monomial_once(monkeypatch):
    # gl3 universal:4 at degree 5: 3 positive roots and 56 t-monomials of
    # degree <= 5 in 3 variables bound the long divisions, whatever the count
    counts = {"divide_by_character": 0, "by_character_class": 0}
    by_character = FGLContext.divide_by_character
    divide_exact = series.divide_exact

    def counting_by_character(self, f, chi):
        counts["divide_by_character"] += 1
        return by_character(self, f, chi)

    def counting_divide_exact(f, g):
        counts["by_character_class"] += isinstance(g, Divisor)
        return divide_exact(f, g)

    monkeypatch.setattr(FGLContext, "divide_by_character", counting_by_character)
    monkeypatch.setattr(series, "divide_exact", counting_divide_exact)
    monkeypatch.setattr("cobcalc.fgl.divide_exact", counting_divide_exact)
    cfg = RunConfig(law="universal:4", degree=5, type_tag="gl3", count=400)
    report = suite_lemma_div(cfg)
    assert report["pass"]
    assert counts["divide_by_character"] <= 3 * 56
    assert 0 < counts["by_character_class"] <= 3 * 56


@pytest.mark.parametrize("b_free", [False, True])
@pytest.mark.parametrize(
    "law,precision,nvars",
    [("universal:4", 5, 3), ("universal:3", 4, 2), ("multiplicative", 4, 3),
     ("additive", 3, 1), ("additive", 4, 4)],
)
def test_random_homogeneous_matches_reference(law, precision, nvars, b_free):
    ctx = build_law(law, precision)
    for seed in range(150):
        for coeff_bound in (1, 3):
            rng, ref_rng = Random(seed), Random(seed)
            degree = seed % (precision + 1)
            kwargs = dict(max_terms=4 + seed % 3, coeff_bound=coeff_bound, b_free=b_free)
            f = random_homogeneous(rng, ctx, nvars, degree, **kwargs)
            g = random_homogeneous_reference(ref_rng, ctx, nvars, degree, **kwargs)
            assert f.precision == g.precision
            assert list(nested(f).items()) == list(nested(g).items())
            assert [list(c.items()) for c in nested(f).values()] == [
                list(c.items()) for c in nested(g).values()
            ]
            assert rng.getstate() == ref_rng.getstate()
