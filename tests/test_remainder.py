"""The remainder of the long division by x_chi against the change of lattice
basis that it replaced (``oracles.BasisChangeDivider``), and the moment-graph
solvers against the same solvers fed the rows of that change of basis
(``oracles.BasisChangeTupleSystem``)."""

from fractions import Fraction
from random import Random

import pytest

from cobcalc import gkm, series, wonderful
from cobcalc.errors import NotDivisibleError
from cobcalc.fgl import build_law
from cobcalc.gkm import flag_gkm, subring_basis
from cobcalc.roots import build_root_datum, build_symmetric_datum
from cobcalc.sampling import random_homogeneous
from cobcalc.series import GradedSeries, divide_exact, remainder
from cobcalc.wonderful import (
    build_wonderful_graph,
    invariant_subring_X,
    root_congruence_system,
)

from .oracles import BasisChangeDivider, BasisChangeTupleSystem

D = 4
# (law, precision): universal:8 at 9 is the law of `verify gln` on gl3
PRECISION = {"additive": D, "multiplicative": D, "universal:4": D, "universal:8": 9}
# every positive root of g2 but (0, 1) and (1, 0) leads with 2 or 3, so its
# remainders have Fraction values; for (0, 1) and (1, 0), x_chi is a unit
# times one variable, which the remainder sends to 0
CHARACTERS = [
    (tag, beta)
    for tag in ("gl3", "b2", "g2", "gl4")
    for beta in build_root_datum(tag).positive_roots
]


def _samples(rng: Random, ctx, chi) -> list[GradedSeries]:
    """Random series, multiples of x_chi, and sums of the two."""
    n, p = len(chi), ctx.precision
    x_chi = ctx.formal_sum(chi)
    out = [GradedSeries.zero(n, p), GradedSeries.constant(2, n, p)]
    for _ in range(3):
        f = random_homogeneous(rng, ctx, n, rng.randint(1, p))
        q = random_homogeneous(rng, ctx, n, rng.randint(0, p - 1)).scale(Fraction(1, 2))
        out += [f, q * x_chi, q * x_chi + f, f + random_homogeneous(rng, ctx, n, 1)]
    return out


@pytest.mark.parametrize("law", PRECISION)
@pytest.mark.parametrize("tag,chi", CHARACTERS)
def test_remainder_is_the_normal_form_modulo_x_chi(tag, chi, law):
    ctx = build_law(law, PRECISION[law])
    x_chi = ctx.formal_sum(chi)
    lead = next(i for i, c in enumerate(chi) if c)  # x_chi's leading variable
    old = BasisChangeDivider(ctx, chi)
    rmap = ctx.remainder_map(chi)
    fractions = False
    samples = _samples(Random(f"{tag} {chi} {law}"), ctx, chi)
    for f, g in zip(samples, samples[1:] + samples[:1]):
        # a ring map: the remainder of a product is the product of remainders
        assert rmap.apply(f * g) == rmap.apply(f) * rmap.apply(g)
    for f in samples:
        r = remainder(f, x_chi)
        assert r.precision == f.precision
        # f - r is a multiple of x_chi, certified by the exact division
        q = divide_exact(f - r, x_chi)
        assert (q * x_chi).equals_truncated(f - r)
        assert all(t[lead] == 0 for t, _, _ in r.items())
        try:
            ctx.divide_by_character(f, chi)
        except NotDivisibleError:
            divides = False
        else:
            divides = True
        assert r.is_zero() == divides
        assert rmap.apply(f) == r
        # the deleted route: the same terms free of t1' after the change of
        # basis, and f - r divisible there too
        assert old.free_part(r) == old.free_part(f)
        assert old.free_part(f).is_zero() == divides
        old.divide(f - r)
        fractions |= any(Fraction(v).denominator > 1 for _, _, v in r.items())
    assert fractions == (abs(chi[lead]) > 1)


@pytest.mark.parametrize("law,precision", [("additive", 5), ("multiplicative", 5), ("universal:8", 9)])
@pytest.mark.parametrize("tag", ["gl3", "gl4"])
def test_a_gl_n_root_sends_its_leading_variable_to_the_other(tag, law, precision):
    """Modulo x_chi for chi = e_i - e_j, i < j, or its negative, t_i is t_j
    under every law, and every other variable is itself."""
    ctx = build_law(law, precision)
    for beta in build_root_datum(tag).positive_roots:
        i, j = (k for k, c in enumerate(beta) if c)
        n = len(beta)
        for chi in (beta, tuple(-c for c in beta)):
            rmap = ctx.remainder_map(chi)
            for k in range(n):
                got = rmap.apply(GradedSeries.variable(k, n, precision))
                assert got == GradedSeries.variable(j if k == i else k, n, precision)


@pytest.mark.parametrize("tag,law,precision", [("gl3", "universal:8", 9), ("g2", "universal:4", 5)])
def test_remainder_map_divides_once_per_character(monkeypatch, tag, law, precision):
    """Building and applying the remainder map of a character takes one long
    division, whatever the number of monomials it reduces."""
    ctx = build_law(law, precision)
    calls = []
    long_divide = series._long_divide

    def counted(*args):
        calls.append(args)
        return long_divide(*args)

    monkeypatch.setattr(series, "_long_divide", counted)
    roots = build_root_datum(tag).positive_roots
    n = len(roots[0])
    rng = Random(tag)
    reduced = 0
    for beta in roots:
        rmap = ctx.remainder_map(beta)
        for d in range(precision + 1):
            for _ in range(4):
                f = random_homogeneous(rng, ctx, n, d, max_terms=8)
                rmap.apply(f)
                reduced += sum(1 for _ in f.items())
    assert reduced > 10 * len(roots)
    assert len(calls) == len(roots)


@pytest.mark.parametrize(
    "tag,law,degrees",
    [
        ("gl3", "additive", range(4)),
        ("b2", "additive", range(4)),
        ("g2", "additive", range(4)),
        ("gl3", "universal:4", [2]),
    ],
)
def test_subring_basis_matches_the_change_of_basis_rows(monkeypatch, tag, law, degrees):
    ctx = build_law(law, 3)
    graph = flag_gkm(build_root_datum(tag), ctx)
    got = [subring_basis(graph, d) for d in degrees]
    monkeypatch.setattr(gkm, "TupleSystem", BasisChangeTupleSystem)
    assert got == [subring_basis(graph, d) for d in degrees]


@pytest.mark.parametrize("roots", [False, True])
@pytest.mark.parametrize("case", ["group:psl2", "group:psl3"])
def test_invariant_subring_matches_the_change_of_basis_rows(monkeypatch, case, roots):
    """roots=False: the reduced basis; roots=True: the root-congruence rows,
    which must be empty under either normal form modulo x_beta."""
    ctx = build_law("additive", 3)
    model = build_wonderful_graph(build_symmetric_datum(case), ctx)

    def route(d):
        if roots:
            return root_congruence_system(model, d).rows
        return invariant_subring_X(model, d)

    got = [route(d) for d in range(4)]
    monkeypatch.setattr(wonderful, "TupleSystem", BasisChangeTupleSystem)
    assert got == [route(d) for d in range(4)]
    if roots:
        assert got == [[]] * 4
