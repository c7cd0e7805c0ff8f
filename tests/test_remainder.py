"""The remainder of the long division by x_chi against the change of lattice
basis that it replaced (``oracles.BasisChangeDivider``), and the moment-graph
solvers against the same solvers fed the rows of that change of basis
(``oracles.BasisChangeTupleSystem``)."""

from fractions import Fraction
from random import Random

import pytest

from cobcalc import gkm, wonderful
from cobcalc.errors import NotDivisibleError
from cobcalc.fgl import build_law
from cobcalc.gkm import flag_gkm, subring_basis
from cobcalc.roots import build_root_datum, build_symmetric_datum
from cobcalc.sampling import random_homogeneous
from cobcalc.series import GradedSeries, divide_exact, remainder
from cobcalc.wonderful import build_wonderful_graph, invariant_subring_X

from .oracles import BasisChangeDivider, BasisChangeTupleSystem

D = 4
LAWS = ("additive", "multiplicative", "universal:4")
# every positive root of g2 but (0, 1) and (1, 0) leads with 2 or 3, so its
# remainders have Fraction values
CHARACTERS = [
    (tag, beta) for tag in ("gl3", "b2", "g2") for beta in build_root_datum(tag).positive_roots
]


def _samples(rng: Random, ctx, chi) -> list[GradedSeries]:
    """Random series, multiples of x_chi, and sums of the two."""
    n = len(chi)
    x_chi = ctx.formal_sum(chi)
    out = [GradedSeries.zero(n, D), GradedSeries.constant(2, n, D)]
    for _ in range(3):
        f = random_homogeneous(rng, ctx, n, rng.randint(1, D))
        q = random_homogeneous(rng, ctx, n, rng.randint(0, D - 1)).scale(Fraction(1, 2))
        out += [f, q * x_chi, q * x_chi + f, f + random_homogeneous(rng, ctx, n, 1)]
    return out


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("tag,chi", CHARACTERS)
def test_remainder_is_the_normal_form_modulo_x_chi(tag, chi, law):
    ctx = build_law(law, D)
    x_chi = ctx.formal_sum(chi)
    lead = next(i for i, c in enumerate(chi) if c)  # x_chi's leading variable
    old = BasisChangeDivider(ctx, chi)
    rmap = ctx.remainder_map(chi)
    fractions = False
    for f in _samples(Random(f"{tag} {chi} {law}"), ctx, chi):
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
    ctx = build_law("additive", 3)
    model = build_wonderful_graph(build_symmetric_datum(case), ctx)
    got = [invariant_subring_X(model, d, roots) for d in range(4)]
    monkeypatch.setattr(wonderful, "TupleSystem", BasisChangeTupleSystem)
    assert got == [invariant_subring_X(model, d, roots) for d in range(4)]
