"""Seeded random generators for property suites.

All sampling goes through an explicit ``random.Random`` so that suites are
reproducible from a seed recorded in their configuration.
"""

from __future__ import annotations

from random import Random

from .errors import InternalConsistencyError
from .series import GradedSeries


def random_composition(rng: Random, total: int, parts: int) -> tuple:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    prev = 0
    out = []
    for c in cuts + [total]:
        out.append(c - prev)
        prev = c
    return tuple(out)


def random_b_monomial(rng: Random, weight: int, ngens: int) -> tuple:
    exp = [0] * ngens
    remaining = weight
    while remaining > 0:
        part = rng.randint(1, min(remaining, ngens))
        exp[part - 1] += 1
        remaining -= part
    while exp and exp[-1] == 0:
        exp.pop()
    return tuple(exp)


def random_homogeneous(
    rng: Random,
    ctx,
    nvars: int,
    degree: int,
    max_terms: int = 4,
    coeff_bound: int = 3,
    b_free: bool = False,
) -> GradedSeries:
    """A random homogeneous series of the given cohomological degree.

    Over laws with coefficient generators the terms may carry b-monomials
    (t-degree above ``degree``); with ``b_free`` the result is a plain form,
    valid input under any law.
    """
    if degree > ctx.precision:
        raise InternalConsistencyError(
            f"sample degree {degree} exceeds precision {ctx.precision}"
        )
    max_extra = 0 if (b_free or ctx.ngens == 0) else ctx.precision - degree
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        extra = rng.randint(0, max_extra) if max_extra else 0
        tdeg = degree + extra
        texp = random_composition(rng, tdeg, nvars)
        bexp = random_b_monomial(rng, extra, ctx.ngens) if extra else ()
        c = rng.randint(1, coeff_bound) * rng.choice((1, -1))
        coeff = terms.setdefault(texp, {})
        v = coeff.get(bexp, 0) + c
        if v:
            coeff[bexp] = v
        else:
            del coeff[bexp]
            if not coeff:
                del terms[texp]
    if not terms:
        texp = random_composition(rng, degree, nvars)
        terms = {texp: {(): 1}}
    return GradedSeries.from_terms(nvars, ctx.precision, terms)


def random_monomial_series(rng: Random, nvars: int, degree: int, precision: int):
    exp = random_composition(rng, degree, nvars)
    return GradedSeries.from_terms(nvars, precision, {exp: {(): 1}})
