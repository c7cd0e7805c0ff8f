"""Independent brute-force machinery for checking the engine.

Everything here is plain arithmetic over Fractions, sharing no code path with
the package: dict-based multivariate polynomials, lex long division,
permutation actions built from first principles, and dense rational row
reduction.  The one exception is ``BasisChangeDivider``, the slow reference
for division by a character class, which is built from the package's own
series, substitutions and basis completion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import gcd

from cobcalc.errors import NotDivisibleError
from cobcalc.linalg import unimodular_with_first_column
from cobcalc.series import GradedSeries, Substitution


class Poly:
    """Multivariate polynomial, exponent tuple -> Fraction."""

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[tuple(e)] = c

    @staticmethod
    def variable(i: int, n: int) -> "Poly":
        return Poly({tuple(1 if j == i else 0 for j in range(n)): 1})

    @staticmethod
    def const(c, n: int) -> "Poly":
        return Poly({(0,) * n: c})

    @staticmethod
    def linear_form(vec) -> "Poly":
        n = len(vec)
        return Poly(
            {
                tuple(1 if j == i else 0 for j in range(n)): vec[i]
                for i in range(n)
                if vec[i]
            }
        )

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(out)

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(out)

    def __eq__(self, other):
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def divide_exact_by(self, divisor: "Poly"):
        """Exact division via lex long division; None when not divisible."""
        if divisor.is_zero():
            raise ZeroDivisionError
        rem = dict(self.terms)
        lead_d = max(divisor.terms)
        lc = divisor.terms[lead_d]
        q: dict = {}
        while rem:
            lead_n = max(rem)
            if any(a < b for a, b in zip(lead_n, lead_d)):
                return None
            mono = tuple(a - b for a, b in zip(lead_n, lead_d))
            coef = rem[lead_n] / lc
            q[mono] = q.get(mono, 0) + coef
            for e, c in divisor.terms.items():
                key = tuple(a + b for a, b in zip(mono, e))
                s = rem.get(key, 0) - coef * c
                if s:
                    rem[key] = s
                else:
                    rem.pop(key, None)
        return Poly(q)


def permutation_act_form(perm, vec):
    """The permutation action on a character vector: chi_i -> chi_{perm(i)}."""
    out = [0] * len(vec)
    for i, v in enumerate(vec):
        out[perm[i]] += v
    return tuple(out)


def permutation_act_poly(perm, f: Poly) -> Poly:
    out: dict = {}
    for e, c in f.terms.items():
        key = [0] * len(e)
        for i, k in enumerate(e):
            key[perm[i]] += k
        key = tuple(key)
        s = out.get(key, 0) + c
        if s:
            out[key] = s
    return Poly(out)


def compose(p, q):
    """(p after q) as permutations in one-line notation."""
    return tuple(p[q[i]] for i in range(len(p)))


def transposition(i, j, n):
    out = list(range(n))
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def classical_divided_difference(f: Poly, alpha_vec, perm) -> Poly:
    """(f - s_alpha(f)) / alpha, the classical operator; exact for all f."""
    s_f = permutation_act_poly(perm, f)
    q = (f - s_f).divide_exact_by(Poly.linear_form(alpha_vec))
    assert q is not None, "classical divisibility failed"
    return q


class ClassicalFlagOracle:
    """Equivariant Schubert calculus on the gl_n flag variety, additive law,
    done with tuples of polynomials over the symmetric group."""

    def __init__(self, n: int):
        self.n = n
        self.vertices = sorted(permutations(range(n)))
        self.index = {p: i for i, p in enumerate(self.vertices)}
        self.simples = [transposition(i, i + 1, n) for i in range(n - 1)]
        self.simple_vecs = [
            tuple(
                1 if j == i else -1 if j == i + 1 else 0 for j in range(n)
            )
            for i in range(n - 1)
        ]
        self.positive = [
            tuple(
                1 if k == i else -1 if k == j else 0 for k in range(n)
            )
            for i in range(n)
            for j in range(i + 1, n)
        ]

    def point_class(self) -> list[Poly]:
        prod = Poly.const(1, self.n)
        for beta in self.positive:
            prod = prod * Poly.linear_form(tuple(-x for x in beta))
        identity = tuple(range(self.n))
        return [
            prod if p == identity else Poly({}) for p in self.vertices
        ]

    def demazure(self, values: list[Poly], i: int) -> list[Poly]:
        """The engine's sign convention: at w the value is
        (c at w s_alpha - c at w) / (w alpha)."""
        s = self.simples[i]
        alpha = self.simple_vecs[i]
        out = []
        for k, p in enumerate(self.vertices):
            partner = self.index[compose(p, s)]
            w_alpha = permutation_act_form(p, alpha)
            q = (values[partner] - values[k]).divide_exact_by(
                Poly.linear_form(w_alpha)
            )
            assert q is not None, "oracle divisibility failed"
            out.append(q)
        return out

    def bott_samelson(self, word) -> list[Poly]:
        values = self.point_class()
        for i in word:
            values = self.demazure(values, i)
        return values


def engine_series_to_poly(series) -> Poly:
    """Convert an additive-law engine series (no coefficient generators) to a
    plain polynomial; fails loudly if generator monomials are present."""
    terms = {}
    for e, c in series.terms.items():
        assert set(c) <= {()}, "series carries coefficient generators"
        v = c.get((), 0)
        if v:
            terms[e] = Fraction(v)
    return Poly(terms)


def engine_permutation(weyl_element, n: int):
    """Extract the permutation from a gl_n Weyl matrix: w(chi_i) = chi_{p(i)}."""
    perm = []
    for i in range(n):
        col = [weyl_element.matrix[r][i] for r in range(n)]
        assert sorted(col) == [0] * (n - 1) + [1]
        perm.append(col.index(1))
    return tuple(perm)


# -- rational linear algebra ---------------------------------------------------------


def rref_rational(vectors: list) -> list[tuple[Fraction, ...]]:
    """Canonical reduced echelon basis of the rational row span."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rows = [r for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    out: list[list[Fraction]] = []
    pivots: list[int] = []
    for col in range(ncols):
        pick = None
        for r in rows:
            if r[col] != 0 and all(r[c] == 0 for c in range(col)):
                pick = r
                break
        if pick is None:
            continue
        rows.remove(pick)
        pick = [x / pick[col] for x in pick]
        rows = [
            [x - r[col] * p for x, p in zip(r, pick)] if r[col] else r for r in rows
        ]
        out = [
            [x - r[col] * p for x, p in zip(r, pick)] if r[col] else r for r in out
        ]
        out.append(pick)
        pivots.append(col)
        rows = [r for r in rows if any(r)]
        if not rows:
            break
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return [tuple(out[i]) for i in order]


def rational_kernel(rows: list, ncols: int) -> list[tuple[int, ...]]:
    """The reduced kernel basis read off ``rref_rational``: one vector per free
    column in increasing order, 1 there and 0 at the other free columns,
    scaled by a positive factor to a primitive integer vector."""
    rref = rref_rational(rows)
    pivots = [next(c for c, x in enumerate(r) if x) for r in rref]
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for c, r in zip(pivots, rref):
            vec[c] = -r[f]
        lcm = 1
        for x in vec:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        ints = [int(x * lcm) for x in vec]
        g = 0
        for x in ints:
            g = gcd(g, x)
        out.append(tuple(x // g for x in ints))
    return out


# -- division by a character class through a change of lattice basis ----------


class BasisChangeDivider:
    """Division by x_chi through a change of lattice basis, for a primitive
    character chi.

    With U unimodular with first column chi, the forward substitution
    ``t_i -> x_{U^-1 e_i}`` makes chi the first basis character, so x_chi
    becomes the plain variable t1'.  A series is divisible by t1' exactly
    when every term contains it; the quotient shifts the t1'-exponents down
    by one and substitutes back by ``t'_j -> x_{U e_j}``.  A failure reports
    the lowest degree of a term free of t1'.
    """

    def __init__(self, ctx, chi):
        n = len(chi)
        u, uinv = unimodular_with_first_column(chi)
        self.fwd = Substitution(
            [ctx.formal_sum([uinv[j][i] for j in range(n)]) for i in range(n)]
        )
        self.back = Substitution(
            [ctx.formal_sum([u[i][j] for i in range(n)]) for j in range(n)]
        )

    def divide(self, f: GradedSeries) -> GradedSeries:
        if f.is_zero():
            return GradedSeries.zero(f.nvars, f.precision - 1)
        g = self.fwd.apply(f)
        bad = [sum(e) for e in g.terms if e[0] == 0]
        if bad:
            raise NotDivisibleError("not divisible", degree=min(bad))
        shifted = GradedSeries(
            g.nvars,
            g.precision - 1,
            {(e[0] - 1,) + e[1:]: c for e, c in g.terms.items()},
        )
        return self.back.apply(shifted)
