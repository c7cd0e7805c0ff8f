"""Independent brute-force machinery for checking the engine.

Everything here is plain arithmetic over Fractions, sharing no code path with
the package: dict-based multivariate polynomials, lex long division,
permutation actions built from first principles, and dense rational row
reduction.  The exceptions follow.  ``BasisChangeDivider``, the slow
reference for division by a character class, is built from the package's own
series and substitutions and from ``unimodular_with_first_column``, the
lattice basis completion that the package no longer has;
``BasisChangeTupleSystem`` overrides only the reduction modulo x_chi of the
package's ``TupleSystem`` (``coords_modulo``): it takes the coordinates of
the terms free of t1' after that change of basis in place of the remainder
map, and keeps the package's memo of Weyl images and reductions.
``formal_sum_reference`` and ``kappa_of_character_reference`` compute x_chi
and kappa(x_chi) character by character from the package's law and
substitution.
``random_homogeneous_reference``, the old one-term-at-a-time sample
construction, adds the package's series; it draws through
``random_composition_reference`` and ``random_b_monomial_reference``, the
samplers as they were written with ``randint``.  ``lemma_div_reference`` is
the lemma-div loop that went through ``weyl_act`` and
``roots.divided_difference`` for every sample and root and multiplied each
quotient back with ``*``.  ``demazure_gkm_reference``, the
equivariant Demazure operator computed at both vertices of every pair,
divides with the package's law context.
``kernel_int_reference`` and ``span_equal_int_reference`` (the old lattice
kernel and the old lattice comparison by membership) run the dense integer
column echelon kept here, which the package no longer has.
``clear_denominators``, ``is_homogeneous``, ``matrix_length`` and
``reflect`` are small helpers that only the tests call, kept here as the
package had them (``is_homogeneous`` asks ``is_zero`` where the method read
the packed keys).
``flag_graph_reference`` and ``wonderful_graphs_reference``, the separate
flag and wonderful graph constructions that ``gkm.coset_graph`` replaced,
read the package's Weyl groups, reflections and symmetric data.
``invariant_tuple_basis_reference`` solves, with the package's
``TupleSystem`` and its conditions on Weyl images, for one block of unknowns
per vertex under every edge congruence and every invariance condition, as
``wonderful.invariant_tuple_basis`` did before it solved for one block per
orbit root.
``TupleSeries`` and its substitution, divisor and divided difference are the
tuple-keyed series kernel that the packed one in ``cobcalc.series``
replaced; they share no code with it.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from operator import add, sub
from random import Random

from cobcalc.errors import (
    ConstantTermError,
    IndexOutOfRangeError,
    InternalConsistencyError,
    NotDivisibleError,
    NVarsMismatchError,
    PrecisionExhaustedError,
    PrecisionMismatchError,
)
from cobcalc.gkm import GKMClass, TupleSystem, ambient_monomials
from cobcalc.linalg import (
    Vec,
    canonical_sign,
    require_primitive,
    vsub,
)
from cobcalc.roots import build_root_datum, divided_difference, mat_mul, weyl_act
from cobcalc.sampling import random_homogeneous
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
    for e, c in nested(series).items():
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


# -- small helpers that only the tests call -----------------------------------------


def clear_denominators(row) -> Vec:
    m = lcm(*(x.denominator for x in row))
    return tuple(int(x * m) for x in row)


def is_homogeneous(f: GradedSeries, degree: int | None = None) -> bool:
    d = f.homogeneous_degree()
    if d is None:
        return False
    return degree is None or f.is_zero() or d == degree


def matrix_length(datum, w) -> int:
    """#{positive roots sent to negative ones} (the geometric length)."""
    return sum(
        all(c <= 0 for c in datum.simple_coordinates[w.act(beta)])
        for beta in datum.positive_roots
    )


def reflect(datum, beta, chi) -> Vec:
    return vsub(tuple(chi), tuple(c * datum.pairing(chi, beta) for c in beta))


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


# -- integer lattices by dense column echelon ----------------------------------


def _column_echelon(cols: list[list[int]], nrows: int) -> int:
    """Bring the first ``nrows`` coordinates of the columns ``cols`` into
    echelon form by unimodular column operations, in place.

    Returns the number of nonzero echelon columns; they come first, and the
    remaining columns are zero on those coordinates.  Coordinates past
    ``nrows`` take part in every operation without being swept, so appending
    a unit matrix below records the operations.
    """
    start = 0
    for r in range(nrows):
        # gcd-sweep row r across columns start..end
        j = start
        while j < len(cols):
            if cols[j][r] != 0:
                break
            j += 1
        else:
            continue
        if j != start:
            cols[start], cols[j] = cols[j], cols[start]
        for j in range(start + 1, len(cols)):
            while cols[j][r] != 0:
                a, b = cols[start][r], cols[j][r]
                if abs(a) > abs(b):
                    cols[start], cols[j] = cols[j], cols[start]
                    continue
                q = b // a
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[start])]
        if cols[start][r] < 0:
            cols[start] = [-x for x in cols[start]]
        start += 1
    return start


def kernel_int_reference(rows: list, ncols: int) -> list[tuple[int, ...]]:
    """Basis of the lattice of integer solutions of ``A x = 0`` by unimodular
    column reduction of the dense matrix with a unit block below it (the
    package's old ``kernel_int``); rows may contain Fractions."""
    int_rows = [clear_denominators(r) for r in rows]
    nrows = len(int_rows)
    cols = [
        [r[j] for r in int_rows] + [1 if i == j else 0 for i in range(ncols)]
        for j in range(ncols)
    ]
    rank = _column_echelon(cols, nrows)
    return [canonical_sign(tuple(c[nrows:])) for c in cols[rank:]]


def is_saturated(vectors, dim: int) -> bool:
    """Whether the integer span of the independent ``vectors`` in Z^dim is
    saturated (all of its rational span's integer points): exactly when
    y -> (v . y)_v maps Z^dim onto Z^k, that is when the column echelon of
    the dim coordinate columns is the identity."""
    k = len(vectors)
    cols = [[v[i] for v in vectors] for i in range(dim)]
    rank = _column_echelon(cols, k)
    return rank == k and all(cols[j][j] == 1 for j in range(k))


# -- integral span comparison by membership ------------------------------------


class Lattice:
    """The integer span of a list of vectors, with exact membership testing."""

    def __init__(self, vectors, dim: int):
        self.dim = dim
        # column echelon of the generator matrix (generators as columns)
        cols = [list(v) for v in vectors if any(v)]
        self.basis = [tuple(col) for col in cols[:_column_echelon(cols, dim)]]

    def rank(self) -> int:
        return len(self.basis)

    def contains(self, v) -> bool:
        r = list(v)
        if len(r) != self.dim:
            raise ValueError("dimension mismatch")
        for col in self.basis:
            i = next((k for k, x in enumerate(col) if x != 0), None)
            if i is None:
                continue
            if r[i] == 0:
                continue
            q, rem = divmod(r[i], col[i])
            if rem:
                return False
            for k in range(self.dim):
                r[k] -= q * col[k]
        return not any(r)


def span_equal_int_reference(vs, ws, dim: int) -> bool:
    """Whether ``vs`` and ``ws`` span the same lattice: equal ranks, and each
    family lies in the other's span."""
    lv, lw = Lattice(vs, dim), Lattice(ws, dim)
    if lv.rank() != lw.rank():
        return False
    return all(lv.contains(w) for w in ws) and all(lw.contains(v) for v in vs)


# -- division by a character class through a change of lattice basis ----------


def unimodular_with_first_column(alpha: Vec):
    """An integer matrix U with det +-1 whose first column is ``alpha``, and
    its inverse: the pair ``(U, U^-1)``.

    Requires ``alpha`` primitive.  Deterministic: built from a fixed sequence
    of extended-gcd row operations.
    """
    n = len(alpha)
    require_primitive(alpha)
    # Row-reduce alpha to e1 by unimodular row ops, tracking their product M,
    # so M alpha = e1 and U = M^{-1} has first column alpha.  U is built
    # alongside by the inverse column op of each row op: if M' = E M then
    # U' = U E^{-1}.
    a = list(alpha)
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    u = [row[:] for row in m]

    def rowop(i, j, q):
        # row_i -= q * row_j on a and m; col_j += q * col_i on u
        a[i] -= q * a[j]
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        for row in u:
            row[j] += q * row[i]

    def rowswap(i, j):
        a[i], a[j] = a[j], a[i]
        m[i], m[j] = m[j], m[i]
        for row in u:
            row[i], row[j] = row[j], row[i]

    pivot = 0
    for i in range(1, n):
        while a[i] != 0:
            if a[pivot] == 0 or abs(a[i]) < abs(a[pivot]):
                rowswap(pivot, i)
                continue
            rowop(i, pivot, a[i] // a[pivot])
    if a[pivot] < 0:
        a[pivot] = -a[pivot]
        m[pivot] = [-x for x in m[pivot]]
        for row in u:
            row[pivot] = -row[pivot]
    if a[pivot] != 1 or any(a[1:]):
        raise InternalConsistencyError("primitive reduction failed")
    return u, m


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
        terms = nested(g)
        bad = [sum(e) for e in terms if e[0] == 0]
        if bad:
            raise NotDivisibleError("not divisible", degree=min(bad))
        shifted = GradedSeries.from_terms(
            g.nvars,
            g.precision - 1,
            {(e[0] - 1,) + e[1:]: c for e, c in terms.items()},
        )
        return self.back.apply(shifted)

    def free_part(self, f: GradedSeries) -> GradedSeries:
        """The terms free of t1' after the change of basis: zero exactly
        when x_chi divides f, and unchanged by adding a multiple of x_chi."""
        g = self.fwd.apply(f)
        terms = {e: c for e, c in nested(g).items() if e[0] == 0}
        return GradedSeries.from_terms(g.nvars, g.precision, terms)


class BasisChangeTupleSystem(TupleSystem):
    """``gkm.TupleSystem`` with each condition modulo x_chi imposed as the
    package imposed it before the long-division remainder: exactly, on the
    terms free of t1' after the change of basis of
    :class:`BasisChangeDivider`."""

    def __init__(self, *args):
        super().__init__(*args)
        self._dividers: dict = {}

    def coords_modulo(self, series: list[GradedSeries], chi) -> list[dict]:
        if chi is None:
            return super().coords_modulo(series, chi)
        div = self._dividers.get(chi)
        if div is None:
            div = self._dividers[chi] = BasisChangeDivider(self.ctx, chi)
        return [div.free_part(f).coords(self.ctx.precision) for f in series]


def invariant_tuple_basis_reference(graph, generators, degree: int) -> list[GKMClass]:
    """The invariant classes as whole tuples, one unknown block per vertex:
    every edge congruence, and g(f at u) = f at g u for every generator g
    and vertex u."""
    ctx = graph.ctx
    system = TupleSystem(
        ctx, graph.nvars, graph.nvertices, ambient_monomials(ctx, graph.nvars, degree)
    )
    if not system.monos:
        return []
    for (i, j, chi) in graph.edges:
        system.require([(i, 1, None), (j, -1, None)], chi)
    for g in generators:
        for u in range(graph.nvertices):
            system.require([(u, 1, g), (graph.act_vertex(g, u), -1, None)])
    return [GKMClass(graph, values) for values in system.solve(over="Q")]


# -- x_chi and kappa(x_chi) character by character ----------------------------


def formal_sum_reference(ctx, chi) -> GradedSeries:
    """x_chi as ``FGLContext.formal_sum`` computed it for every character
    before it computed once per sorted character: the group law iterated
    over chi's coordinates in their own order."""
    n, p = len(chi), ctx.precision
    acc = GradedSeries.zero(n, p)
    for i, c in enumerate(chi):
        if c:
            xi = ctx.k_series(c).substitute([GradedSeries.variable(i, n, p)])
            acc = xi if acc.is_zero() else ctx.group_law.substitute([acc, xi])
    return acc


def kappa_of_character_reference(ctx, chi) -> GradedSeries:
    """kappa(x_chi) by one substitution of the reference x_chi into kappa."""
    return Substitution([formal_sum_reference(ctx, chi)]).apply(ctx.kappa)


# -- seeded samples, one term at a time ---------------------------------------


def random_composition_reference(rng, total: int, parts: int) -> tuple:
    """``sampling.random_composition`` as it drew with ``randint``."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    prev = 0
    out = []
    for c in cuts + [total]:
        out.append(c - prev)
        prev = c
    return tuple(out)


def random_b_monomial_reference(rng, weight: int, ngens: int) -> tuple:
    """``sampling.random_b_monomial`` as it drew with ``randint``."""
    exp = [0] * ngens
    remaining = weight
    while remaining > 0:
        part = rng.randint(1, min(remaining, ngens))
        exp[part - 1] += 1
        remaining -= part
    while exp and exp[-1] == 0:
        exp.pop()
    return tuple(exp)


def random_homogeneous_reference(
    rng, ctx, nvars, degree, max_terms=4, coeff_bound=3, b_free=False
):
    """``sampling.random_homogeneous`` as it was first written: each random
    term is added to the sample as a one-term series.  The RNG calls are
    the same, in the same order."""
    max_extra = 0 if (b_free or ctx.bgens == 0) else ctx.precision - degree
    f = GradedSeries.zero(nvars, ctx.precision)
    for _ in range(rng.randint(1, max_terms)):
        extra = rng.randint(0, max_extra) if max_extra else 0
        tdeg = degree + extra
        texp = random_composition_reference(rng, tdeg, nvars)
        bexp = random_b_monomial_reference(rng, extra, ctx.bgens) if extra else ()
        c = rng.randint(1, coeff_bound) * rng.choice((1, -1))
        f = f + GradedSeries.from_terms(nvars, ctx.precision, {texp: {bexp: c}})
    if f.is_zero():
        texp = random_composition_reference(rng, degree, nvars)
        f = GradedSeries.from_terms(nvars, ctx.precision, {texp: {(): 1}})
    return f


def lemma_div_reference(cfg) -> dict:
    """The lemma-div report as ``verify.suite_lemma_div`` computed it with
    one Weyl action, one divided difference and one product per sample and
    root."""
    datum = build_root_datum(cfg.type_tag)
    ctx = cfg.context()
    rng = Random(cfg.seed)
    max_deg = min(5, ctx.precision)
    samples = [
        random_homogeneous(rng, ctx, datum.rank, rng.randint(1, max_deg))
        for _ in range(cfg.count)
    ]
    reflections = [
        (beta, datum.reflection_element(beta)) for beta in datum.positive_roots
    ]

    def run(f: GradedSeries):
        failures = []
        for beta, s in reflections:
            diff = f - weyl_act(s, f, ctx, datum)
            try:
                q = divided_difference(s, beta, f, ctx, datum)
            except NotDivisibleError as exc:
                failures.append({"root": list(beta), "degree": exc.degree})
                continue
            x_beta = ctx.formal_sum(beta)
            if not (q * x_beta).equals_truncated(diff, q.precision):
                failures.append({"root": list(beta), "certificate": "failed"})
        return failures

    all_failures = [f for sample in samples for f in run(sample)]
    checks = [
        {
            "name": "divisibility",
            "pass": not all_failures,
            "samples": len(samples),
            "roots": len(reflections),
            "witnesses": all_failures[:5],
        }
    ]
    return {
        "suite": "lemma-div",
        "config": cfg.to_json(),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def demazure_gkm_reference(c, i: int):
    """The equivariant Demazure operator of the i-th simple root as
    ``schubert.demazure_gkm`` first computed it: the formula at every
    vertex, both vertices of each {w, w s_alpha} pair."""
    graph = c.graph
    datum, ctx = graph.datum, graph.ctx
    alpha, s = datum.simple_roots[i], datum.simple_reflections[i]
    out = []
    for vi, w in enumerate(graph.weyl_vertices):
        vj = graph.act_vertex_right(vi, s)
        w_alpha = w.act(alpha)
        quotient = ctx.divide_by_character(c.values[vi] - c.values[vj], w_alpha)
        kap = ctx.kappa_of_character(w_alpha)
        out.append((kap * c.values[vi] - quotient).truncate(c.precision - 1))
    return GKMClass(graph, out)


# -- moment graphs as first built, one loop per kind of graph -------------------


def flag_graph_reference(datum) -> dict:
    """The flag moment graph as ``gkm.flag_gkm`` first built it: one vertex
    per Weyl element, and for each w and positive root beta the edge
    {w, w s_beta} labelled by w(beta), recorded from its lower end."""
    weyl = datum.weyl()
    index = {w.matrix: i for i, w in enumerate(weyl)}
    edges = {}
    for i, w in enumerate(weyl):
        for beta in datum.positive_roots:
            j = index[mat_mul(w.matrix, datum.reflection(beta))]
            if i < j:
                chi = canonical_sign(w.act(beta))
                if edges.setdefault((i, j), chi) != chi:
                    raise ValueError("conflicting edge characters")
    return {
        "ids": [w.id_string() for w in weyl],
        "edges": [(i, j, chi) for (i, j), chi in sorted(edges.items())],
        "element_to_vertex": index,
        "weyl_vertices": list(weyl),
    }


def wonderful_graphs_reference(sd) -> tuple[dict, dict, int, int]:
    """The X graph, the toric Y graph and the X root and restricted edge
    counts, as ``wonderful.WonderfulModel`` first built them: cosets of W_L
    found by sorting each coset's BFS indices, the two curve species in two
    loops over W, and the Y graph as the sorted X vertices of W^theta with a
    third loop over the restricted curves."""
    datum = sd.datum
    weyl = datum.weyl()
    index_of = {w.matrix: i for i, w in enumerate(weyl)}
    rep_of: dict = {}
    reps: list[int] = []
    for i, w in enumerate(weyl):
        if w.matrix in rep_of:
            continue
        members = sorted(index_of[mat_mul(w.matrix, m)] for m in sd.w_L)
        if members[0] == i:
            reps.append(i)
        for k in members:
            rep_of[weyl[k].matrix] = members[0]
    vertex_of_rep = {rep: v for v, rep in enumerate(reps)}
    element_to_vertex = {m: vertex_of_rep[rep] for m, rep in rep_of.items()}
    vertices = [weyl[rep] for rep in reps]

    edges: dict = {}

    def add_edge(i, j, chi):
        if i != j:
            edges[(min(i, j), max(i, j), canonical_sign(chi))] = True

    outside = [b for b in datum.positive_roots if b not in set(sd.sigma_L_pos)]
    for w in weyl:
        for beta in outside:
            j = element_to_vertex[mat_mul(w.matrix, datum.reflection(beta))]
            add_edge(element_to_vertex[w.matrix], j, w.act(beta))
    root_edges = len(edges)
    for w in weyl:
        for k, (gamma, _, _) in enumerate(sd.restricted):
            r = sd.restricted_reflection(k)
            j = element_to_vertex[mat_mul(w.matrix, r.matrix)]
            add_edge(element_to_vertex[w.matrix], j, w.act(gamma))
    x = {
        "ids": [v.id_string() for v in vertices],
        "edges": sorted(edges),
        "element_to_vertex": element_to_vertex,
        "weyl_vertices": vertices,
    }

    y_vertex_set = sorted({element_to_vertex[w.matrix] for w in sd.w_theta})
    y_index = {v: i for i, v in enumerate(y_vertex_set)}
    y_edges: dict = {}
    for w in sd.w_theta:
        wi = y_index[element_to_vertex[w.matrix]]
        for k, (gamma, _, _) in enumerate(sd.restricted):
            r = sd.restricted_reflection(k)
            wj = y_index[element_to_vertex[mat_mul(w.matrix, r.matrix)]]
            y_edges[(min(wi, wj), max(wi, wj), canonical_sign(w.act(gamma)))] = True
    y = {
        "ids": [x["ids"][v] for v in y_vertex_set],
        "edges": sorted(y_edges),
        "element_to_vertex": {
            w.matrix: y_index[element_to_vertex[w.matrix]] for w in sd.w_theta
        },
        "weyl_vertices": [vertices[v] for v in y_vertex_set],
    }
    return x, y, root_edges, len(edges) - root_edges


# -- the tuple-keyed series kernel ----------------------------------------------
#
# The series kernel as it was before keys were packed into ints: each series
# maps a t-exponent tuple to a coefficient dict {trimmed b-exponent: value},
# coefficient dicts may be shared between series (``_add_product`` copies a
# dict it does not own before changing it), and the substitution and divided
# difference memoise whole monomial image series.  It is the reference for
# the packed kernel in ``cobcalc.series``; ``to_tuple`` and ``from_tuple``
# convert through the public tuple view.


def nested(series) -> dict:
    """The terms of a package series as {t-exponent: {b-exponent: value}}."""
    out: dict = {}
    for t, b, v in series.items():
        out.setdefault(t, {})[b] = v
    return out


def to_tuple(series) -> "TupleSeries":
    return TupleSeries(series.nvars, series.precision, nested(series))


def from_tuple(ts: "TupleSeries"):
    return GradedSeries.from_terms(ts.nvars, ts.precision, ts.terms)


TExp = tuple[int, ...]


def _trim(exp) -> tuple:
    exp = tuple(exp)
    while exp and exp[-1] == 0:
        exp = exp[:-1]
    return exp


def _weight(bexp: tuple) -> int:
    return sum((i + 1) * e for i, e in enumerate(bexp))


_ONE = {(): 1}


def _add_product(terms: dict, owned: set, e: TExp, c1: dict, c2: dict) -> None:
    """``terms[e] += c1 * c2``, dropping zero values and an emptied
    coefficient.  A product by the unit shares the other factor's dict, as
    the memoised monomial images of a substitution do heavily; ``owned``
    holds the keys whose dicts the caller built and may change, and any
    other dict is copied before it is changed."""
    acc = terms.get(e)
    if acc is None:
        if c2 == _ONE:
            terms[e] = c1
            return
        if c1 == _ONE:
            terms[e] = c2
            return
        acc = terms[e] = {}
        owned.add(e)
    elif e not in owned:
        acc = terms[e] = dict(acc)
        owned.add(e)
    for k1, v1 in c1.items():
        for k2, v2 in c2.items():
            if not k2:
                k = k1
            elif not k1:
                k = k2
            elif len(k1) < len(k2):
                k = tuple(map(add, k1, k2)) + k2[len(k1):]
            else:
                k = tuple(map(add, k1, k2)) + k1[len(k2):]
            s = acc.get(k, 0) + v1 * v2
            if s:
                acc[k] = s
            else:
                del acc[k]
    if not acc:
        del terms[e]
        owned.discard(e)




class TupleSeries:
    __slots__ = ("nvars", "precision", "terms")

    def __init__(self, nvars: int, precision: int, terms: dict):
        # Trusts canonical input: no zero values, no empty coefficient dicts,
        # trimmed b-exponents, t-degrees <= precision.
        self.nvars = nvars
        self.precision = precision
        self.terms = terms

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(nvars: int, precision: int) -> "TupleSeries":
        return TupleSeries(nvars, precision, {})

    @staticmethod
    def constant(c, nvars: int, precision: int) -> "TupleSeries":
        """The constant series of the number ``c``."""
        return TupleSeries(nvars, precision, {(0,) * nvars: {(): c}} if c else {})

    @staticmethod
    def variable(i: int, nvars: int, precision: int) -> "TupleSeries":
        """The series ``t_{i+1}`` (zero-based index ``i``)."""
        if not 0 <= i < nvars:
            raise IndexOutOfRangeError(f"variable index {i} out of range")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return TupleSeries(nvars, precision, {exp: {(): 1}})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int | None:
        """Lowest t-degree of a nonzero term, or None for the zero series."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def t_component(self, k: int) -> dict:
        return {e: c for e, c in self.terms.items() if sum(e) == k}

    def homogeneous_degree(self) -> int | None:
        """The common cohomological degree of all terms, or None if mixed.

        The zero series reports degree 0 by convention.
        """
        degs = {sum(e) - _weight(b) for e, c in self.terms.items() for b in c}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self, degree: int | None = None) -> bool:
        d = self.homogeneous_degree()
        if d is None:
            return False
        return degree is None or not self.terms or d == degree

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TupleSeries):
            return NotImplemented
        if self.nvars != other.nvars:
            raise NVarsMismatchError(
                f"cannot compare series in {self.nvars} and {other.nvars} variables"
            )
        if self.precision != other.precision:
            raise PrecisionMismatchError(
                f"comparison at mismatched precision {self.precision} != "
                f"{other.precision}; truncate explicitly first"
            )
        return self.terms == other.terms

    __hash__ = None

    def equals_truncated(self, other: "TupleSeries", d: int | None = None) -> bool:
        """Compare at the overlap precision (or an explicit ``d``)."""
        if d is None:
            d = min(self.precision, other.precision)
        return self.truncate(d) == other.truncate(d)

    # -- ring operations ---------------------------------------------------

    def truncate(self, d: int) -> "TupleSeries":
        d = min(d, self.precision)
        if d == self.precision:
            return self
        return TupleSeries(
            self.nvars, d, {e: c for e, c in self.terms.items() if sum(e) <= d}
        )

    def __add__(self, other: "TupleSeries") -> "TupleSeries":
        if self.nvars != other.nvars:
            raise NVarsMismatchError("add: nvars mismatch")
        p = min(self.precision, other.precision)
        out = {e: c for e, c in self.terms.items() if sum(e) <= p}
        owned: set = set()
        for e, c in other.terms.items():
            if sum(e) <= p:
                _add_product(out, owned, e, c, _ONE)
        return TupleSeries(self.nvars, p, out)

    def __neg__(self) -> "TupleSeries":
        return TupleSeries(
            self.nvars,
            self.precision,
            {e: {b: -v for b, v in c.items()} for e, c in self.terms.items()},
        )

    def __sub__(self, other: "TupleSeries") -> "TupleSeries":
        return self + (-other)

    def __mul__(self, other: "TupleSeries") -> "TupleSeries":
        if self.nvars != other.nvars:
            raise NVarsMismatchError("mul: nvars mismatch")
        p = min(self.precision, other.precision)
        out: dict = {}
        owned: set = set()
        bdeg = [(sum(e), e, c) for e, c in other.terms.items()]
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            if d1 > p:
                continue
            for d2, e2, c2 in bdeg:
                if d1 + d2 > p:
                    continue
                _add_product(out, owned, tuple(map(add, e1, e2)), c1, c2)
        return TupleSeries(self.nvars, p, out)

    def scale(self, c) -> "TupleSeries":
        """Multiply by a coefficient: a number, or a ``{b-exponent: value}``
        dict."""
        if not isinstance(c, dict):
            c = {(): c} if c else {}
        out: dict = {}
        owned: set = set()
        if c:
            for e, v in self.terms.items():
                _add_product(out, owned, e, v, c)
        return TupleSeries(self.nvars, self.precision, out)

    def __pow__(self, n: int) -> "TupleSeries":
        if n < 0:
            raise ValueError("negative power of a series")
        acc = TupleSeries.constant(1, self.nvars, self.precision)
        for _ in range(n):
            acc = acc * self
        return acc

    def specialize_b_zero(self) -> "TupleSeries":
        """Set every coefficient generator to zero (additive specialization)."""
        return TupleSeries(
            self.nvars,
            self.precision,
            {e: {(): c[()]} for e, c in self.terms.items() if () in c},
        )


class TupleSubstitution:
    """Simultaneous substitution ``t_i -> images[i]``.

    Every image must have positive order so that degree-``d`` output terms
    only depend on degree-``<= d`` input terms.  Monomial images are memoised,
    so reusing one Substitution across many series amortises the series
    products; :meth:`FGLContext.substitution` keeps one per tuple of
    characters for that reason.
    """

    def __init__(self, images: list[TupleSeries]):
        if not images:
            raise NVarsMismatchError("substitution needs at least one image")
        m = images[0].nvars
        for img in images:
            if img.nvars != m:
                raise NVarsMismatchError("substitution images disagree on nvars")
            if (0,) * m in img.terms:
                raise ConstantTermError("substitution image has a constant term")
        self.images = list(images)
        self.nvars_in = len(images)
        self.nvars_out = m
        self.precision = min(img.precision for img in images)
        self._memo: dict[TExp, TupleSeries] = {
            (0,) * self.nvars_in: TupleSeries.constant(1, m, self.precision)
        }

    def _monomial_image(self, exp: TExp) -> TupleSeries:
        got = self._memo.get(exp)
        if got is not None:
            return got
        i = next(j for j, e in enumerate(exp) if e)
        prev = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
        img = self._monomial_image(prev) * self.images[i]
        self._memo[exp] = img
        return img

    def apply(self, f: TupleSeries) -> TupleSeries:
        if f.nvars != self.nvars_in:
            raise NVarsMismatchError(
                f"series has {f.nvars} variables, substitution expects {self.nvars_in}"
            )
        p = min(f.precision, self.precision)
        return TupleSeries(
            self.nvars_out, p, _sum_images(f, self._monomial_image, p, p)
        )


def _sum_images(f: TupleSeries, image, p: int, top: int) -> dict:
    """The terms of ``sum c * image(e)`` over the terms ``c * t^e`` of f of
    degree at most ``p``, keeping the output terms of degree at most
    ``top``: the image of f under a map that is linear over the coefficient
    ring and given on t-monomials."""
    acc: dict = {}
    owned: set = set()
    for e, c in f.terms.items():
        if sum(e) > p:
            continue
        for ei, ci in image(e).terms.items():
            if sum(ei) <= top:
                _add_product(acc, owned, ei, ci, c)
    return acc


class TupleDivisor:
    """A nonzero series g prepared for use as the divisor of
    :func:`divide_exact`: its order, the lex-leading term of its lowest
    component, the other terms of that component, and the higher terms
    grouped by t-degree.  Preparing once pays off when one series divides
    many numerators, as each character class x_chi does."""

    __slots__ = (
        "nvars", "precision", "order", "lead_t", "lead_nz", "lead_b", "lead_v",
        "lead_c", "whole", "rest", "high",
    )

    def __init__(self, g: TupleSeries):
        if g.is_zero():
            raise ZeroDivisionError("division by the zero series")
        m = g.order()
        low = g.t_component(m)
        self.nvars = g.nvars
        self.precision = g.precision
        self.order = m
        self.lead_t = max(low)
        self.lead_nz = [(i, y) for i, y in enumerate(self.lead_t) if y]
        self.lead_c = low[self.lead_t]
        self.lead_b = max(self.lead_c)
        self.lead_v = self.lead_c[self.lead_b]
        # a leading coefficient of one b-monomial divides whole coefficients
        self.whole = len(self.lead_c) == 1
        self.rest = [(e, c) for e, c in low.items() if e != self.lead_t]
        by_degree: dict = {}
        for e, c in g.terms.items():
            if sum(e) > m:
                by_degree.setdefault(sum(e), []).append((e, c))
        self.high = sorted(by_degree.items())

    def quotient_b(self, b: tuple) -> tuple | None:
        """``b - lead_b``, or None when the leading b-monomial does not
        divide ``b``."""
        lead = self.lead_b
        if not lead:
            return b
        if len(b) < len(lead) or any(x < y for x, y in zip(b, lead)):
            return None
        return _trim(tuple(map(sub, b, lead)) + b[len(lead):])

    def quotient_value(self, v):
        """``v / lead_v``: an int when it is one, else a Fraction."""
        q, r = divmod(v, self.lead_v)
        return Fraction(v, self.lead_v) if r else q


def tuple_divide_exact(f: TupleSeries, g: TupleSeries | TupleDivisor) -> TupleSeries:
    """Return q with ``q * g == f`` through degree ``min(prec f, prec g) - order(g)``.

    ``g`` is a series or a :class:`Divisor` prepared from one.  The
    numerator is bucketed by t-degree once, and each homogeneous component
    is long-divided by the lowest component of g, leading t-exponent first
    in lex order.  When the leading coefficient of g is a single b-monomial
    (as for every character class x_chi and the denominator of kappa), each
    step divides a whole coefficient of f by it; otherwise each step divides
    one term, in lex order on (t-exponent, b-exponent).  In the domain
    Q[t, b] either way succeeds exactly when the division is exact, so the
    first failing step certifies non-divisibility.  :class:`NotDivisibleError` carries its degree: the
    lowest degree at which f minus (quotient so far) * g has a component
    that the lowest component of g does not divide.
    """
    if f.nvars != g.nvars:
        raise NVarsMismatchError("divide: nvars mismatch")
    div = g if isinstance(g, TupleDivisor) else TupleDivisor(g)
    m = div.order
    horizon = min(f.precision, div.precision)
    out_prec = horizon - m
    if out_prec < 0:
        raise PrecisionExhaustedError(
            "no precision left to divide by an order-%d series" % m
        )
    if f.is_zero():
        return TupleSeries.zero(f.nvars, out_prec)
    # quotient terms times g are subtracted into the buckets, which hold
    # disjoint exponents, so one set records which coefficient dicts are owned
    buckets: list[dict] = [{} for _ in range(horizon + 1)]
    for e, c in f.terms.items():
        d = sum(e)
        if d <= horizon:
            buckets[d][e] = c
    # below the divisor's order the leading term divides no term
    for degree in range(m):
        if buckets[degree]:
            raise NotDivisibleError(
                f"leading term not divisible at degree {degree}", degree=degree
            )
    lead_t, lead_nz = div.lead_t, div.lead_nz
    rest, high, whole = div.rest, div.high, div.whole
    owned: set = set()
    q_terms: dict = {}
    for degree in range(m, horizon + 1):
        num = buckets[degree]
        if not num:
            continue
        dq = degree - m
        targets = [(buckets[dq + d], terms) for d, terms in high if dq + d <= horizon]
        # exponents still to divide, ascending: subtracting a quotient term
        # times g adds only exponents below the current one, so a divided
        # exponent is never touched again.  An exponent whose coefficient
        # cancelled is skipped when reached.
        pending = sorted(num)
        while pending:
            if whole:
                e = pending.pop()
                c = num.pop(e, None)
            else:
                e = pending[-1]
                c = num.get(e)
                if c is None:
                    pending.pop()
            if c is None:
                continue
            for i, y in lead_nz:
                if e[i] < y:
                    raise NotDivisibleError(
                        f"leading term not divisible at degree {degree}",
                        degree=degree,
                    )
            eq = tuple(map(sub, e, lead_t))
            if whole:
                q = q_terms[eq] = {}
                for b, v in c.items():
                    bq = div.quotient_b(b)
                    if bq is None:
                        raise NotDivisibleError(
                            f"coefficient not divisible at degree {degree}",
                            degree=degree,
                        )
                    q[bq] = div.quotient_value(v)
                src = {b: -v for b, v in q.items()}
            else:
                b = max(c)
                bq = div.quotient_b(b)
                if bq is None:
                    raise NotDivisibleError(
                        f"coefficient not divisible at degree {degree}", degree=degree
                    )
                qv = div.quotient_value(c[b])
                q_terms.setdefault(eq, {})[bq] = qv
                src = {bq: -qv}
                # cancels the (e, b) term; e stays pending while it has more
                _add_product(num, owned, e, src, div.lead_c)
            for eg, cg in rest:
                e2 = tuple(map(add, eq, eg))
                if e2 not in num:
                    insort(pending, e2)
                _add_product(num, owned, e2, src, cg)
            for bucket, terms in targets:
                for eg, cg in terms:
                    _add_product(bucket, owned, tuple(map(add, eq, eg)), src, cg)
    return TupleSeries(f.nvars, out_prec, q_terms)


class TupleDividedDifference:
    """The operator ``f -> (f - s(f)) / g`` for a substitution s of the
    variables by series in the same variables and a divisor g, prepared as
    a :class:`Divisor`.

    The operator is linear over the coefficient ring, and s acts only on the
    t-variables, so the image of each t-monomial ``t^e`` is divided once,
    at the precision of s and g, and memoised, as :class:`Substitution`
    memoises monomial images; :meth:`apply` sums the coefficients of f times
    the images of its monomials.  Truncation commutes with the long
    division, so one memo serves every input precision, and the result is
    the one of ``tuple_divide_exact(f - s(f), g)``.  When some
    monomial difference is not divisible by g, as when s is not the
    reflection in g's character, :meth:`apply` divides the whole difference
    instead, so a :class:`NotDivisibleError` carries the degree that
    division reports.  :meth:`FGLContext.divided_difference` keeps one
    operator per substitution and character.
    """

    def __init__(self, subst: TupleSubstitution, divisor: TupleDivisor):
        if not subst.nvars_in == subst.nvars_out == divisor.nvars:
            raise NVarsMismatchError(
                "divided difference needs a substitution and a divisor in the "
                "same variables"
            )
        self.subst = subst
        self.divisor = divisor
        self.nvars = divisor.nvars
        self.precision = min(subst.precision, divisor.precision)
        self._memo: dict[TExp, TupleSeries] = {}

    def _monomial_image(self, exp: TExp) -> TupleSeries:
        got = self._memo.get(exp)
        if got is None:
            mono = TupleSeries(self.nvars, self.precision, {exp: {(): 1}})
            got = tuple_divide_exact(mono - self.subst.apply(mono), self.divisor)
            self._memo[exp] = got
        return got

    def apply(self, f: TupleSeries) -> TupleSeries:
        if f.nvars != self.nvars:
            raise NVarsMismatchError(
                f"series has {f.nvars} variables, divided difference expects "
                f"{self.nvars}"
            )
        p = min(f.precision, self.precision)
        top = p - self.divisor.order
        if top < 0:
            raise PrecisionExhaustedError("no precision left for the division")
        try:
            terms = _sum_images(f, self._monomial_image, p, top)
        except NotDivisibleError:
            return tuple_divide_exact(f - self.subst.apply(f), self.divisor)
        return TupleSeries(self.nvars, top, terms)
