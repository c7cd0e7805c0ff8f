from fractions import Fraction
from math import lcm
from random import Random

import pytest

from cobcalc.errors import NonPrimitiveCharacterError
from cobcalc.linalg import (
    canonical_sign,
    clear_denominators,
    hermite_basis,
    kernel_int,
    kernel_rational,
    rank_int,
    span_equal_int,
    span_equal_rational,
    unimodular_with_first_column,
)

from .oracles import (
    is_saturated,
    kernel_int_reference,
    rational_kernel,
    rref_rational,
    span_equal_int_reference,
)


def test_canonical_sign():
    assert canonical_sign((0, -2, 1)) == (0, 2, -1)
    assert canonical_sign((1, -1)) == (1, -1)
    assert canonical_sign((0, 0)) == (0, 0)


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    assert clear_denominators([2, -1]) == (2, -1)


def test_kernel_is_saturated():
    # 2x - 2y = 0 has primitive kernel generator (1, 1), not (2, 2)
    basis = kernel_int([[2, -2]], 2)
    assert basis == [(1, 1)]
    # x + y + z = 0, x - z = 0
    basis = kernel_int([[1, 1, 1], [1, 0, -1]], 3)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[2] and v[1] == -2 * v[0] and abs(v[0]) == 1


def test_kernel_empty_system():
    basis = kernel_int([], 2)
    assert sorted(basis) == [(0, 1), (1, 0)]


def test_kernel_int_is_hermite_in_the_free_columns():
    # 2x + y + z = 0: the reduced rational basis (-1, 2, 0), (-1, 0, 2) spans
    # only the solutions with y + z even; the lattice basis has free
    # coordinates (1, 1) and (0, 2), the Hermite form of that condition
    assert kernel_int([[2, 1, 1]], 3) == [(-1, 1, 1), (-1, 0, 2)]
    assert kernel_int([[2, 3]], 2) == [(-3, 2)]
    assert kernel_int([[Fraction(1, 2), Fraction(1, 3)]], 2) == [(-2, 3)]
    assert kernel_int([[1, 2], [3, 4]], 2) == []


def test_rank():
    assert rank_int([(1, 2), (2, 4)]) == 1
    assert rank_int([(1, 0), (0, 1), (1, 1)]) == 2
    assert rank_int([]) == 0
    assert rank_int([(0, 0)]) == 0


def test_lattice_membership():
    # v lies in the lattice exactly when adding it leaves the HNF unchanged
    gens = [(2, 0), (0, 1)]
    hnf = hermite_basis(gens, 2)

    def contains(v):
        return hermite_basis(gens + [v], 2) == hnf

    assert contains((2, 5))
    assert not contains((1, 0))
    assert contains((0, 0))
    assert len(hnf) == 2


@pytest.mark.parametrize(
    "vectors, dim, expected",
    [
        ([(2, 0), (0, 1), (1, 0)], 2, [(1, 0), (0, 1)]),
        ([(0, 1), (1, 1)], 2, [(1, 0), (0, 1)]),
        ([(4, 2), (2, 1)], 2, [(2, 1)]),
        ([(2, 1), (0, 3)], 2, [(2, 1), (0, 3)]),
        ([(2, 5), (0, 3)], 2, [(2, 2), (0, 3)]),
        ([], 3, []),
        ([(0, 0, 0)], 3, []),
    ],
)
def test_hermite_basis_pinned(vectors, dim, expected):
    assert hermite_basis(vectors, dim) == expected


def test_span_equal_int_detects_index():
    assert not span_equal_int([(2, 0), (0, 1)], [(1, 0), (0, 1)], 2)
    assert span_equal_int([(1, 1), (0, 1)], [(1, 0), (0, 1)], 2)


def test_span_equal_rational():
    assert span_equal_rational([(2, 0), (0, 3)], [(1, 0), (0, 1)], 2)
    assert not span_equal_rational([(1, 0)], [(0, 1)], 2)


def test_rref_canonical():
    got = rref_rational([(2, 4, 0), (1, 2, 1)])
    assert got == [
        (Fraction(1), Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]


@pytest.mark.parametrize(
    "alpha", [(1,), (2, 1), (1, -1), (3, -2, 6), (0, 1, 0), (5, 7)]
)
def test_unimodular_completion(alpha):
    u, uinv = unimodular_with_first_column(alpha)
    n = len(alpha)
    assert tuple(row[0] for row in u) == alpha
    identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in ((u, uinv), (uinv, u)):
        prod = [
            [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == identity


def test_unimodular_requires_primitive():
    with pytest.raises(NonPrimitiveCharacterError, match=r"\(2, 4\) is not primitive"):
        unimodular_with_first_column((2, 4))


# -- certified rational kernel ---------------------------------------------------


def _sparse(rows):
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


def _random_system(rng: Random):
    """A sparse system, often rank-deficient: some rows are combinations of
    others, some are zero, and some entries are Fractions."""
    ncols = rng.randint(1, 9)
    rows = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * ncols)
        elif kind < 0.3 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(-2, 2), Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([
                (Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 if rng.random() < 0.3 else rng.randint(-4, 4))
                if rng.random() < 0.4 else 0
                for _ in range(ncols)
            ])
    return rows, ncols


@pytest.mark.parametrize("seed", range(8))
def test_kernel_rational_matches_reference(seed):
    rng = Random(seed)
    for _ in range(40):
        rows, ncols = _random_system(rng)
        expected = rational_kernel(rows, ncols)
        assert kernel_rational(_sparse(rows), ncols) == expected, (rows, ncols)
        assert rank_int(rows) == len(rref_rational(rows)), rows
        # the reduced basis does not depend on the row order
        rng.shuffle(rows)
        assert kernel_rational(_sparse(rows), ncols) == expected, (rows, ncols)


def test_kernel_rational_edge_cases():
    # no rows, and only zero rows: the unit vectors
    assert kernel_rational([], 2) == [(1, 0), (0, 1)]
    assert kernel_rational([{}, {0: 0}], 2) == [(1, 0), (0, 1)]
    # full rank: nothing
    assert kernel_rational([{0: 1, 1: 2}, {0: 3, 1: 4}], 2) == []
    # Fraction entries are cleared; the vector is primitive, positive at its
    # free column
    assert kernel_rational([{0: Fraction(1, 2), 1: Fraction(-1, 3)}], 2) == [(2, 3)]
    assert kernel_rational([{0: 2, 1: -2}], 2) == [(1, 1)]
    assert kernel_rational([{0: 1, 1: 1, 2: 1}, {0: 1, 2: -1}], 3) == [(1, -2, 1)]


def _random_integer_system(rng: Random):
    """1-7 columns: no rows, a full-rank triangle, or up to 7 random rows
    with entries in [-6, 6], about two thirds of them zero; a fifth of the
    systems have Fraction rows."""
    ncols = rng.randint(1, 7)
    kind = rng.random()
    if kind < 0.05:
        rows = []
    elif kind < 0.15:
        rows = [
            [0] * i + [rng.choice((-3, -2, -1, 1, 2, 3))]
            + [rng.randint(-4, 4) for _ in range(ncols - i - 1)]
            for i in range(ncols)
        ]
        rng.shuffle(rows)
    else:
        rows = [
            [rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(ncols)]
            for _ in range(rng.randint(1, 7))
        ]
    if rng.random() < 0.2:
        rows = [[Fraction(x, rng.randint(1, 4)) for x in r] for r in rows]
    return rows, ncols


def test_kernel_int_matches_reference():
    rng = Random(2024)
    saturated = 0
    for _ in range(1500):
        rows, ncols = _random_integer_system(rng)
        got = kernel_int(rows, ncols)
        expected = kernel_int_reference(rows, ncols)
        assert len(got) == len(expected), (rows, ncols)
        assert span_equal_int(got, expected, ncols), (rows, ncols)
        for v in got:
            for r in rows:
                assert sum(a * x for a, x in zip(r, v)) == 0, (rows, v)
        # the reduced rational basis ends at its free column; a scale above
        # 1 there means kernel_int had to saturate it
        scales = [next(x for x in reversed(v) if x) for v in kernel_rational(_sparse(rows), ncols)]
        if lcm(*scales) > 1:
            saturated += 1
    assert saturated > 100


def test_is_saturated_oracle():
    assert is_saturated([(2, 1)], 2)
    assert not is_saturated([(2, 0)], 2)
    assert not is_saturated([(1, 1, 0), (1, -1, 0)], 3)
    assert is_saturated([(1, 1, 0), (0, 1, 0)], 3)
    assert is_saturated([], 3)


# the two largest primes below 2**31, the first moduli kernel_rational tries
_P, _Q = 2**31 - 1, 2**31 - 19


def test_kernel_rational_survives_unlucky_primes():
    # modulo _P the pivot moves to column 1, and the kernel vector lifts only
    # from several further primes combined (its entry _P is too large for one)
    assert kernel_rational([{0: _P, 1: 1}], 2) == [(-1, _P)]
    assert kernel_rational([{0: 1, 1: _P}], 2) == [(-_P, 1)]
    # _Q is unlucky while lucky primes are being combined: it must be dropped
    assert kernel_rational([{0: _Q, 1: 1}], 2) == [(-1, _Q)]
    # modulo _P the rank drops: the extra kernel vector fails the exact check
    assert kernel_rational([{0: _P, 1: _P}, {0: 1, 1: 2}], 2) == []
    rows = [[3 * _P, _P, 0, _P], [_P, 0, 2 * _P, Fraction(_P, 7)], [1, 1, 1, 1]]
    assert kernel_rational(_sparse(rows), 4) == rational_kernel(rows, 4)


# -- integral span comparison --------------------------------------------------


def _random_family(rng: Random):
    """Generators in dimension 1-6 with entries in [-3, 3], often with zero
    vectors, duplicates and combinations of earlier generators."""
    dim = rng.randint(1, 6)
    gens = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if kind < 0.1:
            gens.append((0,) * dim)
        elif kind < 0.2 and gens:
            gens.append(rng.choice(gens))
        elif kind < 0.4 and gens:
            a, b = rng.choice(gens), rng.choice(gens)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            gens.append(tuple(s * x + t * y for x, y in zip(a, b)))
        else:
            gens.append(tuple(rng.randint(-3, 3) for _ in range(dim)))
    return gens, dim


@pytest.mark.parametrize("seed", range(8))
def test_span_equal_int_matches_reference(seed):
    rng = Random(seed)
    verdicts = set()
    for _ in range(40):
        gens, dim = _random_family(rng)
        hnf = hermite_basis(gens, dim)
        assert len(hnf) == rank_int(gens), gens
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert hermite_basis(shuffled, dim) == hnf, gens
        variants = [shuffled]
        if gens:
            # one generator doubled: the same lattice or one of index 2
            k = rng.randrange(len(gens))
            variants.append(gens[:k] + [tuple(2 * x for x in gens[k])] + gens[k + 1:])
        if len(gens) > 1:
            # a unimodular mix: one generator plus a multiple of another
            i, j = rng.sample(range(len(gens)), 2)
            m = rng.choice([-3, -2, -1, 1, 2, 3])
            mixed = gens[:]
            mixed[i] = tuple(x + m * y for x, y in zip(gens[i], gens[j]))
            assert hermite_basis(mixed, dim) == hnf, (gens, mixed)
            variants.append(mixed)
        for other in variants:
            expected = span_equal_int_reference(gens, other, dim)
            assert span_equal_int(gens, other, dim) == expected, (gens, other)
            assert span_equal_int(other, gens, dim) == expected, (gens, other)
            verdicts.add(expected)
    assert verdicts == {True, False}
