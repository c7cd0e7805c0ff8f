import os
import subprocess
import sys
from copy import deepcopy
from fractions import Fraction
from math import lcm
from pathlib import Path
from random import Random

import pytest

import cobcalc
from cobcalc.errors import NonPrimitiveCharacterError
from cobcalc.linalg import (
    _hermite,
    _rank,
    _tie_quotient,
    canonical_sign,
    kernel,
    span_equal,
)

from .oracles import (
    clear_denominators,
    is_saturated,
    kernel_int_reference,
    rational_kernel,
    rref_rational,
    span_equal_int_reference,
    unimodular_with_first_column,
)


def _sparse(rows):
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


def _dense(vectors, dim: int):
    return [tuple(v.get(c, 0) for c in range(dim)) for v in vectors]


def _kernel(rows, ncols: int, over: str):
    """``kernel`` of the dense ``rows``, passed sparse, as dense vectors to
    compare with the dense oracles."""
    return _dense(kernel(_sparse(rows), ncols, over), ncols)


def _hnf(vectors, dim: int):
    """The column Hermite normal form of the dense ``vectors``, dense."""
    return _dense(_hermite(_sparse(vectors), dim), dim)


def _hnf_mod(vectors, dim: int, modulus: int):
    """``_hnf`` of the span of the dense ``vectors`` and ``modulus * Z^dim``,
    through ``_hermite``'s modulus."""
    return _dense(_hermite(_sparse(vectors), dim, modulus), dim)


def _span_equal_int(vs, ws) -> bool:
    return span_equal(_sparse(vs), _sparse(ws), over="Z")


def test_canonical_sign():
    assert canonical_sign((0, -2, 1)) == (0, 2, -1)
    assert canonical_sign((1, -1)) == (1, -1)
    assert canonical_sign((0, 0)) == (0, 0)


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    assert clear_denominators([2, -1]) == (2, -1)


def test_kernel_is_saturated():
    # 2x - 2y = 0 has primitive kernel generator (1, 1), not (2, 2)
    basis = kernel([{0: 2, 1: -2}], 2, over="Z")
    assert basis == [{0: 1, 1: 1}]
    # x + y + z = 0, x - z = 0
    basis = _kernel([[1, 1, 1], [1, 0, -1]], 3, "Z")
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[2] and v[1] == -2 * v[0] and abs(v[0]) == 1


def test_kernel_empty_system():
    basis = kernel([], 2, over="Z")
    assert sorted(_dense(basis, 2)) == [(0, 1), (1, 0)]


def test_kernel_int_is_hermite_in_the_free_columns():
    # 2x + y + z = 0: the reduced rational basis (-1, 2, 0), (-1, 0, 2) spans
    # only the solutions with y + z even; the lattice basis has free
    # coordinates (1, 1) and (0, 2), the Hermite form of that condition
    assert _kernel([[2, 1, 1]], 3, "Z") == [(-1, 1, 1), (-1, 0, 2)]
    assert _kernel([[2, 3]], 2, "Z") == [(-3, 2)]
    assert _kernel([[Fraction(1, 2), Fraction(1, 3)]], 2, "Z") == [(-2, 3)]
    assert _kernel([[1, 2], [3, 4]], 2, "Z") == []


def test_rank():
    assert _rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert _rank([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2
    assert _rank([]) == 0
    assert _rank([{}, {0: 0}]) == 0


def test_lattice_membership():
    # v lies in the lattice exactly when adding it leaves the HNF unchanged
    gens = [(2, 0), (0, 1)]
    hnf = _hnf(gens, 2)

    def contains(v):
        return _hnf(gens + [v], 2) == hnf

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
    assert _hnf(vectors, dim) == expected


def test_span_equal_int_detects_index():
    assert not span_equal([{0: 2}, {1: 1}], [{0: 1}, {1: 1}], over="Z")
    assert span_equal([{0: 1, 1: 1}, {1: 1}], [{0: 1}, {1: 1}], over="Z")


def test_span_equal_rational():
    assert span_equal([{0: 2}, {1: 3}], [{0: 1}, {1: 1}])
    assert not span_equal([{0: 1}], [{1: 1}], over="Q")


def test_span_equal_takes_vertex_label_keys():
    # labels are (vertex, label) pairs, as on a moment graph, absent from
    # some vectors; the verdicts are those on the labels numbered in sorted
    # order
    a = [{(0, 5): 2, (1, 3): 2}, {(1, 3): 1, (2, 0): -1}]
    mixed = [a[0], {(0, 5): 2, (1, 3): 3, (2, 0): -1}]
    doubled = [{(0, 5): 4, (1, 3): 4}, a[1]]
    labels = [(0, 5), (1, 3), (2, 0)]

    def dense(family):
        return [tuple(v.get(k, 0) for k in labels) for v in family]

    for other, over_q, over_z in [
        (mixed, True, True), (doubled, True, False), (a[:1], False, False)
    ]:
        assert span_equal(a, other, over="Q") == over_q
        assert span_equal(a, other, over="Z") == over_z
        assert span_equal_int_reference(dense(a), dense(other), 3) == over_z


def test_kernel_and_span_equal_leave_their_input_unchanged():
    # a tie, a Fraction row and a system that needs saturating over Z
    rows = [{0: 1, 3: -1}, {1: Fraction(1, 2), 2: Fraction(1, 3)}, {0: 2, 1: 1, 2: 1}]
    vs = [{"a": 2, "b": 0}, {"b": 3, "c": 1}]
    ws = [{"a": 1}, {"b": 1, "c": 1}]
    before = deepcopy((rows, vs, ws))
    for over in ("Q", "Z"):
        kernel(rows, 4, over)
        span_equal(vs, ws, over)
        span_equal(vs, vs, over)
        assert (rows, vs, ws) == before


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
        assert _kernel(rows, ncols, "Q") == expected, (rows, ncols)
        assert _rank(_sparse(rows)) == len(rref_rational(rows)), rows
        # the reduced basis does not depend on the row order
        rng.shuffle(rows)
        assert _kernel(rows, ncols, "Q") == expected, (rows, ncols)


def test_kernel_rational_edge_cases():
    # no rows, and only zero rows: the unit vectors
    assert kernel([], 2) == [{0: 1}, {1: 1}]
    assert kernel([{}, {0: 0}], 2) == [{0: 1}, {1: 1}]
    # full rank: nothing
    assert kernel([{0: 1, 1: 2}, {0: 3, 1: 4}], 2) == []
    # Fraction entries are cleared; the vector is primitive, positive at its
    # free column
    assert kernel([{0: Fraction(1, 2), 1: Fraction(-1, 3)}], 2) == [{0: 2, 1: 3}]
    assert kernel([{0: 2, 1: -2}], 2) == [{0: 1, 1: 1}]
    assert kernel([{0: 1, 1: 1, 2: 1}, {0: 1, 2: -1}], 3) == [{0: 1, 1: -2, 2: 1}]


@pytest.mark.parametrize("value", [int, Fraction], ids=["int", "Fraction"])
def test_kernel_drops_explicit_zeros_before_looking_for_ties(value):
    # {0: 0, 1: 0} has the shape of a tie {a: v, b: -v} but is the zero row:
    # only rows with every value a nonzero int reach the tie quotient as
    # they are
    for over in ("Q", "Z"):
        assert kernel([{0: value(0), 1: value(0)}], 2, over) == [{0: 1}, {1: 1}]
        assert kernel([{0: value(0), 1: value(3)}], 2, over) == [{0: 1}]


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
        got = _kernel(rows, ncols, "Z")
        expected = kernel_int_reference(rows, ncols)
        assert len(got) == len(expected), (rows, ncols)
        assert _span_equal_int(got, expected), (rows, ncols)
        for v in got:
            for r in rows:
                assert sum(a * x for a, x in zip(r, v)) == 0, (rows, v)
        # the reduced rational basis ends at its free column; a scale above
        # 1 there means the kernel over Z had to saturate it
        scales = [v[max(v)] for v in kernel(_sparse(rows), ncols)]
        if lcm(*scales) > 1:
            saturated += 1
    assert saturated > 100


def test_is_saturated_oracle():
    assert is_saturated([(2, 1)], 2)
    assert not is_saturated([(2, 0)], 2)
    assert not is_saturated([(1, 1, 0), (1, -1, 0)], 3)
    assert is_saturated([(1, 1, 0), (0, 1, 0)], 3)
    assert is_saturated([], 3)


# the two largest primes below 2**31, the first moduli the kernel tries
_P, _Q = 2**31 - 1, 2**31 - 19


def test_kernel_rational_survives_unlucky_primes():
    # modulo _P the pivot moves to column 1, and the kernel vector lifts only
    # from several further primes combined (its entry _P is too large for one)
    assert kernel([{0: _P, 1: 1}], 2) == [{0: -1, 1: _P}]
    assert kernel([{0: 1, 1: _P}], 2) == [{0: -_P, 1: 1}]
    # _Q is unlucky while lucky primes are being combined: it must be dropped
    assert kernel([{0: _Q, 1: 1}], 2) == [{0: -1, 1: _Q}]
    # modulo _P the rank drops: the extra kernel vector fails the exact check
    assert kernel([{0: _P, 1: _P}, {0: 1, 1: 2}], 2) == []
    rows = [[3 * _P, _P, 0, _P], [_P, 0, 2 * _P, Fraction(_P, 7)], [1, 1, 1, 1]]
    assert _kernel(rows, 4, "Q") == rational_kernel(rows, 4)


# Mutations of the solver that no prime can certify: a tie quotient that also
# merges {a: v, b: v} (x_a = x_b where x_a = -x_b holds), and an elimination
# that loses the rank modulo every prime after the first.  Run in a child
# process, so that a solver that loops forever fails this test by its timeout
# instead of hanging the suite.
_MUTANTS = """
import cobcalc.linalg as linalg
from cobcalc.errors import InternalConsistencyError

tie_quotient, kernel_mod = linalg._tie_quotient, linalg._kernel_mod


def also_merging(rows, ncols):
    flipped = []
    for r in rows:
        if len(r) == 2:
            (a, x), (b, y) = r.items()
            if x == y:
                r = {a: x, b: -y}
        flipped.append(r)
    return tie_quotient(flipped, ncols)


def rank_lost(rows, ncols, p):
    return kernel_mod(rows, ncols, p) if p == 2**31 - 1 else ([], {})


def attempt(rows, ncols):
    for over in ("Q", "Z"):
        try:
            print(linalg.kernel(rows, ncols, over))
        except InternalConsistencyError as e:
            print(e)


linalg._tie_quotient = also_merging
attempt([{0: 1, 1: 1}], 2)
attempt([{0: 2, 1: 2}, {1: 1, 2: 1, 3: -2}, {2: 1, 3: -1}], 4)
linalg._tie_quotient = tie_quotient
linalg._kernel_mod = rank_lost
attempt([{0: 2**31 - 1, 1: 1}], 2)
"""


def test_uncertifiable_systems_raise_instead_of_hanging():
    src = str(Path(cobcalc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    try:
        done = subprocess.run(
            [sys.executable, "-c", _MUTANTS],
            env=env, capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("the prime loop did not stop on an uncertifiable system")
    assert done.returncode == 0, done.stderr
    shapes = ["1x2 system (quotient by its ties 0x1)"] * 2
    shapes += ["3x4 system (quotient by its ties 1x2)"] * 2
    shapes += ["1x2 system (quotient by its ties 1x2)"] * 2
    assert done.stdout.splitlines() == [
        f"no certified kernel of the {shape} within its Hadamard bound"
        for shape in shapes
    ]


# -- systems with tie rows {a: v, b: -v} ----------------------------------------


def test_tie_classes_are_numbered_by_their_largest_column():
    # classes {0, 4} and {1, 2} (a chain of int and Fraction ties); column 3
    # is tied to nothing
    rows = [
        {4: 3, 0: -3},
        {1: Fraction(1, 2), 2: Fraction(-1, 2)},
        {2: -1, 1: 1},
        {0: 1, 1: 1, 3: 3},
        {4: 1, 2: 1, 3: 3},  # the same row on the quotient
        {0: 1, 4: -1, 1: 2, 2: -2},  # zero on the quotient
    ]
    classes, quotient = _tie_quotient(rows, 5)
    assert classes == [[1, 2], [3], [0, 4]]
    assert quotient == [{2: 1, 0: 1, 1: 3}]
    # the free column of a free class is its largest
    expected = [(0, 1, 1, 0, 0), (0, 0, 0, 1, 0), (1, 0, 0, 0, 1)]
    assert _dense(kernel(rows[:3], 5), 5) == expected
    assert _dense(kernel(rows, 5), 5) == rational_kernel(
        [[r.get(c, 0) for c in range(5)] for r in rows], 5
    ) == [(0, -3, -3, 1, 0), (1, -1, -1, 0, 1)]


def _tie_system(rng: Random):
    """A dense system of 2-9 columns built around tie rows {a: v, b: -v}
    with int and Fraction values: chains and cycles of ties, rows that force
    a class to zero, rows {a: v, b: v}, repeated rows, rows that vanish on
    the quotient by the ties, and random rows."""
    ncols = rng.randint(2, 9)
    rows = []
    pairs = []

    def value():
        return rng.choice((1, 2, -3, Fraction(1, 2), Fraction(-3, 4)))

    def row(entries):
        r = [0] * ncols
        for c, v in entries:
            r[c] += v
        rows.append(r)

    for _ in range(rng.randint(1, 3)):
        chain = rng.sample(range(ncols), rng.randint(2, min(4, ncols)))
        if rng.random() < 0.3:
            chain.append(chain[0])  # a cycle
        for a, b in zip(chain, chain[1:]):
            v = value()
            row([(a, v), (b, -v)])
            pairs.append((a, b))
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        (a, b), (c, d) = rng.choice(pairs), rng.choice(pairs)
        v, w = value(), value()
        if kind < 0.15:
            row([(a, v)])  # a class forced to zero
        elif kind < 0.3:
            row([(a, v), (b, v)])  # not a tie; forces the class to zero
        elif kind < 0.45:
            row([(a, v), (b, -v), (c, w), (d, -w)])  # zero on the quotient
        elif kind < 0.6:
            rows.append(list(rng.choice(rows)))
        else:
            row([(k, value()) for k in range(ncols) if rng.random() < 0.4])
    rng.shuffle(rows)
    return rows, ncols


@pytest.mark.parametrize("seed", range(6))
def test_kernels_of_tie_systems_match_references(seed):
    rng = Random(seed)
    merged = 0
    for _ in range(60):
        rows, ncols = _tie_system(rng)
        classes, _ = _tie_quotient(_sparse(clear_denominators(r) for r in rows), ncols)
        merged += len(classes) < ncols
        expected = rational_kernel(rows, ncols)
        got = _kernel(rows, ncols, "Z")
        reference = kernel_int_reference(rows, ncols)
        assert _kernel(rows, ncols, "Q") == expected, (rows, ncols)
        assert len(got) == len(reference), (rows, ncols)
        assert _span_equal_int(got, reference), (rows, ncols)
        # neither depends on the row order
        rng.shuffle(rows)
        assert _kernel(rows, ncols, "Q") == expected, (rows, ncols)
        assert _kernel(rows, ncols, "Z") == got, (rows, ncols)
    assert merged > 50


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
        hnf = _hnf(gens, dim)
        assert len(hnf) == _rank(_sparse(gens)), gens
        assert span_equal_int_reference(gens, hnf, dim), gens
        shuffled = gens[:]
        rng.shuffle(shuffled)
        # _hermite sorts what it inserts; the form must not depend on the
        # order it is given, nor on zero and repeated vectors
        padded = shuffled + [(0,) * dim] + rng.sample(gens, min(2, len(gens)))
        rng.shuffle(padded)
        orders = [shuffled, gens[::-1], padded, padded[::-1]]
        for order in orders:
            assert _hnf(order, dim) == hnf, (gens, order)
        # modulo D, the form of the span of the vectors and D Z^dim
        modulus = rng.choice([2, 3, 4, 6, 12])
        mod_hnf = _hnf_mod(gens, dim, modulus)
        lattice = gens + [tuple(modulus * (i == j) for j in range(dim)) for i in range(dim)]
        assert len(mod_hnf) == dim, (gens, modulus)
        assert span_equal_int_reference(lattice, mod_hnf, dim), (gens, modulus)
        assert _hnf(lattice, dim) == mod_hnf, (gens, modulus)
        for order in orders:
            assert _hnf_mod(order, dim, modulus) == mod_hnf, (gens, order, modulus)
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
            assert _hnf(mixed, dim) == hnf, (gens, mixed)
            variants.append(mixed)
        for other in variants:
            expected = span_equal_int_reference(gens, other, dim)
            assert _span_equal_int(gens, other) == expected, (gens, other)
            assert _span_equal_int(other, gens) == expected, (gens, other)
            verdicts.add(expected)
    assert verdicts == {True, False}
