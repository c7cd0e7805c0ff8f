"""Exact integer and rational linear algebra; no floating point.

``kernel_int`` and ``kernel_rational`` are the only solvers, one per field
of statement:

* ``kernel_int`` returns a basis of the full lattice of integer solutions
  (not merely a scaled rational basis), which is what integral span
  comparisons need.  It column-reduces the dense matrix by unimodular
  operations.
* ``kernel_rational`` returns a certified basis of the rational solutions of
  a sparse system.  It eliminates modulo 31-bit primes, lifts the reduced
  echelon form by rational reconstruction (combining primes by CRT when
  needed) and checks every lifted vector exactly over Z before returning it.

``unimodular_with_first_column`` completes a primitive character to a basis
of the lattice by integer row operations and returns the change of basis
together with its inverse.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt

from .errors import InternalConsistencyError, NonPrimitiveCharacterError

Vec = tuple[int, ...]


# -- small vector helpers ------------------------------------------------------


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)


def canonical_sign(a: Vec) -> Vec:
    """Flip the sign so the first nonzero entry is positive."""
    for x in a:
        if x > 0:
            return tuple(a)
        if x < 0:
            return vneg(a)
    return tuple(a)


def content(a) -> int:
    g = 0
    for x in a:
        g = gcd(g, abs(x))
    return g


def _denominator_lcm(values) -> int:
    lcm = 1
    for x in values:
        if isinstance(x, Fraction):
            d = x.denominator
            lcm = lcm * d // gcd(lcm, d)
    return lcm


def clear_denominators(row) -> Vec:
    lcm = _denominator_lcm(row)
    return tuple(int(x * lcm) for x in row)


# -- integer column echelon / lattice kernel -----------------------------------


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


def kernel_int(rows: list, ncols: int) -> list[Vec]:
    """Basis of the lattice of integer solutions of ``A x = 0``.

    Rows may contain Fractions; they are cleared first (same solution set).
    Deterministic for a fixed row order.
    """
    int_rows = [clear_denominators(r) for r in rows]
    nrows = len(int_rows)
    # column j of A with the j-th unit vector below it
    cols = [
        [r[j] for r in int_rows] + [1 if i == j else 0 for i in range(ncols)]
        for j in range(ncols)
    ]
    rank = _column_echelon(cols, nrows)
    return [canonical_sign(tuple(c[nrows:])) for c in cols[rank:]]


# -- certified rational kernel by modular elimination --------------------------


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3,215,031,751."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes below 2**31, largest first."""
    n = 2**31 - 1
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _kernel_mod(rows: list[dict], ncols: int, p: int):
    """Reduced row echelon form of the integer rows over GF(p).

    Returns (pivot columns in increasing order, {(pivot, free column): entry
    of the kernel vector of that free column at that pivot}).  Each row is
    reduced against the pivot rows found so far in increasing column order,
    and its least remaining column becomes a new pivot; every pivot row then
    starts at its pivot, so the pivots are the lexicographically earliest
    column basis mod p, whatever the row order.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p}
        heap = [c for c in r if c in pivot_rows]
        heapify(heap)
        while heap:
            c = heappop(heap)
            v = r.pop(c, 0)
            if not v:
                continue
            for j, w in pivot_rows[c].items():
                if j == c:
                    continue
                x = (r.get(j, 0) - v * w) % p
                if x:
                    if j not in r and j in pivot_rows:
                        heappush(heap, j)
                    r[j] = x
                else:
                    r.pop(j, None)
        if r:
            lead = min(r)
            inv = pow(r[lead], -1, p)
            pivot_rows[lead] = {j: x * inv % p for j, x in r.items()}
    pivots = sorted(pivot_rows)
    # back substitution, last pivot first: each pivot row ends up with
    # entries only at its pivot and at free columns
    for c in reversed(pivots):
        r = pivot_rows[c]
        for j in [j for j in r if j != c and j in pivot_rows]:
            v = r.pop(j)
            for k, w in pivot_rows[j].items():
                if k == j:
                    continue
                x = (r.get(k, 0) - v * w) % p
                if x:
                    r[k] = x
                else:
                    r.pop(k, None)
    entries = {
        (c, f): -v % p
        for c in pivots
        for f, v in pivot_rows[c].items()
        if f != c
    }
    return pivots, entries


def _crt(entries: dict, modulus: int, more: dict, p: int) -> dict:
    """Combine residues modulo ``modulus`` with residues modulo the prime
    ``p`` into residues modulo ``modulus * p``; absent keys are zero."""
    inv = pow(modulus, -1, p)
    out = {}
    for key in entries.keys() | more.keys():
        a = entries.get(key, 0)
        t = (more.get(key, 0) - a) * inv % p
        out[key] = a + modulus * t
    return out


def _reconstruct(a: int, m: int):
    """The fraction n/d (as a pair, d > 0) with n = a d mod m and |n|, d at
    most sqrt(m/2), or None if there is none (Wang's algorithm)."""
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lift(pivots, entries: dict, modulus: int, ncols: int):
    """Primitive integer kernel vectors, one per free column in increasing
    order, positive at their free column; None if a reconstruction fails."""
    pivot_set = set(pivots)
    free = [f for f in range(ncols) if f not in pivot_set]
    fracs: dict[int, dict[int, tuple]] = {f: {} for f in free}
    for (c, f), a in entries.items():
        nd = _reconstruct(a, modulus)
        if nd is None:
            return None
        if nd[0]:
            fracs[f][c] = nd
    basis = []
    for f in free:
        col = fracs[f]
        lcm = 1
        for _, d in col.values():
            lcm = lcm * d // gcd(lcm, d)
        vec = {c: n * (lcm // d) for c, (n, d) in col.items()}
        vec[f] = lcm
        g = 0
        for x in vec.values():
            g = gcd(g, x)
        basis.append({c: x // g for c, x in vec.items()})
    return basis


def _annihilates(rows: list[dict], basis: list[dict]) -> bool:
    """Whether every row vanishes on every vector, exactly over Z."""
    by_col: dict[int, list] = {}
    for k, x in enumerate(basis):
        for c, v in x.items():
            by_col.setdefault(c, []).append((k, v))
    for row in rows:
        acc: dict[int, int] = {}
        for c, a in row.items():
            for k, v in by_col.get(c, ()):
                acc[k] = acc.get(k, 0) + a * v
        if any(acc.values()):
            return False
    return True


def kernel_rational(rows: list[dict], ncols: int) -> list[Vec]:
    """Certified basis of the rational solutions of ``A x = 0``.

    ``rows`` are sparse ``{column: value}`` dicts with int or Fraction
    values.  The basis is the reduced one: one vector per free column of the
    rational reduced row echelon form, in increasing order, equal to 1 there
    and 0 at the other free columns, scaled to a primitive integer vector.
    It does not depend on the row order.

    Rows are eliminated modulo 31-bit primes, sparsest first.  A prime whose
    pivot columns are not the lexicographically earliest of the largest rank
    seen is dropped; primes with the same pivots are combined by CRT until
    every entry has a rational reconstruction.  Every lifted vector is then
    checked exactly over Z.  The vectors are independent and their number,
    ncols - rank mod p, is at least the dimension of the rational kernel, so
    if all pass they are a basis of it (and the pivots are the rational
    ones); otherwise the next prime is taken.  No vector is returned
    unchecked.
    """
    int_rows = []
    for row in rows:
        lcm = _denominator_lcm(row.values())
        r = {c: int(v * lcm) for c, v in row.items() if v}
        if r:
            int_rows.append(r)
    int_rows.sort(key=len)
    pivots = modulus = residues = None
    for p in _primes():
        piv, res = _kernel_mod(int_rows, ncols, p)
        if pivots is None or (-len(piv), piv) < (-len(pivots), pivots):
            pivots, modulus, residues = piv, p, res
        elif piv == pivots:
            residues = _crt(residues, modulus, res, p)
            modulus *= p
        else:
            continue  # unlucky: its pivots are not the earliest of largest rank
        basis = _lift(pivots, residues, modulus, ncols)
        if basis is not None and _annihilates(int_rows, basis):
            return [tuple(x.get(c, 0) for c in range(ncols)) for x in basis]


def rank_int(vectors: list) -> int:
    """Rank over Q of vectors with int or Fraction entries: the number of
    nonzero vectors less the dimension of the certified space of linear
    relations among them."""
    vecs = [v for v in vectors if any(v)]
    if not vecs:
        return 0
    relations = [
        {j: v[i] for j, v in enumerate(vecs) if v[i]} for i in range(len(vecs[0]))
    ]
    return len(vecs) - len(kernel_rational(relations, len(vecs)))


# -- lattice membership / span comparison --------------------------------------


class Lattice:
    """The integer span of a list of vectors, with exact membership testing."""

    def __init__(self, vectors: list[Vec], dim: int):
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


def span_equal_int(vs: list[Vec], ws: list[Vec], dim: int) -> bool:
    lv, lw = Lattice(vs, dim), Lattice(ws, dim)
    if lv.rank() != lw.rank():
        return False
    return all(lv.contains(w) for w in ws) and all(lw.contains(v) for v in vs)


def span_equal_rational(vs: list, ws: list, dim: int) -> bool:
    rv = rank_int(vs)
    rw = rank_int(ws)
    if rv != rw:
        return False
    return rank_int(list(vs) + list(ws)) == rv


# -- unimodular basis completion -----------------------------------------------


def require_primitive(alpha: Vec) -> None:
    """Raise :class:`NonPrimitiveCharacterError` unless the entries of
    ``alpha`` have gcd 1."""
    if content(alpha) != 1:
        raise NonPrimitiveCharacterError(
            f"character {tuple(alpha)} is not primitive; divisibility by its "
            "class is defined only for primitive characters"
        )


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
