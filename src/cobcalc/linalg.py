"""Exact integer and rational linear algebra; no floating point.

``kernel_int`` and ``kernel_rational`` are the only solvers, one per field
of statement:

* ``kernel_rational`` returns a certified basis of the rational solutions of
  a sparse system.  It eliminates modulo 31-bit primes, lifts the reduced
  echelon form by rational reconstruction (combining primes by CRT when
  needed) and checks every lifted vector exactly over Z before returning it.
* ``kernel_int`` returns a basis of the full lattice of integer solutions
  (not merely a scaled rational basis), which is what integral span
  comparisons need.  It saturates ``kernel_rational``'s reduced basis: the
  integer solutions are the combinations whose pivot coordinates are
  integral, a set of congruences modulo the common denominator D, solved by
  a Hermite normal form computed modulo D.

``hermite_basis`` is the canonical column Hermite normal form of an integer
span, built by inserting sparse generators one at a time into a reduced
echelon form; ``span_equal_int`` compares two integer spans by it, and
``span_equal_rational`` compares rational spans by rank.

``require_primitive`` refuses a character whose entries have a common
factor: division by a character class is defined only for primitive ones.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress, count
from math import gcd, isqrt, lcm

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
    return lcm(*(x.denominator for x in values if isinstance(x, Fraction)))


def _sparse(vectors) -> list[dict]:
    return [{i: v[i] for i in compress(count(), v)} for v in vectors]


def _dense(vector: dict, dim: int) -> Vec:
    out = [0] * dim
    for i, x in vector.items():
        out[i] = x
    return tuple(out)


def clear_denominators(row) -> Vec:
    m = _denominator_lcm(row)
    return tuple(int(x * m) for x in row)


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
    """The free columns in increasing order and one primitive integer kernel
    vector for each, positive there; None if a reconstruction fails."""
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
        m = lcm(*(d for _, d in col.values()))
        vec = {c: n * (m // d) for c, (n, d) in col.items()}
        vec[f] = m
        g = 0
        for x in vec.values():
            g = gcd(g, x)
        basis.append({c: x // g for c, x in vec.items()})
    return free, basis


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
    _, basis = _reduced_kernel(rows, ncols)
    return [_dense(x, ncols) for x in basis]


def _reduced_kernel(rows: list[dict], ncols: int) -> tuple[list[int], list[dict]]:
    """``kernel_rational``'s free columns and its basis as sparse vectors."""
    int_rows = []
    for row in rows:
        m = _denominator_lcm(row.values())
        r = {c: int(v * m) for c, v in row.items() if v}
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
        lifted = _lift(pivots, residues, modulus, ncols)
        if lifted is not None and _annihilates(int_rows, lifted[1]):
            return lifted


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


# -- integer lattices: sparse Hermite normal form and the Z-kernel -------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, s, t) with d = gcd(a, b) = s a + t b > 0."""
    s0, s1, t0, t1, r0, r1 = 1, 0, 0, 1, a, b
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (r0, s0, t0) if r0 > 0 else (-r0, -s0, -t0)


def _combine(s: int, x: dict, t: int, y: dict, modulus: int) -> dict:
    """s x + t y for sparse vectors, with every entry reduced modulo
    ``modulus`` unless that is 0."""
    out = {}
    for i in x.keys() | y.keys():
        z = s * x.get(i, 0) + t * y.get(i, 0)
        if modulus:
            z %= modulus
        if z:
            out[i] = z
    return out


def _subtract(x: dict, q: int, y: dict, modulus: int) -> None:
    """x -= q y in place for q != 0, reduced modulo ``modulus`` unless that
    is 0."""
    get = x.get
    if modulus:
        for i, c in y.items():
            z = (get(i, 0) - q * c) % modulus
            if z:
                x[i] = z
            else:
                x.pop(i, None)
        return
    for i, c in y.items():
        z = get(i, 0) - q * c
        if z:
            x[i] = z
        else:
            del x[i]


def _hermite(vectors, dim: int, modulus: int = 0) -> list[dict]:
    """The canonical column Hermite normal form of the span of the sparse
    ``{row: value}`` vectors, as sparse columns in increasing order of pivot
    row.  The vectors are consumed.

    The vectors are inserted one at a time.  At its least nonzero row a
    vector is reduced by the column with its pivot there: exactly if the
    pivot divides the entry, and otherwise by extended gcd, which leaves the
    gcd as the pivot and a remainder that is zero on that row.  A vector
    that reaches a row with no column becomes a new column.  After each
    change to a column the echelon is made reduced again, every entry at a
    later pivot row in ``[0, pivot)``, so that later vectors stay sparse and
    entries do not grow; at the end it is the canonical form.

    With ``modulus`` D > 0 the span is that of the vectors and D Z^dim: the
    columns start as D times the unit vectors, and every entry below the row
    being worked on is kept modulo D (modulo-determinant arithmetic, as in
    Domich, Kannan and Trotter 1987).  That is exact: the columns with later
    pivots are not touched by then, and they span D Z^dim on those rows.
    """
    cols = {i: {i: modulus} for i in range(dim)} if modulus else {}
    for v in vectors:
        while v:
            p = min(v)
            col = cols.get(p)
            if col is None:
                cols[p] = v if v[p] > 0 else {i: -x for i, x in v.items()}
                _settle(cols, p)
                break
            a, b = col[p], v[p]
            if b % a:
                d, s, t = _xgcd(a, b)
                cols[p] = _combine(s, col, t, v, modulus)
                v = _combine(b // d, col, -(a // d), v, modulus)
                _settle(cols, p)
            else:
                _subtract(v, b // a, col, modulus)
    return [cols[p] for p in sorted(cols)]


def _settle(cols: dict[int, dict], p: int) -> None:
    """Make the echelon ``cols`` (pivot row -> column) reduced again after
    its column at pivot row ``p`` changed: that column at the later pivot
    rows, then every column whose entry at row ``p`` is out of range (and
    then at the later pivot rows where the changed column has entries)."""
    col = cols[p]
    _reduce_at(col, cols, [i for i in col if i > p and i in cols])
    later = [i for i in col if i > p and i in cols]
    h = col[p]
    for other in cols.values():
        q = other.get(p, 0) // h
        if q and other is not col:
            _subtract(other, q, col, 0)
            if later:
                _reduce_at(other, cols, later[:])


def _reduce_at(col: dict, cols: dict[int, dict], rows: list[int]) -> None:
    """Reduce the entries of ``col`` at the pivot rows ``rows``, and at the
    later pivot rows where that changes them, into ``[0, pivot)``, in
    increasing order."""
    heapify(rows)
    done = -1
    while rows:
        i = heappop(rows)
        if i <= done:
            continue
        done = i
        by = cols[i]
        q = col.get(i, 0) // by[i]
        if q:
            _subtract(col, q, by, 0)
            for j in by:
                if j > i and j in cols:
                    heappush(rows, j)


def hermite_basis(vectors: list[Vec], dim: int) -> list[Vec]:
    """The canonical column Hermite normal form of the integer span of
    ``vectors`` in Z^dim: its columns in increasing order of pivot row, each
    zero above its pivot, the pivot positive, and every earlier column's
    entry in that row reduced into ``[0, pivot)``.  Two families span the
    same lattice exactly when these lists are equal; the rank is the length.
    """
    return [_dense(col, dim) for col in _hermite(_sparse(vectors), dim)]


def span_equal_int(vs: list[Vec], ws: list[Vec], dim: int) -> bool:
    return _hermite(_sparse(vs), dim) == _hermite(_sparse(ws), dim)


def kernel_int(rows: list, ncols: int) -> list[Vec]:
    """Basis of the lattice of integer solutions of ``A x = 0``.

    ``rows`` are dense, with int or Fraction entries.  The lattice is the
    saturation of ``kernel_rational``'s reduced basis: v_f for each free
    column f, with l_f = v_f[f] > 0.  A rational solution
    x = sum_f c_f v_f / l_f has x_f = c_f, so it is integral exactly when c
    is integral and, for each pivot column p,
    sum_f c_f (D / l_f) v_f[p] = 0 mod D, where D = lcm(l_f).  For D = 1
    there are no conditions and the reduced basis is the answer.  Otherwise
    the c that meet them are read off a Hermite normal form kept modulo D,
    with one coordinate per condition ahead of the coordinates of c, so no
    entry grows past D.

    The free coordinates of the basis are in column Hermite normal form
    (for D = 1, the unit vectors), so the basis is canonical: one vector per
    free column in increasing order, positive there and zero at the earlier
    free columns.  It does not depend on the row order.
    """
    free, basis = _reduced_kernel(_sparse(rows), ncols)
    scale = [v[f] for f, v in zip(free, basis)]
    modulus = lcm(*scale)
    if modulus > 1:
        basis = _saturate(basis, free, scale, modulus)
    return [_dense(v, ncols) for v in basis]


def _saturate(basis: list[dict], free: list[int], scale: list[int], modulus: int):
    """The lattice basis of the integer vectors in the rational span of the
    reduced ``basis`` (see ``kernel_int``), as sparse vectors: the Hermite
    columns of the conditions' solutions c, lifted to sum_f c_f v_f / l_f."""
    conditions: dict[int, dict[int, int]] = {}
    for j, (f, v) in enumerate(zip(free, basis)):
        m = modulus // scale[j]
        for c, x in v.items():
            if c != f and m * x % modulus:
                conditions.setdefault(c, {})[j] = m * x % modulus
    r = len(conditions)
    gens = [{r + j: 1} for j in range(len(free))]
    for i, c in enumerate(sorted(conditions)):
        for j, x in conditions[c].items():
            gens[j][i] = x
    out = []
    for col in _hermite(gens, r + len(free), modulus)[r:]:
        acc: dict[int, int] = {}
        for i, h in col.items():
            m = h * (modulus // scale[i - r])
            for c, x in basis[i - r].items():
                acc[c] = acc.get(c, 0) + m * x
        vec = {}
        for c, x in acc.items():
            q, rem = divmod(x, modulus)
            if rem:
                raise InternalConsistencyError("saturated kernel vector is not integral")
            if q:
                vec[c] = q
        out.append(vec)
    return out


# -- span comparison -----------------------------------------------------------


def span_equal_rational(vs: list, ws: list, dim: int) -> bool:
    rv = rank_int(vs)
    rw = rank_int(ws)
    if rv != rw:
        return False
    return rank_int(list(vs) + list(ws)) == rv


# -- primitive characters ------------------------------------------------------


def require_primitive(alpha: Vec) -> None:
    """Raise :class:`NonPrimitiveCharacterError` unless the entries of
    ``alpha`` have gcd 1."""
    if content(alpha) != 1:
        raise NonPrimitiveCharacterError(
            f"character {tuple(alpha)} is not primitive; divisibility by its "
            "class is defined only for primitive characters"
        )
