"""Exact integer and rational linear algebra on sparse vectors; no floating
point.

Rows and vectors are ``{column: value}`` dicts with int or Fraction values.
There are two entry points:

* ``kernel(rows, ncols, over)`` solves ``A x = 0``: over Q it returns the
  certified reduced basis of the rational solutions, found by modular
  elimination on the system's quotient by its tie rows; over Z it returns
  the basis of the lattice of integer solutions that saturates it.
* ``span_equal(vs, ws, over)`` compares two spans of sparse vectors keyed by
  any sortable labels: over Q by rank, over Z by the canonical column
  Hermite normal form, built by inserting sparse generators one at a time
  into a reduced echelon form.

``require_primitive`` refuses a character whose entries have a common
factor: division by a character class is defined only for primitive ones.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm, prod

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


def kernel(rows: list[dict], ncols: int, over: str = "Q") -> list[dict]:
    """Basis of the solutions of ``A x = 0`` as sparse ``{column: value}``
    vectors; ``rows`` are sparse too, with int or Fraction values, and are
    left unchanged.  Both bases are canonical, so they do not depend on the
    row order.

    ``over="Q"``: the certified reduced basis of the rational solutions, one
    vector per free column of the rational reduced row echelon form, in
    increasing order, equal to 1 there and 0 at the other free columns,
    scaled to a primitive integer vector.

    A row whose values are all nonzero ints is used as it is; any other row
    is scaled to clear its denominators and stripped of zero entries, so
    that ``{a: 0, b: 0}`` is no tie.  The tie rows ``{a: v, b: -v}`` then
    merge their columns into classes, numbered by their largest column; the
    other rows, summed over the classes and without zero or repeated rows,
    are eliminated modulo 31-bit primes, sparsest first.  A prime whose pivot
    classes are not the lexicographically earliest of the largest rank seen
    is dropped; primes with the same pivots are combined by CRT until every
    entry has a rational reconstruction.  Each lifted vector gives every
    column of a class the class's entry, and is then checked exactly over Z
    on the original rows.  The vectors are independent and their number,
    the classes less the rank mod p, is at least the dimension of the
    rational kernel, so if all pass they are a basis of it; otherwise the
    next prime is taken.  No vector is returned unchecked.  Every solution
    is constant on a class, so a free class's free column in the reduced
    echelon form of the original rows is its largest, and the lifted basis
    is the reduced one of the original rows.

    The primes are bounded by Hadamard's bound H on the minors of the
    quotient rows (the product of its ``min(rows, classes)`` largest row
    norms).  Every unlucky prime divides one nonzero minor, and every entry
    of the reduced basis is a ratio of two minors, which a modulus above
    2 H^2 reconstructs.  So once the unlucky primes multiply past H, or the
    modulus passes 2 H^2 and the lift still fails or is refused, the system
    is not what the quotient says, and ``InternalConsistencyError`` is
    raised, naming the shapes of the system and of its quotient.

    ``over="Z"``: the basis of the lattice of integer solutions (not merely
    a scaled rational basis), which is what integral span comparisons need.
    It is the saturation of the reduced basis: v_f for each free column f,
    with l_f = v_f[f] > 0.  A rational solution x = sum_f c_f v_f / l_f has
    x_f = c_f, so it is integral exactly when c is integral and, for each
    pivot column p, sum_f c_f (D / l_f) v_f[p] = 0 mod D, where
    D = lcm(l_f).  For D = 1 there are no conditions and the reduced basis
    is the answer.  Otherwise the c that meet them are read off a Hermite
    normal form kept modulo D, with one coordinate per condition ahead of
    the coordinates of c, so no entry grows past D.  The free coordinates
    of this basis are in column Hermite normal form (for D = 1, the unit
    vectors): one vector per free column in increasing order, positive
    there and zero at the earlier free columns.
    """
    free, basis = _reduced_kernel(rows, ncols)
    if over == "Z":
        scale = [v[f] for f, v in zip(free, basis)]
        modulus = lcm(*scale)
        if modulus > 1:
            basis = _saturate(basis, free, scale, modulus)
    return basis


def _tie_quotient(rows: list[dict], ncols: int) -> tuple[list[list[int]], list[dict]]:
    """The system on its quotient by its tie rows ``{a: v, b: -v}``.

    Every solution has x_a = x_b for a tie, so it is constant on each class
    of tied columns (union-find).  Returns the classes, each a sorted list of
    columns, numbered in increasing order of their largest column, and the
    other rows with each column replaced by its class and the entries of a
    class summed, without zero or repeated rows.  The solutions of the
    quotient are those of ``rows``, read once per class.
    """
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    others = []
    for row in rows:
        if len(row) == 2:
            (a, x), (b, y) = row.items()
            if x == -y:
                a, b = find(a), find(b)
                # the root of a class is its largest column
                parent[min(a, b)] = max(a, b)
                continue
        others.append(row)
    roots = [c for c in range(ncols) if parent[c] == c]
    number = {r: k for k, r in enumerate(roots)}
    cls = [number[find(c)] for c in range(ncols)]
    classes = [[] for _ in roots]
    for c, k in enumerate(cls):
        classes[k].append(c)
    seen = set()
    quotient = []
    for row in others:
        q: dict[int, int] = {}
        for c, v in row.items():
            k = cls[c]
            q[k] = q.get(k, 0) + v
        q = {k: v for k, v in q.items() if v}
        key = frozenset(q.items())
        if q and key not in seen:
            seen.add(key)
            quotient.append(q)
    return classes, quotient


def _reduced_kernel(rows: list[dict], ncols: int) -> tuple[list[int], list[dict]]:
    """The free columns of ``kernel``'s reduced basis over Q, and the basis."""
    int_rows = []
    for row in rows:
        if all(type(v) is int and v for v in row.values()):
            r = row  # already integral and without zeros: not copied
        else:
            m = lcm(*(x.denominator for x in row.values()))
            r = {c: int(v * m) for c, v in row.items() if v}
        if r:
            int_rows.append(r)
    classes, quotient = _tie_quotient(int_rows, ncols)
    quotient.sort(key=len)
    # H^2, with H Hadamard's bound on the minors of the quotient
    norms = sorted((sum(v * v for v in r.values()) for r in quotient), reverse=True)
    bound = prod(norms[:len(classes)])
    pivots, modulus, residues, unlucky = None, 1, None, 1
    for p in _primes():
        piv, res = _kernel_mod(quotient, len(classes), p)
        if piv == pivots:
            residues = _crt(residues, modulus, res, p)
            modulus *= p
        elif pivots is None or (-len(piv), piv) < (-len(pivots), pivots):
            unlucky *= modulus  # the primes combined so far were unlucky
            pivots, modulus, residues = piv, p, res
        else:
            unlucky *= p  # its pivots are not the earliest of largest rank
        lifted = _lift(pivots, residues, modulus, len(classes)) if piv == pivots else None
        if lifted is not None:
            free = [classes[k][-1] for k in lifted[0]]
            basis = [
                {c: x for k, x in v.items() for c in classes[k]} for v in lifted[1]
            ]
            if _annihilates(int_rows, basis):
                return free, basis
        if unlucky * unlucky > bound or modulus > 2 * bound:
            raise InternalConsistencyError(
                f"no certified kernel of the {len(int_rows)}x{ncols} system "
                f"(quotient by its ties {len(quotient)}x{len(classes)}) within "
                "its Hadamard bound"
            )


def _rank(vectors: list[dict]) -> int:
    """Rank over Q of sparse vectors: the number of nonzero vectors less the
    dimension of the certified space of linear relations among them."""
    vecs = [v for v in vectors if any(v.values())]
    relations: dict = {}
    for j, v in enumerate(vecs):
        for i, x in v.items():
            if x:
                relations.setdefault(i, {})[j] = x
    return len(vecs) - len(_reduced_kernel(list(relations.values()), len(vecs))[1])


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

    The nonzero vectors are inserted one at a time, in increasing order of
    (least nonzero row, number of nonzero entries): the form is canonical,
    so the order cannot change it, and this one fills the early pivot rows
    first with the sparsest vectors, which leaves less to reduce.  At its
    least nonzero row a vector is reduced by the column with its pivot
    there: exactly if the pivot divides the entry, and otherwise by extended
    gcd, which leaves the gcd as the pivot and a remainder that is zero on
    that row.  A vector that reaches a row with no column becomes a new
    column.  After each change to a column the echelon is made reduced
    again, every entry at a later pivot row in ``[0, pivot)``, so that later
    vectors stay sparse and entries do not grow; at the end it is the
    canonical form.

    With ``modulus`` D > 0 the span is that of the vectors and D Z^dim: the
    columns start as D times the unit vectors, and every entry below the row
    being worked on is kept modulo D (modulo-determinant arithmetic, as in
    Domich, Kannan and Trotter 1987).  That is exact: the columns with later
    pivots are not touched by then, and they span D Z^dim on those rows.
    """
    cols = {i: {i: modulus} for i in range(dim)} if modulus else {}
    for v in sorted((v for v in vectors if v), key=lambda v: (min(v), len(v))):
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


def _saturate(basis: list[dict], free: list[int], scale: list[int], modulus: int):
    """The lattice basis of the integer vectors in the rational span of the
    reduced ``basis`` (see ``kernel``), as sparse vectors: the Hermite
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


# -- span comparison over Q and Z ---------------------------------------------


def span_equal(vs: list[dict], ws: list[dict], over: str = "Q") -> bool:
    """Whether two families of sparse vectors, keyed by any sortable labels,
    have the same span: the same Q-vector space (``over="Q"``, compared by
    rank) or the same lattice (``over="Z"``).  The vectors are left
    unchanged.

    Over Z the spans are compared by their canonical column Hermite normal
    forms (see ``_hermite``), with the labels numbered in sorted order: the
    columns in increasing order of pivot row, each zero above its pivot, the
    pivot positive, and every earlier column's entry in that row reduced
    into ``[0, pivot)``.  Two families span the same lattice exactly when
    these forms are equal; the rank is the number of columns.
    """
    if over == "Z":
        labels = sorted({k for v in vs + ws for k in v})
        index = {k: i for i, k in enumerate(labels)}

        def hnf(family):
            # copies, as _hermite consumes its vectors
            vectors = [{index[k]: x for k, x in v.items() if x} for v in family]
            return _hermite(vectors, len(labels))

        return hnf(vs) == hnf(ws)
    rank = _rank(vs)
    return rank == _rank(ws) and _rank(vs + ws) == rank


# -- primitive characters ------------------------------------------------------


def require_primitive(alpha: Vec) -> None:
    """Raise :class:`NonPrimitiveCharacterError` unless the entries of
    ``alpha`` have gcd 1."""
    if content(alpha) != 1:
        raise NonPrimitiveCharacterError(
            f"character {tuple(alpha)} is not primitive; divisibility by its "
            "class is defined only for primitive characters"
        )
