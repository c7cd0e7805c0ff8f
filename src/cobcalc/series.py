"""Truncated graded power series with explicit precision tracking.

A :class:`GradedSeries` is a finite sum of terms ``c * b^k * t^e`` with
``t^e = t1^e1 ... tn^en``, ``b^k`` a monomial in the coefficient generators
``b1, b2, ...`` and ``c`` a nonzero int or Fraction.
``b_i`` has cohomological degree ``-i``, and the *weight* of ``b^k`` is
``sum(i * k_i)``.

Each series stores its terms as one flat dict ``{packed key: value}``.  A key
packs the exponents of its monomial into one int (Kronecker substitution), in
bit fields from high to low: the t-degree, the t-exponents t1..tn, the
b-weight under a guard bit, and the b-exponents b1..bB.  The field widths make
a :class:`_Layout`: a t-exponent field holds every degree through the
precision or beyond, the weight field holds a bound B, at least precision + 1
and at least the largest weight, and the field of b_i holds ``B // i``.  So
the key of a product of two monomials is the sum of their keys, a term lies
within precision p exactly when its key is below ``(p + 1) << dshift``, and
keys sort by (t-degree, t-exponents, weight, b-exponents).  A constructor
packs a series in the narrowest layout for nvars, its precision and its
largest b-weight; every operation returns its result in the layout it computed
in, one that holds the keys of its inputs, so a chain of operations that each
lose a degree never moves its terms to another layout.  A product whose
b-weight would pass B sets the guard bit instead of carrying into the
t-exponents; the operation is then redone in a layout with a wider weight
field, and a weight above :data:`MAX_WEIGHT` raises
:class:`InternalConsistencyError`.  Only this module reads keys: other code
uses the tuple view (:meth:`GradedSeries.from_terms`,
:meth:`GradedSeries.items`) or the opaque labels of
:meth:`GradedSeries.coords`.

Only terms of total t-degree at most ``precision`` are stored, and
``precision`` records through which degree the stored terms agree with the
untruncated object.  All operations are pure and every output precision is a
fixed function of the input precisions:

==================  ======================================
add / sub           min of the inputs
mul                 min of the inputs
substitute          min over the series and all images
divide_exact(f, g)  min(prec f, prec g) - order(g)
remainder(f, g)     min(prec f, prec g)
divided difference  min(prec f, prec images) - 1
==================  ======================================

The divided difference is ``(f - s(f)) / x_chi``, with x_chi (of order 1)
at the precision of the images of s; it, the remainder modulo x_chi and the
substitution are memoised per t-monomial by :class:`MonomialMap`.

Comparing two series of different precision raises
:class:`PrecisionMismatchError`; truncate explicitly first.  This is what
keeps degree loss in long operator chains visible instead of silently
producing false equalities.

A series is homogeneous of (cohomological) degree ``m`` when every term
satisfies ``t-degree - weight(b-part) == m``.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from operator import mul

from .errors import (
    ConstantTermError,
    IndexOutOfRangeError,
    InternalConsistencyError,
    NotDivisibleError,
    NVarsMismatchError,
    PrecisionExhaustedError,
    PrecisionMismatchError,
    PrecisionTooLargeError,
)

# Narrowest field width; it serves every precision through 14 and every
# b-weight through 15.
_MIN_WIDTH = 4
# Field width 10: a key has about 1,600 bits there, and more would only slow
# a computation that is out of reach anyway.
_MAX_WIDTH = 10
MAX_PRECISION = (1 << _MAX_WIDTH) - 2
MAX_WEIGHT = (1 << _MAX_WIDTH) - 1
# The largest series that keeps a sorted copy of its terms for products.
_KEEP_SORTED = 256


class _Overflow(Exception):
    """A b-weight passed the bound of the layout at hand; the operation is
    redone in a wider one."""


class _Layout:
    """The bit fields of a packed key in ``nvars`` variables: t-exponent
    fields of width ``tw``, which hold every degree through ``2^tw - 2``, and
    a weight field of width ``bw`` under a guard bit, which holds every
    b-weight through ``bound``; the field of b_i holds ``bound // i``."""

    __slots__ = (
        "nvars", "tw", "bw", "bound", "tmask", "bfields", "blast", "bexps",
        "wshift", "wfield", "wlimit", "guard", "tshift", "bmask", "tfields",
        "dshift", "tunits", "bunits",
    )

    def __init__(self, nvars: int, tw: int, bw: int):
        self.nvars = nvars
        self.tw = tw
        self.bw = bw
        self.tmask = (1 << tw) - 1
        bound = self.bound = (1 << bw) - 1
        # b_bound in the lowest bits, b_1 just below the weight
        shift = 0
        fields = []
        self.blast: list[int] = []  # bit position -> count of b-fields to read
        for i in range(bound, 0, -1):
            w = (bound // i).bit_length()
            fields.append((shift, (1 << w) - 1))
            self.blast.extend([i] * w)
            shift += w
        fields.reverse()
        self.bfields = fields  # bfields[i - 1] = (shift, mask) of b_i
        self.bexps = (1 << shift) - 1
        self.wshift = shift
        self.wfield = bound << shift
        self.wlimit = (bound + 1) << shift
        self.guard = 1 << (shift + bw)
        self.tshift = shift + bw + 1
        self.bmask = (1 << self.tshift) - 1
        self.tfields = [self.tshift + (nvars - 1 - j) * tw for j in range(nvars)]
        self.dshift = self.tshift + nvars * tw
        # the keys of t_j and of b_i, weight included
        self.tunits = [(1 << self.dshift) | (1 << s) for s in self.tfields]
        self.bunits = [(i << shift) | (1 << s) for i, (s, _) in enumerate(fields, 1)]

    def pack(self, t, b) -> int:
        """The key of ``b^b * t^t``; ``t`` must have degree at most ``2^tw - 2``.
        Raises :class:`_Overflow` when the b-weight passes the bound."""
        return sum(map(mul, t, self.tunits)) + (self.pack_b(b) if b else 0)

    def pack_b(self, b) -> int:
        """The b-part of a key; raises :class:`_Overflow` when the b-weight
        passes the bound."""
        # exact while the weight fits: each b_i then fits its field
        kb = sum(map(mul, b, self.bunits))
        if kb >= self.wlimit or any(b[len(self.bunits):]):
            raise _Overflow
        return kb

    def unpack(self, key: int) -> tuple[tuple, tuple]:
        """The t-exponent tuple and the trimmed b-exponent tuple of a key."""
        m = self.tmask
        t = tuple([(key >> s) & m for s in self.tfields])
        kb = key & self.bexps
        if not kb:
            return t, ()
        n = self.blast[(kb & -kb).bit_length() - 1]
        return t, tuple([(key >> s) & f for s, f in self.bfields[:n]])

    def weight(self, terms: dict) -> int:
        """The largest b-weight among the keys of ``terms``."""
        return _wmax(terms, self) >> self.wshift


_LAYOUTS: dict = {}


def _widths(nvars: int, tw: int, bw: int) -> _Layout:
    lay = _LAYOUTS.get((nvars, tw, bw))
    if lay is None:
        lay = _LAYOUTS[(nvars, tw, bw)] = _Layout(nvars, tw, bw)
    return lay


_NARROWEST: dict = {}  # (nvars, precision) -> the layout of b-weight 0


def _layout(nvars: int, precision: int, weight: int = 0) -> _Layout:
    """The narrowest layout of series of this precision and largest b-weight."""
    lay = _NARROWEST.get((nvars, precision))
    if lay is not None and weight <= lay.bound:
        return lay
    if precision > MAX_PRECISION:
        raise PrecisionTooLargeError(
            f"precision {precision} is above the supported {MAX_PRECISION}"
        )
    if weight > MAX_WEIGHT:
        raise ValueError(f"b-weight {weight} is above the supported {MAX_WEIGHT}")
    tw = max(_MIN_WIDTH, (precision + 1).bit_length())
    if lay is None:
        lay = _NARROWEST[(nvars, precision)] = _widths(nvars, tw, tw)
    return _widths(nvars, tw, max(tw, weight.bit_length()))


def _common(a: _Layout, b: _Layout, weight: int = 0) -> _Layout:
    """A layout holding the keys of both, and b-weights through ``weight``."""
    bw = max(a.bw, b.bw, weight.bit_length())
    if bw > _MAX_WIDTH:
        raise InternalConsistencyError(
            f"a b-weight of {weight} is above the supported {MAX_WEIGHT}"
        )
    return _widths(a.nvars, max(a.tw, b.tw), bw)


def _repack(terms: dict, src: _Layout, dst: _Layout) -> dict:
    """``terms`` moved from layout ``src`` to ``dst``, which must hold their
    degrees and weights."""
    if src is dst:
        return terms
    out = {}
    for k, v in terms.items():
        out[dst.pack(*src.unpack(k))] = v
    return out


def _pair(a: "GradedSeries", b: "GradedSeries") -> tuple:
    """A layout holding both series, and their terms in it."""
    lay = a.layout
    if b.layout is lay:
        return lay, a.packed, b.packed
    lay = _common(lay, b.layout)
    return lay, a.packed_in(lay), b.packed_in(lay)


def _wmax(keys, lay: _Layout) -> int:
    """The largest weight field among ``keys``, in place."""
    return max(map(lay.wfield.__and__, keys), default=0)


def _check_weights(k1: int, keys, lim: int, lay: _Layout) -> None:
    guard = lay.guard
    for k2 in keys:
        if k2 >= lim:
            break
        if (k1 + k2) & guard:
            raise _Overflow


def _product(a, b: list, bw: int, lim: int, lay: _Layout) -> dict:
    """The terms below key ``lim`` of the product of the (key, value) pairs
    ``a`` and the key-sorted list of pairs ``b``, whose largest weight field
    is ``bw``.  Raises :class:`_Overflow` before a kept product passes the
    weight bound."""
    out: dict = {}
    if not b:
        return out
    get = out.get
    wfield = lay.wfield
    room = wfield - bw
    low = b[0][0]
    for k1, v1 in a:
        lim1 = lim - k1
        if low >= lim1:
            continue
        if k1 & wfield > room:
            _check_weights(k1, (k for k, _ in b), lim1, lay)
        for k2, v2 in b:
            if k2 >= lim1:
                break
            k = k1 + k2
            s = get(k, 0) + v1 * v2
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _coeff_str(c: dict) -> str:
    bits = []
    for k in sorted(c):
        v = c[k]
        mono = "*".join(
            f"b{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(k) if e
        )
        bits.append(f"{v}" if not mono else f"{v}*{mono}" if v != 1 else mono)
    return " + ".join(bits)


def _natural(x, what: str) -> int:
    if type(x) is not int or x < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {x!r}")
    return x


def _weight(b) -> int:
    """The weight ``sum(i * b_i)`` of a b-exponent tuple."""
    return sum(map(mul, range(1, len(b) + 1), b))


def _pack_terms(terms: dict, nvars: int, precision: int, lay: _Layout) -> dict:
    """The packed terms of :meth:`GradedSeries.from_terms`."""
    out: dict = {}
    get = out.get
    units = lay.tunits
    for e, c in terms.items():
        if len(e) != nvars or sum(e) > precision:
            raise ValueError(
                f"t-exponent {e} is not of {nvars} entries and degree at most {precision}"
            )
        base = sum(map(mul, e, units))
        for b, v in c.items():
            if v:
                k = base + lay.pack_b(b) if b else base
                s = get(k, 0) + v
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


class GradedSeries:
    """A truncated graded series (see the module docstring).  ``packed``,
    the terms by key, and ``layout``, the bit fields of the keys, belong to
    this module: other code uses the tuple view or :meth:`coords`."""

    __slots__ = ("nvars", "precision", "layout", "packed", "_sort")

    def __init__(self, nvars: int, precision: int, lay: _Layout, terms: dict):
        # Trusts canonical input: keys in ``lay``, a layout of nvars whose
        # fields hold the precision and the largest b-weight, no zero values,
        # t-degrees <= precision.  Constructors take the narrowest such
        # layout; an operation keeps the one it computed in.  Outside this
        # module build series with from_terms.
        self.nvars = nvars
        self.precision = precision
        self.layout = lay
        self.packed = terms
        self._sort = None

    def packed_in(self, lay: _Layout) -> dict:
        return _repack(self.packed, self.layout, lay)

    def packed_sorted(self) -> tuple:
        """The largest weight field and the key-sorted (key, value) pairs.
        A series of at most ``_KEEP_SORTED`` terms keeps them from the
        second call on, for one that multiplies many others, like a
        character class; for a larger one the product's own work dwarfs
        the sort, and the copy would cost 64 bytes a term."""
        got = self._sort
        if got:
            return got
        pair = (_wmax(self.packed, self.layout), sorted(self.packed.items()))
        if got is None:
            self._sort = False
        elif len(pair[1]) <= _KEEP_SORTED:
            self._sort = pair
        return pair

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(nvars: int, precision: int) -> "GradedSeries":
        lay = _NARROWEST.get((nvars, precision)) or _layout(nvars, precision)
        return GradedSeries(nvars, precision, lay, {})

    @staticmethod
    def constant(c, nvars: int, precision: int) -> "GradedSeries":
        """The constant series of the number ``c``."""
        lay = _layout(nvars, precision)
        return GradedSeries(nvars, precision, lay, {0: c} if c else {})

    @staticmethod
    def variable(i: int, nvars: int, precision: int) -> "GradedSeries":
        """The series ``t_{i+1}`` (zero-based index ``i``)."""
        if not 0 <= i < nvars:
            raise IndexOutOfRangeError(f"variable index {i} out of range")
        lay = _layout(nvars, precision)
        terms = {lay.tunits[i]: 1} if precision >= 1 else {}
        return GradedSeries(nvars, precision, lay, terms)

    @staticmethod
    def from_terms(nvars: int, precision: int, terms: dict) -> "GradedSeries":
        """The series ``sum v * b^k * t^e`` over ``terms = {e: {k: v}}``, with
        t-exponent tuples e of length nvars and degree at most ``precision``
        and b-exponent tuples k (trailing zeros allowed).  Zero values are
        dropped.  Raises ``ValueError`` on a term above the precision or a
        b-weight above :data:`MAX_WEIGHT`."""
        lay = _layout(nvars, precision)
        try:
            packed = _pack_terms(terms, nvars, precision, lay)
        except _Overflow:
            weight = max(_weight(b) for c in terms.values() for b, v in c.items() if v)
            lay = _layout(nvars, precision, weight)
            packed = _pack_terms(terms, nvars, precision, lay)
        return GradedSeries(nvars, precision, lay, packed)

    # -- tuple view ---------------------------------------------------------

    def items(self):
        """The terms as ``(t-exponent tuple, trimmed b-exponent tuple,
        value)`` triples, in no particular order."""
        unpack = self.layout.unpack
        for k, v in self.packed.items():
            t, b = unpack(k)
            yield t, b, v

    def coords(self, precision: int) -> dict:
        """The terms as sparse coordinates ``{label: value}``.  A label is
        an opaque int naming the monomial; labels sort, and they agree
        between series of one nvars taken at one ``precision`` (at least the
        series' own), as long as their b-weights are at most precision + 1."""
        lay = _layout(self.nvars, precision)
        try:
            return dict(self.packed_in(lay))
        except _Overflow:
            raise ValueError(
                f"a b-weight above {lay.bound} has no label at precision {precision}"
            ) from None

    @staticmethod
    def from_coords(nvars: int, precision: int, coords: dict) -> "GradedSeries":
        """The series with these coordinates: the inverse of
        :meth:`coords` taken at ``precision``.  Zero values are dropped."""
        lay = _layout(nvars, precision)
        if coords and not 0 <= min(coords) <= max(coords) < (precision + 1) << lay.dshift:
            raise ValueError(f"a label is not one of precision {precision}")
        return GradedSeries(
            nvars, precision, lay, {k: v for k, v in coords.items() if v}
        )

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def order(self) -> int | None:
        """Lowest t-degree of a nonzero term, or None for the zero series."""
        if not self.packed:
            return None
        return min(self.packed) >> self.layout.dshift

    def t_component(self, k: int) -> "GradedSeries":
        """The terms of t-degree k, at the precision of the series."""
        d = self.layout.dshift
        low, high = k << d, (k + 1) << d
        terms = {e: v for e, v in self.packed.items() if low <= e < high}
        return GradedSeries(self.nvars, self.precision, self.layout, terms)

    def homogeneous_degree(self) -> int | None:
        """The common cohomological degree of all terms, or None if mixed.

        The zero series reports degree 0 by convention.
        """
        lay = self.layout
        d, w, m = lay.dshift, lay.wshift, lay.bound
        degs = {(k >> d) - ((k >> w) & m) for k in self.packed}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSeries):
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
        _, a, b = _pair(self, other)
        return a == b

    __hash__ = None

    def equals_truncated(self, other: "GradedSeries", d: int | None = None) -> bool:
        """Compare at the overlap precision (or an explicit ``d``)."""
        if d is None:
            d = min(self.precision, other.precision)
        return self.truncate(d) == other.truncate(d)

    # -- ring operations ---------------------------------------------------

    def truncate(self, d: int) -> "GradedSeries":
        d = min(d, self.precision)
        if d == self.precision:
            return self
        lim = (d + 1) << self.layout.dshift
        terms = {k: v for k, v in self.packed.items() if k < lim}
        return GradedSeries(self.nvars, d, self.layout, terms)

    def __add__(self, other: "GradedSeries", negate: bool = False) -> "GradedSeries":
        if self.nvars != other.nvars:
            raise NVarsMismatchError("add: nvars mismatch")
        p = min(self.precision, other.precision)
        lay, a, b = _pair(self, other)
        lim = (p + 1) << lay.dshift
        out = dict(a) if self.precision == p else {k: v for k, v in a.items() if k < lim}
        get = out.get
        for k, v in b.items():
            if k < lim:
                s = get(k, 0) - v if negate else get(k, 0) + v
                if s:
                    out[k] = s
                else:
                    del out[k]
        return GradedSeries(self.nvars, p, lay, out)

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self.__add__(other, True)

    def __neg__(self) -> "GradedSeries":
        return GradedSeries(
            self.nvars,
            self.precision,
            self.layout,
            {k: -v for k, v in self.packed.items()},
        )

    def __mul__(self, other: "GradedSeries") -> "GradedSeries":
        if self.nvars != other.nvars:
            raise NVarsMismatchError("mul: nvars mismatch")
        p = min(self.precision, other.precision)
        # the outer loop runs over the shorter factor, the inner one over
        # the longer, sorted, until its keys pass the precision
        a, b = (self, other) if len(self.packed) <= len(other.packed) else (other, self)
        if not a.packed:
            return GradedSeries.zero(self.nvars, p)
        lay = b.layout
        if a.layout is lay:
            bw, pairs = b.packed_sorted()
            try:
                terms = _product(a.packed.items(), pairs, bw, (p + 1) << lay.dshift, lay)
            except _Overflow:
                pass
            else:
                return GradedSeries(self.nvars, p, lay, terms)
        # another layout, or a product past the weight bound: work in a
        # layout that holds every product of the two
        weight = a.layout.weight(a.packed) + b.layout.weight(b.packed)
        lay = _common(a.layout, b.layout, weight)
        inner = b.packed_in(lay)
        terms = _product(
            a.packed_in(lay).items(), sorted(inner.items()), _wmax(inner, lay),
            (p + 1) << lay.dshift, lay,
        )
        return GradedSeries(self.nvars, p, lay, terms)

    def scale(self, c) -> "GradedSeries":
        """Multiply by a coefficient: a number, or a ``{b-exponent: value}``
        dict."""
        if not isinstance(c, dict):
            c = {(): c}
        if self.is_zero():
            return self
        factor = GradedSeries.from_terms(
            self.nvars, self.precision, {(0,) * self.nvars: c}
        )
        return self * factor

    def __pow__(self, n: int) -> "GradedSeries":
        if n < 0:
            raise ValueError("negative power of a series")
        acc = GradedSeries.constant(1, self.nvars, self.precision)
        for _ in range(n):
            acc = acc * self
        return acc

    def specialize_b_zero(self) -> "GradedSeries":
        """Set every coefficient generator to zero (additive specialization)."""
        m = self.layout.bmask
        terms = {k: v for k, v in self.packed.items() if not k & m}
        return GradedSeries(self.nvars, self.precision, self.layout, terms)

    def rename(self, src) -> "GradedSeries":
        """The series with ``t_{src[j]+1}`` renamed ``t_{j+1}``: the
        t-exponents ``e`` of a term become ``(e[src[0]], ..., e[src[n-1]])``.
        ``src`` is a permutation of ``range(nvars)``; the identity returns
        the series itself.  Precision, layout and b-parts are kept."""
        n = self.nvars
        src = tuple(src)
        if sorted(src) != list(range(n)):
            raise ValueError(f"{src} is not a permutation of range({n})")
        lay = self.layout
        fields, m, bmask = lay.tfields, lay.tmask, lay.bmask
        moves = [(fields[s], fields[j]) for j, s in enumerate(src) if s != j]
        if not moves:
            return self
        # the moved fields are cleared, then refilled from their sources;
        # the t-degree field stays
        keep = ~sum(m << s for s, _ in moves)
        renamed: dict = {}  # t-part of a key -> that of its renamed key
        terms = {}
        for k, v in self.packed.items():
            tk = k & ~bmask
            nt = renamed.get(tk)
            if nt is None:
                nt = tk & keep
                for s, d in moves:
                    nt |= ((tk >> s) & m) << d
                renamed[tk] = nt
            terms[nt | (k & bmask)] = v
        return GradedSeries(n, self.precision, lay, terms)

    # -- substitution --------------------------------------------------------

    def substitute(self, images: list["GradedSeries"]) -> "GradedSeries":
        return Substitution(images).apply(self)

    # -- wire format ---------------------------------------------------------

    def to_json(self, ngens: int | None = None) -> dict:
        terms = sorted(self.items(), key=lambda r: (sum(r[0]), r[0], r[1]))
        if ngens is None:
            ngens = max((len(b) for _, b, _ in terms), default=0)
        rows = [
            {"b": list(b) + [0] * (ngens - len(b)), "t": list(e), "c": str(v)}
            for e, b, v in terms
        ]
        return {"nvars": self.nvars, "precision": self.precision, "terms": rows}

    @staticmethod
    def from_json(obj: dict) -> "GradedSeries":
        """Parse the wire format; raises ``ValueError`` on a malformed value
        (``KeyError``/``TypeError`` on a missing key or a non-object)."""
        nvars = _natural(obj["nvars"], "nvars")
        precision = _natural(obj["precision"], "precision")
        terms: dict = {}
        for row in obj["terms"]:
            t, b, c = row["t"], row["b"], row["c"]
            if not isinstance(t, list) or len(t) != nvars:
                raise ValueError(f"t-exponent {t!r} does not have {nvars} entries")
            if not isinstance(b, list) or not isinstance(c, str):
                raise ValueError(f"malformed term {row!r}")
            e = [_natural(x, "a t-exponent entry") for x in t]
            if sum(e) > precision:
                raise ValueError(f"term {t} lies above precision {precision}")
            try:
                v = Fraction(c) if "/" in c else int(c)
            except ZeroDivisionError:
                raise ValueError(f"coefficient {c!r} has a zero denominator") from None
            bexp = tuple(_natural(x, "a b-exponent entry") for x in b)
            c = terms.setdefault(tuple(e), {})
            c[bexp] = c.get(bexp, 0) + v
        try:
            return GradedSeries.from_terms(nvars, precision, terms)
        except PrecisionTooLargeError as exc:
            raise ValueError(str(exc)) from None

    def __repr__(self):
        if not self.packed:
            return f"<0 (nvars={self.nvars}, prec={self.precision})>"
        by_t: dict = {}
        for e, b, v in self.items():
            by_t.setdefault(e, {})[b] = v
        bits = []
        for e in sorted(by_t, key=lambda e: (sum(e), e)):
            mono = "*".join(
                f"t{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            )
            c = _coeff_str(by_t[e])
            cs = c if "+" not in c else f"({c})"
            bits.append(cs if not mono else f"{cs}*{mono}" if c != "1" else mono)
        return f"<{' + '.join(bits)} + O(deg {self.precision + 1})>"


def _image(terms: dict, lay: _Layout) -> tuple:
    """A memoised monomial image: its largest weight field, its keys in
    ascending order and their values, in two lists (16 bytes a term, where
    a list of pairs takes 64)."""
    keys = sorted(terms)
    return _wmax(keys, lay), keys, [terms[k] for k in keys]


def _sum_images(
    terms: dict, in_lay: _Layout, p: int, memo: dict, compute, lay: _Layout, top: int
) -> dict:
    """The terms of ``sum c * image(e)`` over the terms ``c * t^e`` of
    ``terms`` (in ``in_lay``) of degree at most ``p``, keeping the output
    terms of degree at most ``top``: the image of a series under a map that
    is linear over the coefficient ring and given on t-monomials.  The image
    of the t-part e is ``memo[e]`` or else ``compute(e)``, as made by
    :func:`_image`, in ``lay``, which has the b-fields of ``in_lay``.
    Raises :class:`_Overflow` before a kept term passes the weight bound."""
    acc: dict = {}
    get = acc.get
    flim = (p + 1) << in_lay.dshift
    tshift, bmask = in_lay.tshift, in_lay.bmask
    lim = (top + 1) << lay.dshift
    wfield = lay.wfield
    for k, v in terms.items():
        if k >= flim:
            continue
        tp = k >> tshift
        got = memo.get(tp)
        if got is None:
            got = compute(tp)
        iw, ik, iv = got
        kb = k & bmask
        lim1 = lim - kb
        if (kb & wfield) + iw > wfield:
            _check_weights(kb, ik, lim1, lay)
        for ki, vi in zip(ik, iv):
            if ki >= lim1:
                break
            key = ki + kb
            s = get(key, 0) + vi * v
            if s:
                acc[key] = s
            else:
                del acc[key]
    return acc


class MonomialMap:
    """A map ``f -> op(f)`` from series in ``nvars_in`` variables to series
    in ``nvars_out``, linear over the coefficient ring and memoised on
    t-monomials: the substitution (:class:`Substitution`), the divided
    difference ``(f - s(f)) / x_chi`` and the remainder modulo x_chi (see
    :meth:`FGLContext.divided_difference` and :meth:`FGLContext.remainder_map`).

    ``op`` takes a series to one whose precision is ``drop`` below
    ``min(its own, precision)``; it must commute with truncation and with
    scaling by b-monomials and numbers.  :meth:`apply` computes the image of
    each t-monomial ``t^e`` once, at ``precision``, and memoises it by the
    packed t-part in the input layout of that precision, as a key-sorted
    list in the output layout of that precision.  It sums the coefficients
    of f times the images of its monomials, each sum stopping at its first
    key past the output precision, and returns the result in that output
    layout.  Truncation commutes with op, so one memo serves every input
    precision: an input in another layout is truncated and repacked into the
    memo's.  When op raises :class:`NotDivisibleError` on a monomial (as for
    a difference whose s is not the reflection in chi), and for an input in
    other variables, a term whose b-weight would pass the layout's bound or
    no precision left, :meth:`apply` returns ``op(f)`` instead, so an error
    is the one that op raises on the whole series.
    """

    def __init__(
        self, op, nvars_in: int, nvars_out: int, precision: int, drop: int
    ):
        self.op = op
        self.nvars_in = nvars_in
        self.nvars_out = nvars_out
        self.precision = precision
        self.drop = drop
        # the t-parts of input keys in _lay_in name the memo entries; the
        # images are in _lay, which has the same b-fields
        self._lay_in = _layout(nvars_in, precision)
        self._lay = _layout(nvars_out, precision)
        self._memo: dict = {}

    def _monomial_image(self, tp: int) -> tuple:
        lay_in, lay = self._lay_in, self._lay
        t, _ = lay_in.unpack(tp << lay_in.tshift)
        mono = GradedSeries.from_terms(self.nvars_in, self.precision, {t: {(): 1}})
        img = self.op(mono)
        got = self._memo[tp] = _image(img.packed_in(lay), lay)
        return got

    def apply(self, f: GradedSeries) -> GradedSeries:
        p = min(f.precision, self.precision)
        top = p - self.drop
        lay_in = self._lay_in
        if f.nvars == self.nvars_in and top >= 0:
            try:
                terms = f.packed
                if f.layout is not lay_in:
                    terms = f.truncate(p).packed_in(lay_in)
                terms = _sum_images(
                    terms, lay_in, p, self._memo, self._monomial_image, self._lay, top
                )
            except (NotDivisibleError, _Overflow):
                pass
            else:
                return GradedSeries(self.nvars_out, top, self._lay, terms)
        return self.op(f)


class Substitution(MonomialMap):
    """Simultaneous substitution ``t_i -> images[i]``: a :class:`MonomialMap`
    whose op is the slow road of series products, term by term.

    Every image must have positive order so that degree-``d`` output terms
    only depend on degree-``<= d`` input terms.  The image of a monomial is
    that of a memoised monomial of one degree less times one image, so
    reusing one Substitution across many series amortises the series
    products; :meth:`FGLContext.substitution` keeps one per tuple of
    characters for that reason.  An image whose b-weights do not fit the
    memo's layout sends every call to the slow road.
    """

    def __init__(self, images: list[GradedSeries]):
        if not images:
            raise NVarsMismatchError("substitution needs at least one image")
        m = images[0].nvars
        for img in images:
            if img.nvars != m:
                raise NVarsMismatchError("substitution images disagree on nvars")
            if img.order() == 0:
                raise ConstantTermError("substitution image has a constant term")
        self.images = list(images)
        p = min(img.precision for img in images)
        super().__init__(self._products, len(images), m, p, 0)
        lay = self._lay
        try:
            self._factors = [
                GradedSeries(m, p, lay, img.truncate(p).packed_in(lay))
                for img in images
            ]
        except _Overflow:
            self._factors = None
        else:
            self._memo[0] = (0, [0], [1])

    # perfbench/spans.py wraps the methods in a class's own __dict__; naming
    # apply here keeps a span on substitutions apart from the other maps
    apply = MonomialMap.apply

    def _monomial_image(self, tp: int) -> tuple:
        if self._factors is None:
            raise _Overflow
        lay_in, lay = self._lay_in, self._lay
        shift, m = lay_in.tshift, lay_in.tmask
        i = next(j for j, s in enumerate(lay_in.tfields) if (tp >> (s - shift)) & m)
        prev = tp - (lay_in.tunits[i] >> shift)
        got = self._memo.get(prev)
        if got is None:
            got = self._monomial_image(prev)
        img = GradedSeries(
            self.nvars_out, self.precision, lay, dict(zip(got[1], got[2]))
        ) * self._factors[i]
        if img.layout is not lay:
            raise _Overflow
        got = self._memo[tp] = _image(img.packed, lay)
        return got

    def _products(self, f: GradedSeries) -> GradedSeries:
        if f.nvars != self.nvars_in:
            raise NVarsMismatchError(
                f"series has {f.nvars} variables, substitution expects {self.nvars_in}"
            )
        p = min(f.precision, self.precision)
        out = GradedSeries.zero(self.nvars_out, p)
        one = (0,) * self.nvars_out
        for t, b, v in f.truncate(p).items():
            term = GradedSeries.from_terms(self.nvars_out, p, {one: {b: v}})
            for img, e in zip(self.images, t):
                for _ in range(e):
                    term = term * img
            out = out + term
        return out


# -- exact division ----------------------------------------------------------


class Divisor:
    """A nonzero series g prepared for use as the divisor of
    :func:`divide_exact` and :func:`remainder`: its order, the leading term
    of its lowest component (greatest t-exponent in lex order), the other
    terms of that component, and the higher terms grouped by t-degree, each
    as ``(t-part, {b-part: value})`` pairs of packed keys in ``layout``.
    The leading coefficient must be one b-monomial, as for every character
    class x_chi and the denominator of kappa; any other raises
    ``ValueError``.  Preparing once pays off when one series divides many
    numerators, as each character class x_chi does."""

    __slots__ = (
        "series", "layout", "nvars", "precision", "order", "lead_t", "lead_nz",
        "lead_b", "lead_bnz", "lead_v", "rest", "high",
    )

    def __init__(self, g: GradedSeries, lay: _Layout | None = None):
        if g.is_zero():
            raise ZeroDivisionError("division by the zero series")
        lay = lay or g.layout
        tshift, bmask = lay.tshift, lay.bmask
        dshift = lay.dshift - tshift
        groups: dict = {}
        for k, v in g.packed_in(lay).items():
            groups.setdefault(k >> tshift, {})[k & bmask] = v
        m = min(groups) >> dshift
        low = {e: c for e, c in groups.items() if e >> dshift == m}
        self.series = g
        self.layout = lay
        self.nvars = g.nvars
        self.precision = g.precision
        self.order = m
        self.lead_t = max(low)
        self.lead_nz = [
            (s - tshift, y)
            for s in lay.tfields
            if (y := (self.lead_t >> (s - tshift)) & lay.tmask)
        ]
        lead_c = low[self.lead_t]
        if len(lead_c) != 1:
            raise ValueError(
                "a divisor's leading coefficient must be one b-monomial times a number"
            )
        ((self.lead_b, self.lead_v),) = lead_c.items()
        self.lead_bnz = [
            (s, mask, y) for s, mask in lay.bfields if (y := (self.lead_b >> s) & mask)
        ]
        self.rest = [(e, c) for e, c in low.items() if e != self.lead_t]
        by_degree: dict = {}
        for e, c in groups.items():
            if e >> dshift > m:
                by_degree.setdefault(e >> dshift, []).append((e, c))
        self.high = sorted(by_degree.items())

    def quotient_b(self, b: int) -> int | None:
        """``b - lead_b`` for packed b-parts, or None when the leading
        b-monomial does not divide ``b``."""
        for s, mask, y in self.lead_bnz:
            if (b >> s) & mask < y:
                return None
        return b - self.lead_b

    def quotient_value(self, v):
        """``v / lead_v``: an int when it is one, else a Fraction."""
        q, r = divmod(v, self.lead_v)
        return Fraction(v, self.lead_v) if r else q


def _add_product(group: dict, e: int, c1: dict, c2: dict, guard: int) -> None:
    """``group[e] += c1 * c2`` for coefficients ``{b-part: value}``,
    dropping zero values and an emptied coefficient.  Raises
    :class:`_Overflow` when a product passes the weight bound."""
    acc = group.get(e)
    if acc is None:
        acc = group[e] = {}
    get = acc.get
    for k1, v1 in c1.items():
        for k2, v2 in c2.items():
            k = k1 + k2
            if k & guard:
                raise _Overflow
            s = get(k, 0) + v1 * v2
            if s:
                acc[k] = s
            else:
                del acc[k]
    if not acc:
        del group[e]


def _prepared(f: GradedSeries, g: GradedSeries | Divisor) -> Divisor:
    if f.nvars != g.nvars:
        raise NVarsMismatchError("divide: nvars mismatch")
    return g if isinstance(g, Divisor) else Divisor(g)


def divide_exact(f: GradedSeries, g: GradedSeries | Divisor) -> GradedSeries:
    """Return q with ``q * g == f`` through degree ``min(prec f, prec g) - order(g)``.

    ``g`` is a series or a :class:`Divisor` prepared from one, whose leading
    coefficient is one b-monomial.  The numerator is bucketed by t-degree
    and grouped by t-exponent once, and each homogeneous component is
    long-divided by the lowest component of g, leading t-exponent first in
    lex order, one whole coefficient a step.  That is a monomial order, so
    in the domain Q[t, b] the division succeeds exactly when it is exact,
    and the first failing step certifies non-divisibility.  A quotient value
    is an int wherever the leading value divides it, so integral quotients
    keep int coefficients.  :class:`NotDivisibleError` carries its degree:
    the lowest degree at which f minus (quotient so far) * g has a component
    that the lowest component of g does not divide.
    """
    div = _prepared(f, g)
    horizon = min(f.precision, div.precision)
    out_prec = horizon - div.order
    if out_prec < 0:
        raise PrecisionExhaustedError(
            "no precision left to divide by an order-%d series" % div.order
        )
    if f.is_zero():
        return GradedSeries.zero(f.nvars, out_prec)
    lay, q_terms, _ = _divide(f, div, horizon, True)
    return GradedSeries(f.nvars, out_prec, lay, q_terms)


def remainder(f: GradedSeries, g: GradedSeries | Divisor) -> GradedSeries:
    """The remainder r of the long division of f by g (see
    :func:`divide_exact`) through degree ``min(prec f, prec g)``, where it
    keeps each term that the leading term of g does not divide: f - r is
    the quotient times g through that degree, and no term of r is divisible
    by the leading term.  When the leading coefficient of g is a number,
    as for x_chi, whose lowest component is linear, r is the normal form of
    f modulo g: unique, linear over the coefficient ring, and zero exactly
    when g divides f."""
    div = _prepared(f, g)
    horizon = min(f.precision, div.precision)
    if f.is_zero():
        return GradedSeries.zero(f.nvars, horizon)
    lay, _, r_terms = _divide(f, div, horizon, False)
    return GradedSeries(f.nvars, horizon, lay, r_terms)


def _divide(f: GradedSeries, div: Divisor, horizon: int, exact: bool) -> tuple:
    """The layout and the quotient and remainder terms of :func:`_long_divide`,
    in a layout holding f and the divisor, redone in a wider one while a
    partial product passes the weight bound."""
    lay = div.layout
    if f.layout is not lay:
        lay = _common(f.layout, lay)
    while True:
        if div.layout is not lay:
            div = Divisor(div.series, lay)
        try:
            return (lay, *_long_divide(f.packed_in(lay), div, horizon, exact))
        except _Overflow:
            lay = _common(lay, lay, 1 << lay.bw)


def _long_divide(terms: dict, div: Divisor, horizon: int, exact: bool) -> tuple:
    """The quotient and remainder terms of the long division of ``terms``
    (in the divisor's layout) through degree ``horizon``.  A term that the
    leading term of the divisor does not divide goes to the remainder, or,
    when ``exact``, raises :class:`NotDivisibleError` at its degree."""
    lay = div.layout
    m = div.order
    tshift, bmask, guard = lay.tshift, lay.bmask, lay.guard
    dshift = lay.dshift - tshift
    # buckets[d] maps each t-part of degree d to its coefficient {b-part: value}
    buckets: list[dict] = [{} for _ in range(horizon + 1)]
    for k, v in terms.items():
        e = k >> tshift
        d = e >> dshift
        if d <= horizon:
            c = buckets[d].get(e)
            if c is None:
                c = buckets[d][e] = {}
            c[k & bmask] = v
    lead_t, lead_nz, tmask = div.lead_t, div.lead_nz, lay.tmask
    rest, high = div.rest, div.high
    q_terms: dict = {}
    r_terms: dict = {}
    for degree in range(horizon + 1):
        num = buckets[degree]
        if not num:
            continue
        dq = degree - m
        targets = [(buckets[dq + d], terms) for d, terms in high if dq + d <= horizon]
        # t-parts still to divide, ascending: subtracting a quotient term
        # times g adds only t-parts below the current one, so a divided
        # t-part is never touched again.  A t-part whose coefficient
        # cancelled is skipped when reached.
        pending = sorted(num)
        while pending:
            e = pending.pop()
            c = num.pop(e, None)
            if c is None:
                continue
            # below the divisor's order no t-part is divisible
            if any((e >> s) & tmask < y for s, y in lead_nz):
                if exact:
                    raise NotDivisibleError(
                        f"leading term not divisible at degree {degree}", degree=degree
                    )
                base = e << tshift
                for b, v in c.items():
                    r_terms[base + b] = v
                continue
            eq = e - lead_t
            base = eq << tshift
            src = {}
            for b, v in c.items():
                bq = div.quotient_b(b)
                if bq is None:
                    if exact:
                        raise NotDivisibleError(
                            f"coefficient not divisible at degree {degree}", degree=degree
                        )
                    r_terms[(e << tshift) + b] = v
                    continue
                qv = div.quotient_value(v)
                q_terms[base + bq] = qv
                src[bq] = -qv
            for eg, cg in rest:
                e2 = eq + eg
                if e2 not in num:
                    insort(pending, e2)
                _add_product(num, e2, src, cg, guard)
            for bucket, terms in targets:
                for eg, cg in terms:
                    _add_product(bucket, eq + eg, src, cg, guard)
    return q_terms, r_terms


# -- symmetric functions -------------------------------------------------------


def elementary_symmetric(i: int, vars: list[GradedSeries]) -> GradedSeries:
    """The i-th elementary symmetric function of the given series, 1 <= i <= n."""
    n = len(vars)
    if not 1 <= i <= n:
        raise IndexOutOfRangeError(f"elementary symmetric index {i} not in 1..{n}")
    nv, p = vars[0].nvars, min(v.precision for v in vars)
    # e_i via the product generating function, one variable at a time:
    # layer[k] = e_k(v_1..v_j) after processing j variables.
    layer = [GradedSeries.constant(1, nv, p)] + [
        GradedSeries.zero(nv, p) for _ in range(i)
    ]
    for v in vars:
        for k in range(min(i, n), 0, -1):
            layer[k] = layer[k] + layer[k - 1] * v
    return layer[i]


def complete_homogeneous(k: int, vars: list[GradedSeries]) -> GradedSeries:
    """The sum of all degree-k monomials in the given series (h_k)."""
    if k < 0:
        raise IndexOutOfRangeError("complete homogeneous index must be >= 0")
    if not vars:
        raise IndexOutOfRangeError("complete homogeneous function of no series")
    nv, p = vars[0].nvars, min(v.precision for v in vars)
    if k == 0:
        return GradedSeries.constant(1, nv, p)
    # h_k(v1..vm) = sum_j v1^j h_{k-j}(v2..vm)
    out = GradedSeries.zero(nv, p)
    head, tail = vars[0], vars[1:]
    if not tail:
        return head ** k
    power = GradedSeries.constant(1, nv, p)
    for j in range(0, k + 1):
        out = out + power * complete_homogeneous(k - j, tail)
        power = power * head
    return out
