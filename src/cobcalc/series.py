"""Truncated graded power series with explicit precision tracking.

A :class:`GradedSeries` is a finite sum of terms ``c * t1^f1 ... tn^fn`` with
``c`` in the coefficient ring ``Z[b1, b2, ...]`` (``Q[b1, ...]`` in rational
mode).  ``terms`` maps each t-exponent tuple to its coefficient, a dict from
b-exponent tuples to nonzero ints or Fractions.  A b-exponent is trimmed of
trailing zeros, so coefficients built under laws with different generator
counts interoperate; ``b_i`` has cohomological degree ``-i``, and the
*weight* of a b-monomial is ``sum(i * e_i)``.  No value is zero and no
coefficient dict is empty.  Coefficient dicts may be shared between series
and are never mutated once a series holds them.

Only terms of total t-degree at most ``precision`` are stored, and
``precision`` records through which degree the stored terms agree with the
untruncated object.  All operations are pure and every output precision is a
fixed function of the input precisions:

==================  ======================================
add / sub           min of the inputs
mul                 min of the inputs
substitute          min over the series and all images
divide_exact(f, g)  min(prec f, prec g) - order(g)
==================  ======================================

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
from operator import add, sub

from .errors import (
    ConstantTermError,
    IndexOutOfRangeError,
    NotDivisibleError,
    NVarsMismatchError,
    PrecisionExhaustedError,
    PrecisionMismatchError,
)

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


class GradedSeries:
    __slots__ = ("nvars", "precision", "terms")

    def __init__(self, nvars: int, precision: int, terms: dict):
        # Trusts canonical input: no zero values, no empty coefficient dicts,
        # trimmed b-exponents, t-degrees <= precision.
        self.nvars = nvars
        self.precision = precision
        self.terms = terms

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(nvars: int, precision: int) -> "GradedSeries":
        return GradedSeries(nvars, precision, {})

    @staticmethod
    def constant(c, nvars: int, precision: int) -> "GradedSeries":
        """The constant series of the number ``c``."""
        return GradedSeries(nvars, precision, {(0,) * nvars: {(): c}} if c else {})

    @staticmethod
    def variable(i: int, nvars: int, precision: int) -> "GradedSeries":
        """The series ``t_{i+1}`` (zero-based index ``i``)."""
        if not 0 <= i < nvars:
            raise IndexOutOfRangeError(f"variable index {i} out of range")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return GradedSeries(nvars, precision, {exp: {(): 1}})

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
        return self.terms == other.terms

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
        return GradedSeries(
            self.nvars, d, {e: c for e, c in self.terms.items() if sum(e) <= d}
        )

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        if self.nvars != other.nvars:
            raise NVarsMismatchError("add: nvars mismatch")
        p = min(self.precision, other.precision)
        out = {e: c for e, c in self.terms.items() if sum(e) <= p}
        owned: set = set()
        for e, c in other.terms.items():
            if sum(e) <= p:
                _add_product(out, owned, e, c, _ONE)
        return GradedSeries(self.nvars, p, out)

    def __neg__(self) -> "GradedSeries":
        return GradedSeries(
            self.nvars,
            self.precision,
            {e: {b: -v for b, v in c.items()} for e, c in self.terms.items()},
        )

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self + (-other)

    def __mul__(self, other: "GradedSeries") -> "GradedSeries":
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
        return GradedSeries(self.nvars, p, out)

    def scale(self, c) -> "GradedSeries":
        """Multiply by a coefficient: a number, or a ``{b-exponent: value}``
        dict."""
        if not isinstance(c, dict):
            c = {(): c} if c else {}
        out: dict = {}
        owned: set = set()
        if c:
            for e, v in self.terms.items():
                _add_product(out, owned, e, v, c)
        return GradedSeries(self.nvars, self.precision, out)

    def __pow__(self, n: int) -> "GradedSeries":
        if n < 0:
            raise ValueError("negative power of a series")
        acc = GradedSeries.constant(1, self.nvars, self.precision)
        for _ in range(n):
            acc = acc * self
        return acc

    def specialize_b_zero(self) -> "GradedSeries":
        """Set every coefficient generator to zero (additive specialization)."""
        return GradedSeries(
            self.nvars,
            self.precision,
            {e: {(): c[()]} for e, c in self.terms.items() if () in c},
        )

    # -- substitution --------------------------------------------------------

    def substitute(self, images: list["GradedSeries"]) -> "GradedSeries":
        return Substitution(images).apply(self)

    # -- wire format ---------------------------------------------------------

    def to_json(self, ngens: int | None = None) -> dict:
        if ngens is None:
            ngens = max((len(b) for c in self.terms.values() for b in c), default=0)
        rows = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[e]
            for b in sorted(c):
                rows.append(
                    {
                        "b": list(b) + [0] * (ngens - len(b)),
                        "t": list(e),
                        "c": str(c[b]),
                    }
                )
        return {"nvars": self.nvars, "precision": self.precision, "terms": rows}

    @staticmethod
    def from_json(obj: dict) -> "GradedSeries":
        """Parse the wire format; raises ``ValueError`` on a malformed value
        (``KeyError``/``TypeError`` on a missing key or a non-object)."""
        nvars = _natural(obj["nvars"], "nvars")
        precision = _natural(obj["precision"], "precision")
        terms: dict = {}
        owned: set = set()
        for row in obj["terms"]:
            t, b, c = row["t"], row["b"], row["c"]
            if not isinstance(t, list) or len(t) != nvars:
                raise ValueError(f"t-exponent {t!r} does not have {nvars} entries")
            if not isinstance(b, list) or not isinstance(c, str):
                raise ValueError(f"malformed term {row!r}")
            e = tuple(_natural(x, "a t-exponent entry") for x in t)
            if sum(e) > precision:
                raise ValueError(f"term {t} lies above precision {precision}")
            try:
                v = Fraction(c) if "/" in c else int(c)
            except ZeroDivisionError:
                raise ValueError(f"coefficient {c!r} has a zero denominator") from None
            bexp = _trim(_natural(x, "a b-exponent entry") for x in b)
            if v:
                _add_product(terms, owned, e, {bexp: v}, _ONE)
        return GradedSeries(nvars, precision, terms)

    def __repr__(self):
        if not self.terms:
            return f"<0 (nvars={self.nvars}, prec={self.precision})>"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            mono = "*".join(
                f"t{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            )
            c = _coeff_str(self.terms[e])
            cs = c if "+" not in c else f"({c})"
            bits.append(cs if not mono else f"{cs}*{mono}" if c != "1" else mono)
        return f"<{' + '.join(bits)} + O(deg {self.precision + 1})>"


class Substitution:
    """Simultaneous substitution ``t_i -> images[i]``.

    Every image must have positive order so that degree-``d`` output terms
    only depend on degree-``<= d`` input terms.  Monomial images are memoised,
    so reusing one Substitution across many series amortises the series
    products; :meth:`FGLContext.substitution` keeps one per tuple of
    characters for that reason.
    """

    def __init__(self, images: list[GradedSeries]):
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
        self._memo: dict[TExp, GradedSeries] = {
            (0,) * self.nvars_in: GradedSeries.constant(1, m, self.precision)
        }

    def _monomial_image(self, exp: TExp) -> GradedSeries:
        got = self._memo.get(exp)
        if got is not None:
            return got
        i = next(j for j, e in enumerate(exp) if e)
        prev = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
        img = self._monomial_image(prev) * self.images[i]
        self._memo[exp] = img
        return img

    def apply(self, f: GradedSeries) -> GradedSeries:
        if f.nvars != self.nvars_in:
            raise NVarsMismatchError(
                f"series has {f.nvars} variables, substitution expects {self.nvars_in}"
            )
        p = min(f.precision, self.precision)
        acc: dict = {}
        owned: set = set()
        for e, c in f.terms.items():
            if sum(e) > p:
                continue
            for ei, ci in self._monomial_image(e).terms.items():
                if sum(ei) <= p:
                    _add_product(acc, owned, ei, ci, c)
        return GradedSeries(self.nvars_out, p, acc)


# -- exact division ----------------------------------------------------------


class Divisor:
    """A nonzero series g prepared for use as the divisor of
    :func:`divide_exact`: its order, the lex-leading term of its lowest
    component, the other terms of that component, and the higher terms
    grouped by t-degree.  Preparing once pays off when one series divides
    many numerators, as each character class x_chi does."""

    __slots__ = (
        "nvars", "precision", "order", "lead_t", "lead_nz", "lead_b", "lead_v",
        "lead_c", "whole", "rest", "high",
    )

    def __init__(self, g: GradedSeries):
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

    def quotient_value(self, v, rational: bool):
        """``v / lead_v``, or None when that is not an integer and not
        ``rational``."""
        q, r = divmod(v, self.lead_v)
        if r:
            if not rational:
                return None
            q = Fraction(v, self.lead_v)
        return q


def divide_exact(
    f: GradedSeries, g: GradedSeries | Divisor, rational: bool = False
) -> GradedSeries:
    """Return q with ``q * g == f`` through degree ``min(prec f, prec g) - order(g)``.

    ``g`` is a series or a :class:`Divisor` prepared from one.  The
    numerator is bucketed by t-degree once, and each homogeneous component
    is long-divided by the lowest component of g, leading t-exponent first
    in lex order.  When the leading coefficient of g is a single b-monomial
    (as for every character class x_chi and the denominator of kappa), each
    step divides a whole coefficient of f by it; otherwise each step divides
    one term, in lex order on (t-exponent, b-exponent).  In the domain
    Z[t, b] (Q[t, b] when ``rational``) either way succeeds exactly when the
    division is exact, so the first failing step certifies
    non-divisibility.  :class:`NotDivisibleError` carries its degree: the
    lowest degree at which f minus (quotient so far) * g has a component
    that the lowest component of g does not divide.
    """
    if f.nvars != g.nvars:
        raise NVarsMismatchError("divide: nvars mismatch")
    div = g if isinstance(g, Divisor) else Divisor(g)
    m = div.order
    horizon = min(f.precision, div.precision)
    out_prec = horizon - m
    if out_prec < 0:
        raise PrecisionExhaustedError(
            "no precision left to divide by an order-%d series" % m
        )
    if f.is_zero():
        return GradedSeries.zero(f.nvars, out_prec)
    # quotient terms times g are subtracted into the buckets, which hold
    # disjoint exponents, so one set records which coefficient dicts are owned
    buckets: list[dict] = [{} for _ in range(horizon + 1)]
    for e, c in f.terms.items():
        d = sum(e)
        if d <= horizon:
            buckets[d][e] = c
    for degree in range(m):
        if buckets[degree]:
            raise NotDivisibleError(
                f"order of numerator {degree} below order of divisor {m}",
                degree=degree,
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
                    qv = div.quotient_value(v, rational)
                    if bq is None or qv is None:
                        raise NotDivisibleError(
                            f"coefficient not divisible at degree {degree}",
                            degree=degree,
                        )
                    q[bq] = qv
                src = {b: -v for b, v in q.items()}
            else:
                b = max(c)
                bq = div.quotient_b(b)
                qv = div.quotient_value(c[b], rational)
                if bq is None or qv is None:
                    raise NotDivisibleError(
                        f"coefficient not divisible at degree {degree}", degree=degree
                    )
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
    return GradedSeries(f.nvars, out_prec, q_terms)


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
    nv, p = vars[0].nvars, min(v.precision for v in vars)
    if k == 0:
        return GradedSeries.constant(1, nv, p)
    if not vars:
        return GradedSeries.zero(nv, p)
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
