"""Formal group law contexts: the law itself, its inverse series, k-series,
and the kappa series, all truncated to a working degree.

The universal law over N generators is realised inside ``Z[b1..bN]`` as
``F = B(Binv(x) + Binv(y))`` for ``B(u) = u + b1 u^2 + ... + bN u^(N+1)``;
this embedding is faithful through t-degree ``N + 1``, hence the requirement
``N >= D - 1``.  Identities proved in this image hold for the universal law.

Univariate caches are computed at internal precision ``D + 1`` so that kappa
(a quotient by an order-2 series) is trusted through degree ``D - 1``, which
is exactly what one application of a Demazure operator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ConfigError,
    InsufficientGeneratorsError,
    InternalConsistencyError,
    NotDivisibleError,
    NVarsMismatchError,
    PrecisionExhaustedError,
    PrecisionTooSmallError,
)
from .linalg import require_primitive
from .series import (
    Divisor,
    GradedSeries,
    MonomialMap,
    Substitution,
    divide_exact,
    remainder,
)


@dataclass(frozen=True)
class LawSpec:
    kind: str  # "additive" | "multiplicative" | "universal"
    ngens: int = 0
    scale: int = 1  # multiplicative only: F = x + y - scale*b1*x*y

    def __post_init__(self):
        if self.kind == "multiplicative" and not self.scale:
            raise ConfigError(
                "multiplicative law needs a nonzero scale; multiplicative:0 "
                "is the additive law"
            )

    @staticmethod
    def additive() -> "LawSpec":
        return LawSpec("additive", 0)

    @staticmethod
    def multiplicative(scale: int = 1) -> "LawSpec":
        return LawSpec("multiplicative", 1, scale)

    @staticmethod
    def universal(n: int) -> "LawSpec":
        return LawSpec("universal", n)

    @staticmethod
    def parse(text: str) -> "LawSpec":
        name, _, arg = text.strip().partition(":")
        try:
            if name == "additive":
                if arg:
                    raise ConfigError("additive law takes no parameter")
                return LawSpec.additive()
            if name == "multiplicative":
                return LawSpec.multiplicative(int(arg) if arg else 1)
            if name == "universal":
                if not arg:
                    raise ConfigError(
                        "universal law needs a generator count, e.g. universal:4"
                    )
                return LawSpec.universal(int(arg))
        except ValueError:
            raise ConfigError(f"cannot parse law parameter in {text!r}") from None
        raise ConfigError(f"unknown law {text!r}")

    def canonical(self) -> str:
        if self.kind == "additive":
            return "additive"
        if self.kind == "multiplicative":
            return f"multiplicative:{self.scale}"
        return f"universal:{self.ngens}"


def _uvar(precision: int) -> GradedSeries:
    return GradedSeries.variable(0, 1, precision)


def _solve_fixed_point(equation, start: GradedSeries, precision: int) -> GradedSeries:
    """Solve equation(s) == 0 for s by degreewise correction.

    ``equation`` must have unit sensitivity in the sense that adding a
    homogeneous degree-d term h to s changes equation(s) by h + O(>d).
    """
    s = start
    for d in range(2, precision + 1):
        residual = equation(s)
        rd = residual.t_component(d)
        if not rd.is_zero():
            s = s - rd
    return s


class FGLContext:
    """A formal group law with cached series, immutable after construction:
    ``group_law`` F(x, y), ``inverse`` (the series with F(x, inverse(x)) = 0)
    and ``kappa`` = (x + inverse(x)) / (x inverse(x)), trusted through D - 1."""

    def __init__(self, law: LawSpec, precision: int):
        if precision < 1:
            raise PrecisionTooSmallError("precision must be at least 1")
        if law.kind == "universal" and law.ngens < precision - 1:
            raise InsufficientGeneratorsError(
                f"universal law with {law.ngens} generators is not faithful at "
                f"precision {precision}; need at least {precision - 1}"
            )
        self.law = law
        self.precision = precision
        self.ngens = law.ngens
        self._internal = precision + 1
        self._build()
        self._k_cache: dict[int, GradedSeries] = {}
        self._fsum_cache: dict = {}
        self._subst_cache: dict = {}
        self._divisor_cache: dict = {}
        self._kappa_cache: dict = {}
        self._dd_cache: dict = {}
        self._remainder_cache: dict = {}

    # -- construction -------------------------------------------------------

    def _build(self):
        p = self._internal
        x = GradedSeries.variable(0, 2, p)
        y = GradedSeries.variable(1, 2, p)
        law = self.law
        if law.kind == "additive":
            f_int = x + y
        elif law.kind == "multiplicative":
            f_int = x + y - (x * y).scale({(1,): law.scale})
        else:
            b = _uvar(p)
            for i in range(1, law.ngens + 1):
                b = b + (_uvar(p) ** (i + 1)).scale({(0,) * (i - 1) + (1,): 1})
            binv = _solve_fixed_point(
                lambda s: b.substitute([s]) - _uvar(p), _uvar(p), p
            )
            if not (b.substitute([binv]) - _uvar(p)).is_zero():
                raise InternalConsistencyError("compositional inverse failed")
            self._b_series = b
            self._b_inverse = binv
            bx = binv.substitute([x])
            by = binv.substitute([y])
            f_int = b.substitute([bx + by])
        self.group_law = f_int.truncate(self.precision)

        # inverse: the unique series with F(x, inv(x)) = 0
        u = _uvar(p)
        if law.kind == "additive":
            inv_int = -u
        elif law.kind == "universal":
            inv_int = self._b_series.substitute([-self._b_inverse])
        else:
            inv_int = _solve_fixed_point(
                lambda s: f_int.substitute([u, s]), -u, p
            )
        if not f_int.substitute([u, inv_int]).is_zero():
            raise InternalConsistencyError("inverse series does not invert")
        self.inverse = inv_int.truncate(self.precision)

        # kappa = (x + inv(x)) / (x * inv(x)); exact by construction
        num = u + inv_int
        den = u * inv_int
        try:
            self.kappa = divide_exact(num, den)
        except NotDivisibleError as exc:  # pragma: no cover - defect signal
            raise InternalConsistencyError(
                "kappa division not exact"
            ) from exc
        check = (self.kappa * den).truncate(self.kappa.precision)
        if check != num.truncate(self.kappa.precision):
            raise InternalConsistencyError("kappa identity failed")

    # -- series accessors -----------------------------------------------------

    def k_series(self, k: int) -> GradedSeries:
        """The k-fold formal sum [k](x); [-k] = inverse([k](x)), [0] = 0."""
        got = self._k_cache.get(k)
        if got is not None:
            return got
        p = self.precision
        if k == 0:
            out = GradedSeries.zero(1, p)
        elif k == 1:
            out = _uvar(p)
        elif k > 1:
            out = self.group_law.substitute([self.k_series(k - 1), _uvar(p)])
        else:
            out = self.inverse.substitute([self.k_series(-k)])
        self._k_cache[k] = out
        return out

    def _once_per_sorted_character(self, cache: dict, chi, compute) -> GradedSeries:
        """``cache[chi]``, computed once per sorted character: ``compute(chi)``
        when chi's coordinates descend (ties by index), else the series of
        the sorted character with its variables renamed.  This is exact: a
        formal sum does not depend on the order of its summands, the law is
        exactly commutative and associative as a truncated series, and
        truncation commutes with substituting images of positive order."""
        chi = tuple(map(int, chi))
        got = cache.get(chi)
        if got is None:
            order = sorted(range(len(chi)), key=lambda i: (-chi[i], i))
            if order == list(range(len(chi))):
                got = compute(chi)
            else:
                ordered = [chi[i] for i in order]
                src = sorted(range(len(chi)), key=order.__getitem__)
                got = self._once_per_sorted_character(cache, ordered, compute)
                got = got.rename(src)
            cache[chi] = got
        return got

    def formal_sum(self, coeffs) -> GradedSeries:
        """The first Chern class x_chi of the character with these
        coordinates, the iterated formal sum of the ``[chi_i](t_i)``,
        computed once per sorted character."""
        return self._once_per_sorted_character(
            self._fsum_cache, coeffs, self._iterated_sum
        )

    def _iterated_sum(self, coeffs: tuple) -> GradedSeries:
        n = len(coeffs)
        p = self.precision
        acc = GradedSeries.zero(n, p)
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            xi = self.k_series(c).substitute([GradedSeries.variable(i, n, p)])
            acc = xi if acc.is_zero() else self.group_law.substitute([acc, xi])
        return acc

    def substitution(self, chars) -> Substitution:
        """The substitution ``t_i -> x_{chars[i]}``, memoised per tuple of
        characters, so its monomial images are shared by every series it is
        applied to."""
        key = tuple(map(tuple, chars))
        got = self._subst_cache.get(key)
        if got is None:
            got = Substitution([self.formal_sum(chi) for chi in key])
            self._subst_cache[key] = got
        return got

    def kappa_of_character(self, chi) -> GradedSeries:
        """kappa(x_chi), computed once per sorted character and memoised per
        character."""
        return self._once_per_sorted_character(
            self._kappa_cache,
            chi,
            lambda c: Substitution([self.formal_sum(c)]).apply(self.kappa),
        )

    # -- division by a character class ----------------------------------------

    def divide_by_character(self, f: GradedSeries, chi) -> GradedSeries:
        """Exact division of f by x_chi for a primitive character chi.

        One long division by x_chi (see :func:`divide_exact`), prepared once
        per character.  The lowest component of x_chi is the primitive linear
        form ``sum chi_i t_i``, so the quotient is unique, and by Gauss's
        lemma it is integral whenever f is: dividing over Q gives the integer
        quotient for integer f and a Fraction-valued one otherwise.
        :class:`NotDivisibleError` reports the first degree at which the
        residual is not divisible by that linear form.
        """
        chi = tuple(map(int, chi))
        if f.nvars != len(chi):
            raise NVarsMismatchError("character rank != series nvars")
        if f.precision < 1:
            raise PrecisionExhaustedError("no precision left for the division")
        if f.is_zero():
            return GradedSeries.zero(f.nvars, f.precision - 1)
        return divide_exact(f, self._divisor(chi))

    def _divisor(self, chi: tuple) -> Divisor:
        div = self._divisor_cache.get(chi)
        if div is None:
            require_primitive(chi)
            div = Divisor(self.formal_sum(chi))
            self._divisor_cache[chi] = div
        return div

    def divided_difference(self, chars, chi) -> MonomialMap:
        """The operator ``f -> (f - s(f)) / x_chi`` for the substitution
        ``s: t_i -> x_{chars[i]}`` and a primitive character chi, memoised per
        tuple of characters and chi, so the quotient of each t-monomial is
        divided once (see :class:`MonomialMap`).  Its results are those of
        :meth:`divide_by_character` on ``f - s(f)``."""
        chars = tuple(map(tuple, chars))
        chi = tuple(map(int, chi))
        key = (chars, chi)
        got = self._dd_cache.get(key)
        if got is None:
            subst, div = self.substitution(chars), self._divisor(chi)
            got = self._dd_cache[key] = MonomialMap(
                lambda f: divide_exact(f - subst.apply(f), div),
                len(chi), len(chi), min(subst.precision, div.precision), div.order,
            )
        return got

    def remainder_map(self, chi) -> MonomialMap:
        """The remainder modulo x_chi for a primitive character chi (see
        :func:`series.remainder`), memoised per chi: it is linear over the
        coefficient ring, so each t-monomial is reduced once.  It is zero
        exactly when x_chi divides the series."""
        chi = tuple(map(int, chi))
        got = self._remainder_cache.get(chi)
        if got is None:
            div = self._divisor(chi)
            got = MonomialMap(
                lambda f: remainder(f, div), len(chi), len(chi), div.precision, 0
            )
            self._remainder_cache[chi] = got
        return got


def build_law(spec: LawSpec | str, precision: int, *, rational=None) -> FGLContext:
    """Construct a formal group law context from a spec or its text form."""
    # ``rational`` is ignored; only the esph-psl3 set-up in perfbench/workloads.py passes it
    if isinstance(spec, str):
        spec = LawSpec.parse(spec)
    return FGLContext(spec, precision)


def fgl_axiom_report(ctx: FGLContext) -> list[dict]:
    """Check the defining identities of the cached law at working precision."""
    d = ctx.precision
    x = GradedSeries.variable(0, 2, d)
    y = GradedSeries.variable(1, 2, d)
    zero2 = GradedSeries.zero(2, d)
    f = ctx.group_law
    checks = []

    def add(name, ok):
        checks.append({"name": name, "pass": bool(ok)})

    add("unit_left", f.substitute([x, zero2]) == x)
    add("unit_right", f.substitute([zero2, y]) == y)
    add("commutative", f.substitute([y, x]) == f)
    t1 = GradedSeries.variable(0, 3, d)
    t2 = GradedSeries.variable(1, 3, d)
    t3 = GradedSeries.variable(2, 3, d)
    f12 = f.substitute([t1, t2])
    f23 = f.substitute([t2, t3])
    add(
        "associative",
        f.substitute([f12, t3]) == f.substitute([t1, f23]),
    )
    u = _uvar(d)
    add("inverse", f.substitute([u, ctx.inverse]).is_zero())
    kap = ctx.kappa
    lhs = kap * u.truncate(kap.precision) * ctx.inverse.truncate(kap.precision)
    rhs = (u + ctx.inverse).truncate(kap.precision)
    add("kappa_identity", lhs == rhs)
    ok = True
    for k, m in [(1, 1), (2, 1), (-1, 2), (3, -2), (-3, -1), (4, 4)]:
        lhs = ctx.k_series(k + m)
        rhs = f.substitute([ctx.k_series(k), ctx.k_series(m)])
        ok = ok and lhs == rhs
    add("k_series_additive", ok)
    if ctx.law.kind == "universal":
        addctx = FGLContext(LawSpec.additive(), ctx.precision)
        add(
            "specializes_to_additive",
            f.specialize_b_zero() == addctx.group_law
            and ctx.inverse.specialize_b_zero() == addctx.inverse
            and ctx.kappa.specialize_b_zero() == addctx.kappa,
        )
    return checks
