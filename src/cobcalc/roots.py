"""Root data, Weyl groups, and the involution data of symmetric spaces.

Characters are integer coordinate vectors in a chosen lattice basis.  For the
``gl_n`` family the basis is the diagonal characters and roots are their
differences; for the adjoint families (``a_n``, ``b2``, ``g2``) the simple
roots themselves are the basis, so reflection matrices come straight from the
Cartan matrix.
"""

from __future__ import annotations

from operator import mul

from .errors import (
    InternalConsistencyError,
    InvolutionError,
    NotMinimalRankError,
    NVarsMismatchError,
    UnsupportedTypeError,
)
from .linalg import canonical_sign, vsub
from .series import GradedSeries

Vec = tuple[int, ...]


def mat_mul(a, b):
    """Product of two square integer matrices given as tuples of rows."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class WeylElement:
    """A Weyl group element: its lattice action plus one reduced word.

    The word stores zero-based simple-root indices; the matrix is the product
    of the word's reflection matrices, leftmost factor first.
    """

    __slots__ = ("matrix", "word")

    def __init__(self, matrix, word: tuple):
        self.matrix = matrix
        self.word = word

    def act(self, v) -> Vec:
        return _mat_vec(self.matrix, v)

    def compose(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(mat_mul(self.matrix, other.matrix), self.word + other.word)

    def id_string(self) -> str:
        return "e" if not self.word else "".join(str(i + 1) for i in self.word)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"W[{self.id_string()}]"


class RootDatum:
    def __init__(self, label, rank, simple_roots, simple_coroots, adjoint):
        self.label = label
        self.rank = rank
        self.simple_roots = tuple(tuple(a) for a in simple_roots)
        self.simple_coroots = tuple(tuple(a) for a in simple_coroots)
        self.adjoint = adjoint
        self.nsimple = len(self.simple_roots)
        self.coroot_of = dict(zip(self.simple_roots, self.simple_coroots))
        self.simple_reflections = tuple(
            WeylElement(self.reflection(a), (i,))
            for i, a in enumerate(self.simple_roots)
        )
        self._close_root_system()
        self._weyl: list[WeylElement] | None = None

    # -- root system -----------------------------------------------------------

    def reflection(self, beta):
        """The matrix of s_beta: chi -> chi - <chi, beta^vee> beta."""
        beta = tuple(beta)
        coroot = self.coroot_of[beta]
        n = self.rank
        return tuple(
            tuple((1 if r == c else 0) - beta[r] * coroot[c] for c in range(n))
            for r in range(n)
        )

    def _close_root_system(self):
        """Close the simple roots under the simple reflections, recording each
        root's coroot and its integer coordinates in the simple roots: s_i(beta)
        = beta - <beta, alpha_i^vee> alpha_i lowers coordinate i by the pairing."""
        corr = self.coroot_of
        coords = {
            a: tuple(1 if j == i else 0 for j in range(self.nsimple))
            for i, a in enumerate(self.simple_roots)
        }
        queue = list(self.simple_roots)
        while queue:
            beta = queue.pop()
            for i, s in enumerate(self.simple_reflections):
                new = s.act(beta)
                if new in corr:
                    continue
                # coroot transforms contragrediently: <s x, v> = <x, s^T v>
                m, v = s.matrix, corr[beta]
                corr[new] = tuple(
                    sum(m[r][c] * v[r] for r in range(self.rank))
                    for c in range(self.rank)
                )
                c = list(coords[beta])
                c[i] -= self.pairing(beta, self.simple_roots[i])
                coords[new] = tuple(c)
                queue.append(new)
        self.roots = tuple(sorted(corr))
        self.simple_coordinates = coords
        self.positive_roots = tuple(
            beta for beta in self.roots if all(c >= 0 for c in coords[beta])
        )
        if 2 * len(self.positive_roots) != len(self.roots):
            raise InternalConsistencyError(
                f"{len(self.positive_roots)} positive roots of {len(self.roots)}"
            )
        for beta, v in corr.items():
            pairing = sum(a * b for a, b in zip(beta, v))
            if pairing != 2:
                raise InternalConsistencyError(
                    f"root {beta} pairs to {pairing} with its coroot, not 2"
                )

    def is_gln(self) -> bool:
        """Whether this is the datum of gl_n: rank n, with the simple roots
        and coroots ``e_i - e_(i+1)`` for i < n.  No product is one."""
        return self.simple_roots == self.simple_coroots == _gl_simples(self.rank)

    def pairing(self, chi, beta) -> int:
        """<chi, beta^vee> for a root beta."""
        v = self.coroot_of[tuple(beta)]
        return sum(a * b for a, b in zip(v, chi))

    def reflection_element(self, beta) -> WeylElement:
        """The reflection s_beta as a Weyl element, with its least reduced word."""
        return self.element(self.reflection(beta))

    # -- Weyl group --------------------------------------------------------------

    def weyl(self) -> list[WeylElement]:
        """All Weyl elements, BFS from the identity; generator index breaks ties,
        so each element carries its lexicographically least reduced word."""
        if self._weyl is None:
            identity = WeylElement(_identity(self.rank), ())
            seen = {identity.matrix: identity}
            queue = [identity]
            for w in queue:
                for g in self.simple_reflections:
                    new = w.compose(g)
                    if new.matrix not in seen:
                        seen[new.matrix] = new
                        queue.append(new)
            self._weyl = queue
            self._by_matrix = seen
        return self._weyl

    def element(self, matrix) -> WeylElement:
        self.weyl()
        try:
            return self._by_matrix[matrix]
        except KeyError:
            raise KeyError("matrix is not a Weyl group element") from None

    def order(self) -> int:
        return len(self.weyl())


def weyl_act(w: WeylElement, f: GradedSeries, ctx, datum: RootDatum) -> GradedSeries:
    """The Weyl action on series: substitutes t_i by the class of w(chi_i)."""
    if f.nvars != datum.rank:
        raise NVarsMismatchError(
            f"series has {f.nvars} variables, root datum has rank {datum.rank}"
        )
    return ctx.substitution(zip(*w.matrix)).apply(f)


def divided_difference(
    w: WeylElement, beta, f: GradedSeries, ctx, datum: RootDatum
) -> GradedSeries:
    """``(f - w(f)) / x_beta``, the quotient of :func:`weyl_act` through the
    law context's memoised operator for w and beta; exact for every f when
    w is the reflection s_beta."""
    if f.nvars != datum.rank:
        raise NVarsMismatchError(
            f"series has {f.nvars} variables, root datum has rank {datum.rank}"
        )
    return ctx.divided_difference(zip(*w.matrix), beta).apply(f)


# -- builders ---------------------------------------------------------------------


def _cartan_datum(label: str, cartan: list[list[int]]) -> RootDatum:
    n = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    coroots = [tuple(cartan[i]) for i in range(n)]
    return RootDatum(label, n, simples, coroots, adjoint=True)


def _a_cartan(n: int) -> list[list[int]]:
    return [
        [2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
        for i in range(n)
    ]


def _gl_simples(n: int) -> tuple:
    return tuple(
        tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(n))
        for i in range(n - 1)
    )


def _gl_datum(n: int) -> RootDatum:
    simples = _gl_simples(n)
    return RootDatum(f"gl{n}", n, simples, simples, adjoint=False)


def product_datum(d1: RootDatum, d2: RootDatum, label=None) -> RootDatum:
    n1, n2 = d1.rank, d2.rank
    simples = [tuple(a) + (0,) * n2 for a in d1.simple_roots] + [
        (0,) * n1 + tuple(a) for a in d2.simple_roots
    ]
    coroots = [tuple(a) + (0,) * n2 for a in d1.simple_coroots] + [
        (0,) * n1 + tuple(a) for a in d2.simple_coroots
    ]
    return RootDatum(
        label or f"{d1.label}x{d2.label}", n1 + n2, simples, coroots,
        adjoint=d1.adjoint and d2.adjoint,
    )


def build_root_datum(tag: str) -> RootDatum:
    """Construct a supported root datum from a type tag.

    Tags: ``glN`` (e.g. gl2, gl3), adjoint ``aN``, ``b2``, ``g2``, products as
    ``product:tag,tag`` and the alias ``psl2xpsl2``.
    """
    tag = tag.strip().lower()
    if tag == "psl2xpsl2":
        return product_datum(build_root_datum("a1"), build_root_datum("a1"))
    if tag.startswith("product:"):
        parts = tag[len("product:"):].split(",")
        if len(parts) != 2:
            raise UnsupportedTypeError("product takes exactly two factors")
        return product_datum(build_root_datum(parts[0]), build_root_datum(parts[1]))
    if tag.startswith("psl"):
        # the adjoint group of type A_{n-1}
        try:
            n = int(tag[3:])
        except ValueError:
            raise UnsupportedTypeError(f"unsupported type {tag!r}") from None
        if n < 2:
            raise UnsupportedTypeError("psl_n needs n >= 2")
        return _cartan_datum(tag, _a_cartan(n - 1))
    if tag.startswith("gl"):
        try:
            n = int(tag[2:])
        except ValueError:
            raise UnsupportedTypeError(f"unsupported type {tag!r}") from None
        if n < 2:
            raise UnsupportedTypeError("gl_n needs n >= 2")
        return _gl_datum(n)
    if tag.startswith("a"):
        try:
            n = int(tag[1:])
        except ValueError:
            raise UnsupportedTypeError(f"unsupported type {tag!r}") from None
        if n < 1:
            raise UnsupportedTypeError("a_n needs n >= 1")
        return _cartan_datum(tag, _a_cartan(n))
    if tag == "b2":
        return _cartan_datum("b2", [[2, -2], [-1, 2]])
    if tag == "g2":
        return _cartan_datum("g2", [[2, -3], [-1, 2]])
    raise UnsupportedTypeError(f"unsupported type {tag!r}")


# -- symmetric space data ------------------------------------------------------------


class SymmetricDatum:
    """An involution of a root datum together with the derived restricted data."""

    def __init__(self, datum: RootDatum, theta, label="custom"):
        self.datum = datum
        self.theta = tuple(tuple(r) for r in theta)
        self.label = label
        n = datum.rank
        if mat_mul(self.theta, self.theta) != _identity(n):
            raise InvolutionError("theta is not an involution")
        root_set = set(datum.roots)
        for beta in datum.roots:
            if _mat_vec(self.theta, beta) not in root_set:
                raise InvolutionError("theta does not preserve the root system")

        self.delta_L = tuple(
            i
            for i, alpha in enumerate(datum.simple_roots)
            if _mat_vec(self.theta, alpha) == alpha
        )
        moved = [i for i in range(datum.nsimple) if i not in self.delta_L]
        restricted: dict = {}
        for i in moved:
            alpha = datum.simple_roots[i]
            talpha = _mat_vec(self.theta, alpha)
            # minimal rank forces s_alpha and s_theta(alpha) to commute:
            # theta(alpha) is a root orthogonal to alpha (it need not be
            # simple, nor positive - in the group case it is the partner
            # simple root, in the linear/symplectic pair it is negative)
            if talpha == alpha or talpha == tuple(-x for x in alpha):
                raise NotMinimalRankError(
                    "theta maps a simple root to +-itself; the symmetric "
                    "space is not of minimal rank"
                )
            if datum.pairing(alpha, talpha) != 0:
                raise NotMinimalRankError(
                    "theta pairs a simple root non-orthogonally with its "
                    "image; the symmetric space is not of minimal rank"
                )
            gamma = canonical_sign(vsub(alpha, talpha))
            if gamma not in restricted:
                restricted[gamma] = (i, talpha)
        if not restricted:
            raise NotMinimalRankError("no restricted roots (theta fixes all simples)")
        self.restricted = tuple(
            (gamma, restricted[gamma][0], restricted[gamma][1])
            for gamma in sorted(restricted)
        )

        # roots of the Levi: support contained in the fixed simples
        self.sigma_L = tuple(
            beta
            for beta in datum.roots
            if all(
                c == 0
                for k, c in enumerate(datum.simple_coordinates[beta])
                if k not in self.delta_L
            )
        )
        self.sigma_L_pos = tuple(b for b in self.sigma_L if b in datum.positive_roots)

        weyl = datum.weyl()
        self.w_theta = [
            w
            for w in weyl
            if mat_mul(mat_mul(self.theta, w.matrix), self.theta) == w.matrix
        ]
        self.w_L = _generated_subgroup(
            [datum.simple_reflections[i].matrix for i in self.delta_L], datum.rank
        )
        self.w_GK = _generated_subgroup(
            [self.restricted_reflection(k).matrix for k in range(len(self.restricted))],
            datum.rank,
        )
        if len(self.w_theta) != len(self.w_L) * len(self.w_GK):
            raise NotMinimalRankError(
                "Weyl subgroup orders violate the restriction exact sequence"
            )

    def restricted_reflection(self, k: int) -> WeylElement:
        """The representative s_alpha s_{theta(alpha)} of the k-th restricted
        reflection (the two reflections commute, so this is an involution)."""
        _, i, talpha = self.restricted[k]
        d = self.datum
        return d.simple_reflections[i].compose(d.reflection_element(talpha))

    def counts(self) -> dict:
        return {
            "rank": self.datum.rank,
            "weyl_order": self.datum.order(),
            "w_theta_order": len(self.w_theta),
            "w_L_order": len(self.w_L),
            "w_GK_order": len(self.w_GK),
            "restricted_rank": len(self.restricted),
        }


def _generated_subgroup(gen_matrices, n):
    identity = _identity(n)
    seen = {identity}
    queue = [identity]
    for m in queue:
        for g in gen_matrices:
            new = mat_mul(m, g)
            if new not in seen:
                seen.add(new)
                queue.append(new)
    return queue


def build_symmetric_datum(case, theta=None) -> SymmetricDatum:
    """Build symmetric-space data.

    ``case`` is either ``"group:<adjoint tag>"`` (the group case: G = H x H
    with the swap involution) or a RootDatum accompanied by an explicit theta
    matrix.
    """
    if isinstance(case, str):
        if not case.startswith("group:"):
            raise UnsupportedTypeError(
                f"unsupported symmetric case {case!r}; expected group:<tag>"
            )
        base = build_root_datum(case[len("group:"):])
        if not base.adjoint:
            raise UnsupportedTypeError("the group case needs an adjoint root datum")
        datum = product_datum(base, base)
        n = base.rank
        theta = [
            [1 if (i + n) % (2 * n) == j else 0 for j in range(2 * n)]
            for i in range(2 * n)
        ]
        return SymmetricDatum(datum, theta, label=case)
    if theta is None:
        raise InvolutionError("custom symmetric datum needs a theta matrix")
    return SymmetricDatum(case, theta, label="custom")
