"""Generalized Demazure operators and Bott-Samelson classes.

The operator attached to a simple root alpha is computed through the single
exact division

    del_alpha(f) = kappa(x_alpha) * f  -  (f - s_alpha(f)) / x_alpha,

which agrees with (1 + s_alpha)(f / x_{-alpha}) wherever the two summands of
the latter make sense separately, but never leaves the ring of honest series.
Divisibility of f - s_alpha(f) by x_alpha holds for every f, so a failure is
a defect signal, not a data error.

Sign convention: the denominator is x_{-alpha}.  Under the additive law this
makes del_alpha equal to *minus* the classical divided difference.

Each application lowers homogeneous degree and precision by one.

The quotient (f - s_alpha(f)) / x_alpha comes from the law context's
memoised divided difference (:func:`roots.divided_difference`), which
divides each t-monomial's difference once and is linear over the
coefficient ring.  ``verify lemma-div`` takes its quotients from the same
operator and still certifies each one, sample by sample, by multiplying
back by x_beta.
"""

from __future__ import annotations

from .errors import PrecisionExhaustedError, UnsupportedTypeError
from .gkm import GKMClass, GKMGraph
from .linalg import vneg
from .roots import RootDatum, divided_difference
from .series import GradedSeries


def _simple_index(datum: RootDatum, alpha) -> int:
    if isinstance(alpha, int):
        if not 0 <= alpha < datum.nsimple:
            raise UnsupportedTypeError(f"no simple root with index {alpha}")
        return alpha
    alpha = tuple(alpha)
    try:
        return datum.simple_roots.index(alpha)
    except ValueError:
        raise UnsupportedTypeError(f"{alpha} is not a simple root") from None


def kappa_of_character(ctx, chi) -> GradedSeries:
    """kappa(x_chi), a homogeneous degree -1 series in the lattice variables,
    computed once per law context and sorted character."""
    return ctx.kappa_of_character(chi)


def demazure(
    f: GradedSeries, alpha, ctx, datum: RootDatum
) -> GradedSeries:
    """Apply the Demazure operator of a simple root; precision drops by one."""
    if f.precision < 1:
        raise PrecisionExhaustedError("no precision left for a Demazure step")
    i = _simple_index(datum, alpha)
    alpha_vec = datum.simple_roots[i]
    s = datum.simple_reflections[i]
    quotient = divided_difference(s, alpha_vec, f, ctx, datum)
    out = kappa_of_character(ctx, alpha_vec) * f - quotient
    return out.truncate(f.precision - 1)


def sw_linearity_check(
    f: GradedSeries, g: GradedSeries, alpha, ctx, datum: RootDatum
) -> bool:
    """Whether del_alpha(g * f) == g * del_alpha(f); expects invariant g."""
    lhs = demazure(g * f, alpha, ctx, datum)
    return lhs.equals_product(g, demazure(f, alpha, ctx, datum))


def point_class(graph: GKMGraph) -> GKMClass:
    """The class of the base fixed point: the Euler class of its tangent
    space (the product of x_{-beta} over positive roots) at the base vertex,
    zero elsewhere."""
    datum = graph.datum
    if datum is None or graph.kind != "flag":
        raise UnsupportedTypeError("point class needs a flag graph")
    ctx = graph.ctx
    euler = GradedSeries.constant(1, datum.rank, ctx.precision)
    for beta in datum.positive_roots:
        euler = euler * ctx.formal_sum(vneg(beta))
    values = [
        euler if i == 0 else GradedSeries.zero(datum.rank, ctx.precision)
        for i in range(graph.nvertices)
    ]
    return GKMClass(graph, values)


def demazure_gkm(c: GKMClass, alpha) -> GKMClass:
    """The equivariant Demazure operator on flag-graph classes.

    At the fixed point w the result is
    ``kappa(x_{w alpha}) c_w - (c_w - c_{w s_alpha}) / x_{w alpha}``, which
    equals ``c_w / x_{-w alpha} + c_{w s_alpha} / x_{w alpha}`` because
    kappa(x_chi) = 1/x_chi + 1/x_{-chi}.  That is symmetric in w and
    w s_alpha, so it is computed once per pair and given to both vertices.
    """
    graph = c.graph
    if graph.kind != "flag":
        raise UnsupportedTypeError("equivariant Demazure operators act on flag graphs")
    if c.precision < 1:
        raise PrecisionExhaustedError("no precision left for a Demazure step")
    datum = graph.datum
    ctx = graph.ctx
    i = _simple_index(datum, alpha)
    alpha_vec = datum.simple_roots[i]
    s = datum.simple_reflections[i]
    out = [None] * graph.nvertices
    for vi, w in enumerate(graph.weyl_vertices):
        if out[vi] is not None:
            continue
        vj = graph.act_vertex_right(vi, s)
        w_alpha = w.act(alpha_vec)
        diff = c.values[vi] - c.values[vj]
        quotient = ctx.divide_by_character(diff, w_alpha)
        kap = kappa_of_character(ctx, w_alpha)
        out[vi] = out[vj] = (kap * c.values[vi] - quotient).truncate(c.precision - 1)
    return GKMClass(graph, out)


def bott_samelson(word, graph: GKMGraph) -> GKMClass:
    """The class of the word's Bott-Samelson resolution: Demazure steps
    applied to the point class, first letter first."""
    datum = graph.datum
    word = tuple(word)
    needed = len(word) + len(datum.positive_roots)
    if graph.precision < needed:
        raise PrecisionExhaustedError(
            f"word of length {len(word)} needs precision >= {needed}"
        )
    c = point_class(graph)
    for alpha in word:
        c = demazure_gkm(c, alpha)
    return c
