"""The four cobcalc CLI workloads of the benchmark.

Each workload is one ``cobcalc`` command line, the construction calls that
the command performs first (timed as set-up), and the spans that its traced
run is expected to fire.  No argv uses ``--threads``, ``--cache-dir`` or
``gkm basis``: those features are due to be removed, and the benchmark must
survive that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], list]
    setup: Callable  # (cobcalc package) -> objects built before main
    expect: tuple  # span names that must fire in the traced run


def _bs_gl4_setup(cc):
    datum = cc.build_root_datum("gl4")
    ctx = cc.build_law("universal:9", 10)
    return datum, ctx, cc.flag_gkm(datum, ctx)


def _esph_psl3_setup(cc):
    sd = cc.build_symmetric_datum("group:psl3")
    ctx = cc.build_law("additive", 3, rational=True)
    return sd, ctx, cc.build_wonderful_graph(sd, ctx)


def _lemmadiv_gl3_setup(cc):
    return cc.build_root_datum("gl3"), cc.build_law("universal:4", 5)


def _gln_gl3_setup(cc):
    datum = cc.build_root_datum("gl3")
    ctx = cc.build_law("universal:8", 9)
    return datum, ctx, cc.flag_gkm(datum, ctx)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bs-gl4",
            why="a few large universal-law series: Coeff and Substitution.apply "
            "bound, no linear algebra; target of the series kernel",
            argv=lambda seed: [
                "schubert", "bott-samelson", "--type", "gl4",
                "--law", "universal:9", "--degree", "10", "--word", "1,2,1,3",
            ],
            setup=_bs_gl4_setup,
            expect=(
                "series.GradedSeries.mul",
                "series.Substitution.apply",
                "schubert.kappa_of_character",
                "schubert.demazure_gkm",
                "fgl.FGLContext.divide_by_character",
                "gkm.GKMClass.to_json",
            ),
        ),
        Workload(
            name="esph-psl3",
            why="rational statement with scalar coefficients: large sparse "
            "kernel_int systems dominate; target of the modular solver",
            argv=lambda seed: [
                "verify", "esph", "--case", "group:psl3",
                "--law", "additive", "--degree", "3",
            ],
            setup=_esph_psl3_setup,
            expect=(
                "linalg.kernel_int",
                "linalg.span_equal_rational",
                "wonderful.invariant_subring_X",
                "wonderful.build_wonderful_graph",
            ),
        ),
        Workload(
            name="lemmadiv-gl3",
            why="thousands of small seeded random series through warm "
            "substitution memos: per-series cost of the series kernel",
            argv=lambda seed: [
                "verify", "lemma-div", "--type", "gl3",
                "--law", "universal:4", "--degree", "5",
                "--count", "8000", "--seed", str(seed),
            ],
            setup=_lemmadiv_gl3_setup,
            expect=(
                "series.Substitution.apply",
                "fgl.FGLContext.divide_by_character",
                "fgl.FGLContext.substitution",
                "roots.weyl_act",
            ),
        ),
        Workload(
            name="gln-gl3",
            why="integral lattice path over Z: span_equal_int, Lattice and "
            "small kernel_int systems that the solver rewrite keeps integral",
            argv=lambda seed: [
                "verify", "gln", "--type", "gl3",
                "--law", "universal:8", "--degree", "9", "--probe-degree", "7",
            ],
            setup=_gln_gl3_setup,
            expect=(
                "linalg.kernel_int",
                "linalg.span_equal_int",
                "gkm.subring_basis",
                "gkm.tensor_to_gkm",
            ),
        ),
    )
}
