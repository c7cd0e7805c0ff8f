"""Command-line interface.

Machine-readable JSON goes to stdout (and to ``--out`` when given); human
summaries go to stderr.  Exit codes: 0 all checks passed, 1 a verification
failed, 2 usage or configuration error.  Every flag can be defaulted through
an environment variable with the ``COBCALC_`` prefix (e.g. ``COBCALC_LAW``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    CobcalcError,
    CoefficientModeError,
    ConfigError,
    InvolutionError,
    NotMinimalRankError,
    PrecisionExhaustedError,
    RepeatedWeightError,
    UnsupportedTypeError,
)
from .fgl import build_law
from .gkm import (
    GKMClass,
    flag_gkm,
    gln_relations,
    invariants_basis,
    line_bundle_class,
    membership,
    subring_basis,
)
from .roots import build_root_datum
from .schubert import bott_samelson
from .series import GradedSeries
from .verify import RunConfig, SUITES, run_suite, suite_fgl_check

_CONFIG_ERRORS = (
    ConfigError,
    UnsupportedTypeError,
    CoefficientModeError,
    NotMinimalRankError,
    InvolutionError,
    RepeatedWeightError,
)


def _env(name: str, fallback=None):
    """The ``COBCALC_`` variable's text, or ``fallback``.  Options give it
    as their default, so argparse converts it with the option's ``type`` and
    rejects a bad value as a usage error."""
    return os.environ.get("COBCALC_" + name.upper().replace("-", "_"), fallback)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _truth(text: str) -> bool:
    try:
        return {"0": False, "1": True, "false": False, "true": True}[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"expected 0, 1, true or false, got {text!r}"
        ) from None


class _Flag(argparse.Action):
    """``store_true`` whose default may be the text of an environment
    variable, read by ``_truth``."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, type=_truth, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--law", default=_env("law", "universal:4"),
                   help="additive | multiplicative[:beta] | universal:N")
    p.add_argument("--type", dest="type_tag", default=_env("type", "gl2"),
                   help="root datum tag (gl2, gl3, a2, b2, g2, psl2xpsl2, ...)")
    p.add_argument("--degree", type=int, default=_env("degree", 5),
                   help="working degree (see each subcommand)")
    p.add_argument("--rational", action=_Flag, default=_env("rational", False),
                   help="compute with rational coefficients")
    p.add_argument("--seed", type=int, default=_env("seed", 0))
    p.add_argument("--out", default=_env("out"),
                   help="also write the JSON artifact to this path")
    p.add_argument("--case", default=_env("case", "group:psl2"),
                   help="symmetric case tag, e.g. group:psl2")
    p.add_argument("--word", default=_env("word", ""),
                   help="comma-separated 1-based simple root indices")
    p.add_argument("--count", type=_positive_int, default=_env("count", 200),
                   help="sample count for randomized suites")
    p.add_argument("--probe-degree", type=int, default=_env("probe-degree", -1),
                   help="max degree for span probes (-1: per-type default)")
    p.add_argument("--class-file", default=_env("class-file"),
                   help="GKM class JSON to verify (gkm verify)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobcalc",
        description="Exact truncated-series calculus for formal group laws, "
        "Demazure operators, and moment-graph models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fgl", help="formal group law tools")
    fgl_sub = p.add_subparsers(dest="subcommand", required=True)
    _add_common(fgl_sub.add_parser("check", help="run the law axiom suite"))

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    _add_common(p)

    p = sub.add_parser("compute", help="compute a JSON artifact")
    p.add_argument("what", choices=("bott-samelson", "subring-basis", "invariants"))
    _add_common(p)

    p = sub.add_parser("schubert", help="Schubert calculus commands")
    sch_sub = p.add_subparsers(dest="subcommand", required=True)
    _add_common(sch_sub.add_parser("bott-samelson",
                                   help="compute a Bott-Samelson class"))

    p = sub.add_parser("gkm", help="moment graph commands")
    gkm_sub = p.add_subparsers(dest="subcommand", required=True)
    _add_common(gkm_sub.add_parser("verify", help="check graph/class congruences"))

    p = sub.add_parser("symmetric", help="wonderful symmetric variety commands")
    sym_sub = p.add_subparsers(dest="subcommand", required=True)
    _add_common(sym_sub.add_parser("verify",
                                   help="compare the invariant subring routes"))
    return parser


def _parse_word(text: str) -> tuple:
    text = (text or "").strip()
    if not text:
        return ()
    try:
        return tuple(int(x) - 1 for x in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse word {text!r}") from None


def _config(args) -> RunConfig:
    return RunConfig(
        law=args.law,
        degree=args.degree,
        type_tag=args.type_tag,
        case=args.case,
        rational=args.rational,
        seed=args.seed,
        word=_parse_word(args.word),
        count=args.count,
        probe_degree=None if args.probe_degree < 0 else args.probe_degree,
    )


def _emit(obj: dict, out_path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(
                f"cannot write --out {out_path!r}: {exc.strerror}"
            ) from None
    sys.stdout.write(text)


def _summarize(report: dict) -> None:
    for check in report.get("checks", ()):
        mark = "ok" if check["pass"] else "FAIL"
        print(f"[{mark}] {check['name']}", file=sys.stderr)
    if "pass" in report:
        print(
            f"{report.get('suite', 'run')}: "
            + ("pass" if report["pass"] else "FAIL"),
            file=sys.stderr,
        )


def _cmd_bott_samelson(cfg: RunConfig) -> dict:
    datum = build_root_datum(cfg.type_tag)
    graph = flag_gkm(datum, cfg.context())
    try:
        return bott_samelson(cfg.word, graph).to_json()
    except PrecisionExhaustedError as exc:
        # the word and the degree both come from the command line
        raise ConfigError(str(exc)) from None


def _cmd_compute(args, cfg: RunConfig) -> dict:
    if args.what == "bott-samelson":
        return _cmd_bott_samelson(cfg)
    if cfg.degree < 0:
        raise ConfigError(f"--degree must be >= 0, got {cfg.degree}")
    datum = build_root_datum(cfg.type_tag)
    ctx = build_law(cfg.law_spec(), max(5, cfg.degree), rational=cfg.rational)
    if args.what == "subring-basis":
        graph = flag_gkm(datum, ctx)
        basis = [c.to_json() for c in subring_basis(graph, cfg.degree)]
    else:
        basis = [s.to_json(ctx.ngens) for s in invariants_basis(datum, ctx, cfg.degree)]
    return {
        "type": cfg.type_tag,
        "degree": cfg.degree,
        "rank": len(basis),
        "basis": basis,
    }


def _read_class(path: str, graph) -> GKMClass:
    """A class on ``graph`` from a vertex-keyed JSON file of series."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        values = [GradedSeries.from_json(data[vid]) for vid in graph.ids]
    except OSError as exc:
        raise ConfigError(f"cannot read class file {path!r}: {exc.strerror}") from None
    except KeyError as exc:
        raise ConfigError(f"class file {path!r} lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed class file {path!r}: {exc}") from None
    if any(v.nvars != graph.nvars for v in values):
        raise ConfigError(f"class file {path!r} has series in the wrong number "
                          f"of variables (expected {graph.nvars})")
    # the congruences are checked through the graph precision only
    top = max(v.precision for v in values)
    if top > graph.precision:
        raise ConfigError(f"class file {path!r} has precision {top} above "
                          f"--degree {graph.precision}")
    return GKMClass(graph, values)


def _cmd_gkm(args, cfg: RunConfig) -> dict:
    datum = build_root_datum(cfg.type_tag)
    ctx = cfg.context()
    graph = flag_gkm(datum, ctx)
    checks = []
    if args.class_file:
        ok, witness = membership(_read_class(args.class_file, graph), graph)
        checks.append({"name": "class_congruences", "pass": ok, "witness": witness})
    else:
        expected_edges = graph.nvertices * len(datum.positive_roots) // 2
        checks.append(
            {
                "name": "edge_count",
                "pass": len(graph.edges) == expected_edges,
                "vertices": graph.nvertices,
                "edges": len(graph.edges),
            }
        )
        ok = True
        for i in range(datum.rank):
            chi = tuple(1 if j == i else 0 for j in range(datum.rank))
            member, _ = membership(line_bundle_class(chi, graph), graph)
            ok = ok and member
        checks.append({"name": "line_bundle_congruences", "pass": ok})
        if datum.label.startswith("gl"):
            rel = gln_relations(datum.rank, graph)
            checks.append({"name": "symmetric_relations", "pass": rel["pass"]})
    return {
        "suite": "gkm-verify",
        "config": cfg.to_json(),
        "graph": graph.to_json(),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config(args)
        if args.command == "fgl":
            report = suite_fgl_check(cfg)
        elif args.command == "verify":
            report = run_suite(args.suite, cfg)
        elif args.command == "compute":
            report = _cmd_compute(args, cfg)
        elif args.command == "schubert":
            report = _cmd_bott_samelson(cfg)
        elif args.command == "gkm":
            report = _cmd_gkm(args, cfg)
        elif args.command == "symmetric":
            report = run_suite("esph", cfg)
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command!r}")
        _emit(report, args.out)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CobcalcError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1
    _summarize(report)
    return 0 if report.get("pass", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
