"""Spans recorded from outside cobcalc, by wrapping its public callables.

Nothing in ``src/cobcalc`` is edited.  A module-level function is replaced in
every ``cobcalc`` module that holds a reference to it (the defining module and
each module that imported the name); a method is replaced on its class.  Each
call becomes a span with a name, start, end and parent, kept in flat arrays in
memory and written out once the run ends.  A layer's self time is its span's
duration minus the time covered by its child spans.

A target that no longer exists is reported as missing and skipped, so a later
refactor of the program never makes the traced run fail.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, attribute) for module-level functions, (module, Class.method) for
# methods.  The span name is "<module>.<attribute>" with dunder methods
# written without underscores (GradedSeries.__mul__ -> GradedSeries.mul).
FUNCTIONS = (
    ("fgl", "build_law"),
    ("roots", "build_root_datum"),
    ("roots", "build_symmetric_datum"),
    ("roots", "weyl_act"),
    ("schubert", "kappa_of_character"),
    ("schubert", "demazure_gkm"),
    ("schubert", "bott_samelson"),
    ("gkm", "flag_gkm"),
    ("gkm", "subring_basis"),
    ("gkm", "tensor_to_gkm"),
    ("gkm", "surjectivity_probe"),
    ("wonderful", "build_wonderful_graph"),
    ("wonderful", "invariant_subring_X"),
    ("wonderful", "invariant_tuple_basis"),
    ("wonderful", "verify_esph"),
    ("linalg", "kernel_int"),
    ("linalg", "span_equal_int"),
    ("linalg", "span_equal_rational"),
    ("verify", "run_suite"),
)
METHODS = (
    ("series", "GradedSeries", "__mul__"),
    ("series", "Substitution", "apply"),
    ("fgl", "FGLContext", "divide_by_character"),
    ("fgl", "FGLContext", "substitution"),
    ("gkm", "GKMClass", "to_json"),
)
# Counted but not spanned: called tens of millions of times.
COUNTED = (("coeffs", "Coeff", ("__mul__", "__rmul__"), "coeffs.Coeff.mul"),)

# Spans whose summed duration (outermost calls only) is reported as
# "<group>.s" over the set-up phase.
SETUP_GROUPS = {
    "fgl.build_law": ("fgl.build_law",),
    "roots.build": ("roots.build_root_datum", "roots.build_symmetric_datum"),
    "gkm.flag_gkm": ("gkm.flag_gkm",),
    "wonderful.build_wonderful_graph": ("wonderful.build_wonderful_graph",),
}
HOOK = "trace.hook"


def _span_name(module: str, *attrs: str) -> str:
    return ".".join((module,) + tuple(a.strip("_") for a in attrs))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self.patched: dict[str, list[str]] = {}
        # facts gathered by hooks
        self.reset_facts()

    def reset_facts(self) -> None:
        """Forget what counters and hooks saw so far (called when the main
        phase starts, so that every count covers main only)."""
        for name in self.counters:  # in place: the counting wrappers hold the dict
            self.counters[name] = 0
        self.kappa_chars: set = set()
        # id -> object: holding the object keeps its id from being reused
        self.substitutions_seen: dict = {}
        self.substitution_hits = 0
        self.kernel_calls: list[tuple] = []  # (rows, cols, nnz, kernel_dim)
        self.largest_system = None

    # -- recording ----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        tracer, nid = self, self._nid(name)

        class _Span:
            def __enter__(self):
                self.idx = tracer._open(nid)

            def __exit__(self, *exc):
                tracer._close(self.idx)

        return _Span()

    def wrap(self, name: str, fn, hook=None):
        nid, hook_nid = self._nid(name), self._nid(HOOK)
        open_, close = self._open, self._close

        if hook is None:
            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                # bookkeeping gets its own span, so it is nobody's self time
                hidx = open_(hook_nid)
                try:
                    hook(args, kwargs, result)
                finally:
                    close(hidx)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count(self, name: str, fn):
        counters = self.counters
        counters[name] = 0

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks ----------------------------------------------------------------

    def _kappa_hook(self, args, kwargs, result):
        chi = args[1] if len(args) > 1 else kwargs["chi"]
        self.kappa_chars.add(tuple(int(c) for c in chi))

    def _substitution_hook(self, args, kwargs, result):
        # FGLContext.substitution memoises per image tuple: a Substitution
        # handed out before is a hit.
        key = id(result)
        if key in self.substitutions_seen:
            self.substitution_hits += 1
        else:
            self.substitutions_seen[key] = result

    def _kernel_hook(self, args, kwargs, result):
        rows = args[0]
        ncols = args[1] if len(args) > 1 else kwargs["ncols"]
        nnz = sum(1 for r in rows for x in r if x)
        self.kernel_calls.append((len(rows), ncols, nnz, len(result)))
        best = self.largest_system
        if best is None or (nnz, len(rows) * ncols) > (best["nnz"], best["rows"] * best["cols"]):
            self.largest_system = {
                "rows": len(rows),
                "cols": ncols,
                "nnz": nnz,
                "kernel_dim": len(result),
                "triples": [
                    [i, j, str(x)]
                    for i, r in enumerate(rows)
                    for j, x in enumerate(r)
                    if x
                ],
            }

    # -- installation -----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target that exists; record the ones that do not."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__
                                  or name.startswith(package.__name__ + "."))
        ]
        hooks = {
            "schubert.kappa_of_character": self._kappa_hook,
            "fgl.FGLContext.substitution": self._substitution_hook,
            "linalg.kernel_int": self._kernel_hook,
        }
        for mod_name, attr in FUNCTIONS:
            name = _span_name(mod_name, attr)
            home = sys.modules.get(f"{package.__name__}.{mod_name}")
            orig = getattr(home, attr, None)
            if not callable(orig):
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, orig, hooks.get(name))
            where = []
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        where.append(m.__name__.rsplit(".", 1)[-1])
            self.patched[name] = sorted(set(where))
        for mod_name, cls_name, attr in METHODS:
            name = _span_name(mod_name, cls_name, attr)
            cls = getattr(sys.modules.get(f"{package.__name__}.{mod_name}"), cls_name, None)
            orig = cls.__dict__.get(attr) if cls is not None else None
            if not callable(orig):
                self.missing.append(name)
                continue
            setattr(cls, attr, self.wrap(name, orig, hooks.get(name)))
            self.patched[name] = [mod_name]
        for mod_name, cls_name, attrs, name in COUNTED:
            cls = getattr(sys.modules.get(f"{package.__name__}.{mod_name}"), cls_name, None)
            found = [a for a in attrs if cls is not None and callable(cls.__dict__.get(a))]
            if not found:
                self.missing.append(name)
                continue
            originals = {a: cls.__dict__[a] for a in found}
            counted = {}
            for a, orig in originals.items():
                # aliases (__rmul__ = __mul__) share one counting wrapper
                if orig not in counted:
                    counted[orig] = self.count(name, orig)
                setattr(cls, a, counted[orig])
            self.patched[name] = [mod_name]

    # -- summaries ----------------------------------------------------------------

    def _phases(self) -> dict:
        """Indices of the spans under each outermost span name ("setup",
        "main").  A span's parent is recorded before the span itself."""
        root = list(range(len(self.start)))
        phases: dict[str, set] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                root[i] = root[p]
            phases.setdefault(self.names[self.name_id[root[i]]], set()).add(i)
        return phases

    def summary(self) -> dict:
        """Per-layer metrics: calls and self time over the main phase, and
        set-up time per construction group over the set-up phase."""
        n = len(self.start)
        names, name_id, parent = self.names, self.name_id, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        phases = self._phases()
        in_main, in_setup = phases.get("main", set()), phases.get("setup", set())

        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        mono_products = 0
        apply_nid = self._ids.get("series.Substitution.apply")
        mul_nid = self._ids.get("series.GradedSeries.mul")
        for i in sorted(in_main):
            name = names[name_id[i]]
            s = dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + s
            total_s[name] = total_s.get(name, 0.0) + dur[i]
            if name != HOOK:
                layer = name.split(".", 1)[0] if "." in name else "cli"
                layer = "verify_cli" if layer in ("cli", "verify") else layer
                layer_self[layer] = layer_self.get(layer, 0.0) + s
            if name_id[i] == mul_nid and parent[i] >= 0 and name_id[parent[i]] == apply_nid:
                mono_products += 1

        setup_s = {}
        for group, members in SETUP_GROUPS.items():
            ids = {self._ids[m] for m in members if m in self._ids}
            acc = 0.0
            for i in in_setup:
                if name_id[i] in ids:
                    p = parent[i]
                    while p >= 0 and name_id[p] not in ids:
                        p = parent[p]
                    if p < 0:
                        acc += dur[i]
            setup_s[group] = acc

        m: dict[str, float] = {}
        m["coeffs.Coeff.mul.calls"] = self.counters.get("coeffs.Coeff.mul", 0)
        for name in ("series.GradedSeries.mul", "series.Substitution.apply",
                     "schubert.demazure_gkm", "fgl.FGLContext.divide_by_character",
                     "roots.weyl_act", "linalg.kernel_int"):
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
        m["series.Substitution.apply.monomial_products"] = mono_products
        m["schubert.kappa_of_character.calls"] = calls.get("schubert.kappa_of_character", 0)
        m["schubert.kappa_of_character.distinct"] = len(self.kappa_chars)
        m["schubert.kappa_of_character.s"] = total_s.get("schubert.kappa_of_character", 0.0)
        m["gkm.GKMClass.to_json.s"] = total_s.get("gkm.GKMClass.to_json", 0.0)
        sub_calls = calls.get("fgl.FGLContext.substitution", 0)
        m["fgl.FGLContext.substitution.calls"] = sub_calls
        m["fgl.FGLContext.substitution.hit_ratio"] = (
            self.substitution_hits / sub_calls if sub_calls else 0.0
        )
        kc = self.kernel_calls
        m["linalg.kernel_int.max_rows"] = max((c[0] for c in kc), default=0)
        m["linalg.kernel_int.max_cols"] = max((c[1] for c in kc), default=0)
        m["linalg.kernel_int.max_nnz"] = max((c[2] for c in kc), default=0)
        ls = self.largest_system
        m["linalg.kernel_int.kernel_dim"] = ls["kernel_dim"] if ls else 0
        for name in ("wonderful.invariant_subring_X", "wonderful.invariant_tuple_basis",
                     "linalg.span_equal_int", "linalg.span_equal_rational",
                     "gkm.subring_basis", "gkm.tensor_to_gkm"):
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
        for group, secs in setup_s.items():
            m[f"{group}.s"] = secs
        for layer in ("series", "fgl", "roots", "schubert", "gkm", "wonderful",
                      "linalg", "verify_cli"):
            m[f"layer.{layer}.self_s"] = layer_self.get(layer, 0.0)
        return m

    def fired(self) -> set:
        """Names of the spans that fired in the main phase."""
        return {self.names[self.name_id[i]] for i in self._phases().get("main", ())}

    def write(self, path: str, extra: dict) -> None:
        """One JSON header line, then one [name, start, end, parent] line per span."""
        with open(path, "w") as fh:
            head = dict(extra, names=self.names, counters=self.counters,
                        missing=self.missing, patched=self.patched,
                        columns=["name", "start", "end", "parent"])
            fh.write(json.dumps(head, sort_keys=True) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.name_id[i]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]}]\n")
