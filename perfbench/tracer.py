"""Span tracer installed around the library from the benchmark's side.

``Tracer.install`` wraps the public functions of each ``mfroots`` module,
the names ``mfroots.builder`` imports from them, a few methods, and the
evaluation entry points of the map classes.  Every reference to a wrapped
function in any ``mfroots`` module is swapped, so calls made inside the
library go through the wrappers too.  ``uninstall`` restores the originals.
An untraced run never creates a ``Tracer`` and pays nothing.

Spans (name, start, end, parent, op id) are kept in flat arrays in memory;
self time is derived after the run as a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

LAYERS = ("core", "structure", "maps", "scalar_roots", "builder", "io", "cli")

# (span name, module, function): the public functions of each layer, the
# names the builder imports from them, and the private scalar-root
# dispatcher the builder calls
_SPANS = (
    ("core.compose", "core", "compose"),
    ("core.iterate", "core", "iterate"),
    ("core.reflect", "core", "reflect"),
    ("core.evaluate", "core", "evaluate"),
    ("core.equivalent", "core", "equivalent"),
    ("structure.jump_set", "structure", "jump_set"),
    ("structure.partition", "structure", "partition"),
    ("structure.transition_table", "structure", "transition_table"),
    ("structure.intensity", "structure", "intensity"),
    ("structure.invariant_intervals", "structure", "invariant_intervals"),
    ("structure.absorbing_data", "structure", "absorbing_data"),
    ("structure.inclusion_fixed_points", "structure", "inclusion_fixed_points"),
    ("structure.split", "structure", "split_at_inclusion_fixed_points"),
    ("structure.hypothesis_H", "structure", "hypothesis_H"),
    ("structure.classify_jump", "structure", "classify_jump"),
    ("maps.compose_maps", "maps", "compose_maps"),
    ("maps.iterate_map", "maps", "iterate_map"),
    ("maps.reflect_map", "maps", "reflect_map"),
    ("scalar_roots.map_pattern", "scalar_roots", "map_pattern"),
    ("scalar_roots.construct", "scalar_roots", "increasing_nth_root"),
    ("scalar_roots.construct", "scalar_roots", "_increasing_root_auto"),
    ("scalar_roots.construct", "scalar_roots", "conjugacy"),
    ("scalar_roots.construct", "scalar_roots", "decreasing_square_root_pair"),
    ("scalar_roots.construct", "scalar_roots", "odd_swap_maps"),
    ("scalar_roots.construct", "scalar_roots", "decreasing_odd_root"),
    ("builder.verify_root", "builder", "verify_root"),
    ("builder.build", "builder", "build_increasing_root"),
    ("builder.build", "builder", "build_decreasing_square_root"),
    ("builder.build", "builder", "build_decreasing_odd_root"),
    ("builder.build", "builder", "rebuild_from_recipe"),
    ("builder.certify", "builder", "certify_nonexistence"),
    ("builder.recheck", "builder", "recheck_certificate"),
    ("builder.j3_chain_report", "builder", "j3_chain_report"),
    ("io.parse_mf", "io", "parse_mf"),
    ("io.serialize_mf", "io", "serialize_mf"),
    ("io.load_mf", "io", "load_mf"),
    ("io.save_mf", "io", "save_mf"),
    ("io.recipe_to_json", "io", "recipe_to_json"),
    ("io.recipe_from_json", "io", "recipe_from_json"),
    ("cli.main", "cli", "main"),
)
# (class module, class, method) -> span name
_METHOD_SPANS = {
    ("core", "Multifunction", "validate"): "core.validate",
    ("core", "Multifunction", "image"): "core.image",
}

# metric name -> (span name, kind); kind "s" is inclusive time of the
# outermost spans of that name, "self_s" their summed self time
_TIME_METRICS = {
    "builder.verify_root.s": ("builder.verify_root", "s"),
    "core.equivalent.s": ("core.equivalent", "s"),
    "core.iterate.s": ("core.iterate", "s"),
    "core.compose.s": ("core.compose", "s"),
    "core.validate.s": ("core.validate", "s"),
    "structure.intensity.s": ("structure.intensity", "s"),
    "structure.split.s": ("structure.split", "s"),
    "structure.hypothesis_H.s": ("structure.hypothesis_H", "s"),
    "structure.classify_jump.s": ("structure.classify_jump", "s"),
    "structure.transition_table.s": ("structure.transition_table", "s"),
    "scalar_roots.construct.s": ("scalar_roots.construct", "s"),
    "scalar_roots.eval.s": ("scalar_roots.eval", "s"),
    "builder.build.self_s": ("builder.build", "self_s"),
    "builder.certify.s": ("builder.certify", "s"),
    "builder.recheck.s": ("builder.recheck", "s"),
    "io.parse_mf.s": ("io.parse_mf", "s"),
    "cli.main.s": ("cli.main", "s"),
}


class Tracer:
    """Records spans and counters while installed; see module docstring."""

    def __init__(self, lib):
        self.lib = lib
        self._names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")  # 1 if no ancestor span has the same name
        self.raised = array("b")  # 1 if the span ended with a typed error
        self.current_op = -1
        self._stack: list = []
        self._depth: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.current_op)
        self.outer.append(1 if self._depth[nid] == 0 else 0)
        self.raised.append(0)
        self.end.append(0.0)
        self._depth[nid] += 1
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, nid: int, raised: bool) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1
        if raised:
            self.raised[idx] = 1

    def _span(self, name: str, fn, on_result=None):
        nid = self._id(name)
        mf_error = self.lib.errors.MfError
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except mf_error:
                tracer._close(idx, nid, True)
                raise
            except BaseException:
                tracer._close(idx, nid, False)
                raise
            tracer._close(idx, nid, False)
            if on_result is not None:
                on_result(idx, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def begin_op(self, op_id: int) -> None:
        self.current_op = op_id

    # -- installation -------------------------------------------------------

    def _modules(self) -> dict:
        return {name: getattr(self.lib, name) for name in LAYERS}

    def _swap_everywhere(self, original, wrapper) -> None:
        for mod in [self.lib.package, *self._modules().values()]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        mods = self._modules()
        hooks = {"structure.intensity": self._on_intensity,
                 "builder.verify_root": self._on_verify,
                 "scalar_roots.construct": self._on_construct}
        for span, mod, fname in _SPANS:
            fn = getattr(mods[mod], fname)
            self._swap_everywhere(fn, self._span(span, fn, hooks.get(span)))

        for (mod, cls_name, meth), span in _METHOD_SPANS.items():
            cls = getattr(mods[mod], cls_name)
            self._patch_attr(cls, meth, self._span(span, cls.__dict__[meth]))
        self._install_counters()

    def _install_counters(self) -> None:
        lib, counts, stack, names = self.lib, self.counts, self._stack, self.name
        equivalent_id = self._id("core.equivalent")

        mf_cls = lib.core.Multifunction
        mf_call = mf_cls.__dict__["__call__"]

        def mf_counted(self_, x):
            counts["core.mf_evals"] += 1
            if stack and names[stack[-1]] == equivalent_id:
                counts["core.equivalent.grid_points"] += 1
            return mf_call(self_, x)

        self._patch_attr(mf_cls, "__call__", mf_counted)

        affine = lib.maps.AffineMap
        for meth in ("__call__", "inverse"):
            original = affine.__dict__[meth]

            def affine_counted(self_, x, _f=original):
                counts["maps.affine_evals"] += 1
                return _f(self_, x)

            self._patch_attr(affine, meth, affine_counted)

        generic = lib.maps.GenericMap
        for meth in ("__call__", "inverse"):
            self._patch_attr(generic, meth, self._span(
                "scalar_roots.eval", generic.__dict__[meth], self._on_eval))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- result hooks -------------------------------------------------------

    def _on_intensity(self, idx, result) -> None:
        self.counts["structure.intensity.calls"] += 1
        self.counts["structure.intensity.rounds"] += max(0, len(result.trace) - 2)

    def _on_verify(self, idx, result) -> None:
        self.counts["builder.verify_root.calls"] += 1
        if result.exact:
            self.counts["builder.verify_root.exact"] += 1

    def _on_construct(self, idx, result) -> None:
        if not self.outer[idx]:
            return
        maps = result if isinstance(result, tuple) else (result,)
        affine = self.lib.maps.AffineMap
        for m in maps:
            self.counts["scalar_roots.constructed"] += 1
            if isinstance(m, affine):
                self.counts["scalar_roots.closed_form"] += 1

    def _on_eval(self, idx, result) -> None:
        self.counts["scalar_roots.lazy_evals"] += 1
        if self.outer[idx] and hasattr(result, "denominator"):
            self.counts["scalar_roots.result_bits"] += int(result.denominator).bit_length()

    # -- derived metrics ----------------------------------------------------

    def _aggregate(self):
        """Per span name: calls, summed self time and inclusive time of the
        outermost spans; per layer: self time and typed errors raised out."""
        n = len(self.name)
        names = self._names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls, own, inclusive = defaultdict(int), defaultdict(float), defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_failed = dict.fromkeys(LAYERS, 0)
        for i in range(n):
            name = names[self.name[i]]
            layer = name.split(".", 1)[0]
            calls[name] += 1
            own[name] += dur[i] - child[i]
            layer_self[layer] += dur[i] - child[i]
            if self.outer[i]:
                inclusive[name] += dur[i]
            p = self.parent[i]
            if self.raised[i] and (p < 0 or names[self.name[p]].split(".", 1)[0] != layer):
                layer_failed[layer] += 1
        return calls, own, inclusive, layer_self, layer_failed

    def metrics(self, op_wall_s: float, untraced_s: float) -> dict:
        """Per-layer metrics as name -> (value, unit).  ``op_wall_s`` is the
        traced operations' wall time, ``untraced_s`` the same operations'
        time without the tracer."""
        _, own, inclusive, layer_self, layer_failed = self._aggregate()
        c = self.counts
        out = {metric: ((inclusive if kind == "s" else own)[span], "s")
               for metric, (span, kind) in _TIME_METRICS.items()}
        for name in ("core.equivalent.grid_points", "core.mf_evals", "maps.affine_evals",
                     "structure.intensity.calls", "structure.intensity.rounds",
                     "scalar_roots.lazy_evals"):
            out[name] = (c[name], "count")
        out["scalar_roots.result_bits"] = (c["scalar_roots.result_bits"], "bit")
        out["scalar_roots.closed_form_frac"] = (_ratio(
            c["scalar_roots.closed_form"], c["scalar_roots.constructed"]), "ratio")
        out["builder.verify_root.exact_frac"] = (_ratio(
            c["builder.verify_root.exact"], c["builder.verify_root.calls"]), "ratio")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
            out[f"{layer}.failed"] = (layer_failed[layer], "count")
        out["trace.spans"] = (len(self.name), "count")
        out["trace.attributed_frac"] = (_ratio(sum(layer_self.values()), op_wall_s), "ratio")
        out["trace.overhead_frac"] = (_ratio(op_wall_s, untraced_s) - 1.0, "ratio")
        return out

    def span_summary(self, top: int = 12):
        """(name, calls, self seconds) of the spans with most self time."""
        calls, own, _, _, _ = self._aggregate()
        ranked = sorted(own, key=own.get, reverse=True)[:top]
        return [(name, calls[name], own[name]) for name in ranked]


def _ratio(num, den) -> float:
    return num / den if den else 0.0

