"""Per-layer tracing from outside the program.

``LayerTracer.install`` replaces each traced public function of ``engel_lab``
with a timing wrapper, in every module that bound it: ``cli``, ``verify``,
``topology`` and ``spectra`` import names with ``from .x import y``, so
patching only the defining module would miss their calls.  ``uninstall``
puts the originals back.

A span's self time is its duration minus the time its child spans cover;
each layer metric is the sum of self times of its functions, so nested calls
are never counted twice.  Counts of calls against builds come from
``cache_info()`` of the ``lru_cache``d functions; sizes of what was built
come from the distinct objects the traced functions returned.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# module -> {public function: layer}
TRACED = {
    "specs": {"build_group": "specs.build"},
    "engel": {
        "left_engel_set": "engel.left_engel",
        "validate_left_engel_baer": "engel.baer",
        "reduced_co_engel_graph": "engel.reduced",
        "co_engel_graph": "engel.full",
        "directed_engel_graph": "engel.directed",
    },
    "groups": {
        name: "groups.structure"
        for name in (
            "center", "upper_central_series", "hypercenter", "is_nilpotent",
            "derived_series", "is_soluble", "is_normal", "subgroup_generated",
            "quotient_group", "quotient_iso_check", "are_isomorphic_small",
        )
    },
    "analysis": {
        "clique_number": "analysis.clique",
        "recognize_complete_multipartite": "analysis.recognize",
        "is_planar": "analysis.planar",
    },
    "spectra": {
        "spectrum_report": "spectra.report",
        "closed_form_spectra": "spectra.report",
        "char_poly_exact": "spectra.charpoly",
        "integer_roots": "spectra.roots",
    },
    "topology": {
        name: "topology.surface"
        for name in (
            "surface_class_of_reduced", "genus_complete", "genus_complete_bipartite",
            "crosscap_complete", "crosscap_complete_bipartite", "genus_K_mnn",
            "genus_uniform_multipartite", "classification_from_genus",
        )
    } | {"zagreb_report": "topology.zagreb", "zagreb_closed_form": "topology.zagreb"},
    "verify": {"run_paper_verification": "verify", "sweep_single_arcs": "verify"},
}

ROOT_LAYER = "cli"
# layers whose distinct return values are sized at the end of each op
KEEP_RESULTS = ("specs.build", "spectra.charpoly", "engel.reduced", "engel.full",
                "engel.directed", "verify")
GRAPH_BUILDERS = ("co_engel_graph", "reduced_co_engel_graph", "directed_engel_graph")

# metric name -> (layer whose self time it sums)
TIME_METRICS = {
    "spectra.report_s": "spectra.report",
    "spectra.charpoly_s": "spectra.charpoly",
    "spectra.roots_s": "spectra.roots",
    "analysis.clique_s": "analysis.clique",
    "analysis.recognize_s": "analysis.recognize",
    "analysis.planar_s": "analysis.planar",
    "engel.reduced_s": "engel.reduced",
    "engel.full_s": "engel.full",
    "engel.directed_s": "engel.directed",
    "engel.left_engel_s": "engel.left_engel",
    "engel.baer_s": "engel.baer",
    "groups.structure_s": "groups.structure",
    "specs.build_s": "specs.build",
    "cli.self_s": ROOT_LAYER,
    "topology.surface_s": "topology.surface",
    "topology.zagreb_s": "topology.zagreb",
    "verify.self_s": "verify",
}

# metric name -> unit; counts summed over a round, then maxima over a round
COUNT_METRICS = {
    "spectra.charpolys": "count",
    "engel.graph_calls": "count",
    "engel.graphs_built": "count",
    "engel.vertex_pairs": "count",
    "engel.edges": "count",
    "groups.structure_calls": "count",
    "specs.build_calls": "count",
    "specs.groups_built": "count",
    "specs.table_entries": "count",
    "cli.output_bytes": "bytes",
    "verify.records": "count",
    "trace.spans": "count",
}
MAX_METRICS = {
    "spectra.matrix_n_max": "count",
    "spectra.coeff_bits_max": "bits",
}


def package_modules() -> dict[str, object]:
    return {
        name.rpartition(".")[2] if name != "engel_lab" else "": mod
        for name, mod in sys.modules.items()
        if name == "engel_lab" or name.startswith("engel_lab.")
    }


def lru_caches() -> dict[tuple[str, str], object]:
    """(module, name) -> every functools cache defined in the package."""
    out = {}
    for mod_name, mod in package_modules().items():
        for name, value in vars(mod).items():
            if (callable(getattr(value, "cache_clear", None))
                    and callable(getattr(value, "cache_info", None))
                    and getattr(value, "__module__", None) == mod.__name__):
                out[(mod_name, name)] = value
    return out


def clear_caches(caches) -> None:
    for fn in caches.values():
        fn.cache_clear()


class LayerTracer:
    """Spans and counters of one traced round; ``reset`` starts the next."""

    def __init__(self, caches):
        self.caches = caches
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self._returned: dict[str, dict[int, object]] = defaultdict(dict)

    # -- spans -------------------------------------------------------------

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn inside a span of ``layer``."""
        span_id = len(self.spans)
        parent = self._stack[-1][1] if self._stack else None
        self.spans.append(None)
        frame = [0.0, span_id]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][0] += duration
            self.self_time[layer] += duration - frame[0]
            self.calls[layer] += 1
            self.spans[span_id] = (span_id, parent, layer, getattr(fn, "__name__", "?"),
                                   start, end)
        if layer in KEEP_RESULTS:
            # kept until the op ends; sizes are taken then, outside any span
            self._returned[layer][id(result)] = result
        return result

    def _wrapper(self, layer: str, fn):
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        modules = package_modules()
        for mod_name, functions in TRACED.items():
            home = modules.get(mod_name)
            for name, layer in functions.items():
                original = getattr(home, name, None)
                if original is None:
                    continue  # a later version may drop a function; it counts 0
                wrapper = self._wrapper(layer, original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._originals.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    # -- per-op accounting, outside the timed region ----------------------

    def end_op(self, output_bytes: int) -> None:
        """Fold the op's cache statistics and returned objects into counts."""
        for (mod, name), fn in self.caches.items():
            info = fn.cache_info()
            if mod == "specs":
                self.counts["specs.build_calls"] += info.hits + info.misses
                self.counts["specs.groups_built"] += info.misses
            elif mod == "engel" and name in GRAPH_BUILDERS:
                self.counts["engel.graph_calls"] += info.hits + info.misses
                self.counts["engel.graphs_built"] += info.misses
        for group in self._returned.pop("specs.build", {}).values():
            self.counts["specs.table_entries"] += group.order ** 2
        for layer in ("engel.reduced", "engel.full", "engel.directed"):
            for graph in self._returned.pop(layer, {}).values():
                if layer == "engel.directed":
                    self.counts["engel.vertex_pairs"] += graph.n * (graph.n - 1)
                    self.counts["engel.edges"] += graph.n_arcs()
                else:
                    self.counts["engel.vertex_pairs"] += graph.n * (graph.n - 1) // 2
                    self.counts["engel.edges"] += graph.n_edges()
        for records in self._returned.pop("verify", {}).values():
            self.counts["verify.records"] += len(records)
        for poly in self._returned.pop("spectra.charpoly", {}).values():
            self.maxima["spectra.matrix_n_max"] = max(
                self.maxima["spectra.matrix_n_max"], len(poly.coeffs) - 1)
            self.maxima["spectra.coeff_bits_max"] = max(
                self.maxima["spectra.coeff_bits_max"],
                max(abs(c).bit_length() for c in poly.coeffs))
        self._returned.clear()
        self.counts["cli.output_bytes"] += output_bytes

    def round_metrics(self) -> dict[str, float]:
        """The round's per-layer values, keyed by metric name."""
        out: dict[str, float] = {m: self.self_time.get(layer, 0.0)
                                 for m, layer in TIME_METRICS.items()}
        out["groups.structure_calls"] = self.calls.get("groups.structure", 0)
        out["spectra.charpolys"] = self.calls.get("spectra.charpoly", 0)
        out["trace.spans"] = len(self.spans)
        for name in COUNT_METRICS:
            out.setdefault(name, self.counts.get(name, 0))
        for name in MAX_METRICS:
            out[name] = self.maxima.get(name, 0)
        return out
