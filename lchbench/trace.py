"""Outside-in tracing of lchkit's layers.

The tracer wraps each listed function at every place it is bound: its
defining module, every lchkit module that imported it by name (for
example `polytopes.solve_unique` and `cli.rat`), and the class it is a
method of (`Polytope.vertices`, `BuildingType.__post_init__`).  Each call
becomes a span (name, parent span, request id, start, end) kept in
memory in flat arrays and written out by `write`.  Self time is a span's
duration minus the time its child spans cover.  Nothing is installed
unless `install` is called, and `uninstall` restores every binding.  A
target that cannot be found, or is bound nowhere, is listed in `missing`;
a traced run with any is not correct, since its metrics would read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (metric prefix, module, attribute path, kind).  The kind marks the calls
# the two yield metrics count.
TARGETS = [
    ("cli.build_parser", "cli", "build_parser", None),
    ("cli.run", "cli", "run", None),
    ("rational.rat", "rational", "rat", None),
    ("rational.rat_str", "rational", "rat_str", None),
    ("lattice.smith_normal_form", "lattice", "smith_normal_form", "lattice"),
    ("lattice.rational_rank", "lattice", "rational_rank", "lattice"),
    ("lattice.solve_unique", "lattice", "solve_unique", "lattice"),
    ("lattice.null_space", "lattice", "null_space", "lattice"),
    ("polytopes.vertices", "polytopes", "Polytope.vertices", "vertices"),
    ("polytopes.active_facets", "polytopes", "Polytope.active_facets", None),
    ("polytopes.codim2_faces", "polytopes", "codim2_faces", None),
    ("polytopes.recession_rays", "polytopes", "Polytope.recession_rays", None),
    ("polytopes.cone_on", "polytopes", "cone_on", None),
    ("polytopes.reduction_slice", "polytopes", "reduction_slice", None),
    ("polytopes.lineality_space", "polytopes", "Polytope.lineality_space", None),
    ("polytopes.is_compact", "polytopes", "Polytope.is_compact", None),
    ("polytopes.dimension", "polytopes", "Polytope.dimension", None),
    ("polytopes.polytope_from_json", "polytopes", "polytope_from_json", None),
    ("buildings.BuildingType.init", "buildings", "BuildingType.__post_init__", None),
    ("buildings.is_stable", "buildings", "is_stable", "stable"),
    ("buildings.canonical_encoding", "buildings", "canonical_encoding", None),
    ("buildings.domain_dim", "buildings", "domain_dim", None),
    ("buildings.boundary_strata", "buildings", "boundary_strata", "strata"),
    ("buildings.component_of", "buildings", "BuildingType.component_of", None),
    ("buildings.split_at", "buildings", "BuildingType.split_at", None),
    ("buildings.map_type_from_json", "buildings", "map_type_from_json", None),
    ("buildings.map_type_to_json_dict", "buildings", "map_type_to_json_dict", None),
    ("chords.enumerate_chords", "chords", "enumerate_chords", None),
    ("chords.generator_set", "chords", "generator_set", None),
    ("contact.lift_exists", "contact", "lift_exists", None),
    ("contact.tame_pair_check", "contact", "tame_pair_check", None),
    ("tameness.check_tame", "tameness", "check_tame", None),
    ("tameness.scenario_verdict", "tameness", "scenario_verdict", None),
    ("tameness.class_data_from_json", "tameness", "class_data_from_json", None),
]

LAYERS = ("cli", "rational", "lattice", "polytopes", "contact", "chords", "buildings", "tameness")


def _lchkit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lchkit" or name.startswith("lchkit."))]


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.calls = [0] * len(TARGETS)
        self.self_s = [0.0] * len(TARGETS)
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []
        self.request = -1
        self.top_level_s = 0.0
        # yield counters
        self.vertices_depth = 0
        self.lattice_in_vertices = 0
        self.vertices_returned = 0
        self.strata_depth = 0
        self.stable_in_strata = 0
        self.strata_returned = 0
        self.wrapped = False
        self.patched: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers; the first call creates them."""
        if not self.wrapped:
            self.wrapped = True
            for idx, (name, module, path, kind) in enumerate(TARGETS):
                original = importlib.import_module(f"lchkit.{module}")
                for part in path.split("."):
                    original = vars(original).get(part) if original is not None else None
                if not callable(original) or not self._find_sites(
                    original, self._wrap(original, idx, kind)
                ):
                    self.missing.append(name)
        for owner, attr, _, wrapper in self.patched:
            setattr(owner, attr, wrapper)

    def _find_sites(self, original, wrapper) -> int:
        """Bind `wrapper` wherever `original` is bound; return the number of sites."""
        # binding at once means a class reached from two modules is seen
        # holding the wrapper the second time, and is recorded once
        before = len(self.patched)
        for module in _lchkit_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patched.append((module, attr, original, wrapper))
                    setattr(module, attr, wrapper)
                elif isinstance(value, type) and value.__module__.startswith("lchkit"):
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self.patched.append((value, cattr, original, wrapper))
                            setattr(value, cattr, wrapper)
        return len(self.patched) - before

    def uninstall(self) -> None:
        """Restore every original binding; `install` binds the wrappers again."""
        for owner, attr, original, _ in reversed(self.patched):
            setattr(owner, attr, original)

    def _wrap(self, fn, idx: int, kind):
        tr = self
        stack = self.stack
        perf = time.perf_counter
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends = self.span_start, self.span_end
        calls, selfs = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kind is not None:
                tr._enter(kind)
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            requests.append(tr.request)
            starts.append(0.0)
            ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                starts[sid] = t0
                ends[sid] = t1
                calls[idx] += 1
                selfs[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    tr.top_level_s += dur
                if kind is not None:
                    tr._exit(kind)
            if kind is not None:
                tr._result(kind, result)
            return result

        return wrapper

    def _enter(self, kind: str) -> None:
        if kind == "lattice":
            if self.vertices_depth:
                self.lattice_in_vertices += 1
        elif kind == "stable":
            if self.strata_depth:
                self.stable_in_strata += 1
        elif kind == "vertices":
            self.vertices_depth += 1
        elif kind == "strata":
            self.strata_depth += 1

    def _exit(self, kind: str) -> None:
        if kind == "vertices":
            self.vertices_depth -= 1
        elif kind == "strata":
            self.strata_depth -= 1

    def _result(self, kind: str, result) -> None:
        if kind == "vertices":
            self.vertices_returned += len(result)
        elif kind == "strata":
            self.strata_returned += len(result.true_boundaries) + len(result.fake_boundaries)

    # -- results -----------------------------------------------------------------

    def metrics(self, traced_wall_s: float) -> dict:
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            layer_self[name.split(".")[0]] += self_s
        for layer, total in layer_self.items():
            out[f"{layer}.self_s"] = total
        out["polytopes.vertices.yield"] = (
            self.vertices_returned / self.lattice_in_vertices if self.lattice_in_vertices else 0.0
        )
        out["buildings.boundary_strata.yield"] = (
            self.strata_returned / self.stable_in_strata if self.stable_in_strata else 0.0
        )
        out["bench.self_s"] = traced_wall_s - self.top_level_s
        return out

    def write(self, path: str) -> None:
        """Header line (JSON), then the five span arrays back to back."""
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": [["name", "H"], ["parent", "q"], ["request", "q"],
                       ["start", "d"], ["end", "d"]],
            "missing": self.missing,
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_request,
                        self.span_start, self.span_end):
                arr.tofile(handle)
