"""Spans around ddapprox's public entry points, installed from outside.

`Tracer.install()` rebinds each traced function or method, in every ddapprox
module namespace that holds it (so `cli` and `approx`, which import names
from their siblings, are traced as well), and `uninstall()` puts the
originals back. Spans (name, parent, start, end) are kept in flat arrays and
turned into per-layer counts and self times only after the pass.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, function) pairs traced wherever ddapprox binds them.
FUNCTIONS = {
    "circuits": ("simulate", "parse", "ghz", "qft", "random_circuit"),
    "analysis": ("upstream", "downstream", "contributions", "nodes_by_level", "sample_paths"),
    "approx": ("eliminate", "approx_sampling", "approx_threshold",
               "approx_target_fidelity", "approx_per_level", "apply_scheme"),
    "fidelity": ("fidelity", "inner_product"),
    "cli": ("main",),
}
# (module, class, method) triples traced on the class itself.
METHODS = (
    ("complex_table", "ComplexTable", "lookup"),
    ("dd", "DDPackage", "make_node"),
    ("dd", "DDPackage", "from_vector"),
    ("dd", "StateDD", "norm"),
    ("dd", "StateDD", "size"),
)
SCHEMES = ("approx_sampling", "approx_threshold", "approx_target_fidelity",
           "approx_per_level", "apply_scheme")


class Tracer:
    """Records one span per traced call plus exact counts at the boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.reset_counts()

    def reset_counts(self) -> None:
        self.value_inserts = 0
        self.unique_inserts = 0
        self.gate_s: list[float] = []
        self.walk_visits = 0
        self.eliminated_nodes = 0
        self.committed_eliminations = 0
        self.state_size = 0
        self.packages: list = []

    def clear_spans(self) -> None:
        for a in (self.name, self.parent, self.start, self.end):
            del a[:]

    # -- span recording -----------------------------------------------------

    def _span(self, label: str, fn):
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _wrappers(self, dd):
        """label -> function(original) building the traced replacement."""

        def lookup(fn):
            span = self._span("complex_table.lookup", fn)

            def traced(table, *args, **kwargs):
                before = len(table)
                v = span(table, *args, **kwargs)
                self.value_inserts += len(table) - before
                return v

            return traced

        def make_node(fn):
            span = self._span("dd.make_node", fn)

            def traced(pkg, *args, **kwargs):
                before = pkg.unique_table_size()
                e = span(pkg, *args, **kwargs)
                self.unique_inserts += pkg.unique_table_size() - before
                return e

            return traced

        def built_state(label):
            def wrap(fn):
                span = self._span(label, fn)

                def traced(*args, **kwargs):
                    state = span(*args, **kwargs)
                    self.state_size += len(dd.reachable_nodes(state))
                    self.packages.append(state.package)
                    return state

                return traced

            return wrap

        def simulate(fn):
            inner = built_state("circuits.simulate")(fn)

            def traced(circuit, package=None, observer=None):
                mark = [time.perf_counter()]

                def timing_observer(index, gate, state):
                    now = time.perf_counter()
                    self.gate_s.append(now - mark[0])
                    if observer is not None:
                        observer(index, gate, state)
                    mark[0] = time.perf_counter()

                return inner(circuit, package, timing_observer)

            return traced

        def sample_paths(fn):
            span = self._span("analysis.sample_paths", fn)

            def traced(*args, **kwargs):
                counts = span(*args, **kwargs)
                self.walk_visits += sum(counts.counts.values())
                return counts

            return traced

        def scheme(label):
            def wrap(fn):
                span = self._span(label, fn)

                def traced(*args, **kwargs):
                    out, report = span(*args, **kwargs)
                    self.eliminated_nodes += report.eliminated
                    self.committed_eliminations += report.eliminated > 0
                    return out, report

                return traced

            return wrap

        special = {
            "complex_table.lookup": lookup,
            "dd.make_node": make_node,
            "dd.from_vector": built_state("dd.from_vector"),
            "circuits.simulate": simulate,
            "analysis.sample_paths": sample_paths,
        }
        for name in SCHEMES:
            if name != "apply_scheme":  # its report is counted in the scheme it calls
                special[f"approx.{name}"] = scheme(f"approx.{name}")
        return special

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        def module(name):
            return importlib.import_module(f"ddapprox.{name}")

        special = self._wrappers(module("dd"))
        for name in FUNCTIONS:
            module(name)
        modules = [m for k, m in sys.modules.items() if k == "ddapprox" or k.startswith("ddapprox.")]
        for mod_name, fns in FUNCTIONS.items():
            for fn_name in fns:
                label = f"{mod_name}.{fn_name}"
                original = getattr(module(mod_name), fn_name)
                make = special.get(label, lambda fn, label=label: self._span(label, fn))
                traced = make(original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, traced)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(module(mod_name), cls_name)
            label = f"{mod_name}.{meth}"
            make = special.get(label, lambda fn, label=label: self._span(label, fn))
            self._patch(cls, meth, make(vars(cls)[meth]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Counts and self times of the spans recorded since clear_spans()."""
        names, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        calls = dict(zip(self.names, np.bincount(names, minlength=k).tolist()))
        self_by = dict(zip(self.names, np.bincount(names, weights=self_s, minlength=k).tolist()))
        total_by = dict(zip(self.names, np.bincount(names, weights=dur, minlength=k).tolist()))

        def module_self(prefix: str) -> float:
            return sum(v for n, v in self_by.items() if n.startswith(prefix + "."))

        lookups = calls["complex_table.lookup"]
        make_nodes = calls["dd.make_node"]
        eliminates = calls["approx.eliminate"]
        gates_ms = np.array(self.gate_s) * 1e3
        packages = {id(p): p for p in self.packages}.values()
        m = {
            "complex_table.lookups": lookups,
            "complex_table.inserts": self.value_inserts,
            "complex_table.insert_ratio": _ratio(self.value_inserts, lookups),
            "complex_table.lookup_s": self_by["complex_table.lookup"],
            "complex_table.values_final": sum(len(p.table) for p in packages),
            "dd.make_node_calls": make_nodes,
            "dd.unique_inserts": self.unique_inserts,
            "dd.unique_hit_ratio": _ratio(make_nodes - self.unique_inserts, make_nodes),
            "dd.make_node_s": self_by["dd.make_node"],
            "dd.unique_entries_final": sum(p.unique_table_size() for p in packages),
            "dd.state_size": self.state_size,
            "dd.norm_calls": calls["dd.norm"],
            "dd.norm_s": self_by["dd.norm"],
            "dd.size_calls": calls["dd.size"],
            "dd.size_s": self_by["dd.size"],
            "dd.from_vector_s": self_by["dd.from_vector"],
            "circuits.simulate_s": self_by["circuits.simulate"],
            "circuits.gates": len(gates_ms),
            "circuits.gate_ms_p50": float(np.percentile(gates_ms, 50)) if len(gates_ms) else 0.0,
            "circuits.gate_ms_p99": float(np.percentile(gates_ms, 99)) if len(gates_ms) else 0.0,
            "analysis.upstream_s": self_by["analysis.upstream"],
            "analysis.downstream_s": self_by["analysis.downstream"],
            "analysis.contributions_s": self_by["analysis.contributions"],
            "analysis.nodes_by_level_s": self_by["analysis.nodes_by_level"],
            "analysis.sample_paths_s": self_by["analysis.sample_paths"],
            "analysis.walk_visits": self.walk_visits,
            "approx.eliminate_calls": eliminates,
            "approx.eliminate_s": self_by["approx.eliminate"],
            "approx.eliminate_total_s": total_by["approx.eliminate"],
            "approx.select_s": sum(self_by[f"approx.{s}"] for s in SCHEMES),
            "approx.eliminated_nodes": self.eliminated_nodes,
            "approx.eliminate_useful_ratio": _ratio(self.committed_eliminations, eliminates),
            "fidelity.fidelity_calls": calls["fidelity.fidelity"],
            "fidelity.fidelity_s": self_by["fidelity.fidelity"],
            "trace.spans": len(dur),
        }
        for module in ("complex_table", "dd", "circuits", "analysis", "approx", "fidelity", "cli"):
            m[f"{module}.self_s"] = module_self(module)
        return m

    def _arrays(self):
        # copies, so the arrays stay resizable for the next pass
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def write_spans(self, path: Path) -> None:
        """The recorded spans as .npz: names, then per span its name index,
        parent span index (-1 for none), start and end (perf_counter s)."""
        name, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
