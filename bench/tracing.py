"""Spans recorded from outside the simulator, around calls into each layer.

``installed`` swaps public functions and methods of the ``wgqsim``
modules for timing wrappers.  A module-level function is replaced in
every ``wgqsim`` module that holds a reference to it, because callers
look it up there (``wgqsim.protocols.execute``,
``wgqsim.params.scatter_coeffs``, ...); methods are replaced on their
class.  The program itself is not changed and gains no option.

A span is (name, start, end, parent span, item id).  Spans stay in
memory in flat arrays and are written out once, at the end of a run.
A layer's self time is its span's duration minus the durations of its
direct children.  The simulator is single-threaded once
``WGQSIM_THREADS`` is unset, so spans nest strictly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

ITEM_SPAN = "bench.item"

# SystemState methods that get a span each; the instance methods among
# them also feed the slot counters.
STATE_OPS = (
    "total_norm",
    "apply_polarization_unitary",
    "apply_mode_mixer",
    "apply_pbs",
    "apply_mirror",
    "apply_attenuator",
    "apply_emitter_scatter",
    "initial",
    "measure_detector_bank",
    "copy",
)

# (module, attribute, span name) for module-level functions.
FUNCTIONS = (
    ("scatter", "scatter_coeffs", "scatter.scatter_coeffs"),
    ("scatter", "hwp_matrix", "scatter.hwp_matrix"),
    ("circuit", "execute", "circuit.execute"),
    ("protocols", "build_protocol", "protocols.build_protocol"),
    ("protocols", "postprocess_execution", "protocols.postprocess_execution"),
    ("protocols", "run_protocol", "protocols.run_protocol"),
    ("analysis", "success_probability", "analysis.success_probability"),
    ("analysis", "simulated_success_probability", "analysis.simulated_success_probability"),
    ("analysis", "conditioned_fidelity", "analysis.conditioned_fidelity"),
    ("analysis", "fidelity_kernel", "analysis.fidelity_kernel"),
    ("analysis", "averaged_fidelity", "analysis.averaged_fidelity"),
    ("analysis", "sweep", "analysis.sweep"),
    ("netlist", "parse", "netlist.parse"),
    ("cli", "main", "cli.main"),
)

# (module, class, attribute, span name) for methods other than STATE_OPS.
METHODS = (
    ("params", "ProtocolParams", "coeffs", "params.ProtocolParams.coeffs"),
    ("params", "ProtocolParams", "nominal_coeffs", "params.ProtocolParams.nominal_coeffs"),
    ("state", "EmitterState", "change_basis", "state.EmitterState.change_basis"),
    ("circuit", "Circuit", "validate", "circuit.validate"),
    ("circuit", "ExecutionResult", "trace_dump", "circuit.trace_dump"),
)


class Tracer:
    """In-memory span table plus counters, one per process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.item_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[int] = []
        # Distinct register configs cost a pass over every slot, so they
        # are only counted in a separate, untimed pass.
        self.count_configs = False
        self._item_peak_configs = 0
        self._item_useful_configs: set[int] = set()

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item_id.append(self.item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._name(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def begin_item(self, item: int) -> None:
        """Spans opened from now on carry this item id."""
        self.item = item
        self._item_peak_configs = 0
        self._item_useful_configs = set()

    def end_item(self) -> None:
        if self.count_configs:
            self.counts["state.peak_configs"] += self._item_peak_configs
            self.counts["state.useful_configs"] += len(self._item_useful_configs)
        self.item = -1

    @contextlib.contextmanager
    def item_span(self, item: int):
        """Root span of one benchmark item."""
        self.begin_item(item)
        try:
            with self.span(ITEM_SPAN) as idx:
                yield idx
        finally:
            self.end_item()

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self._name(name)
        errors = name + ".errors"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[errors] += 1
                raise
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counter hooks -----------------------------------------------------

    def _state_entry(self, args, kwargs) -> None:
        amps = args[0].amplitudes
        live = len(amps)
        self.counts["state.slot_visits"] += live
        if live > self.counts["state.peak_live_slots"]:
            self.counts["state.peak_live_slots"] = live
        if self.count_configs:
            configs = len({c for (_, _, c) in amps})
            if configs > self._item_peak_configs:
                self._item_peak_configs = configs

    def _kernel_rows(self, args, kwargs) -> None:
        offsets = args[2] if len(args) > 2 else kwargs["offsets"]
        self.counts["analysis.fidelity_kernel.rows"] += len(np.atleast_2d(offsets))

    def _reported_configs(self, args, run) -> None:
        if self.count_configs:
            for oc in run.outcomes:
                reg = oc.corrected if oc.corrected is not None else oc.conditioned
                self._item_useful_configs.update(reg.amps)

    # -- results -----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur - child

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name over item spans: self time (s), calls, duration (s)."""
        self_t = self.self_times()
        names = np.frombuffer(self.name_id, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        keep = np.frombuffer(self.item_id, dtype=np.int64) >= 0
        size = len(self.names)
        self_sum = np.bincount(names[keep], weights=self_t[keep], minlength=size)
        calls = np.bincount(names[keep], minlength=size)
        dur_sum = np.bincount(names[keep], weights=dur[keep], minlength=size)
        by_name = lambda a: {n: float(a[i]) for i, n in enumerate(self.names)}
        return by_name(self_sum), by_name(calls), by_name(dur_sum)

    def probe_self_ms(self, name: str) -> float:
        """Mean self time of spans outside any item (probe calls), ms."""
        self_t = self.self_times()
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        outside = np.frombuffer(self.item_id, dtype=np.int64) < 0
        sel = outside & (ids == self._ids.get(name, -1))
        return float(self_t[sel].mean() * 1e3) if sel.any() else 0.0

    def reset(self) -> None:
        """Drop all spans and counters but keep the wrappers' name ids."""
        for arr in (self.name_id, self.parent, self.item_id, self.start, self.end):
            del arr[:]
        self.counts.clear()

    def export(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.name_id[i], self.start[i], self.end[i], self.parent[i], self.item_id[i]]
                for i in range(len(self.end))
            ],
            "counts": dict(self.counts),
        }

    def merge(self, data: dict, parent: int, item: int) -> None:
        """Add another process's spans under span ``parent`` of this one."""
        remap = [self._name(n) for n in data["names"]]
        base = len(self.end)
        for nid, start, end, par, _ in data["spans"]:
            self.name_id.append(remap[nid])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(par + base if par >= 0 else parent)
            self.item_id.append(item)
        for key, value in data["counts"].items():
            if key == "state.peak_live_slots":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\titem\n")
            for i in range(len(self.end)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                    f"\t{self.parent[i]}\t{self.item_id[i]}\n"
                )


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the simulator's layers for the duration of the block."""
    import wgqsim
    import wgqsim.cli  # noqa: F401  (not imported by the package itself)

    modules = [m for name, m in sys.modules.items() if name == "wgqsim" or name.startswith("wgqsim.")]
    undo: list[tuple[object, str, object]] = []

    def replace(owner, attr, value) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    hooks = {
        "analysis.fidelity_kernel": (tracer._kernel_rows, None),
        "protocols.postprocess_execution": (None, tracer._reported_configs),
    }
    for mod_name, attr, span in FUNCTIONS:
        original = getattr(sys.modules[f"wgqsim.{mod_name}"], attr)
        before, after = hooks.get(span, (None, None))
        wrapped = tracer.wrap(span, original, before, after)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                replace(mod, attr, wrapped)

    def replace_method(cls, attr, span, before=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, property):
            replace(cls, attr, property(tracer.wrap(span, raw.fget, before)))
        elif isinstance(raw, classmethod):
            replace(cls, attr, classmethod(tracer.wrap(span, raw.__func__, before)))
        else:
            replace(cls, attr, tracer.wrap(span, raw, before))

    system_state = wgqsim.state.SystemState
    for op in STATE_OPS:
        replace_method(
            system_state, op, f"state.{op}", None if op == "initial" else tracer._state_entry
        )
    for mod_name, cls_name, attr, span in METHODS:
        replace_method(getattr(sys.modules[f"wgqsim.{mod_name}"], cls_name), attr, span)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def child_main(argv: list[str]) -> int:
    """Run ``wgqsim.cli.main`` traced.

    argv is SPANS_FILE ITEM COUNT_CONFIGS CLI_ARGS...; the spans and
    counters go to SPANS_FILE for the parent to merge.
    """
    out_path, item, count_configs, cli_args = argv[0], int(argv[1]), argv[2] == "1", argv[3:]
    import wgqsim.cli

    tracer = Tracer()
    tracer.count_configs = count_configs
    with installed(tracer):
        tracer.begin_item(item)
        try:
            code = wgqsim.cli.main(cli_args)
        finally:
            tracer.end_item()
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
