"""Per-layer tracing from outside the package.

The traced run replaces each public function of ``matchgates`` at every
place a caller looks it up (``matchgates.fermion.classify``,
``matchgates.compiler.circuit_unitary``, ``matchgates.cli.run_covariance``,
the ``CompiledCircuit.target_uses`` property, the click command callbacks)
with a wrapper that records a span: name, start, end, parent span and
request.  Spans stay in memory; self times and counters are derived when
the run ends.  ``src/`` is not edited, and every patch is undone on exit.

A separate peak probe, used only in the untimed memory pass, reads the
tracemalloc peak inside chosen functions.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

# Public functions traced, by defining module.  Dotted names are methods or
# properties of a class in that module.
TRACED = {
    "io": (
        "load_circuit", "parse_circuit_document", "parse_gate_spec",
        "gate_from_document", "emit_circuit_document", "dumps_document",
        "histogram_out", "matrix_out",
    ),
    "circuits": ("Circuit.append", "Circuit.append_segment", "Circuit.flat_count"),
    "gates": ("is_unitary", "build_pp", "gate_library", "nl"),
    "analysis": (
        "classify", "kak", "makhlin_invariants", "pp_params", "nonlocal_from_pp",
        "entangling_power_closed", "reconstruct_pp",
    ),
    "compiler": (
        "compile_circuit", "strip_z_rotations", "plan_entangler",
        "build_entangler_block", "logical_single_qubit", "verify",
        "CompiledCircuit.target_uses",
    ),
    "statevector": ("circuit_unitary", "run", "sample", "apply"),
    "fermion": (
        "matchgate_to_rotation", "matchgate_generator_coefficients",
        "run_covariance", "sample_covariance", "init_covariance",
    ),
}
CLI_COMMANDS = ("analyze", "compile", "simulate", "verify")


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "matchgates" or name.startswith("matchgates.")]


def patch_layers(patches: Patches, wrap, names=None) -> None:
    """Replace each traced function (or those in ``names``) with
    ``wrap(fn, name)`` wherever a package module binds it."""
    import matchgates.cli as cli

    modules = _package_modules()
    for layer, attrs in TRACED.items():
        mod = sys.modules[f"matchgates.{layer}"]
        for attr in attrs:
            name = f"{layer}.{attr}"
            if names is not None and name not in names:
                continue
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = vars(cls)[member]
                if isinstance(raw, property):
                    patches.set(cls, member, property(wrap(raw.fget, name)))
                else:
                    patches.set(cls, member, wrap(raw, name))
                continue
            fn = getattr(mod, attr)
            wrapped = wrap(fn, name)
            for m in modules:
                for bound, value in list(vars(m).items()):
                    if value is fn:
                        patches.set(m, bound, wrapped)
    for command in CLI_COMMANDS:
        name = f"cli.{command}"
        if names is None or name in names:
            cmd = cli.main.commands[command]
            patches.set(cmd, "callback", wrap(cmd.callback, name))


class Tracer:
    """Span recorder.  ``request`` tags the spans of the current request."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.request = -1
        self.distinct_rotation_inputs: dict[int, set] = defaultdict(set)
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note_input = name == "fermion.matchgate_to_rotation"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note_input:
                self.distinct_rotation_inputs[self.request].add(args[0].tobytes())
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def per_request(self) -> dict[int, dict[str, list]]:
        """{request: {name: [calls, inclusive s, self s]}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for i, (name, start, end, _, req) in enumerate(self.spans):
            row = table[req][name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return table


class PeakProbe:
    """Tracemalloc peaks of whole requests and of chosen functions.

    Reading the peak of a function resets tracemalloc's peak, so the probe
    keeps the request's running peak itself.
    """

    def __init__(self):
        self.function_peaks: dict[str, int] = defaultdict(int)
        self._request_peak = 0

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            self._request_peak = max(self._request_peak, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self._request_peak = max(self._request_peak, peak)
                self.function_peaks[name] = max(self.function_peaks[name], peak - current)

        return probed

    def measure(self, call) -> int:
        """Peak bytes allocated above the starting level while ``call()`` runs."""
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        self._request_peak = 0
        call()
        return max(self._request_peak, tracemalloc.get_traced_memory()[1]) - base


def layer_metrics(tracer: Tracer, requests: dict[int, dict]) -> dict[str, float]:
    """Median-per-request stats for every traced name plus derived ratios.

    ``requests`` maps a traced request id to its counters (gates, shots).
    """
    table = tracer.per_request()
    ids = [r for r in requests if r in table]
    names = sorted({name for r in ids for name in table[r]})
    out: dict[str, float] = {}
    for name in names:
        rows = [table[r].get(name, (0, 0.0, 0.0)) for r in ids]
        out[f"{name}.calls"] = statistics.median(row[0] for row in rows)
        out[f"{name}.self_s"] = statistics.median(row[2] for row in rows)
        out[f"{name}.total_s"] = sum(row[1] for row in rows)
        out[f"{name}.total_calls"] = sum(row[0] for row in rows)

    def per(name: str, field: str, scale: float) -> float:
        base = sum(requests[r].get(field, 0) for r in ids if name in table[r])
        return scale * out.get(f"{name}.total_s", 0.0) / base if base else 0.0

    retries = [
        max(0, table[r].get("compiler.plan_entangler", (0,))[0] - table[r].get("compiler.compile_circuit", (0,))[0])
        for r in ids
    ]
    out["compiler.plan_entangler.retries"] = statistics.fmean(retries) if retries else 0.0
    calls = out.get("fermion.matchgate_to_rotation.total_calls", 0)
    out["fermion.matchgate_to_rotation.us_per_call"] = (
        1e6 * out["fermion.matchgate_to_rotation.total_s"] / calls if calls else 0.0
    )
    ratios = [
        table[r]["fermion.matchgate_to_rotation"][0] / len(tracer.distinct_rotation_inputs[r])
        for r in ids
        if tracer.distinct_rotation_inputs.get(r)
    ]
    out["fermion.rotations_per_distinct_gate"] = statistics.median(ratios) if ratios else 0.0
    out["fermion.run_covariance.us_per_gate"] = per("fermion.run_covariance", "gates", 1e6)
    out["fermion.sample_covariance.ms_per_shot"] = per("fermion.sample_covariance", "shots", 1e3)
    out["statevector.run.ms_per_gate"] = per("statevector.run", "gates", 1e3)
    return out
