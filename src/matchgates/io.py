"""JSON circuit documents, gate-spec parsing, and report building.

Circuit document (format_version 1)::

    {
      "format_version": 1,
      "qubits": 4,
      "gates": [
        {"name": "h", "targets": [0]},
        {"name": "rz", "targets": [1], "params": ["pi/4"]},
        {"name": "g", "targets": [1, 2], "blocks": {"a": [[...]], "b": [[...]]}},
        {"name": "matrix", "targets": [2, 3], "matrix": [[...]]},
        {"repeat": 12, "gates": [...]}
      ],
      "metadata": {}
    }

Complex entries are [re, im] pairs, row-major.  Angle parameters accept
numbers or pi-literals ("pi/4", "3pi/8", "-pi/2") to avoid decimal drift.

Parsing is stacked.  One pass over the gate entries, repeat bodies
included, checks each entry's structure and builds library gates.  The
numbers of 'g' and 'matrix' entries are converted and checked PARSE_CHUNK
such entries at a time: one conversion (row shapes, number types,
finiteness) and one unitarity check per matrix size, and one G(A, B)
assembly; the ops hold read-only views into the chunk's gate arrays.  Every
'g' block and every 'matrix' entry is checked, so a parsed circuit holds
only admitted ops (see :mod:`matchgates.circuits`).  The targets of all
entries are checked once the document has parsed.  Only a failed check
runs the per-entry helpers (:func:`matrix_in`,
:func:`~matchgates.gates.is_unitary`, ``Circuit._check_targets``), to give
the refusal a per-entry parse gives: the first structural, numeric or
unitarity fault in document order ("gates[3]: matrix is not unitary within
1e-09", or "even block A" / "odd block B" for a 'g' entry, or TooLarge for
a 'repeat' count past ``circuits.REPEAT_CAP``); a target out of range or
repeated only after the whole document has parsed.

Output is stacked too: :func:`emit_circuit_document` converts all of a
circuit's ops in one pass.  All four commands write their JSON through
:func:`dumps_document`, keys sorted: each top-level key on its own line, a
list of objects (a document's gate entries) one element per line, every
other value compact, by the C encoder.  ``json.loads`` of the text equals
that of ``json.dumps(doc, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from typing import Any

import numpy as np

from .analysis import PPParams, reconstruct_pp
from .circuits import REPEAT_CAP, Circuit, CircuitOp, RepeatedSegment
from .errors import BadArity, BadTargets, ParseError, TooLarge, UnknownGate
from .gates import (
    TOL_UNITARY,
    assemble_pp,
    build_pp,
    extract_blocks,
    gate_library,
    is_unitary,
    off_block_weight,
    unitarity_defect,
)

FORMAT_VERSION = 1

# 'g' and 'matrix' entries per stacked conversion and check; it bounds the
# queued rows, the chunk's arrays and their temporaries.
PARSE_CHUNK = 256

_PI_RE = re.compile(
    r"^\s*([+-]?)\s*(\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)


def _finite_number(value: Any) -> float | None:
    """``value`` as a float if it is a finite JSON number (not a bool)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def parse_angle(value: Any) -> float:
    """Finite float from a number or a pi-literal string."""
    angle = _finite_number(value)
    if isinstance(value, str):
        m = _PI_RE.match(value)
        if m:
            sign = -1.0 if m.group(1) == "-" else 1.0
            num = float(m.group(2)) if m.group(2) else 1.0
            den = float(m.group(3)) if m.group(3) else 1.0
            if den != 0.0:
                angle = sign * num * math.pi / den
        else:
            try:
                angle = float(value)
            except ValueError:
                pass
    if angle is None or not math.isfinite(angle):
        raise ParseError(f"cannot parse angle {value!r}")
    return angle


def _angle_list(params: Any, where: str) -> tuple[float, ...]:
    if not isinstance(params, list):
        raise ParseError(f"{where}: 'params' must be a list of angles")
    return tuple(parse_angle(p) for p in params)


def _library_gate(name: str, params: tuple[float, ...], where: str) -> np.ndarray:
    try:
        return gate_library(name, params)
    except (UnknownGate, BadArity) as exc:
        raise ParseError(f"{where}{exc}") from exc


def matrix_in(rows, dim: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise ParseError(f"{where}: expected {dim} rows")
    parts: list = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{where}: row {i} must have {dim} entries")
        for entry in row:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or _finite_number(entry[0]) is None
                or _finite_number(entry[1]) is None
            ):
                raise ParseError(f"complex entries must be [re, im] pairs, got {entry!r}")
            parts += entry
    return np.array(parts, dtype=float).view(complex).reshape(dim, dim)


def matrix_out(m: np.ndarray) -> list:
    """[re, im] pairs of a complex array's entries, nested as the array is."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


# The containers of a matrix written as rows of [re, im] pairs, outermost
# first, as matrix_in accepts them: their types and their length.
_MATRIX_LEVELS = ((list,), (list,), (list, tuple))


def _complex_stack(mats: list, dim: int) -> np.ndarray | None:
    """The ``dim`` x ``dim`` matrices ``mats``, each written as rows of
    [re, im] pairs, as one (len(mats), dim, dim) complex array; None unless
    every one is well formed for :func:`matrix_in`.  Each level of nesting
    is checked for its container types and lengths at once, then the
    numbers for their types (int or float, not bool) and finiteness."""
    level = mats
    for kinds, size in zip(_MATRIX_LEVELS, (dim, dim, 2)):
        if not all(issubclass(t, kinds) for t in set(map(type, level))) or set(map(len, level)) != {size}:
            return None
        level = list(itertools.chain.from_iterable(level))
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, level))):
        return None
    try:
        values = np.fromiter(level, dtype=float, count=len(level))
    except OverflowError:
        return None
    if not np.isfinite(values).all():
        return None
    return values.view(complex).reshape(-1, dim, dim)


class _DocumentParser:
    """One pass over a document's gate entries that checks their structure,
    with the matrices of PARSE_CHUNK 'g' or 'matrix' entries at a time
    converted and checked in stacks.

    Such an entry leaves a placeholder in its op list and is queued;
    :meth:`flush` converts the queue and checks it for unitarity in one
    stacked call each per kind, and places the ops.  A repeat group is a
    plain (count, body) tuple, unlike a CircuitOp, until parsed.
    """

    def __init__(self):
        # (ops, slot, where, kind, targets, tag, mats) of each queued entry:
        # it fills ops[slot]; kind is (op name, matrix size) and mats holds
        # the raw rows of its matrices, the a and b blocks of a 'g' entry.
        self.queue: list = []
        self.targets: list = []

    def walk(self, entries, where: str) -> list:
        if not isinstance(entries, list):
            raise ParseError(f"{where}: expected a list of gate entries")
        ops: list = []
        for i, entry in enumerate(entries):
            spot = f"{where}[{i}]"
            if not isinstance(entry, dict):
                raise ParseError(f"{spot}: gate entries must be objects")
            if "repeat" in entry:
                count = entry["repeat"]
                if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                    raise ParseError(f"{spot}: 'repeat' must be a positive integer")
                if count > REPEAT_CAP:
                    raise TooLarge(f"{spot}: 'repeat' count {count} is past the cap of {REPEAT_CAP}")
                body = self.walk(entry.get("gates", []), f"{spot}.gates")
                if any(type(op) is tuple for op in body):
                    raise ParseError(f"{spot}: nested 'repeat' groups are not supported")
                ops.append((count, body))
                continue
            ops.append(self.gate(entry, spot, ops))
            if len(self.queue) == PARSE_CHUNK:
                self.flush()
        return ops

    def gate(self, entry: dict, where: str, ops: list) -> CircuitOp | None:
        """The op of a library-gate entry.  A 'g' or 'matrix' entry is queued
        to fill ``ops[len(ops)]`` and gives None."""
        targets = entry.get("targets")
        if not isinstance(targets, list) or not targets:
            raise ParseError(f"{where}: missing or empty 'targets'")
        for t in targets:
            if not isinstance(t, int) or isinstance(t, bool):
                raise ParseError(f"{where}: 'targets' must be qubit indices, got {targets!r}")
        if len(targets) > 2:
            raise ParseError(f"{where}: gates act on 1 or 2 qubits, got {len(targets)} targets")
        targets = tuple(targets)
        name = entry.get("name")
        if not isinstance(name, str):
            raise ParseError(f"{where}: missing gate 'name'")
        tag = entry.get("tag")
        if tag is not None and not isinstance(tag, str):
            raise ParseError(f"{where}: 'tag' must be a string")
        self.targets.append(targets)
        key = name.lower()
        dim = 2 ** len(targets)
        if key == "matrix":
            kind = ("matrix", dim)
            self.queue.append((ops, len(ops), where, kind, targets, tag, (entry.get("matrix"),)))
            return None
        if key == "g":
            blocks = entry.get("blocks")
            if not isinstance(blocks, dict) or blocks.keys() != {"a", "b"}:
                raise ParseError(f"{where}: gate 'g' needs blocks {{a, b}}")
            if len(targets) != 2:
                raise ParseError(f"{where}: gate 'g' acts on two qubits")
            kind = ("g", 2)
            self.queue.append((ops, len(ops), where, kind, targets, tag, (blocks["a"], blocks["b"])))
            return None
        params = _angle_list(entry.get("params", []), where)
        gate = _library_gate(key, params, f"{where}: ")
        if gate.shape != (dim, dim):
            raise ParseError(
                f"{where}: gate {name!r} is a {gate.shape[0] // 2}-qubit gate but got "
                f"{len(targets)} target(s)"
            )
        return CircuitOp(gate, targets, name=key, params=params, tag=tag)

    def flush(self) -> None:
        """Convert, check and place the queued entries; empties the queue."""
        queue, self.queue = self.queue, []
        kinds: dict = {}
        for k, item in enumerate(queue):
            kinds.setdefault(item[3], []).append(k)
        stacks = {
            kind: _complex_stack([m for k in ks for m in queue[k][6]], kind[1])
            for kind, ks in kinds.items()
        }
        if any(stack is None for stack in stacks.values()) or not all(
            np.all(unitarity_defect(stack) <= TOL_UNITARY) for stack in stacks.values()
        ):
            _refuse_first_fault(queue)
        for kind, ks in kinds.items():
            mats = stacks[kind].reshape(len(ks), -1, kind[1], kind[1])
            gates = assemble_pp(mats[:, 0], mats[:, 1]) if kind[0] == "g" else mats[:, 0]
            gates.flags.writeable = False
            for k, gate in zip(ks, gates):
                ops, slot, _, _, targets, tag, _ = queue[k]
                ops[slot] = CircuitOp(gate, targets, kind[0], (), tag)


# (matrix_in's name, the unitarity refusal's name) of each matrix of an entry.
_PARTS = {
    "matrix": (("matrix", "matrix"),),
    "g": (("block a", "even block A"), ("block b", "odd block B")),
}


def _refuse_first_fault(queue: list) -> None:
    """Refuse the queue's first entry that is not well formed, as
    :func:`matrix_in` words it, or not unitary.  Called only when a stacked
    conversion or check of the queue failed, so some entry has a fault."""
    for _, _, where, (name, dim), _, _, mats in queue:
        parts = _PARTS[name]
        converted = [matrix_in(m, dim, f"{where}: {part}") for m, (part, _) in zip(mats, parts)]
        for m, (_, label) in zip(converted, parts):
            if not is_unitary(m):
                raise ParseError(f"{where}: {label} is not unitary within {TOL_UNITARY:g}")
    raise AssertionError("a stacked check refused matrices that the per-entry check accepts")


def parse_circuit_document(doc: dict) -> Circuit:
    if not isinstance(doc, dict):
        raise ParseError("circuit document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    n = doc.get("qubits")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("'qubits' must be a positive integer")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("'metadata' must be an object")
    circuit = Circuit(n, metadata=dict(metadata))
    parser = _DocumentParser()
    try:
        entries = parser.walk(doc.get("gates", []), "gates")
    except (ParseError, TooLarge):
        # A fault in a queued entry before this one is the first refusal.
        parser.flush()
        raise
    parser.flush()
    ops = [RepeatedSegment(tuple(e[1]), e[0]) if type(e) is tuple else e for e in entries]
    # Every entry's targets in one check for range and repeats.
    flat = list(itertools.chain.from_iterable(parser.targets))
    if not flat or (
        min(flat) >= 0 and max(flat) < n and not any(len(t) == 2 and t[0] == t[1] for t in parser.targets)
    ):
        circuit.ops = ops
        return circuit
    # The per-op check words the first failing op; unitarity is not checked again.
    for i, entry in enumerate(ops):
        for op in entry.body if isinstance(entry, RepeatedSegment) else (entry,):
            try:
                circuit._check_targets(op.gate, op.targets)
            except BadTargets as exc:
                raise ParseError(f"gates[{i}]: {exc}") from exc
    raise AssertionError("the stacked target check refused targets that the per-op check accepts")


def emit_circuit_document(circuit: Circuit, metadata: dict | None = None) -> dict:
    """The document of ``circuit``, its ops emitted in one stacked pass.  An
    op is written by name when the library reproduces its matrix exactly
    (one lookup per distinct name and params), as 'g' blocks when it is 4x4
    with off-block weight under 1e-12, and as a 'matrix' otherwise."""
    ops = [op for body, _ in circuit.walk() for op in body]
    entries = [{"targets": list(op.targets)} for op in ops]
    named: dict = {}
    for k, op in enumerate(ops):
        if op.tag:
            entries[k]["tag"] = op.tag
        if op.name not in (None, "matrix", "g"):
            named.setdefault((op.name, op.params), []).append(k)
    for (name, params), ks in named.items():
        try:
            lib = gate_library(name, params)
        except (UnknownGate, BadArity):
            continue
        ks = [k for k in ks if ops[k].gate.shape == lib.shape]
        stack = np.reshape([ops[k].gate for k in ks], (len(ks),) + lib.shape)
        for k in itertools.compress(ks, np.all(stack == lib, axis=(-2, -1))):
            entries[k]["name"] = name
            if ops[k].params:
                entries[k]["params"] = [float(p) for p in ops[k].params]
    by_shape: dict = {}
    for k in (k for k, entry in enumerate(entries) if "name" not in entry):
        by_shape.setdefault(ops[k].gate.shape, []).append(k)
    for shape, ks in by_shape.items():
        mats = np.array([ops[k].gate for k in ks], dtype=complex)
        is_g = off_block_weight(mats) < 1e-12 if shape == (4, 4) else np.zeros(len(ks), dtype=bool)
        for k, rows in zip(itertools.compress(ks, ~is_g), matrix_out(mats[~is_g])):
            entries[k].update(name="matrix", matrix=rows)
        blocks = matrix_out(np.stack(extract_blocks(mats[is_g]), axis=1))
        for k, (a, b) in zip(itertools.compress(ks, is_g), blocks):
            entries[k].update(name="g", blocks={"a": a, "b": b})
    emitted = iter(entries)
    gates = [
        {"repeat": entry.count, "gates": [next(emitted) for _ in entry.body]}
        if isinstance(entry, RepeatedSegment)
        else next(emitted)
        for entry in circuit.ops
    ]
    meta = dict(circuit.metadata)
    if metadata:
        meta.update(metadata)
    return {
        "format_version": FORMAT_VERSION,
        "qubits": circuit.n,
        "gates": gates,
        "metadata": meta,
    }


_ENCODE = json.JSONEncoder(sort_keys=True).encode


def dumps_document(doc: dict) -> str:
    """JSON text of a dict with string keys, laid out as the module says."""
    lines = []
    for key, value in sorted(doc.items()):
        if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            text = "[\n    " + ",\n    ".join(map(_ENCODE, value)) + "\n  ]"
        else:
            text = _ENCODE(value)
        lines.append(f"  {_ENCODE(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def load_circuit(path: str) -> Circuit:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read circuit {path!r}: {exc}") from exc
    return parse_circuit_document(doc)


_GATE_CALL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$")


def parse_gate_spec(spec: str) -> np.ndarray:
    """Gate from a CLI spec: a library name like "SWAP", a call like
    "NL(pi/4,0,0)", or a path to a JSON file with one of the keys
    {matrix, blocks, pp_params, name}."""
    if spec.endswith(".json"):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ParseError(f"cannot read gate file {spec!r}: {exc}") from exc
        return gate_from_document(doc)
    m = _GATE_CALL_RE.match(spec)
    if not m:
        raise ParseError(f"cannot parse gate spec {spec!r}")
    name, arglist = m.group(1), m.group(2)
    params = ()
    if arglist is not None and arglist.strip():
        params = tuple(parse_angle(tok) for tok in arglist.split(","))
    return _library_gate(name, params, "")


def gate_from_document(doc: dict) -> np.ndarray:
    if not isinstance(doc, dict):
        raise ParseError("gate document must be a JSON object")
    if "matrix" in doc:
        rows = doc["matrix"]
        dim = len(rows) if isinstance(rows, list) else 0
        if dim not in (2, 4):
            raise ParseError("gate matrix must be 2x2 or 4x4")
        m = matrix_in(rows, dim, "matrix")
        if not is_unitary(m):
            raise ParseError(f"matrix is not unitary within {TOL_UNITARY:g}")
        return m
    if "blocks" in doc:
        blocks = doc["blocks"]
        if not isinstance(blocks, dict) or set(blocks) != {"a", "b"}:
            raise ParseError("'blocks' needs exactly keys a and b")
        a = matrix_in(blocks["a"], 2, "block a")
        b = matrix_in(blocks["b"], 2, "block b")
        return build_pp(a, b)
    if "pp_params" in doc:
        angles = doc["pp_params"]
        required = {"theta", "alpha", "gamma", "phi", "mu", "nu", "beta"}
        if not isinstance(angles, dict) or not required <= set(angles):
            raise ParseError(f"'pp_params' needs keys {sorted(required)}")
        params = PPParams(**{k: parse_angle(angles[k]) for k in required})
        return reconstruct_pp(params, with_phase=False)
    if "name" in doc:
        if not isinstance(doc["name"], str):
            raise ParseError("gate 'name' must be a string")
        return _library_gate(doc["name"], _angle_list(doc.get("params", []), "gate"), "")
    raise ParseError("gate document needs one of: matrix, blocks, pp_params, name")


def histogram_out(hist: dict[int, int], n: int) -> dict[str, int]:
    return {format(k, f"0{n}b"): v for k, v in sorted(hist.items())}
