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
"""

from __future__ import annotations

import json
import math
import re
from typing import Any

import numpy as np

from .analysis import PPParams, reconstruct_pp
from .circuits import Circuit, CircuitOp, RepeatedSegment
from .errors import BadArity, BadTargets, MatchgatesError, ParseError, UnknownGate
from .gates import (
    DEFAULT_TOL,
    assemble_pp,
    build_pp,
    extract_blocks,
    gate_library,
    off_block_weight,
    unitarity_defect,
)

FORMAT_VERSION = 1

# 'g' entries whose blocks are checked for unitarity in one stacked call; it
# bounds the queued blocks and the check's temporaries.
G_CHECK_CHUNK = 64

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
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _parse_gate_entry(entry: dict, where: str, g_blocks: list) -> CircuitOp:
    """The op of one gate entry.  A 'g' entry is assembled unchecked and its
    (where, a, b) queued on ``g_blocks`` for :func:`_check_g_blocks`."""
    targets = entry.get("targets")
    if not isinstance(targets, list) or not targets:
        raise ParseError(f"{where}: missing or empty 'targets'")
    if not all(isinstance(t, int) and not isinstance(t, bool) for t in targets):
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
    key = name.lower()
    dim = 2 ** len(targets)
    if key == "matrix":
        gate = matrix_in(entry.get("matrix"), dim, f"{where}: matrix")
        return CircuitOp(gate, targets, name="matrix", tag=tag)
    if key == "g":
        blocks = entry.get("blocks")
        if not isinstance(blocks, dict) or set(blocks) != {"a", "b"}:
            raise ParseError(f"{where}: gate 'g' needs blocks {{a, b}}")
        if len(targets) != 2:
            raise ParseError(f"{where}: gate 'g' acts on two qubits")
        a = matrix_in(blocks["a"], 2, f"{where}: block a")
        b = matrix_in(blocks["b"], 2, f"{where}: block b")
        g_blocks.append((where, a, b))
        return CircuitOp(assemble_pp(a, b), targets, name="g", tag=tag)
    params = _angle_list(entry.get("params", []), where)
    gate = _library_gate(key, params, f"{where}: ")
    if gate.shape != (dim, dim):
        raise ParseError(
            f"{where}: gate {name!r} is a {gate.shape[0] // 2}-qubit gate but got "
            f"{len(targets)} target(s)"
        )
    return CircuitOp(gate, targets, name=key, params=params, tag=tag)


def _check_g_blocks(g_blocks: list) -> None:
    """Refuse the first queued 'g' entry with a non-unitary block, as
    build_pp words it; all blocks are checked in one stacked call.  Empties
    the queue."""
    if not g_blocks:
        return
    defects = unitarity_defect(np.array([(a, b) for _, a, b in g_blocks]))
    for k in np.flatnonzero(~np.all(defects <= DEFAULT_TOL.tol_unitary, axis=1)):
        where, a, b = g_blocks[k]
        try:
            build_pp(a, b)
        except MatchgatesError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    g_blocks.clear()


def _parse_ops(entries, where: str, g_blocks: list):
    if not isinstance(entries, list):
        raise ParseError(f"{where}: expected a list of gate entries")
    ops = []
    for i, entry in enumerate(entries):
        spot = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{spot}: gate entries must be objects")
        if "repeat" in entry:
            count = entry["repeat"]
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ParseError(f"{spot}: 'repeat' must be a positive integer")
            body = _parse_ops(entry.get("gates", []), f"{spot}.gates", g_blocks)
            if any(isinstance(op, RepeatedSegment) for op in body):
                raise ParseError(f"{spot}: nested 'repeat' groups are not supported")
            ops.append(RepeatedSegment(tuple(body), count))
        else:
            ops.append(_parse_gate_entry(entry, spot, g_blocks))
            if len(g_blocks) == G_CHECK_CHUNK:
                _check_g_blocks(g_blocks)
    return ops


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
    g_blocks: list = []
    try:
        entries = _parse_ops(doc.get("gates", []), "gates", g_blocks)
    except ParseError:
        # A non-unitary 'g' block before the fault is still the first refusal.
        _check_g_blocks(g_blocks)
        raise
    _check_g_blocks(g_blocks)
    for i, entry in enumerate(entries):
        try:
            circuit.add(entry)
        except BadTargets as exc:
            raise ParseError(f"gates[{i}]: {exc}") from exc
    return circuit


def _emit_op(op: CircuitOp) -> dict:
    entry: dict[str, Any] = {"targets": list(op.targets)}
    if op.tag:
        entry["tag"] = op.tag
    if op.name not in (None, "matrix", "g"):
        # Emit by name only when the library reproduces the matrix exactly.
        try:
            lib = gate_library(op.name, op.params)
        except (UnknownGate, BadArity):
            lib = None
        if lib is not None and lib.shape == op.gate.shape and np.array_equal(lib, op.gate):
            entry["name"] = op.name
            if op.params:
                entry["params"] = [float(p) for p in op.params]
            return entry
    if op.gate.shape == (4, 4) and off_block_weight(op.gate) < 1e-12:
        entry["name"] = "g"
        a, b = extract_blocks(op.gate)
        entry["blocks"] = {"a": matrix_out(a), "b": matrix_out(b)}
        return entry
    entry["name"] = "matrix"
    entry["matrix"] = matrix_out(op.gate)
    return entry


def emit_circuit_document(circuit: Circuit, metadata: dict | None = None) -> dict:
    gates = []
    for entry in circuit.ops:
        if isinstance(entry, RepeatedSegment):
            gates.append(
                {"repeat": entry.count, "gates": [_emit_op(op) for op in entry.body]}
            )
        else:
            gates.append(_emit_op(entry))
    meta = dict(circuit.metadata)
    if metadata:
        meta.update(metadata)
    return {
        "format_version": FORMAT_VERSION,
        "qubits": circuit.n,
        "gates": gates,
        "metadata": meta,
    }


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
        return matrix_in(rows, dim, "matrix")
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
