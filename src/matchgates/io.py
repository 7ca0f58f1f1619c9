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

Parsing writes the circuit's columns (see :mod:`matchgates.circuits`)
directly.  One pass over the gate entries, repeat bodies included, checks
each entry's structure and records it as a row: its targets, name, params
and tag, a library gate built at once, the matrices of a 'g' or 'matrix'
entry as written.  Each time PARSE_CHUNK entries of a kind have arrived,
their matrices are converted and checked: one conversion (row shapes,
number types, finiteness), one unitarity check and, for 'g', one G(A, B)
assembly per chunk, written into the circuit's read-only gate stack of
their size once the pass ends.  No per-entry op object is built.  Every 'g'
block and every 'matrix' entry is checked, so a parsed circuit holds only
admitted ops.  The targets of all entries are checked once the document
has parsed.  Only a failed check runs the per-entry helpers
(:func:`matrix_in`, :func:`~matchgates.gates.is_unitary`,
``circuits.check_targets``), to give the refusal a per-entry parse gives:
the first structural, numeric or unitarity fault in document order
("gates[3]: matrix is not unitary within 1e-09", or "even block A" / "odd
block B" for a 'g' entry, or TooLarge for a 'repeat' count past
``circuits.REPEAT_CAP``); a target out of range or repeated only after the
whole document has parsed.

The same parser takes its entries from two sources.
:func:`parse_circuit_document` walks a decoded document's list.
:func:`load_circuit` reads the text's top-level object member by member
and decodes the 'gates' list one entry at a time with json's own decoder,
so it holds the text, the parsed rows and at most a chunk of decoded
entries per kind, never the whole decoded tree.  On any fault it decodes
the text whole and parses the dict, so its refusals are the dict path's.
It alone refuses a top-level key written twice; inside the entries, as in
``json.loads``, a repeated key's last value wins.  It runs with the cyclic
garbage collector paused, since nothing the decoder or the parser builds
forms a cycle, and restores the caller's collector state on every exit.

Output is stacked too: :func:`emit_circuit_document` reads the circuit's
columns and converts all of its rows in one pass.  All four commands write their JSON through
:func:`dumps_document`, keys sorted: each top-level key on its own line, a
list of objects (a document's gate entries) one element per line, every
other value compact, by the C encoder.  ``json.loads`` of the text equals
that of ``json.dumps(doc, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import re
from typing import Any

import numpy as np

from .analysis import PPParams, reconstruct_pp
from .circuits import REPEAT_CAP, Circuit, Columns, check_targets, entry_spans, index_array
from .errors import BadArity, BadTargets, MatchgatesError, ParseError, TooLarge, UnknownGate
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

# 'g' or 'matrix' entries of one kind per stacked conversion and check; it
# bounds the chunk's arrays and their temporaries, and the entries of a kind
# held as decoded JSON at once while a document is loaded.
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


_INT = {int}
_BLOCK_KEYS = {"a", "b"}


class _DocumentParser:
    """One pass over a document's gate entries, in document order, that
    checks their structure and records each gate entry as a row of the
    circuit's columns; :meth:`circuit` then builds the circuit.

    Entries arrive one at a time (:meth:`entry`) or as a list
    (:meth:`walk`).  A library gate is built as its entry is read.  The
    matrices of a 'g' or 'matrix' entry are kept as written, by kind, and
    converted into gates each time PARSE_CHUNK entries of that kind have
    arrived, so no more than a chunk of them is held as written.
    ``entries`` is the document's gate list, which a failed check walks to
    word its refusal, or None when the entries are streamed; a failed check
    then raises :class:`_Unstreamable`.  A 'g' chunk is kept as its blocks
    until :meth:`circuit` assembles it, at half the size of its gates.
    """

    # (op name, matrix size) of the entries whose matrices are converted in
    # stacks, and the number of matrices each entry holds.
    KINDS = {("g", 4): 2, ("matrix", 2): 1, ("matrix", 4): 1}

    def __init__(self, entries: list | None):
        self.entries = entries
        self.targets: list = []
        self.names: list = []
        self.params: list = []
        self.tags: list = []
        self.groups: list = []
        # Per kind: the rows and raw matrices of its entries not yet
        # converted, and the (rows, matrices) of each converted chunk.
        self.pending = {kind: ([], []) for kind in self.KINDS}
        self.chunks = {kind: [] for kind in self.KINDS}
        self.library_rows: list = []
        self.library_gates: list = []

    def walk(self, entries, where: str) -> None:
        if not isinstance(entries, list):
            raise ParseError(f"{where}: expected a list of gate entries")
        for i, entry in enumerate(entries):
            self.entry(entry, where, i)

    def entry(self, entry, where: str, i: int) -> None:
        """Check entry ``i`` of the list at ``where`` and record its rows."""
        if not isinstance(entry, dict):
            raise ParseError(f"{where}[{i}]: gate entries must be objects")
        if "repeat" in entry:
            spot = f"{where}[{i}]"
            count = entry["repeat"]
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ParseError(f"{spot}: 'repeat' must be a positive integer")
            if count > REPEAT_CAP:
                raise TooLarge(f"{spot}: 'repeat' count {count} is past the cap of {REPEAT_CAP}")
            start, groups = len(self.names), len(self.groups)
            self.walk(entry.get("gates", []), f"{spot}.gates")
            if len(self.groups) > groups:
                raise ParseError(f"{spot}: nested 'repeat' groups are not supported")
            self.groups.append((start, len(self.names), count))
            return
        self.gate(entry, where, i)

    def gate(self, entry: dict, where: str, i: int) -> None:
        """Check a gate entry's structure and record its row."""
        targets = entry.get("targets")
        if not isinstance(targets, list) or not targets:
            raise ParseError(f"{where}[{i}]: missing or empty 'targets'")
        if not _INT.issuperset(map(type, targets)):
            for t in targets:
                if not isinstance(t, int) or isinstance(t, bool):
                    raise ParseError(f"{where}[{i}]: 'targets' must be qubit indices, got {targets!r}")
        if len(targets) > 2:
            raise ParseError(f"{where}[{i}]: gates act on 1 or 2 qubits, got {len(targets)} targets")
        name = entry.get("name")
        if not isinstance(name, str):
            raise ParseError(f"{where}[{i}]: missing gate 'name'")
        tag = entry.get("tag")
        if tag is not None and not isinstance(tag, str):
            raise ParseError(f"{where}[{i}]: 'tag' must be a string")
        key = name.lower()
        params = ()
        if key == "g":
            blocks = entry.get("blocks")
            if not isinstance(blocks, dict) or blocks.keys() != _BLOCK_KEYS:
                raise ParseError(f"{where}[{i}]: gate 'g' needs blocks {{a, b}}")
            if len(targets) != 2:
                raise ParseError(f"{where}[{i}]: gate 'g' acts on two qubits")
            kind, mats = ("g", 4), (blocks["a"], blocks["b"])
        elif key == "matrix":
            kind, mats = ("matrix", 2 ** len(targets)), (entry.get("matrix"),)
        else:
            kind = None
            params = _angle_list(entry.get("params", []), f"{where}[{i}]")
            gate = _library_gate(key, params, f"{where}[{i}]: ")
            dim = 2 ** len(targets)
            if gate.shape != (dim, dim):
                raise ParseError(
                    f"{where}[{i}]: gate {name!r} is a {gate.shape[0] // 2}-qubit gate but got "
                    f"{len(targets)} target(s)"
                )
            self.library_rows.append(len(self.names))
            self.library_gates.append(gate)
        if kind is not None:
            rows, raw = self.pending[kind]
            rows.append(len(self.names))
            raw += mats
            key = kind[0]  # one shared string, not one per entry
        self.targets.append(targets)
        self.names.append(key)
        self.params.append(params)
        self.tags.append(tag)
        if kind is not None and len(rows) == PARSE_CHUNK:
            self.convert(kind)

    def convert(self, kind: tuple) -> None:
        """Convert and check the matrices of ``kind`` not yet converted, one
        stacked call each, and keep their gates; a failed check refuses the
        first fault in document order."""
        name, size = kind
        rows, raw = self.pending[kind]
        if not rows:
            return
        self.pending[kind] = ([], [])
        stack = _complex_stack(raw, 2 if name == "g" else size)
        del raw
        if stack is None or not np.all(unitarity_defect(stack) <= TOL_UNITARY):
            if self.entries is None:
                raise _Unstreamable
            _refuse_first_fault(self.entries, "gates")
        self.chunks[kind].append((np.array(rows), stack.reshape(len(rows), -1, *stack.shape[1:])))

    def flush(self) -> None:
        """Convert every kind's matrices not yet converted."""
        for kind in self.KINDS:
            self.convert(kind)

    def circuit(self, n: int, metadata: dict) -> Circuit:
        """The circuit of the recorded rows on ``n`` qubits.  The targets of
        every row are checked at once for range and repeats."""
        self.flush()
        arity = np.fromiter(map(len, self.targets), dtype=np.uint8, count=len(self.targets))
        sizes = 2**arity
        slots = np.empty(len(sizes), dtype=np.int64)
        stacks = {}
        for size in (2, 4):
            mine = sizes == size
            slots[mine] = np.arange(np.count_nonzero(mine))
            stacks[size] = np.empty((np.count_nonzero(mine), size, size), dtype=complex)
        for (name, size), chunks in self.chunks.items():
            while chunks:
                rows, mats = chunks.pop()
                stacks[size][slots[rows]] = assemble_pp(mats[:, 0], mats[:, 1]) if name == "g" else mats[:, 0]
        for gate, row in zip(self.library_gates, self.library_rows):
            stacks[len(gate)][slots[row]] = gate
        for stack in stacks.values():
            stack.flags.writeable = False
        flat = list(itertools.chain.from_iterable(self.targets))
        if flat and (min(flat) < 0 or max(flat) >= n):
            _refuse_targets(self, n)
        # Each row's (first, last) target; a one-qubit row's qubit twice.
        ends = np.cumsum(arity, dtype=np.intp)
        targets = index_array(flat)[np.stack([ends - arity, ends - 1], axis=1)]
        if np.any((sizes == 4) & (targets[:, 0] == targets[:, 1])):
            _refuse_targets(self, n)
        columns = Columns(stacks, sizes, slots, targets, self.names, self.params, self.tags)
        return Circuit.from_columns(n, columns, self.groups, metadata=dict(metadata))


class _Unstreamable(Exception):
    """A fault met while a document's entries are streamed, which the parse
    of the whole decoded document words as a refusal."""


# (matrix_in's name, the unitarity refusal's name) of each matrix of an entry.
_PARTS = {
    "matrix": (("matrix", "matrix"),),
    "g": (("block a", "even block A"), ("block b", "odd block B")),
}


def _refuse_first_fault(entries: list, where: str) -> None:
    """Refuse the first 'g' or 'matrix' entry, in document order, that is
    not well formed, as :func:`matrix_in` words it, or not unitary.  Called
    only when a stacked conversion or check failed, so such an entry comes
    before any entry with a structural fault."""
    for i, entry in enumerate(entries):
        spot = f"{where}[{i}]"
        if "repeat" in entry:
            _refuse_first_fault(entry.get("gates", []), f"{spot}.gates")
            continue
        name = entry["name"].lower()
        if name not in _PARTS:
            continue
        mats = (entry["blocks"]["a"], entry["blocks"]["b"]) if name == "g" else (entry.get("matrix"),)
        dim = 2 if name == "g" else 2 ** len(entry["targets"])
        converted = [matrix_in(m, dim, f"{spot}: {part}") for m, (part, _) in zip(mats, _PARTS[name])]
        for m, (_, label) in zip(converted, _PARTS[name]):
            if not is_unitary(m):
                raise ParseError(f"{spot}: {label} is not unitary within {TOL_UNITARY:g}")
    if where == "gates":
        raise AssertionError("a stacked check refused matrices that the per-entry check accepts")


def _top_level(doc: dict) -> tuple[int, dict]:
    """The qubit count and metadata of a document's top-level object, after
    its format version is checked."""
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    n = doc.get("qubits")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("'qubits' must be a positive integer")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("'metadata' must be an object")
    return n, metadata


def parse_circuit_document(doc: dict) -> Circuit:
    if not isinstance(doc, dict):
        raise ParseError("circuit document must be a JSON object")
    n, metadata = _top_level(doc)
    entries = doc.get("gates", [])
    parser = _DocumentParser(entries)
    try:
        parser.walk(entries, "gates")
    except (ParseError, TooLarge):
        # A fault in a matrix before this one is the first refusal.
        parser.flush()
        raise
    return parser.circuit(n, metadata)


def _refuse_targets(parser: _DocumentParser, n: int) -> None:
    """Refuse the first row whose targets are out of range or repeated,
    named by its top-level entry."""
    for i, (start, stop, _, _) in enumerate(entry_spans(parser.groups, len(parser.targets))):
        for targets in parser.targets[start:stop]:
            try:
                check_targets(n, tuple(targets))
            except BadTargets as exc:
                raise ParseError(f"gates[{i}]: {exc}") from exc
    raise AssertionError("the stacked target check refused targets that the per-op check accepts")


def emit_circuit_document(circuit: Circuit, metadata: dict | None = None) -> dict:
    """The document of ``circuit``, its rows emitted in one stacked pass.  An
    op is written by name when the library reproduces its matrix exactly
    (one lookup per distinct name and params), as 'g' blocks when it is 4x4
    with off-block weight under 1e-12, and as a 'matrix' otherwise."""
    col = circuit.columns
    entries = [{"targets": [a] if a == b else [a, b]} for a, b in col.targets.tolist()]
    sizes, slots = col.sizes.tolist(), col.slots
    named: dict = {}
    for k, (name, params, tag) in enumerate(zip(col.names, col.params, col.tags)):
        if tag is not None:
            entries[k]["tag"] = tag
        if name not in (None, "matrix", "g"):
            named.setdefault((name, params), []).append(k)
    for (name, params), ks in named.items():
        try:
            lib = gate_library(name, params)
        except (UnknownGate, BadArity):
            continue
        ks = [k for k in ks if sizes[k] == len(lib)]
        stack = col.stacks[len(lib)][slots[ks]]
        for k in itertools.compress(ks, np.all(stack == lib, axis=(-2, -1))):
            entries[k]["name"] = name
            if params:
                entries[k]["params"] = [float(p) for p in params]
    by_size: dict = {}
    for k in (k for k, entry in enumerate(entries) if "name" not in entry):
        by_size.setdefault(sizes[k], []).append(k)
    for size, ks in by_size.items():
        mats = col.stacks[size][slots[ks]]
        is_g = off_block_weight(mats) < 1e-12 if size == 4 else np.zeros(len(ks), dtype=bool)
        for k, rows in zip(itertools.compress(ks, ~is_g), matrix_out(mats[~is_g])):
            entries[k].update(name="matrix", matrix=rows)
        blocks = matrix_out(np.stack(extract_blocks(mats[is_g]), axis=1))
        for k, (a, b) in zip(itertools.compress(ks, is_g), blocks):
            entries[k].update(name="g", blocks={"a": a, "b": b})
    gates = [
        {"repeat": count, "gates": entries[start:stop]} if grouped else entries[start]
        for start, stop, count, grouped in entry_spans(circuit.groups, circuit.rows)
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


# JSON's whitespace, which the decoder skips between tokens.
_SPACE = re.compile(r"[ \t\n\r]*")
_DECODE = json.JSONDecoder().raw_decode


def _skip(text: str, i: int) -> int:
    return _SPACE.match(text, i).end()


# After an item of a JSON object or array: whitespace, then a comma and
# whitespace, or the closing bracket.
_AFTER = {close: re.compile(rf"[ \t\n\r]*(?:(,)[ \t\n\r]*|\{close})") for close in "]}"}


def _separator(text: str, i: int, close: str) -> tuple[int, bool]:
    """After an item of a JSON object or array ending at ``i``: the start
    of the next item and False, or the index past ``close`` and True."""
    after = _AFTER[close].match(text, i)
    if after is None:
        raise _Unstreamable
    return after.end(), after[1] is None


def _stream_circuit(text: str) -> Circuit:
    """The circuit of a document's text, read member by member with the
    'gates' list decoded one entry at a time into the parser.  Raises on any
    fault, in no set order: text that is not one JSON object, a repeated
    top-level key, or a refusal of the parse."""
    parser = _DocumentParser(None)
    top: dict = {}
    streamed = False
    i = _skip(text, 0)
    if text[i] != "{":
        raise _Unstreamable
    i = _skip(text, i + 1)
    done = text[i] == "}"
    i += done
    while not done:
        if text[i] != '"':
            raise _Unstreamable
        key, i = _DECODE(text, i)
        i = _skip(text, i)
        if key in top or text[i] != ":":
            raise _Unstreamable
        i = _skip(text, i + 1)
        if key == "gates" and text[i] == "[":
            top[key], streamed = None, True
            i = _skip(text, i + 1)
            last = text[i] == "]"
            i += last
            k = 0
            while not last:
                entry, i = _DECODE(text, i)
                parser.entry(entry, "gates", k)
                i, last = _separator(text, i, "]")
                k += 1
        else:
            top[key], i = _DECODE(text, i)
        i, done = _separator(text, i, "}")
    if _skip(text, i) != len(text):
        raise _Unstreamable
    if not streamed:
        parser.walk(top.get("gates", []), "gates")
    return parser.circuit(*_top_level(top))


def _parse_whole(text: str, path: str) -> Circuit:
    """The circuit of a document's text decoded whole, with the refusals of
    :func:`parse_circuit_document`, after those of the JSON decoder and of a
    repeated top-level key."""
    pairs: list = []

    def keep(members: list) -> dict:
        # The decoder builds the top-level object last.
        pairs[:] = members
        return dict(members)

    try:
        doc = json.loads(text, object_pairs_hook=keep)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read circuit {path!r}: {exc}") from exc
    if isinstance(doc, dict):
        seen: set = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"circuit document repeats the top-level key {key!r}")
            seen.add(key)
    return parse_circuit_document(doc)


def load_circuit(path: str) -> Circuit:
    """The circuit of the document at ``path``; ParseError when it cannot be
    read or decoded or repeats a top-level key, and
    :func:`parse_circuit_document`'s refusals.

    The text is read whole; its top-level object is read member by member,
    and the 'gates' list decoded one entry at a time, each entry handed to
    the parser as it is decoded (a 'repeat' entry with its body).  The text
    is not read by blocks, where a number cut at a block's edge could
    decode as a shorter valid number.  On any fault the text is decoded
    whole and parsed as a dict, which words the refusal: the decoder's
    first, then a repeated top-level key, then the parse's.  Objects inside
    the entries keep json's rule that a repeated key's last value wins.

    The cyclic garbage collector is paused while the document is decoded
    and parsed, and the caller's collector state is restored on every exit.
    Nothing the decoder or the parser builds forms a cycle, so a collection
    set off by their allocations would have nothing to find, and the older
    generations' would walk the caller's whole heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:
            raise ParseError(f"cannot read circuit {path!r}: {exc}") from exc
        try:
            return _stream_circuit(text)
        except (_Unstreamable, MatchgatesError, ValueError, IndexError, RecursionError):
            pass
        return _parse_whole(text, path)
    finally:
        if enabled:
            gc.enable()


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
