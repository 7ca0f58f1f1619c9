"""Circuit container shared by the simulators and the compiler.

A circuit is an ordered list of gate applications on an n-qubit line,
stored by columns.  Each op is a row, in walk order:

* ``stacks`` holds one read-only gate stack per matrix size, (N2, 2, 2) and
  (N4, 4, 4) complex; ``sizes`` and ``slots`` give each row's matrix size
  and its index in that stack.  Rows may share a slot: a gate applied many
  times can be stored once;
* ``targets`` is an (N, 2) integer array; a one-qubit row holds its qubit
  twice;
* ``names``, ``params`` and ``tags`` are lists with one item per row.

A repetition group is a (start, stop, count) span over the rows in
``groups``: its body is rows start..stop-1, applied ``count`` times.  Every
row outside a group is a top-level entry of its own.  :class:`CircuitOp`
and :class:`RepeatedSegment` are views of rows, made on demand: by
:meth:`Circuit.walk`, one ``(ops, count)`` per top-level entry, by
``Circuit.ops``, the entries as a tuple, and by :meth:`Circuit.describe`,
which names a row in a refusal.  The simulators and the emitter read the
columns themselves (:attr:`Circuit.columns`).

A circuit holds only admitted ops: one or two distinct integer targets in
range, a gate of matching shape, unitary within ``gates.TOL_UNITARY``.  A
circuit has two writers.  :meth:`Circuit.add` admits one op or repetition
group at a time and writes it into the columns at once, their arrays
growing by doubling; the constructor, ``append`` and ``append_segment`` go
through it.  :meth:`Circuit.from_columns` takes whole columns whose rows
its caller has admitted: the parser in ``matchgates.io`` checks every entry
of a document, and the compiler writes only its checked target and the
matchgates it assembles.  The simulators, the compiler and the verifier
trust their circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import BadSampleCount, BadTargets, NonUnitaryInput, ParseError, TooLarge
from .gates import TOL_UNITARY, is_unitary

# Largest count of a repetition group.  Folding a body into a matrix power
# drifts by about count * 1e-16: at 2**70 + 1 repeats of H the state is off
# by 0.7, at this cap by at most 2.2e-9.
REPEAT_CAP = 10_000_000


class CircuitOp(NamedTuple):
    """One gate application; an immutable named tuple, cheap to build.

    ``targets`` is ordered: the gate's most-significant index bit acts on
    ``targets[0]``.  ``tag`` marks special roles (the compiler tags the
    supplied nonmatchgate as ``"target"``).
    """

    gate: np.ndarray
    targets: tuple[int, ...]
    name: str | None = None
    params: tuple[float, ...] = ()
    tag: str | None = None


@dataclass(frozen=True)
class RepeatedSegment:
    body: tuple[CircuitOp, ...]
    count: int

    def __post_init__(self):
        if any(isinstance(op, RepeatedSegment) for op in self.body):
            raise ParseError("nested 'repeat' groups are not supported")
        if self.count < 1:
            raise ValueError("repetition count must be >= 1")
        if self.count > REPEAT_CAP:
            raise TooLarge(f"'repeat' count {self.count} is past the cap of {REPEAT_CAP}")


def basis_index(n: int, label: int | str) -> int:
    """Index of an n-qubit computational basis state; ``label`` is an
    integer index or a bitstring like "0110" (qubit 0 first)."""
    if isinstance(label, str):
        if len(label) != n or set(label) - {"0", "1"}:
            raise BadTargets(f"bad basis label {label!r} for n={n}")
        return int(label, 2)
    index = int(label)
    if not 0 <= index < 2**n:
        raise BadTargets(f"basis index {index} out of range for n={n}")
    return index


def check_shots(shots) -> None:
    """Refuse a shot count that is not an integer in [1, 2**63); a bool is
    not a count."""
    if (
        not isinstance(shots, (int, np.integer))
        or isinstance(shots, (bool, np.bool_))
        or not 1 <= shots < 2**63
    ):
        raise BadSampleCount(f"shots must be an integer in [1, 2**63), got {shots!r}")


def check_targets(n: int, targets: tuple[int, ...]) -> None:
    """BadTargets unless ``targets`` are one or two distinct qubits of n,
    each an int or numpy integer (not a bool)."""
    k = len(targets)
    if k not in (1, 2):
        raise BadTargets(f"gates act on 1 or 2 qubits, got {k} targets")
    if not all(isinstance(t, (int, np.integer)) and not isinstance(t, bool) for t in targets):
        raise BadTargets(f"targets must be qubit indices, got {targets!r}")
    if len(set(targets)) != k:
        raise BadTargets(f"repeated target in {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise BadTargets(f"targets {targets} out of range for n={n}")


def describe_op(ops: tuple[CircuitOp, ...], count: int, entry: int, position: int) -> str:
    """Name op ``position`` of walk entry ``entry`` in a refusal: ``op i`` for
    a single op, ``op i.j`` for op j of the repetition group at entry i."""
    op = ops[position]
    where = entry if len(ops) == 1 and count == 1 else f"{entry}.{position}"
    return f"op {where} ({op.name or 'gate'} on {op.targets})"


def entry_spans(groups: list, rows: int) -> Iterator[tuple[int, int, int, bool]]:
    """(start, stop, count, grouped) of each top-level entry over ``rows``
    rows with repetition ``groups``: a row outside the groups is (r, r + 1,
    1, False)."""
    row = 0
    for start, stop, count in groups:
        for r in range(row, start):
            yield r, r + 1, 1, False
        yield start, stop, count, True
        row = stop
    for r in range(row, rows):
        yield r, r + 1, 1, False


def index_array(values: list) -> np.ndarray:
    """Qubit indices as an int64 array, or an object array when one is
    past int64."""
    wide = values and max(values) >= 2**63
    return np.array(values, dtype=object if wide else np.int64)


class Columns(NamedTuple):
    """A circuit's rows, one per op in walk order (module docstring)."""

    stacks: dict[int, np.ndarray]
    sizes: np.ndarray
    slots: np.ndarray
    targets: np.ndarray
    names: list
    params: list
    tags: list

    def ops(self, start: int, stop: int) -> tuple[CircuitOp, ...]:
        """CircuitOp views of rows start..stop-1."""
        rows = zip(self.sizes[start:stop].tolist(), self.slots[start:stop].tolist(),
                   self.targets[start:stop].tolist(), self.names[start:stop],
                   self.params[start:stop], self.tags[start:stop])
        return tuple(
            CircuitOp(self.stacks[size][slot], (a,) if a == b else (a, b), name, params, tag)
            for size, slot, (a, b), name, params, tag in rows
        )


def _grown(a: np.ndarray, used: int) -> np.ndarray:
    """A copy of the first ``used`` rows of ``a`` with room for twice as
    many."""
    grown = np.empty((max(2 * used, 16),) + a.shape[1:], dtype=a.dtype)
    grown[:used] = a[:used]
    return grown


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class Circuit:
    """An n-qubit circuit stored by columns (module docstring)."""

    def __init__(self, n: int, ops: Iterable[CircuitOp | RepeatedSegment] = (), metadata: dict | None = None):
        self.n = n
        self.metadata = {} if metadata is None else metadata
        # Growable arrays: only the first rows (or _used[size] gates) hold ops.
        self._stacks = {size: np.empty((0, size, size), dtype=complex) for size in (2, 4)}
        self._used = {2: 0, 4: 0}
        self._sizes = np.empty(0, dtype=np.uint8)
        self._slots = np.empty(0, dtype=np.int64)
        self._targets = np.empty((0, 2), dtype=np.int64)
        self._names: list = []
        self._params: list = []
        self._tags: list = []
        self.groups: list[tuple[int, int, int]] = []
        self._view: Columns | None = None
        for entry in ops:
            self.add(entry)

    @classmethod
    def from_columns(cls, n: int, columns: Columns, groups: list, metadata: dict | None = None) -> "Circuit":
        """A circuit of admitted rows in ``columns`` with repetition
        ``groups``, as (start, stop, count) spans in order."""
        circuit = cls(n, metadata=metadata)
        circuit._stacks = dict(columns.stacks)
        circuit._used = {size: len(stack) for size, stack in columns.stacks.items()}
        circuit._sizes, circuit._slots, circuit._targets = columns.sizes, columns.slots, columns.targets
        circuit._names, circuit._params, circuit._tags = columns.names, columns.params, columns.tags
        circuit.groups = list(groups)
        return circuit

    @property
    def columns(self) -> Columns:
        """The rows as read-only arrays and lists."""
        if self._view is None:
            rows = self.rows
            self._view = Columns(
                {size: _read_only(stack[: self._used[size]]) for size, stack in self._stacks.items()},
                _read_only(self._sizes[:rows]),
                _read_only(self._slots[:rows]),
                _read_only(self._targets[:rows]),
                self._names,
                self._params,
                self._tags,
            )
        return self._view

    @property
    def rows(self) -> int:
        return len(self._names)

    @property
    def ops(self) -> tuple[CircuitOp | RepeatedSegment, ...]:
        """The top-level entries: a CircuitOp view per single op, a
        RepeatedSegment view per repetition group."""
        views = self.columns.ops(0, self.rows)
        return tuple(
            RepeatedSegment(views[start:stop], count) if grouped else views[start]
            for start, stop, count, grouped in entry_spans(self.groups, self.rows)
        )

    def _push_op(self, op: CircuitOp) -> None:
        """Write ``op`` as the next row, unchecked."""
        row, size, first, last = self.rows, len(op.gate), op.targets[0], op.targets[-1]
        slot = self._used[size]
        if slot == len(self._stacks[size]):
            self._stacks[size] = _grown(self._stacks[size], slot)
        self._stacks[size][slot] = op.gate
        self._used[size] += 1
        if max(first, last) >= 2**63 and self._targets.dtype != object:
            self._targets = self._targets.astype(object)
        if row == len(self._sizes):
            self._sizes, self._slots, self._targets = (_grown(a, row) for a in (self._sizes, self._slots, self._targets))
        self._sizes[row], self._slots[row], self._targets[row] = size, slot, (first, last)
        self._names.append(op.name)
        self._params.append(op.params)
        self._tags.append(op.tag)
        self._view = None

    def append(
        self,
        gate: np.ndarray,
        targets: Iterable[int],
        name: str | None = None,
        params: Iterable[float] = (),
        tag: str | None = None,
    ) -> CircuitOp:
        op = CircuitOp(np.asarray(gate, dtype=complex), tuple(targets), name, tuple(params), tag)
        self.add(op)
        return op

    def append_segment(self, body: Iterable[CircuitOp], count: int) -> RepeatedSegment:
        seg = RepeatedSegment(tuple(body), int(count))
        self.add(seg)
        return seg

    def add(self, entry: CircuitOp | RepeatedSegment) -> None:
        """Admit a built op or repetition group: BadTargets for bad targets
        or shape, NonUnitaryInput for a gate that is not unitary, named by
        :func:`describe_op`; the op's gate must already be a complex
        ndarray.  Nothing is written unless every op is admitted."""
        ops, count = (entry.body, entry.count) if isinstance(entry, RepeatedSegment) else ((entry,), 1)
        for j, op in enumerate(ops):
            check_targets(self.n, op.targets)
            k = len(op.targets)
            if op.gate.shape != (2**k, 2**k):
                raise BadTargets(f"gate shape {op.gate.shape} does not match {k} target qubit(s)")
            if not is_unitary(op.gate):
                where = describe_op(ops, count, len(self.spans()), j)
                raise NonUnitaryInput(f"{where} is not unitary within {TOL_UNITARY:g}")
        start = self.rows
        for op in ops:
            self._push_op(op)
        if isinstance(entry, RepeatedSegment):
            self.groups.append((start, self.rows, count))

    def spans(self) -> list[tuple[int, int, int]]:
        """(start, stop, count) of each top-level entry in walk order; a
        single op is (r, r + 1, 1)."""
        return [(start, stop, count) for start, stop, count, _ in entry_spans(self.groups, self.rows)]

    def walk(self) -> Iterator[tuple[tuple[CircuitOp, ...], int]]:
        """Yield each top-level entry as ``(ops, count)``: a single op as
        ``((op,), 1)`` and a repetition group as ``(body, count)``."""
        # Views are made a window of at least 256 rows at a time.
        columns, views, first = self.columns, (), 0
        for start, stop, count, _ in entry_spans(self.groups, self.rows):
            if stop > first + len(views):
                first, views = start, columns.ops(start, max(stop, start + 256))
            yield views[start - first : stop - first], count

    def flat_count(self) -> int:
        return self.rows + sum((count - 1) * (stop - start) for start, stop, count in self.groups)

    def describe(self, row: int) -> str:
        """:func:`describe_op`'s name of the op at ``row``."""
        for entry, (start, stop, count) in enumerate(self.spans()):
            if start <= row < stop:
                return describe_op(self.columns.ops(start, stop), count, entry, row - start)
        raise IndexError(f"row {row} out of range")
