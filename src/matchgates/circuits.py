"""Circuit container shared by the simulators and the compiler.

A circuit is an ordered list of gate applications on an n-qubit line.  Ops
are either a single :class:`CircuitOp` or a :class:`RepeatedSegment`, a
short op body repeated ``count`` times, which keeps compiled circuits with
thousands of identical entangler blocks compact.  Consumers read a circuit
through :meth:`Circuit.walk`, one ``(ops, count)`` per top-level entry, and
fold each group once in their own representation.

A circuit holds only admitted ops: one or two distinct targets in range, a
gate of matching shape, unitary within ``gates.TOL_UNITARY``.  An op is
checked once, where it enters: by :meth:`Circuit.add` (so ``append`` and
``append_segment``) or, for a document, by the parser in ``matchgates.io``.
The simulators, the compiler and the verifier trust their circuits; code
that fills ``ops`` directly, as the compiler does with the matchgates it
builds, vouches for them itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import BadTargets, NonUnitaryInput
from .gates import TOL_UNITARY, is_unitary


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
        if self.count < 1:
            raise ValueError("repetition count must be >= 1")


def describe_op(ops: tuple[CircuitOp, ...], count: int, entry: int, position: int) -> str:
    """Name op ``position`` of walk entry ``entry`` in a refusal: ``op i`` for
    a single op, ``op i.j`` for op j of the repetition group at entry i."""
    op = ops[position]
    where = entry if len(ops) == 1 and count == 1 else f"{entry}.{position}"
    return f"op {where} ({op.name or 'gate'} on {op.targets})"


@dataclass
class Circuit:
    n: int
    ops: list[CircuitOp | RepeatedSegment] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def _check_targets(self, gate: np.ndarray, targets: tuple[int, ...]):
        k = len(targets)
        if k not in (1, 2):
            raise BadTargets(f"gates act on 1 or 2 qubits, got {k} targets")
        if len(set(targets)) != k:
            raise BadTargets(f"repeated target in {targets}")
        if any(t < 0 or t >= self.n for t in targets):
            raise BadTargets(f"targets {targets} out of range for n={self.n}")
        if gate.shape != (2**k, 2**k):
            raise BadTargets(
                f"gate shape {gate.shape} does not match {k} target qubit(s)"
            )

    def append(
        self,
        gate: np.ndarray,
        targets: Iterable[int],
        name: str | None = None,
        params: Iterable[float] = (),
        tag: str | None = None,
    ) -> CircuitOp:
        gate = np.asarray(gate, dtype=complex)
        targets = tuple(int(t) for t in targets)
        op = CircuitOp(gate, targets, name, tuple(params), tag)
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
        ndarray."""
        ops, count = (entry.body, entry.count) if isinstance(entry, RepeatedSegment) else ((entry,), 1)
        for j, op in enumerate(ops):
            self._check_targets(op.gate, op.targets)
            if not is_unitary(op.gate):
                where = describe_op(ops, count, len(self.ops), j)
                raise NonUnitaryInput(f"{where} is not unitary within {TOL_UNITARY:g}")
        self.ops.append(entry)

    def walk(self) -> Iterator[tuple[tuple[CircuitOp, ...], int]]:
        """Yield each top-level entry as ``(ops, count)``: a single op as
        ``((op,), 1)`` and a repetition group as ``(body, count)``."""
        for entry in self.ops:
            if isinstance(entry, RepeatedSegment):
                yield entry.body, entry.count
            else:
                yield (entry,), 1

    def flat_count(self) -> int:
        return sum(count * len(ops) for ops, count in self.walk())
