"""Dense n-qubit statevector simulator.

Serves as the exact oracle for the fermionic simulator and the compiler
verifier, all three through :func:`propagate`.  Amplitude layout: basis
index bit k is qubit k with qubit 0 the most-significant bit, matching the
two-qubit gate convention.

Every gate goes through one kernel, :class:`_Block`: the block of columns
is a tensor with one axis per qubit, the gate's targets are gathered to the
front only when they are not there already, and the product stays in that
axis order until :func:`propagate` restores qubit order once at the end.
No op is checked here: a circuit holds only admitted ops (see
``matchgates.circuits``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .errors import BadSampleCount, BadTargets, TooLarge

QUBIT_CAP = 20
UNITARY_QUBIT_CAP = 12
# A repetition group on at most FOLD_QUBIT_CAP qubits folds into one matrix
# power; a wider one is expanded op by op, up to EXPANSION_CAP ops.
FOLD_QUBIT_CAP = 6
EXPANSION_CAP = 100_000


@dataclass
class StateVector:
    n: int
    amps: np.ndarray

    @classmethod
    def basis(cls, n: int, label: int | str = 0) -> "StateVector":
        """Computational basis state; ``label`` is an integer index or a
        bitstring like "0110" (qubit 0 first)."""
        if n < 1 or n > QUBIT_CAP:
            raise TooLarge(f"n={n} outside supported range 1..{QUBIT_CAP}")
        if isinstance(label, str):
            if len(label) != n or set(label) - {"0", "1"}:
                raise BadTargets(f"bad basis label {label!r} for n={n}")
            index = int(label, 2)
        else:
            index = int(label)
        if not 0 <= index < 2**n:
            raise BadTargets(f"basis index {index} out of range for n={n}")
        amps = np.zeros(2**n, dtype=complex)
        amps[index] = 1.0
        return cls(n, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


class _Block:
    """A (2^n, m) array held as an (n+1)-axis tensor whose first n axes are
    the qubits in ``order``; the column axis stays last.

    Each gate moves only its targets to the front, with one gather copy that
    is skipped when they are already there, and leaves the product in that
    axis order.  The old tensor is released before the multiply, so at most
    two block-sized arrays are live inside :meth:`apply`.
    """

    def __init__(self, columns: np.ndarray, n: int):
        self.n = n
        self.tensor = columns.reshape((2,) * n + (columns.shape[1],))
        self.order = tuple(range(n))

    def apply(self, gate: np.ndarray, targets: tuple[int, ...]) -> None:
        targets = tuple(targets)
        k = len(targets)
        shape = self.tensor.shape
        if self.order[:k] == targets:
            rows = self.tensor.reshape(2**k, -1)
        else:
            axes = [self.order.index(q) for q in targets]
            rest = [a for a in range(self.n) if a not in axes]
            rows = self.tensor.transpose(axes + rest + [self.n]).reshape(2**k, -1)
            self.order = targets + tuple(self.order[a] for a in rest)
        self.tensor = None
        self.tensor = (gate @ rows).reshape(shape)

    def columns(self) -> np.ndarray:
        """The block in canonical qubit order, as a (2^n, m) array."""
        axes = list(np.argsort(self.order)) + [self.n]
        return self.tensor.transpose(axes).reshape(2**self.n, -1)


def apply(state: StateVector, gate: np.ndarray, targets) -> StateVector:
    """Apply a 1- or 2-qubit gate, admitted as a one-op circuit; returns a
    new state."""
    circuit = Circuit(state.n)
    circuit.append(gate, targets)
    return StateVector(state.n, propagate(circuit, state.amps[:, None])[:, 0])


def propagate(circuit: Circuit, columns: np.ndarray) -> np.ndarray:
    """Left-multiply a (2^n, m) array by the circuit's unitary.

    A repetition group whose body acts on at most FOLD_QUBIT_CAP qubits
    becomes one matrix on those qubits, the body's product raised to the
    group's count.  Wider groups are expanded; TooLarge names one that
    would expand past EXPANSION_CAP ops.
    """
    block = _Block(columns, circuit.n)
    del columns
    for i, (ops, count) in enumerate(circuit.walk()):
        if count > 1:
            support = sorted({t for op in ops for t in op.targets})
            if len(support) <= FOLD_QUBIT_CAP:
                local = {q: a for a, q in enumerate(support)}
                body = _Block(np.eye(2 ** len(support), dtype=complex), len(support))
                for op in ops:
                    body.apply(op.gate, tuple(local[t] for t in op.targets))
                block.apply(np.linalg.matrix_power(body.columns(), count), tuple(support))
                continue
            if count * len(ops) > EXPANSION_CAP:
                raise TooLarge(
                    f"entry {i} repeats {len(ops)} op(s) on {len(support)} qubits {count} times: "
                    f"a group wider than {FOLD_QUBIT_CAP} qubits is expanded, and this one "
                    f"passes the cap of {EXPANSION_CAP} ops"
                )
        for _ in range(count):
            for op in ops:
                block.apply(op.gate, op.targets)
    return block.columns()


def run(circuit: Circuit, initial: int | str = 0) -> StateVector:
    """Left-to-right application of the circuit to a basis state."""
    # No local keeps the basis state, so the kernel frees it after one gate.
    amps = propagate(circuit, StateVector.basis(circuit.n, initial).amps[:, None])
    return StateVector(circuit.n, amps[:, 0])


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense 2^n x 2^n unitary of the whole circuit."""
    if circuit.n > UNITARY_QUBIT_CAP:
        raise TooLarge(f"circuit_unitary capped at {UNITARY_QUBIT_CAP} qubits, got {circuit.n}")
    return propagate(circuit, np.eye(2**circuit.n, dtype=complex))


def sample(state: StateVector, shots: int, seed: int) -> dict[int, int]:
    """Computational-basis histogram {basis index: count}."""
    if not isinstance(shots, (int, np.integer)) or not 1 <= shots < 2**63:
        raise BadSampleCount(f"shots must be an integer in [1, 2**63), got {shots!r}")
    probs = state.probabilities()
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    nonzero = np.flatnonzero(counts)
    return dict(zip(nonzero.tolist(), counts[nonzero].tolist()))


def expectation_z(state: StateVector, k: int) -> float:
    """<Z_k> of the state."""
    if not 0 <= k < state.n:
        raise BadTargets(f"qubit {k} out of range")
    probs = state.probabilities().reshape((2,) * state.n)
    p1 = float(np.sum(np.take(probs, 1, axis=k)))
    return 1.0 - 2.0 * p1
