"""Dense n-qubit statevector simulator.

Serves as the exact oracle for the fermionic simulator and the compiler
verifier, all three through :func:`propagate`.  Amplitude layout: basis
index bit k is qubit k with qubit 0 the most-significant bit, matching the
two-qubit gate convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, describe_op
from .errors import BadSampleCount, BadTargets, NonUnitaryInput, TooLarge
from .gates import DEFAULT_TOL, ToleranceConfig, is_unitary

DEFAULT_QUBIT_CAP = 20
UNITARY_QUBIT_CAP = 12


@dataclass
class StateVector:
    n: int
    amps: np.ndarray

    @classmethod
    def basis(cls, n: int, label: int | str = 0, cap: int = DEFAULT_QUBIT_CAP) -> "StateVector":
        """Computational basis state; ``label`` is an integer index or a
        bitstring like "0110" (qubit 0 first)."""
        if n < 1 or n > cap:
            raise TooLarge(f"n={n} outside supported range 1..{cap}")
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


def _left_apply(mat: np.ndarray, gate: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Apply ``gate`` to the row index of a (2^n, m) array on the target axes."""
    k = len(targets)
    cols = mat.shape[1]
    t = mat.reshape((2,) * n + (cols,))
    t = np.moveaxis(t, targets, range(k))
    rest = t.shape[k:]
    t = gate @ t.reshape(2**k, -1)
    t = np.moveaxis(t.reshape((2,) * k + rest), range(k), targets)
    return t.reshape(2**n, cols)


def apply(
    state: StateVector,
    gate: np.ndarray,
    targets,
    tol: ToleranceConfig = DEFAULT_TOL,
    check: bool = True,
) -> StateVector:
    """Apply a 1- or 2-qubit gate; returns a new state."""
    gate = np.asarray(gate, dtype=complex)
    targets = tuple(int(t) for t in targets)
    k = len(targets)
    if k not in (1, 2) or len(set(targets)) != k or any(
        t < 0 or t >= state.n for t in targets
    ):
        raise BadTargets(f"bad targets {targets} for n={state.n}")
    if gate.shape != (2**k, 2**k):
        raise BadTargets(f"gate shape {gate.shape} does not match {k} target(s)")
    if check and not is_unitary(gate, tol.tol_unitary):
        raise NonUnitaryInput("apply expects a unitary gate")
    amps = _left_apply(state.amps[:, None], gate, targets, state.n)[:, 0]
    return StateVector(state.n, amps)


def propagate(
    circuit: Circuit,
    columns: np.ndarray,
    tol: ToleranceConfig = DEFAULT_TOL,
    check: bool = False,
) -> np.ndarray:
    """Left-multiply a (2^n, m) array by the circuit's unitary.

    Each entry's ops are checked once.  A repetition group whose body acts
    on at most two qubits becomes one matrix on those qubits, the body's
    product raised to the group's count; wider groups are expanded.
    """
    n = circuit.n
    for i, (ops, count) in enumerate(circuit.walk()):
        if check:
            for j, op in enumerate(ops):
                if not is_unitary(op.gate, tol.tol_unitary):
                    raise NonUnitaryInput(f"{describe_op(ops, count, i, j)} is not unitary")
        if count > 1:
            support = sorted({t for op in ops for t in op.targets})
            if len(support) <= 2:
                k = len(support)
                local = {q: a for a, q in enumerate(support)}
                body = np.eye(2**k, dtype=complex)
                for op in ops:
                    body = _left_apply(body, op.gate, tuple(local[t] for t in op.targets), k)
                columns = _left_apply(columns, np.linalg.matrix_power(body, count), tuple(support), n)
                continue
        for _ in range(count):
            for op in ops:
                columns = _left_apply(columns, op.gate, op.targets, n)
    return columns


def run(
    circuit: Circuit,
    initial: int | str = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
    cap: int = DEFAULT_QUBIT_CAP,
    check: bool = True,
) -> StateVector:
    """Left-to-right application of the circuit to a basis state."""
    state = StateVector.basis(circuit.n, initial, cap=cap)
    return StateVector(circuit.n, propagate(circuit, state.amps[:, None], tol, check)[:, 0])


def circuit_unitary(circuit: Circuit, cap: int = UNITARY_QUBIT_CAP) -> np.ndarray:
    """Dense 2^n x 2^n unitary of the whole circuit."""
    if circuit.n > cap:
        raise TooLarge(f"circuit_unitary capped at {cap} qubits, got {circuit.n}")
    return propagate(circuit, np.eye(2**circuit.n, dtype=complex))


def sample(state: StateVector, shots: int, seed: int) -> dict[int, int]:
    """Computational-basis histogram {basis index: count}."""
    if not isinstance(shots, (int, np.integer)) or not 1 <= shots < 2**63:
        raise BadSampleCount(f"shots must be an integer in [1, 2**63), got {shots!r}")
    probs = state.probabilities()
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return {int(i): int(c) for i, c in enumerate(counts) if c}


def expectation_z(state: StateVector, k: int) -> float:
    """<Z_k> of the state."""
    if not 0 <= k < state.n:
        raise BadTargets(f"qubit {k} out of range")
    probs = state.probabilities().reshape((2,) * state.n)
    p1 = float(np.sum(np.take(probs, 1, axis=k)))
    return 1.0 - 2.0 * p1
