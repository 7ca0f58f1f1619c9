"""Dense n-qubit statevector simulator.

Serves as the exact oracle for the fermionic simulator and the compiler
verifier, all three through :func:`propagate`.  The verifier runs each
distinct decode window of a physical circuit through it, as a circuit of
its own on the window's code columns.  Amplitude layout: basis
index bit k is qubit k with qubit 0 the most-significant bit, matching the
two-qubit gate convention.

:func:`propagate` reads a circuit's rows from its columns, one top-level
entry at a time, and lowers them to the matrices it applies, in order:

- A repetition group is a barrier.  One whose body acts on at most
  FOLD_QUBIT_CAP qubits becomes one matrix on those qubits, the body's
  product raised to the group's count; a wider one is expanded, its body's
  runs applied count times, up to EXPANSION_CAP ops.
- The rows between groups are fused into runs of at most FUSE_QUBIT_CAP
  qubits, each applied as one matrix on its sorted qubits.  A row may join
  an older run only when no run made after that one touches the row's
  targets, so the row commutes with every run it moves past, and the runs
  are applied in the order they were made.
- A run of k rows on w qubits costs one gather and a product of 2^w terms
  per block entry, against k gathers and 4k terms for its rows, plus its
  own matrix: k products on a 2^w x 2^w block.  On n = 14-16 single
  columns, runs of 3-5 qubits were within 10% of each other, 5 the
  fastest at n = 16, and 6 slower at every n.  A block of fewer
  than FUSE_BLOCK_MIN entries is run row by row: there building a matrix
  costs about as much as applying the rows it replaces, and runs of 3-5
  qubits made n = 8-12 single columns and the small blocks of the
  verifier's windows slower.

Every matrix goes through one kernel, :class:`_Block`: the block of
columns is a tensor with one axis per qubit, the matrix's targets are
gathered to the front only when they are not there already, and the
product stays in that axis order until :func:`propagate` restores qubit
order once at the end.
No op is checked here: a circuit holds only admitted ops (see
``matchgates.circuits``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, basis_index, check_shots, entry_spans
from .errors import BadTargets, TooLarge

QUBIT_CAP = 20
UNITARY_QUBIT_CAP = 12
# A repetition group on at most FOLD_QUBIT_CAP qubits folds into one matrix
# power; a wider one is expanded, up to EXPANSION_CAP ops.
FOLD_QUBIT_CAP = 6
EXPANSION_CAP = 100_000
# Rows are fused into runs on at most FUSE_QUBIT_CAP qubits on a block of
# at least FUSE_BLOCK_MIN entries (module docstring).
FUSE_QUBIT_CAP = 5
FUSE_BLOCK_MIN = 2**13


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
        amps = np.zeros(2**n, dtype=complex)
        amps[basis_index(n, label)] = 1.0
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

    The rows are lowered as the module docstring says: those between
    repetition groups are fused into runs on at most FUSE_QUBIT_CAP qubits
    (on a block of at least FUSE_BLOCK_MIN entries; row by row on a
    smaller one), a group whose body acts on at most FOLD_QUBIT_CAP qubits
    becomes one matrix power, and a wider group is expanded; TooLarge names
    one that would expand past EXPANSION_CAP ops.
    """
    block = _Block(columns, circuit.n)
    width = FUSE_QUBIT_CAP if columns.size >= FUSE_BLOCK_MIN else 0
    del columns
    for gate, targets in _lower(circuit, width):
        block.apply(gate, targets)
    return block.columns()


def _lower(circuit: Circuit, width: int):
    """The (matrix, targets) pairs whose product, in order, is the circuit."""
    col = circuit.columns
    gates = [col.stacks[size][slot] for size, slot in zip(col.sizes.tolist(), col.slots.tolist())]
    # A row that holds its qubit twice is a one-qubit op.
    targets = [(a,) if a == b else (a, b) for a, b in col.targets.tolist()]
    pending = []
    for i, (start, stop, count, _) in enumerate(entry_spans(circuit.groups, circuit.rows)):
        if count == 1:
            pending.extend(range(start, stop))
            continue
        yield from _fuse(gates, targets, pending, width)
        pending = []
        support = sorted({t for row in targets[start:stop] for t in row})
        if len(support) <= FOLD_QUBIT_CAP:
            body = _product(gates, targets, range(start, stop), support)
            yield np.linalg.matrix_power(body, count), tuple(support)
            continue
        if count * (stop - start) > EXPANSION_CAP:
            raise TooLarge(
                f"entry {i} repeats {stop - start} op(s) on {len(support)} qubits {count} times: "
                f"a group wider than {FOLD_QUBIT_CAP} qubits is expanded, and this one "
                f"passes the cap of {EXPANSION_CAP} ops"
            )
        # The body's runs are built again each time, so at most one run's
        # matrix is alive.
        for _ in range(count):
            yield from _fuse(gates, targets, range(start, stop), width)
    yield from _fuse(gates, targets, pending, width)


def _fuse(gates: list, targets: list, rows, width: int):
    """``rows``, in circuit order, as runs of at most ``width`` qubits (one
    run per row when ``width`` is 0): a (matrix, targets) pair per run, in
    order of application, each matrix built only when it is asked for.

    ``last[q]`` is the newest run on qubit q.  A row may join any run no
    older than the newest on its targets, because no later run touches
    them; it tries that run, then the newest run, and otherwise opens one.
    """
    if not width:
        for r in rows:
            yield gates[r], targets[r]
        return
    runs, last = [], {}
    for r in rows:
        t = targets[r]
        latest = max(last.get(q, -1) for q in t)
        for c in (latest, len(runs) - 1):
            if c >= 0 and len(runs[c][1].union(t)) <= width:
                break
        else:
            c = len(runs)
            runs.append(([], set()))
        runs[c][0].append(r)
        runs[c][1].update(t)
        for q in t:
            last[q] = c
    for run, support in runs:
        if len(run) == 1:
            yield gates[run[0]], targets[run[0]]
        else:
            support = sorted(support)
            yield _product(gates, targets, run, support), tuple(support)


def _product(gates: list, targets: list, rows, support: list) -> np.ndarray:
    """The product of ``rows`` as a matrix on the sorted qubits ``support``."""
    local = {q: a for a, q in enumerate(support)}
    body = _Block(np.eye(2 ** len(support), dtype=complex), len(support))
    for r in rows:
        body.apply(gates[r], tuple(local[t] for t in targets[r]))
    return body.columns()


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
    check_shots(shots)
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
