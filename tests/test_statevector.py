"""Statevector simulator tests against explicit basis-state oracles."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from matchgates.circuits import REPEAT_CAP, Circuit, CircuitOp, RepeatedSegment
from matchgates.errors import BadTargets, NonUnitaryInput, TooLarge
from matchgates.gates import H, I2, X, build_pp, gate_library, kron
from matchgates.statevector import (
    EXPANSION_CAP,
    FOLD_QUBIT_CAP,
    StateVector,
    apply,
    circuit_unitary,
    expectation_z,
    propagate,
    run,
    sample,
)
from util import embed, flat, haar_unitary, random_matchgate_circuit


def slow_embedding(gate: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Independent dense embedding built entry-by-entry from bit arithmetic."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    k = len(targets)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_in = 0
        for t in targets:
            sub_in = (sub_in << 1) | bits[t]
        for sub_out in range(2**k):
            amp = gate[sub_out, sub_in]
            if amp == 0:
                continue
            new_bits = list(bits)
            for pos, t in enumerate(targets):
                new_bits[t] = (sub_out >> (k - 1 - pos)) & 1
            row = 0
            for b in new_bits:
                row = (row << 1) | b
            out[row, col] += amp
    return out


class TestApply:
    def test_swap_fixes_symmetric_state(self):
        s = StateVector.basis(2, 0)
        out = apply(s, gate_library("SWAP"), (0, 1))
        assert_allclose(out.amps, s.amps)

    def test_swap_action_on_odd_block(self):
        s = StateVector.basis(2, "01")
        out = apply(s, build_pp(I2, X), (0, 1))
        assert_allclose(out.amps, StateVector.basis(2, "10").amps)

    def test_ghh_makes_bell_pair(self):
        out = apply(StateVector.basis(2, 0), build_pp(H, H), (0, 1))
        expected = np.zeros(4)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        assert_allclose(out.amps, expected, atol=1e-15)

    def test_ordered_targets(self):
        # CNOT with control listed second: |01> has control bit (qubit 1) set.
        s = StateVector.basis(2, "01")
        out = apply(s, gate_library("CNOT"), (1, 0))
        assert_allclose(out.amps, StateVector.basis(2, "11").amps)

    def test_bad_targets(self):
        s = StateVector.basis(2, 0)
        with pytest.raises(BadTargets):
            apply(s, gate_library("SWAP"), (0, 2))
        with pytest.raises(BadTargets):
            apply(s, gate_library("SWAP"), (1, 1))
        with pytest.raises(BadTargets):
            apply(s, H, (0, 1))

    def test_non_unitary(self):
        with pytest.raises(NonUnitaryInput):
            apply(StateVector.basis(1, 0), 2 * np.eye(2, dtype=complex), (0,))

    def test_disjoint_targets_commute(self):
        rng = np.random.default_rng(41)
        s = StateVector(4, None)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        s = StateVector(4, amps)
        g1, g2 = haar_unitary(rng, 4), haar_unitary(rng, 4)
        ab = apply(apply(s, g1, (0, 1)), g2, (2, 3))
        ba = apply(apply(s, g2, (2, 3)), g1, (0, 1))
        assert_allclose(ab.amps, ba.amps, atol=1e-13)


class TestRun:
    def test_empty_circuit(self):
        out = run(Circuit(3), 0)
        assert_allclose(out.amps, StateVector.basis(3, 0).amps)

    def test_norm_preserved(self):
        rng = np.random.default_rng(42)
        circ = random_matchgate_circuit(rng, 6, 40)
        out = run(circ, int(rng.integers(0, 2**6)))
        assert abs(out.norm() - 1.0) < 1e-12

    def test_composition(self):
        rng = np.random.default_rng(43)
        c1 = random_matchgate_circuit(rng, 4, 10)
        c2 = random_matchgate_circuit(rng, 4, 10)
        combined = Circuit(4, ops=[*c1.ops, *c2.ops])
        state = run(c1, 5)
        for op in flat(c2):
            state = apply(state, op.gate, op.targets)
        assert_allclose(run(combined, 5).amps, state.amps, atol=1e-12)

    def test_cap(self):
        with pytest.raises(TooLarge):
            run(Circuit(25), 0)


class TestCircuitUnitary:
    def test_single_swap(self):
        circ = Circuit(2)
        circ.append(gate_library("SWAP"), (0, 1))
        assert_allclose(circuit_unitary(circ), gate_library("SWAP"))

    def test_against_slow_oracle(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            circ = Circuit(n)
            expected = np.eye(2**n, dtype=complex)
            for _ in range(8):
                if rng.random() < 0.4:
                    gate = haar_unitary(rng, 2)
                    targets = (int(rng.integers(0, n)),)
                else:
                    gate = haar_unitary(rng, 4)
                    q = rng.choice(n, size=2, replace=False)
                    targets = (int(q[0]), int(q[1]))
                circ.append(gate, targets)
                expected = slow_embedding(gate, targets, n) @ expected
            assert np.max(np.abs(circuit_unitary(circ) - expected)) < 1e-12

    def test_repeated_segment_matches_flat(self):
        rng = np.random.default_rng(45)
        body_circ = random_matchgate_circuit(rng, 3, 4)
        body = tuple(flat(body_circ))
        seg = Circuit(3)
        seg.append_segment(body, 7)
        expanded = Circuit(3, ops=list(body) * 7)
        assert_allclose(circuit_unitary(seg), circuit_unitary(expanded), atol=1e-12)
        assert seg.flat_count() == expanded.flat_count() == 28

    def test_cap(self):
        with pytest.raises(TooLarge):
            circuit_unitary(Circuit(13))


class TestRepeatGroups:
    @pytest.mark.parametrize(
        "gate,targets", [(gate_library("FSWAP"), (1, 2)), (build_pp(H, H), (2, 1))]
    )
    def test_huge_count_matches_one_application(self, gate, targets):
        # Order-2 gates: REPEAT_CAP - 1 applications equal one.  Repeated
        # squaring drifts by about 2e-9 at this count.
        prefix = random_matchgate_circuit(np.random.default_rng(46), 3, 6)
        once = Circuit(3, ops=list(prefix.ops))
        once.append(gate, targets)
        folded = Circuit(3, ops=list(prefix.ops))
        folded.append_segment(once.ops[-1:], REPEAT_CAP - 1)
        assert np.max(np.abs(run(folded, 3).amps - run(once, 3).amps)) < 1e-6

    def test_two_qubit_body_folds_like_its_expansion(self):
        rng = np.random.default_rng(47)
        body_circ = Circuit(4)
        body_circ.append(haar_unitary(rng, 4), (3, 1))
        body_circ.append(haar_unitary(rng, 2), (1,))
        body_circ.append(haar_unitary(rng, 4), (1, 3))
        seg = Circuit(4)
        seg.append_segment(body_circ.ops, 7)
        flat = Circuit(4, ops=list(body_circ.ops) * 7)
        assert_allclose(circuit_unitary(seg), circuit_unitary(flat), atol=1e-12)
        assert_allclose(run(seg, 6).amps, run(flat, 6).amps, atol=1e-12)

    @pytest.mark.parametrize("width", range(3, FOLD_QUBIT_CAP + 1))
    def test_body_on_up_to_six_qubits_folds_like_its_expansion(self, width):
        rng = np.random.default_rng(48 + width)
        body = [CircuitOp(haar_unitary(rng, 4), (q + 1, q)) for q in range(width - 1)]
        body.append(CircuitOp(haar_unitary(rng, 2), (width - 1,)))
        seg = Circuit(width + 1)
        seg.append_segment(body, 7)
        flat = Circuit(width + 1, ops=body * 7)
        assert_allclose(circuit_unitary(seg), circuit_unitary(flat), atol=1e-12)

    def test_three_qubit_body_at_the_repeat_cap(self):
        # FSWAP(0,1) FSWAP(1,2) FSWAP(0,1) is an involution, so REPEAT_CAP - 1
        # repetitions equal one; expanded, they would take minutes.
        fswap = gate_library("FSWAP")
        body = [CircuitOp(fswap, (0, 1)), CircuitOp(fswap, (1, 2)), CircuitOp(fswap, (0, 1))]
        prefix = random_matchgate_circuit(np.random.default_rng(53), 4, 6)
        once = Circuit(4, ops=list(prefix.ops) + body)
        folded = Circuit(4, ops=list(prefix.ops))
        folded.append_segment(body, REPEAT_CAP - 1)
        assert np.max(np.abs(run(folded, 5).amps - run(once, 5).amps)) < 1e-6

    def test_wider_group_expands_up_to_the_cap_and_is_refused_past_it(self):
        body = tuple(CircuitOp(H, (q,)) for q in range(FOLD_QUBIT_CAP + 1))
        circ = Circuit(FOLD_QUBIT_CAP + 1)
        circ.append(X, (0,))
        circ.append_segment(body, 2)
        assert_allclose(run(circ, 0).amps, run(Circuit(circ.n, ops=circ.ops[:1]), 0).amps, atol=1e-12)
        count = EXPANSION_CAP // len(body) + 1
        circ = Circuit(circ.n, [*circ.ops[:1], RepeatedSegment(body, count)])
        with pytest.raises(TooLarge, match=rf"^entry 1 repeats 7 op\(s\) on 7 qubits {count} times"):
            run(circ, 0)

    def test_non_unitary_op_in_group_names_entry_and_position(self):
        circ = Circuit(2)
        circ.append(I2, (0,))
        with pytest.raises(NonUnitaryInput, match=r"^op 1\.1 \(gate on \(0, 1\)\) is not unitary within 1e-09$"):
            circ.append_segment([CircuitOp(I2, (1,)), CircuitOp(2.0 * np.eye(4), (0, 1))], 3)
        assert len(circ.ops) == 1


def random_op(rng: np.random.Generator, support: list[int]) -> CircuitOp:
    """A Haar 1-qubit gate, or a Haar 2-qubit gate on an ordered pair drawn
    from ``support`` (so either target order, adjacent or not)."""
    if len(support) == 1 or rng.random() < 0.4:
        return CircuitOp(haar_unitary(rng, 2), (int(rng.choice(support)),))
    q = rng.choice(support, size=2, replace=False)
    return CircuitOp(haar_unitary(rng, 4), (int(q[0]), int(q[1])))


def random_circuit(rng: np.random.Generator, n: int, entries: int) -> tuple[Circuit, np.ndarray]:
    """Single ops and repetition groups on 1, 2 or 3 qubits, with the dense
    unitary the Kronecker oracle gives for them.  Widths cycle with period
    min(n, 3) and groups alternate with single entries, so six entries hold
    a group of every width."""
    circ, expected = Circuit(n), np.eye(2**n, dtype=complex)
    for entry in range(entries):
        width = 1 + entry % min(n, 3)
        support = [int(q) for q in rng.choice(n, size=width, replace=False)]
        ops = [random_op(rng, support) for _ in range(int(rng.integers(1, 4)))]
        covered = {t for op in ops for t in op.targets}
        ops += [CircuitOp(haar_unitary(rng, 2), (q,)) for q in support if q not in covered]
        count = int(rng.integers(2, 5)) if entry % 2 else 1
        if count > 1:
            circ.append_segment(ops, count)
        else:
            for op in ops:
                circ.add(op)
        for _ in range(count):
            for op in ops:
                expected = embed(op.gate, op.targets, n) @ expected
    return circ, expected


class TestKernelAgainstKroneckerOracle:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_propagate_and_circuit_unitary(self, n):
        rng = np.random.default_rng(100 + n)
        circ, expected = random_circuit(rng, n, 16)
        assert np.max(np.abs(circuit_unitary(circ) - expected)) < 1e-12
        for m in (1, 3):
            columns = rng.normal(size=(2**n, m)) + 1j * rng.normal(size=(2**n, m))
            before = columns.copy()
            out = propagate(circ, columns)
            assert np.max(np.abs(out - expected @ columns)) < 1e-12
            assert np.array_equal(columns, before)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_apply(self, n):
        rng = np.random.default_rng(200 + n)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        for _ in range(6):
            op = random_op(rng, list(range(n)))
            out = apply(state, op.gate, op.targets)
            assert np.max(np.abs(out.amps - embed(op.gate, op.targets, n) @ state.amps)) < 1e-12
            state = out


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    # One gate holds the gathered copy and the product; the block it
    # replaces is freed first.  Three live copies would read 3x and more.
    def test_run_peak(self):
        rng = np.random.default_rng(49)
        circ = Circuit(16, ops=[random_op(rng, list(range(16))) for _ in range(200)])
        assert traced_peak(run, circ, 0) <= 2.5 * 16 * 2**16

    def test_circuit_unitary_peak(self):
        rng = np.random.default_rng(50)
        circ = Circuit(10, ops=[random_op(rng, list(range(10))) for _ in range(30)])
        assert traced_peak(circuit_unitary, circ) <= 2.5 * 16 * 4**10


class TestSample:
    def test_basis_state_deterministic(self):
        hist = sample(StateVector.basis(3, 0), 1000, seed=1)
        assert hist == {0: 1000}

    def test_bell_within_binomial_bounds(self):
        out = apply(StateVector.basis(2, 0), build_pp(H, H), (0, 1))
        hist = sample(out, 10_000, seed=2)
        assert set(hist) == {0, 3}
        # 3 sigma of Binomial(1e4, 1/2)
        assert abs(hist[0] - 5000) < 3 * np.sqrt(10_000 * 0.25)

    def test_matches_enumerate_oracle_key_order_included(self):
        rng = np.random.default_rng(51)
        amps = rng.normal(size=2**16) + 1j * rng.normal(size=2**16)
        state = StateVector(16, amps / np.linalg.norm(amps))
        hist = sample(state, 20_000, seed=5)
        probs = state.probabilities()
        counts = np.random.default_rng(5).multinomial(20_000, probs / probs.sum())
        oracle = {int(i): int(c) for i, c in enumerate(counts) if c}
        assert list(hist.items()) == list(oracle.items())
        assert all(type(k) is int and type(c) is int for k, c in hist.items())

    def test_seed_determinism(self):
        out = apply(StateVector.basis(2, 0), build_pp(H, H), (0, 1))
        assert sample(out, 500, seed=9) == sample(out, 500, seed=9)


class TestExpectationZ:
    def test_basis_states(self):
        s = StateVector.basis(3, "010")
        assert expectation_z(s, 0) == pytest.approx(1.0)
        assert expectation_z(s, 1) == pytest.approx(-1.0)
        assert expectation_z(s, 2) == pytest.approx(1.0)
