"""Statevector simulator tests against explicit basis-state oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from matchgates.circuits import Circuit, CircuitOp
from matchgates.errors import BadTargets, NonUnitaryInput, TooLarge
from matchgates.gates import H, I2, X, build_pp, gate_library, kron
from matchgates.statevector import (
    StateVector,
    apply,
    circuit_unitary,
    expectation_z,
    run,
    sample,
)
from util import haar_unitary, random_matchgate_circuit


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
        combined = Circuit(4, ops=c1.ops + c2.ops)
        state = run(c1, 5)
        for op in c2.flat():
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
        body = tuple(body_circ.flat())
        seg = Circuit(3)
        seg.append_segment(body, 7)
        flat = Circuit(3, ops=list(body) * 7)
        assert_allclose(circuit_unitary(seg), circuit_unitary(flat), atol=1e-12)
        assert seg.flat_count() == flat.flat_count() == 28

    def test_cap(self):
        with pytest.raises(TooLarge):
            circuit_unitary(Circuit(13))


class TestRepeatGroups:
    @pytest.mark.parametrize(
        "gate,targets", [(gate_library("FSWAP"), (1, 2)), (build_pp(H, H), (2, 1))]
    )
    def test_huge_count_matches_one_application(self, gate, targets):
        # Order-2 gates: 10**9 + 1 applications equal one.  Repeated
        # squaring drifts by about 2e-7 at this count.
        prefix = random_matchgate_circuit(np.random.default_rng(46), 3, 6)
        once = Circuit(3, ops=list(prefix.ops))
        once.append(gate, targets)
        folded = Circuit(3, ops=list(prefix.ops))
        folded.append_segment(once.ops[-1:], 10**9 + 1)
        assert np.max(np.abs(run(folded, 3).amps - run(once, 3).amps)) < 1e-6

    def test_two_qubit_body_folds_like_its_expansion(self):
        rng = np.random.default_rng(47)
        body_circ = Circuit(4)
        body_circ.append(haar_unitary(rng, 4), (3, 1))
        body_circ.append(haar_unitary(rng, 2), (1,))
        body_circ.append(haar_unitary(rng, 4), (1, 3))
        seg = Circuit(4)
        seg.append_segment(body_circ.ops, 7)
        flat = Circuit(4, ops=body_circ.ops * 7)
        assert_allclose(circuit_unitary(seg), circuit_unitary(flat), atol=1e-12)
        assert_allclose(run(seg, 6).amps, run(flat, 6).amps, atol=1e-12)

    def test_non_unitary_op_in_group_names_entry_and_position(self):
        circ = Circuit(2)
        circ.append(I2, (0,))
        circ.append_segment([CircuitOp(I2, (1,)), CircuitOp(2.0 * np.eye(4), (0, 1))], 3)
        with pytest.raises(NonUnitaryInput, match=r"op 1\.1 \(gate on \(0, 1\)\)"):
            run(circ, 0)


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

    def test_seed_determinism(self):
        out = apply(StateVector.basis(2, 0), build_pp(H, H), (0, 1))
        assert sample(out, 500, seed=9) == sample(out, 500, seed=9)


class TestExpectationZ:
    def test_basis_states(self):
        s = StateVector.basis(3, "010")
        assert expectation_z(s, 0) == pytest.approx(1.0)
        assert expectation_z(s, 1) == pytest.approx(-1.0)
        assert expectation_z(s, 2) == pytest.approx(1.0)
