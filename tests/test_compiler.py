"""Compiler tests: strip decomposition, entangler blocks, repetition
planning, full compilation, and verification."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import matchgates.compiler
import matchgates.gates
from matchgates.analysis import classify, entangling_power_closed, kak, pp_params
from matchgates.circuits import REPEAT_CAP, Circuit, CircuitOp, Columns, RepeatedSegment
from matchgates.compiler import (
    Encoding,
    build_entangler_block,
    compile_circuit,
    effective_diagonal,
    logical_single_qubit,
    plan_entangler,
    spectral_norm,
    strip_z_rotations,
    verify,
)
from matchgates.errors import (
    NonUnitaryInput,
    ParseError,
    SynthesisError,
    TargetIsMatchgate,
    TargetNotPP,
    TooLarge,
    UnsupportedLogicalGate,
)
from matchgates.gates import (
    H,
    I2,
    X,
    build_pp,
    gate_library,
    nl,
    phase_rz,
    rz,
    ry,
)
from matchgates.io import emit_circuit_document, parse_circuit_document
from matchgates.statevector import circuit_unitary, propagate, run as sv_run
from matchgates.analysis import NonlocalTriple
from util import equal_up_to_global_phase, haar_unitary, isometry, random_matchgate, random_nonmatchgate_pp, random_pp

PI = np.pi
CZ = gate_library("CZ")
LOGICAL_2Q = {"cz": CZ, "cnot": gate_library("CNOT"), "swap": gate_library("SWAP")}


def random_logical_circuit(rng, n_logical: int, depth: int) -> Circuit:
    circ = Circuit(n_logical)
    for layer in range(depth):
        for q in range(n_logical):
            circ.append(haar_unitary(rng, 2), (q,))
        if layer % 2 and n_logical >= 2:
            q = int(rng.integers(0, n_logical - 1))
            circ.append(CZ, (q, q + 1), name="cz")
    return circ


class TestEncoding:
    def test_encode_index(self):
        enc = Encoding(2)
        assert [enc.encode_index(x) for x in range(4)] == [0b0000, 0b0011, 0b1100, 0b1111]

    def test_isometry_orthonormal(self):
        enc = Encoding(3)
        v = isometry(enc)
        assert_allclose(v.conj().T @ v, np.eye(8), atol=1e-15)


class TestStrip:
    def test_core_gate_needs_no_rotations(self):
        s = strip_z_rotations(nl(0.3, 0.2, 0.1))
        assert_allclose(s.left, (0, 0), atol=1e-9)
        assert_allclose(s.right, (0, 0), atol=1e-9)
        assert_allclose(s.core.as_tuple(), (0.3, 0.2, 0.1), atol=1e-9)

    def test_tau_family(self):
        for tau in (0.1, 0.9, 2.0):
            g = build_pp(I2, np.exp(1j * tau) * X)
            s = strip_z_rotations(g)
            assert np.max(np.abs(s.reconstruct() - g)) < 1e-9

    def test_random_reconstruction(self):
        rng = np.random.default_rng(70)
        for _ in range(200):
            g = random_pp(rng)
            s = strip_z_rotations(g)
            assert np.max(np.abs(s.reconstruct() - g)) < 1e-9

    def test_outer_factors_are_matchgates(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            s = strip_z_rotations(random_pp(rng))
            for t1, t2 in (s.left, s.right):
                assert classify(build_pp(phase_rz(t1), phase_rz(t2))).is_matchgate


class TestLogicalSingleQubit:
    def test_identity(self):
        (op,) = logical_single_qubit(I2, 0)
        assert_allclose(op.gate, np.eye(4))
        assert op.targets == (0, 1)

    def test_hadamard_makes_logical_plus(self):
        circ = Circuit(2, logical_single_qubit(H, 0))
        out = sv_run(circ, 0)
        expected = np.zeros(4)
        expected[0b00] = expected[0b11] = 1 / np.sqrt(2)
        assert_allclose(out.amps, expected, atol=1e-12)

    def test_composite_gate_acts_as_itself(self):
        a = rz(-0.7) @ ry(1.1) @ rz(0.3)
        circ = Circuit(2, logical_single_qubit(a, 0))
        u = circuit_unitary(circ)
        enc = Encoding(1)
        v = isometry(enc)
        assert np.max(np.abs(v.conj().T @ u @ v - a)) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryInput):
            logical_single_qubit(2 * I2, 0)


    def test_compile_checks_each_logical_gate_once(self, monkeypatch):
        """Once per body op, where it enters the circuit: compile checks
        none again, and a repeat group's body is checked once, not once per
        repetition."""
        rng = np.random.default_rng(12)
        a, b, c = (haar_unitary(rng, 2) for _ in range(3))
        checked = []
        defect = matchgates.gates.unitarity_defect

        def recording(m):
            checked.append(np.array(m))
            return defect(m)

        monkeypatch.setattr(matchgates.gates, "unitarity_defect", recording)
        logical = Circuit(2)
        logical.append(a, (0,))
        logical.append(gate_library("CNOT"), (0, 1), name="cnot")
        logical.append(b, (1,))
        logical.append_segment([CircuitOp(c, (0,))], 2)
        compile_circuit(logical, gate_library("SWAP"), 1e-6)
        assert [sum(np.array_equal(m, g) for m in checked) for g in (a, b, c)] == [1, 1, 1]

    def test_compile_refuses_a_non_unitary_logical_gate_by_its_index(self):
        # Refused where it enters the logical circuit, before any compile.
        logical = Circuit(2)
        logical.append(gate_library("CZ"), (0, 1), name="cz")
        with pytest.raises(NonUnitaryInput, match=r"^op 1 \(gate on \(1,\)\) is not unitary within 1e-09$"):
            logical.append((1 + 1e-7) * I2, (1,))


class TestEntanglerBlock:
    def test_swap_core_gives_cz(self):
        core = NonlocalTriple(PI / 4, PI / 4, PI / 4)
        ops, diag = build_entangler_block(core)
        assert equal_up_to_global_phase(diag, CZ)
        assert_allclose(diag[0, 0], np.exp(1j * PI / 4))

    def test_zero_core_is_non_entangling(self):
        ops, diag = build_entangler_block(NonlocalTriple(0, 0, 0))
        assert_allclose(diag, np.diag([1, 1, -1, -1]), atol=1e-12)
        assert entangling_power_closed(kak(diag).core) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("tau", [0.0, PI / 8, PI / 4, 3 * PI / 8])
    def test_tau_family_logical_gate(self, tau):
        g = build_pp(I2, np.exp(1j * tau) * X)
        s = strip_z_rotations(g)
        diag = effective_diagonal(s.core, s.global_phase)
        expected = np.diag([1, np.exp(1j * tau), np.exp(1j * tau), -1])
        assert equal_up_to_global_phase(diag, expected, 1e-9)

    def test_diagonal_matches_four_qubit_simulation(self):
        # Oracle: run the block on 4 physical qubits and restrict.
        rng = np.random.default_rng(72)
        enc = Encoding(2)
        v = isometry(enc)
        for _ in range(20):
            core = NonlocalTriple(*rng.uniform(-PI / 2, PI / 2, size=3))
            ops, diag = build_entangler_block(core)
            circ = Circuit(4, ops=list(ops))
            u = circuit_unitary(circ)
            u_sub = v.conj().T @ u @ v
            assert np.max(np.abs(u_sub - diag)) < 1e-9
            # Diagonal blocks cannot leak out of the encoded subspace.
            w = u @ v
            assert np.linalg.norm(w - v @ u_sub, 2) < 1e-9

    def test_block_ops_are_matchgates_except_target(self):
        ops, _ = build_entangler_block(NonlocalTriple(0.2, 0.1, 0.4))
        for op in ops:
            if op.tag == "target":
                continue
            assert classify(op.gate).is_matchgate


class TestPlanEntangler:
    def test_quarter_pi_single_shot(self):
        plan = plan_entangler(NonlocalTriple(PI / 4, PI / 4, PI / 4), 1e-9)
        assert plan.repetitions == 1
        assert plan.residual_error == pytest.approx(0.0, abs=1e-12)

    def test_eighth_pi_two_shots(self):
        plan = plan_entangler(NonlocalTriple(0, 0, PI / 8), 1e-9)
        assert plan.repetitions == 2
        assert plan.residual_error == pytest.approx(0.0, abs=1e-12)

    def test_matchgate_core_refused(self):
        with pytest.raises(TargetIsMatchgate):
            plan_entangler(NonlocalTriple(0.3, 0.1, 0.0), 1e-6)

    def test_repetitions_minimal(self):
        plan = plan_entangler(NonlocalTriple(0, 0, 0.11), 0.02)
        for r in range(1, plan.repetitions):
            assert abs((r * 0.11) % (PI / 2) - PI / 4) > 0.02

    def test_synthesis_error_when_capped(self):
        with pytest.raises(SynthesisError):
            plan_entangler(NonlocalTriple(0, 0, 0.1), 1e-9, r_max=50)

    def test_large_repetition_count_is_consistent(self):
        # r * phases reaches 10**6; unreduced, its rounding (about 1e-9)
        # failed the corrections' consistency check.
        plan = plan_entangler(NonlocalTriple(0, 0, 0.1), 1e-7)
        assert plan.repetitions == 7138963
        assert plan.residual_error <= 1e-7

    def test_corrections_give_exact_cz_for_dyadic_angle(self):
        core = NonlocalTriple(0, 0, PI / 8)
        plan = plan_entangler(core, 1e-9)
        diag = effective_diagonal(core)
        chi1, chi2 = plan.local_corrections
        corr = np.kron(phase_rz(chi1), phase_rz(chi2))
        total = np.exp(1j * plan.global_phase) * corr @ np.linalg.matrix_power(diag, plan.repetitions)
        assert np.max(np.abs(total - CZ)) < 1e-12


class TestCompile:
    def test_single_cz_with_swap_target_is_exact(self):
        logical = Circuit(2)
        logical.append(CZ, (0, 1), name="cz")
        comp = compile_circuit(logical, gate_library("SWAP"), 1e-6)
        u = circuit_unitary(comp.physical)
        v = isometry(Encoding(2))
        assert np.max(np.abs(v.conj().T @ u @ v - CZ)) < 1e-12

    def test_bell_circuit_with_swap_target(self):
        logical = Circuit(2)
        logical.append(H, (0,))
        logical.append(gate_library("CNOT"), (0, 1), name="cnot")
        comp = compile_circuit(logical, gate_library("SWAP"), 1e-6)
        out = sv_run(comp.physical, 0).amps
        expected = np.zeros(16, dtype=complex)
        expected[0b0000] = expected[0b1111] = 1 / np.sqrt(2)
        phase = np.vdot(out, expected)
        assert abs(abs(phase) - 1.0) < 1e-9
        assert np.max(np.abs(out * phase / abs(phase) - expected)) < 1e-9

    def test_r_max_is_a_cap(self):
        # One CZ with target nl(0.3, 0.1, 0.1) at epsilon 1e-6 needs r = 699.
        logical = Circuit(2)
        logical.append(CZ, (0, 1), name="cz")
        target = nl(0.3, 0.1, 0.1)
        for r_max in (50, 698):
            with pytest.raises(SynthesisError, match=f"<= {r_max} "):
                compile_circuit(logical, target, 1e-6, r_max=r_max)
        assert compile_circuit(logical, target, 1e-6, r_max=699).plan.repetitions == 699

    @pytest.mark.parametrize("r_max", [0, REPEAT_CAP + 1, 10**8, 2.5, True])
    def test_r_max_outside_the_repeat_cap_is_refused_before_planning(self, monkeypatch, r_max):
        # At r_max 10**8 this target plans r = 26,163,273: its (W, T) group
        # would repeat past REPEAT_CAP, and the document could not be read back.
        logical = Circuit(2)
        logical.append(CZ, (0, 1), name="cz")

        def plan(*args, **kwargs):
            raise AssertionError("planned")

        monkeypatch.setattr(matchgates.compiler, "plan_entangler", plan)
        with pytest.raises(ParseError, match=rf"^r_max must be an integer in \[1, {REPEAT_CAP}\], got {r_max!r}$"):
            compile_circuit(logical, nl(0.2, 0.1, 3e-8), 1e-6, r_max=r_max)

    def test_angle_budget_has_no_floor(self):
        # At epsilon 1e-30 the budget is 5e-16; r = 3 lands 5e-14 from pi/4,
        # a hundred times over it, and no r <= r_max does better.
        logical = Circuit(2)
        logical.append(CZ, (0, 1), name="cz")
        target = nl(0.2, 0.1, (PI / 4 + 5e-14) / 3)
        with pytest.raises(SynthesisError, match=r"tolerance 5\.000e-16; best residual 5\.0\d\de-14 at r=3$"):
            compile_circuit(logical, target, 1e-30)

    def test_iswap_target_refused(self):
        logical = Circuit(2)
        logical.append(CZ, (0, 1), name="cz")
        with pytest.raises(TargetIsMatchgate):
            compile_circuit(logical, gate_library("ISWAP"), 1e-6)

    def test_non_pp_target_refused(self):
        logical = Circuit(2)
        logical.append(CZ, (0, 1), name="cz")
        with pytest.raises(TargetNotPP):
            compile_circuit(logical, gate_library("CNOT"), 1e-6)

    def test_unsupported_logical_gate(self):
        logical = Circuit(2)
        logical.append(gate_library("ISWAP"), (0, 1), name="iswap")
        with pytest.raises(UnsupportedLogicalGate):
            compile_circuit(logical, gate_library("SWAP"), 1e-6)
        logical = Circuit(2)
        logical.append(haar_unitary(np.random.default_rng(0), 4), (0, 1))
        with pytest.raises(UnsupportedLogicalGate):
            compile_circuit(logical, gate_library("SWAP"), 1e-6)

    def test_random_targets_meet_fidelity(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            target = random_nonmatchgate_pp(rng)
            logical = random_logical_circuit(rng, 2, 10)
            comp = compile_circuit(logical, target, 1e-6)
            rep = verify(comp.physical, logical)
            assert rep.mode == "exact"
            assert rep.fidelity >= 1 - 1e-6
            assert rep.leakage <= 1e-9

    def test_emitted_ops_all_matchgates_except_target(self):
        rng = np.random.default_rng(74)
        target = random_nonmatchgate_pp(rng)
        logical = random_logical_circuit(rng, 2, 6)
        comp = compile_circuit(logical, target, 1e-4)
        seen_target = 0
        for entry in comp.physical.ops:
            ops = entry.body if isinstance(entry, RepeatedSegment) else [entry]
            for op in ops:
                if op.tag == "target":
                    seen_target += 1
                    assert np.array_equal(op.gate, target)
                else:
                    assert classify(op.gate).is_matchgate
                assert abs(op.targets[0] - op.targets[-1]) <= 1
        assert seen_target > 0

    def test_matrix_named_logical_gates(self):
        # Unnamed ops matching CZ / CNOT / SWAP matrices are accepted.
        logical = Circuit(2)
        logical.append(gate_library("SWAP"), (0, 1))
        comp = compile_circuit(logical, gate_library("SWAP"), 1e-6)
        rep = verify(comp.physical, logical)
        assert rep.fidelity >= 1 - 1e-9

    def test_non_adjacent_cz_routed(self):
        rng = np.random.default_rng(75)
        logical = Circuit(3)
        logical.append(haar_unitary(rng, 2), (0,))
        logical.append(CZ, (0, 2), name="cz")
        logical.append(haar_unitary(rng, 2), (2,))
        comp = compile_circuit(logical, gate_library("SWAP"), 1e-6)
        rep = verify(comp.physical, logical)
        assert rep.mode == "exact"
        assert rep.fidelity >= 1 - 1e-9
        assert rep.leakage <= 1e-9

    def test_logical_swap_gate(self):
        logical = Circuit(2)
        logical.append(gate_library("SWAP"), (0, 1), name="swap")
        comp = compile_circuit(logical, gate_library("SWAP"), 1e-6)
        rep = verify(comp.physical, logical)
        assert rep.fidelity >= 1 - 1e-9

    def test_provenance_covers_all_ops(self):
        rng = np.random.default_rng(76)
        logical = random_logical_circuit(rng, 2, 6)
        comp = compile_circuit(logical, gate_library("SWAP"), 1e-6)
        spans = [tuple(p["physical_ops"]) for p in comp.provenance]
        assert spans[0][0] == 0
        assert spans[-1][1] == len(comp.physical.ops)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start

    @pytest.mark.parametrize("target", [gate_library("SWAP"), nl(0.2, 0.1, 0.35)], ids=["SWAP", "NL"])
    def test_repeat_group_compiles_like_its_hand_expanded_copy(self, target):
        rng = np.random.default_rng(78)
        a, b = haar_unitary(rng, 2), haar_unitary(rng, 2)
        group = [
            CircuitOp(gate_library("CNOT"), (3, 0), name="cnot"),
            CircuitOp(a, (2,)),
            CircuitOp(gate_library("SWAP"), (0, 4), name="swap"),
            CircuitOp(b, (1,)),
        ]
        grouped, expanded = Circuit(5), Circuit(5)
        for circ in (grouped, expanded):
            circ.append(H, (1,))
        grouped.append_segment(group, 3)
        for op in group * 3:
            expanded.add(op)
        for circ in (grouped, expanded):
            circ.append(CZ, (4, 1), name="cz")

        def document(logical):
            comp = compile_circuit(logical, target, 1e-6)
            return emit_circuit_document(comp.physical, {"provenance": comp.provenance})

        doc = document(grouped)
        assert doc == document(expanded)
        assert [p["logical_op"] for p in doc["metadata"]["provenance"]][-1] == 13
        comp = compile_circuit(grouped, target, 1e-6)
        assert verify(comp.physical, grouped).fidelity >= 1 - 1e-6

    def test_repetitions_of_a_logical_group_reuse_the_gate_stack(self):
        doc = {"format_version": 1, "qubits": 2, "gates": [{"repeat": 1, "gates": [
            {"name": "h", "targets": [0]}, {"name": "cz", "targets": [0, 1]}]}]}
        compiled = []
        for count in (1, 1000):
            doc["gates"][0]["repeat"] = count
            compiled.append(compile_circuit(parse_circuit_document(doc), gate_library("SWAP"), 1e-6).physical)
        once, many = compiled
        assert many.rows == 1000 * once.rows
        assert len(many.columns.stacks[4]) <= len(once.columns.stacks[4])

    def test_non_unitary_two_qubit_op_is_refused_as_not_unitary(self):
        # Where it enters the circuit, so neither as an unsupported gate nor
        # as the SynthesisError this target's lone CZ gets at r_max 50.
        logical = Circuit(2)
        logical.append(CZ, (0, 1), name="cz")
        with pytest.raises(NonUnitaryInput, match=r"^op 1 \(matrix on \(0, 1\)\) is not unitary within 1e-09$"):
            logical.append(2 * CZ, (0, 1), name="matrix")
        assert len(logical.ops) == 1
        with pytest.raises(SynthesisError):
            compile_circuit(logical, nl(0.3, 0.1, 0.1), 1e-6, r_max=50)

    def test_unsupported_logical_gate_is_named_by_its_op(self):
        logical = Circuit(3)
        logical.append(H, (0,))
        logical.append_segment([CircuitOp(H, (1,)), CircuitOp(gate_library("ISWAP"), (1, 2), name="iswap")], 2)
        with pytest.raises(UnsupportedLogicalGate, match=r"^logical circuit: op 1\.1 \(iswap on \(1, 2\)\) "):
            compile_circuit(logical, gate_library("SWAP"), 1e-6)

    def test_sin_squared_2c_law(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            core = NonlocalTriple(*rng.uniform(-PI / 2, PI / 2, size=3))
            _, diag = build_entangler_block(core)
            ep = entangling_power_closed(kak(diag).core)
            assert ep == pytest.approx(np.sin(2 * core.c) ** 2, abs=1e-9)


class TestRouting:
    @pytest.mark.parametrize("n_logical,lo", [(2, 0), (3, 1), (4, 1)])
    def test_fswap_primitive_is_swap_on_the_code(self, n_logical, lo):
        logical = Circuit(n_logical)
        logical.append(gate_library("SWAP"), (lo, lo + 1))
        phys = compile_circuit(logical, nl(0.2, 0.1, 0.35), 1e-6).physical
        assert len(phys.ops) == 4
        for op in phys.ops:
            assert op.name == "g_fswap" and op.tag is None
            assert classify(op.gate).is_matchgate
        # One FSWAP in the gate stack serves all four rows.
        assert len(set(phys.columns.slots.tolist())) == 1
        v = isometry(Encoding(n_logical))
        out = circuit_unitary(phys) @ v
        assert np.array_equal(v.conj().T @ out, circuit_unitary(logical))
        assert np.max(np.abs(out - v @ (v.conj().T @ out))) == 0.0

    @pytest.mark.parametrize("n_logical", [2, 3, 4])
    def test_target_uses_count_only_logical_cz_and_cnot(self, n_logical):
        # Every two-qubit kind at every distance in both orders, shuffled
        # between random one-qubit gates.
        rng = np.random.default_rng(90 + n_logical)
        pairs = [
            (kind, q0, q1)
            for kind in LOGICAL_2Q
            for q0 in range(n_logical)
            for q1 in range(n_logical)
            if q0 != q1
        ]
        logical = Circuit(n_logical)
        for i in rng.permutation(len(pairs)):
            kind, q0, q1 = pairs[i]
            logical.append(haar_unitary(rng, 2), (int(rng.integers(n_logical)),))
            logical.append(LOGICAL_2Q[kind], (q0, q1), name=kind)
        entangling = sum(kind != "swap" for kind, _, _ in pairs)
        for target in (nl(0.2, 0.1, 0.35), random_nonmatchgate_pp(rng)):
            comp = compile_circuit(logical, target, 1e-6)
            assert comp.target_uses == comp.plan.repetitions * entangling
            assert sum(p["kind"] == "cz" for p in comp.provenance) == entangling
            for p in comp.provenance:
                if p["kind"] == "swap":
                    start, end = p["physical_ops"]
                    assert [op.name for op in comp.physical.ops[start:end]] == ["g_fswap"] * 4
            rep = verify(comp.physical, logical)
            assert rep.mode == "exact"
            assert rep.fidelity >= 1 - 1e-6
            assert rep.leakage <= 1e-9

    def test_lone_swap_uses_no_target(self):
        lone = Circuit(3)
        lone.append(gate_library("SWAP"), (2, 0), name="swap")
        comp = compile_circuit(lone, nl(0.2, 0.1, 0.35), 1e-6)
        assert comp.target_uses == 0 and comp.plan is None
        assert verify(comp.physical, lone).fidelity == pytest.approx(1.0, abs=1e-12)

    def test_routed_documents_hold_only_g_entries_and_repeat_groups(self):
        rng = np.random.default_rng(93)
        logical = Circuit(4)
        for kind, q0, q1 in (("swap", 0, 3), ("cz", 3, 1), ("cnot", 0, 2), ("swap", 1, 2)):
            logical.append(haar_unitary(rng, 2), (q0,))
            logical.append(LOGICAL_2Q[kind], (q0, q1), name=kind)
        for target in (gate_library("SWAP"), nl(0.2, 0.1, 0.35)):
            doc = emit_circuit_document(compile_circuit(logical, target, 1e-6).physical)
            for entry in doc["gates"]:
                assert {e["name"] for e in entry.get("gates", [entry])} == {"g"}

    def test_cz_at_any_distance_and_the_ring_with_diagonals(self):
        # Target NL(0.2, 0.1, 0.35) at epsilon 1e-6.  Routing adds no target
        # uses: CZ(0, 2) and CZ(2, 0) cost what the adjacent CZ(0, 1) does,
        # and the ten CZs of the ring and its diagonals cost 10 r with
        # r = 15,414.  Each CZ is 2 r + 1 flat ops, and each routing hop
        # there and back adds 8 FSWAPs.
        target = nl(0.2, 0.1, 0.35)
        cases = []
        for (q0, q1), flat in (((0, 1), 2429), ((0, 2), 2437), ((2, 0), 2437)):
            logical = Circuit(3)
            logical.append(CZ, (q0, q1), name="cz")
            cases.append((logical, 1214, flat))
        ring = Circuit(4)
        for _ in range(2):
            for q0, q1 in ((0, 1), (1, 2), (2, 3), (3, 0)):
                ring.append(CZ, (q0, q1), name="cz")
        ring.append(CZ, (0, 2), name="cz")
        ring.append(CZ, (1, 3), name="cz")
        cases.append((ring, 154_140, 308_338))
        for logical, uses, flat in cases:
            comp = compile_circuit(logical, target, 1e-6)
            assert comp.target_uses == uses
            assert comp.physical.flat_count() == flat
            rep = verify(comp.physical, logical)
            assert rep.mode == "exact"
            assert rep.fidelity >= 1 - 1e-6
            assert rep.leakage <= 1e-9


class TestSchedule:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_fused_schedule_matches_the_reference_blocks(self, r, monkeypatch):
        # Oracle: r of the paper's reference blocks on the stripped core, then
        # the two G(Rz(chi), Rz(chi)) corrections, against the R, T,
        # (W, T)^(r-1), L' that compile_circuit emits for one adjacent CZ.
        plan_entangler = matchgates.compiler.plan_entangler
        monkeypatch.setattr(
            matchgates.compiler,
            "plan_entangler",
            lambda *args, **kwargs: dataclasses.replace(plan_entangler(*args, **kwargs), repetitions=r),
        )
        rng = np.random.default_rng(110 + r)
        v = isometry(Encoding(2))
        logical = Circuit(2)
        logical.append(CZ, (0, 1), name="cz")
        schedule = [(("g_enter",), 1), (("target",), 1)]
        schedule += [(("g_link", "target"), r - 1)] if r > 1 else []
        schedule += [(("g_leave",), 1)]
        for _ in range(4):
            target = random_nonmatchgate_pp(rng)
            comp = compile_circuit(logical, target, 1e-6)
            entries = [(entry.body, entry.count) if isinstance(entry, RepeatedSegment) else ((entry,), 1)
                       for entry in comp.physical.ops]
            assert [(tuple(op.name for op in ops), count) for ops, count in entries] == schedule
            assert comp.physical.flat_count() == 2 * r + 1 and comp.target_uses == r
            strip = strip_z_rotations(target)
            block, _ = build_entangler_block(strip.core)
            reference = Circuit(4, ops=block * r)
            for chi, pair in zip(comp.plan.local_corrections, ((0, 1), (2, 3))):
                reference.append(build_pp(phase_rz(chi), phase_rz(chi)), pair)
            want = np.exp(1j * r * strip.global_phase) * (v.conj().T @ circuit_unitary(reference) @ v)
            u = circuit_unitary(comp.physical)
            on_code = v.conj().T @ u @ v
            assert np.max(np.abs(on_code - want)) <= 1e-12
            assert np.linalg.norm(u @ v - v @ on_code, 2) <= 1e-12


class TestVerify:
    def test_compiled_identity(self):
        logical = Circuit(2)
        logical.append(I2, (0,))
        comp = compile_circuit(logical, gate_library("SWAP"), 1e-6)
        rep = verify(comp.physical, logical)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-12)
        assert rep.leakage == pytest.approx(0.0, abs=1e-12)

    def test_detects_corruption(self):
        logical = Circuit(2)
        logical.append(CZ, (0, 1), name="cz")
        comp = compile_circuit(logical, gate_library("SWAP"), 1e-6)
        good = verify(comp.physical, logical).fidelity
        # Perturb one emitted gate by an 0.1-radian Z rotation.
        comp.physical.append(build_pp(phase_rz(0.1), phase_rz(0.1)), (0, 1))
        bad = verify(comp.physical, logical).fidelity
        assert good - bad > 1e-3

    def test_fidelity_above_one_by_more_than_epsilon_fails(self):
        # A fidelity past 1 is drift, not a better circuit: scaling the
        # compiled circuit by 1 + 1e-4 reads about 1 + 2e-4.
        logical = Circuit(2)
        logical.append(CZ, (0, 1), name="cz")
        comp = compile_circuit(logical, gate_library("SWAP"), 1e-6)
        # Not unitary, so it cannot be appended; it is written as a row.
        col = comp.physical.columns
        scaled = (1 + 1e-4) * np.eye(4, dtype=complex)
        physical = Circuit.from_columns(
            comp.physical.n,
            Columns(
                {2: col.stacks[2], 4: np.concatenate([col.stacks[4], scaled[None]])},
                np.append(col.sizes, 4),
                np.append(col.slots, len(col.stacks[4])),
                np.vstack([col.targets, [0, 1]]),
                col.names + [None],
                col.params + [()],
                col.tags + [None],
            ),
            comp.physical.groups,
        )
        rep = verify(physical, logical, 1e-6)
        assert rep.fidelity == pytest.approx(1 + 2e-4, abs=1e-7)
        assert rep.passed is False
        assert verify(physical, logical, epsilon=3e-4).passed is True

    @pytest.mark.parametrize("n_logical", [9, 10])
    def test_decoded_mode_past_the_exact_cap(self, n_logical):
        # Past 8 logical qubits only provenance verifies.  The SWAP target
        # compiles the CZ routed across every qubit exactly, so the decoded
        # fidelity is 1; an Rz(0.1) pair on physical qubits (0, 1), added as
        # a one-qubit span, is seen.
        logical = Circuit(n_logical)
        logical.append(H, (0,))
        logical.append(CZ, (0, n_logical - 1), name="cz")
        comp = compile_circuit(logical, gate_library("SWAP"), 1e-6)
        with pytest.raises(TooLarge, match=f"needs 4\\^{n_logical} amplitudes"):
            verify(comp.physical, logical, 1e-6)
        rep = verify(comp.physical, logical, 1e-6, comp.provenance)
        assert rep.mode == "decoded" and rep.passed is True
        assert rep.fidelity == pytest.approx(1.0, abs=1e-12)
        assert rep.leakage <= 1e-12
        entries = comp.provenance[-1]["physical_ops"][1]
        comp.physical.append(build_pp(phase_rz(0.1), phase_rz(0.1)), (0, 1))
        span = {"logical_op": 2, "kind": "1q", "qubits": [0], "physical_ops": [entries, entries + 1]}
        bad = verify(comp.physical, logical, 1e-6, comp.provenance + [span])
        assert bad.mode == "decoded" and bad.passed is False
        assert rep.fidelity - bad.fidelity > 1e-3

    def test_decoded_mode_refuses_eleven_logical_qubits(self):
        logical = Circuit(11)
        logical.append(CZ, (0, 1), name="cz")
        comp = compile_circuit(logical, gate_library("SWAP"), 1e-6)
        with pytest.raises(TooLarge, match="over the cap of 10 logical qubits"):
            verify(comp.physical, logical, 1e-6, comp.provenance)

    @pytest.mark.parametrize("physical_qubits", [2, 3, 8])
    def test_physical_without_two_qubits_per_logical_is_refused(self, physical_qubits):
        # The one qubit-count rule, in the words mgc verify prints.
        logical = Circuit(2)
        logical.append(CZ, (0, 1), name="cz")
        with pytest.raises(ParseError) as info:
            verify(Circuit(physical_qubits), logical, 1e-6)
        assert str(info.value) == f"physical circuit has {physical_qubits} qubits; expected 4 for 2 logical qubits"

    def test_report_holds_the_printed_fields(self):
        logical = Circuit(2)
        logical.append(CZ, (0, 1), name="cz")
        comp = compile_circuit(logical, nl(0.3, 0.1, 0.1), 1e-6)
        rep = verify(comp.physical, logical)
        assert [f.name for f in dataclasses.fields(rep)] == [
            "mode", "fidelity", "leakage", "epsilon", "passed", "target_uses", "flat_op_count"
        ]
        assert rep.epsilon is None and rep.passed is None
        assert (rep.target_uses, rep.flat_op_count) == (comp.target_uses, comp.physical.flat_count())

    def test_exact_mode_at_six_logical_qubits_with_generic_target(self):
        # Three CZs of 2333 folded repetitions each on 12 physical
        # qubits: exact, and cheap because each group folds on its pair.
        rng = np.random.default_rng(79)
        logical = Circuit(6)
        for q in range(6):
            logical.append(haar_unitary(rng, 2), (q,))
        for q in (0, 2, 4):
            logical.append(CZ, (q, q + 1), name="cz")
        logical.append(haar_unitary(rng, 2), (3,))
        comp = compile_circuit(logical, random_nonmatchgate_pp(rng), 1e-6)
        rep = verify(comp.physical, logical)
        assert rep.mode == "exact"
        assert rep.target_uses == 3 * comp.plan.repetitions
        assert rep.fidelity >= 1 - 1e-6
        assert rep.leakage <= 1e-9


class TestSpectralNorm:
    @pytest.mark.parametrize(
        "shape", [(1, 1), (7, 3), (64, 64), (4101, 16), (12288, 1), (5, 9)]
    )
    def test_matches_the_svd_norm(self, shape):
        rng = np.random.default_rng(sum(shape))
        block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for scale in (1.0, 1e-17, 1e12):
            want = np.linalg.norm(scale * block, 2)
            assert spectral_norm(scale * block) == pytest.approx(want, rel=1e-12, abs=0)

    def test_zero_block(self):
        assert spectral_norm(np.zeros((10, 4), dtype=complex)) == 0.0

    @pytest.mark.parametrize("leak", [0.0, 0.3])
    def test_verify_leakage_at_six_logical_qubits(self, leak):
        # The leaking case rotates physical qubit 0 out of the code.
        rng = np.random.default_rng(80)
        logical = random_logical_circuit(rng, 6, 3)
        comp = compile_circuit(logical, gate_library("SWAP"), 1e-6)
        if leak:
            comp.physical.append(gate_library("RX", (leak,)), (0,))
        enc = Encoding(6)
        code_rows = [enc.encode_index(x) for x in range(2**6)]
        cols = np.zeros((2**enc.physical_count, 2**6), dtype=complex)
        cols[code_rows] = np.eye(2**6)
        out = propagate(comp.physical, cols)
        out[code_rows] = 0.0
        want = np.linalg.norm(out, 2)
        assert spectral_norm(out) == pytest.approx(want, rel=1e-12, abs=0)
        rep = verify(comp.physical, logical)
        assert rep.mode == "exact" and rep.leakage == spectral_norm(out)
        if leak:
            assert rep.leakage == pytest.approx(np.sin(leak / 2), rel=1e-12)
