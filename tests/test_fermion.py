"""Fermionic simulator tests: rotation extraction against the dense
conjugation oracle, covariance evolution and measurement against the
statevector simulator."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.stats import chi2

import matchgates.analysis
import matchgates.fermion
import matchgates.gates
from matchgates.circuits import REPEAT_CAP, Circuit, CircuitOp, RepeatedSegment
from matchgates.errors import (
    BackendRefusal,
    BadSampleCount,
    BadTargets,
    NonUnitaryInput,
    NotMatchgate,
    TooLarge,
)
from matchgates.fermion import (
    _PAIR_MAJORANAS,
    _SWAP_ORDER,
    _conjugation_block,
    _reach,
    OP_CHUNK,
    PROB_FLOOR,
    QUBIT_CAP,
    CovarianceState,
    init_covariance,
    matchgate_generator_coefficients,
    matchgate_to_rotation,
    run_covariance,
    sample_covariance,
)
from matchgates.gates import H, I2, X, Y, Z, build_pp, gate_library, kron, nl, phase_rz
from matchgates.io import emit_circuit_document, parse_circuit_document
from matchgates.statevector import StateVector, apply as sv_apply, expectation_z, run as sv_run, sample as sv_sample
from util import (
    DimensionMismatch,
    antisymmetry_defect,
    batched_conjugation_block,
    embed,
    evolve,
    flat,
    full_matrix_sample,
    generator_rotation_block,
    haar_unitary,
    majorana_operators,
    measure_z,
    measurement_probability,
    principal_log_pauli_coefficients,
    purity_defect,
    random_matchgate,
    random_matchgate_circuit,
    random_nonmatchgate_pp,
    rotation_matrix,
)

PI = np.pi

# Gates on the edges of the generator picture: identity, FSWAP, G(X, X),
# G(iX, iX), G(Z, Z), -I and exp(i (pi/2) Z x Z), whose determinants sit on
# the branch cut of the phase.
EDGE_MATCHGATES = [
    np.eye(4, dtype=complex),
    build_pp(Z, X),
    build_pp(X, X),
    build_pp(1j * X, 1j * X),
    build_pp(Z, Z),
    -np.eye(4, dtype=complex),
    nl(0, 0, PI / 2),
]


def dense_conjugation(g, n):
    """R_uv = Re tr(G^dag c_u G c_v) / 2^n on dense n-qubit Majoranas."""
    cs = majorana_operators(n)
    return np.array(
        [[(np.trace(g.conj().T @ cu @ g @ cv) / 2**n).real for cv in cs] for cu in cs]
    )


class TestRotationExtraction:
    def test_identity(self):
        rot = matchgate_to_rotation(np.eye(4, dtype=complex), 0, 2)
        assert_allclose(rot.block, np.eye(4), atol=1e-12)

    def test_conjugation_oracle_with_jw_strings(self):
        # G^dag c_mu G = sum_nu R_{mu nu} c_nu on dense Majoranas, including
        # a site > 0 so the Jordan-Wigner Z-strings are exercised.
        rng = np.random.default_rng(50)
        n = 3
        cs = majorana_operators(n)
        for site in (0, 1):
            for _ in range(15):
                g = random_matchgate(rng)
                r = rotation_matrix(matchgate_to_rotation(g, site, n))
                full = embed(g, (site, site + 1), n)
                for mu in range(2 * n):
                    lhs = full.conj().T @ cs[mu] @ full
                    rhs = sum(r[mu, nu] * cs[nu] for nu in range(2 * n))
                    assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_matches_generator_exponential(self):
        # The block of the quadratic generator, exp(2 alpha), on random and
        # edge-case matchgates.
        rng = np.random.default_rng(49)
        gates = [random_matchgate(rng) for _ in range(2000)] + EDGE_MATCHGATES
        for g in gates:
            blk = matchgate_to_rotation(g, 0, 2).block
            assert np.max(np.abs(blk - generator_rotation_block(g))) < 1e-12

    @pytest.mark.parametrize("index", range(len(EDGE_MATCHGATES)))
    def test_edge_cases_match_dense_conjugation(self, index):
        g = EDGE_MATCHGATES[index]
        blk = matchgate_to_rotation(g, 0, 2).block
        assert np.max(np.abs(blk - dense_conjugation(g, 2))) < 1e-12

    def test_rotation_is_special_orthogonal(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            blk = matchgate_to_rotation(random_matchgate(rng), 0, 2).block
            assert np.max(np.abs(blk @ blk.T - np.eye(4))) < 1e-9
            assert np.linalg.det(blk) == pytest.approx(1.0, abs=1e-9)

    def test_fswap_exchanges_majorana_pairs(self):
        rot = matchgate_to_rotation(build_pp(Z, X), 0, 2)
        blk = np.round(rot.block, 12)
        # Signed permutation swapping (c0, c1) <-> (c2, c3).
        assert np.count_nonzero(blk) == 4
        assert np.max(np.abs(blk[0:2, 0:2])) == 0
        assert np.max(np.abs(blk[2:4, 2:4])) == 0
        assert np.max(np.abs(np.abs(blk[0:2, 2:4]) - np.eye(2))) < 1e-12

    def test_xx_rotation_plane_and_angle(self):
        for theta in (PI / 8, PI / 4):
            g = expm(1j * theta * kron(X, X))
            blk = matchgate_to_rotation(g, 0, 2).block
            expected = np.eye(4)
            expected[1, 1] = expected[2, 2] = np.cos(2 * theta)
            expected[1, 2] = np.sin(2 * theta)
            expected[2, 1] = -np.sin(2 * theta)
            assert_allclose(blk, expected, atol=1e-12)

    def test_branch_cut_matchgates(self):
        # exp(i(pi/2) ZZ) = i ZZ has principal-log ZZ coefficient pi/2 yet is
        # a matchgate; the blockwise extraction must handle it.
        g = nl(0, 0, PI / 2)
        coeffs = principal_log_pauli_coefficients(g)
        assert abs(coeffs["ZZ"]) == pytest.approx(PI / 2, abs=1e-9)
        rot = matchgate_to_rotation(g, 0, 2)
        assert np.max(np.abs(rot.block @ rot.block.T - np.eye(4))) < 1e-9

    def test_refusals(self):
        with pytest.raises(NotMatchgate):
            matchgate_to_rotation(gate_library("SWAP"), 0, 2)
        with pytest.raises(NotMatchgate):
            matchgate_to_rotation(gate_library("CNOT"), 0, 2)
        rng = np.random.default_rng(52)
        for _ in range(20):
            with pytest.raises(NotMatchgate):
                matchgate_to_rotation(random_nonmatchgate_pp(rng), 0, 2)

    def test_bad_site(self):
        with pytest.raises(BadTargets):
            matchgate_to_rotation(np.eye(4, dtype=complex), 1, 2)

    def test_principal_log_zz_cross_check(self):
        # Matchgate iff the ZZ log coefficient vanishes mod pi/2.
        rng = np.random.default_rng(53)
        for _ in range(30):
            czz = principal_log_pauli_coefficients(random_matchgate(rng))["ZZ"]
            assert min(abs(czz % (PI / 2)), PI / 2 - abs(czz % (PI / 2))) < 1e-8
        for _ in range(30):
            czz = principal_log_pauli_coefficients(random_nonmatchgate_pp(rng))["ZZ"]
            folded = czz % (PI / 2)
            assert min(folded, PI / 2 - folded) > 1e-8

    def test_branch_cut_gate_in_a_circuit_matches_statevector(self):
        # exp(i (pi/2) Z x Z) rotates by -I: the sign shows once the pair is
        # correlated with the rest of the register.
        rng = np.random.default_rng(48)
        circ = Circuit(3)
        circ.append(random_matchgate(rng), (1, 2))
        circ.append(nl(0, 0, PI / 2), (0, 1))
        circ.append(random_matchgate(rng), (1, 2))
        sv, cov = sv_run(circ, 0), run_covariance(circ, 0)
        for k in range(3):
            assert abs(expectation_z(sv, k) - cov.expectation_z(k)) < 1e-9

    def test_generator_coefficients_reconstruct(self):
        rng = np.random.default_rng(54)
        paulis = {
            "XX": kron(X, X),
            "YY": kron(Y, Y),
            "XY": kron(X, Y),
            "YX": kron(Y, X),
            "ZI": kron(Z, I2),
            "IZ": kron(I2, Z),
        }
        for g in [random_matchgate(rng) for _ in range(20)] + EDGE_MATCHGATES:
            coeffs = matchgate_generator_coefficients(g)
            ham = sum(c * paulis[k] for k, c in coeffs.items())
            recon = expm(1j * ham)
            phase = np.vdot(recon.ravel(), np.asarray(g).ravel())
            phase /= abs(phase)
            assert np.max(np.abs(phase * recon - g)) < 1e-9


class TestConjugationKernel:
    """The one-product kernel against the batched per-Majorana oracle."""

    def test_random_pair_stack(self):
        rng = np.random.default_rng(55)
        g = np.array([random_matchgate(rng) for _ in range(300)] + EDGE_MATCHGATES)
        assert_allclose(
            _conjugation_block(g), batched_conjugation_block(g, _PAIR_MAJORANAS), atol=1e-14
        )

    def test_one_qubit_z_rotations(self):
        # A one-qubit g is converted as kron(g, I); its block is the top-left
        # 2 x 2, the rotation of its own qubit's (X, Y).
        thetas = np.random.default_rng(56).uniform(-4 * PI, 4 * PI, 200)
        g = np.array([phase_rz(t) for t in thetas] + [Z, gate_library("S"), gate_library("T"), I2])
        full = _conjugation_block(np.array([kron(h, I2) for h in g]))
        blocks = full[:, :2, :2]
        assert_allclose(blocks, batched_conjugation_block(g, np.array([X, Y])), atol=1e-14)
        assert_allclose(full[:, 2:, 2:], np.broadcast_to(np.eye(2), (len(g), 2, 2)), atol=1e-14)
        assert_allclose(full[:, :2, 2:], 0, atol=1e-14)
        # diag(e^{it}, e^{-it}) turns the (X, Y) plane by 2t.
        c, s = np.cos(2 * thetas), np.sin(2 * thetas)
        assert_allclose(blocks[:200], np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], 1), atol=1e-12)

    def test_reversed_pairs(self):
        rng = np.random.default_rng(57)
        g = np.array([random_matchgate(rng) for _ in range(100)])[:, _SWAP_ORDER][:, :, _SWAP_ORDER]
        assert_allclose(
            _conjugation_block(g), batched_conjugation_block(g, _PAIR_MAJORANAS), atol=1e-14
        )

    def test_branch_cut_gate_gives_minus_identity(self):
        block = _conjugation_block(nl(0, 0, PI / 2)[None])[0]
        assert_allclose(block, -np.eye(4), atol=1e-14)

    def test_empty_stack(self):
        assert _conjugation_block(np.zeros((0, 4, 4), dtype=complex)).shape == (0, 4, 4)


class TestCovariance:
    def test_init_blocks(self):
        s = init_covariance(2, 0)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[2, 3] = 1
        expected -= expected.T
        assert_allclose(s.m, expected)

    def test_init_sign_flip(self):
        s = init_covariance(2, "01")
        assert s.expectation_z(0) == 1.0
        assert s.expectation_z(1) == -1.0

    def test_init_matches_bits(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            label = int(rng.integers(0, 2**n))
            s = init_covariance(n, label)
            for k in range(n):
                bit = (label >> (n - 1 - k)) & 1
                assert s.expectation_z(k) == 1.0 - 2.0 * bit

    def test_evolve_identity(self):
        s = init_covariance(3, 5)
        rot = matchgate_to_rotation(np.eye(4, dtype=complex), 1, 3)
        assert_allclose(evolve(s, rot).m, s.m, atol=1e-12)

    def test_evolve_composition(self):
        rng = np.random.default_rng(56)
        s = init_covariance(4, 3)
        r1 = matchgate_to_rotation(random_matchgate(rng), 0, 4)
        r2 = matchgate_to_rotation(random_matchgate(rng), 2, 4)
        stepped = evolve(evolve(s, r1), r2)
        combined = rotation_matrix(r2) @ rotation_matrix(r1)
        assert_allclose(stepped.m, combined @ s.m @ combined.T, atol=1e-12)

    def test_dimension_mismatch(self):
        s = init_covariance(3, 0)
        rot = matchgate_to_rotation(np.eye(4, dtype=complex), 0, 4)
        with pytest.raises(DimensionMismatch):
            evolve(s, rot)

    def test_qubit_cap(self):
        assert init_covariance(QUBIT_CAP, 1).expectation_z(QUBIT_CAP - 1) == -1.0
        for n in (0, QUBIT_CAP + 1, 2000):
            with pytest.raises(TooLarge, match=f"1..{QUBIT_CAP}"):
                init_covariance(n)

    @pytest.mark.parametrize("label", [9, -1, 8])
    def test_out_of_range_integer_label_refused_like_statevector(self, label):
        circ = Circuit(3)
        circ.append(build_pp(H, H), (0, 1))
        messages = []
        for run in (run_covariance, sv_run):
            with pytest.raises(BadTargets) as info:
                run(circ, label)
            messages.append(str(info.value))
        assert messages == [f"basis index {label} out of range for n=3"] * 2

    def test_invariants_preserved(self):
        rng = np.random.default_rng(57)
        circ = random_matchgate_circuit(rng, 8, 60)
        s = run_covariance(circ, int(rng.integers(0, 2**8)))
        assert antisymmetry_defect(s) < 1e-9
        assert purity_defect(s) < 1e-9

    def test_marginals_match_statevector(self):
        rng = np.random.default_rng(58)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            circ = random_matchgate_circuit(rng, n, 30)
            label = int(rng.integers(0, 2**n))
            sv = sv_run(circ, label)
            cov = run_covariance(circ, label)
            for k in range(n):
                assert abs(expectation_z(sv, k) - cov.expectation_z(k)) < 1e-9

    def test_single_qubit_z_rotation_embedding(self):
        circ = Circuit(2)
        circ.append(gate_library("RZ", (0.7,)), (1,))
        cov = run_covariance(circ, 0)
        assert cov.expectation_z(1) == pytest.approx(1.0)

    @pytest.mark.parametrize("name,params", [("Z", ()), ("S", ()), ("RZ", (0.7,))])
    @pytest.mark.parametrize("initial", ["0", "1"])
    def test_one_qubit_register(self, name, params, initial):
        circ = Circuit(1)
        circ.append(gate_library(name, params), (0,))
        cov = run_covariance(circ, initial)
        assert cov.expectation_z(0) == pytest.approx(expectation_z(sv_run(circ, initial), 0))

    def test_one_qubit_register_refuses_x(self):
        circ = Circuit(1)
        circ.append(X, (0,))
        with pytest.raises(BackendRefusal, match="not parity-preserving"):
            run_covariance(circ, 0)

    def test_single_qubit_gate_rotates_its_own_majorana_pair(self):
        # Conjugating (X, Y) by a Z rotation rotates the pair's plane.
        rng = np.random.default_rng(47)
        n, theta = 3, 0.7
        circ = Circuit(n)
        circ.append(random_matchgate(rng), (1, 2))
        circ.append(gate_library("RZ", (theta,)), (2,))
        before = run_covariance(Circuit(n, ops=circ.ops[:1]), 0).m
        after = run_covariance(circ, 0).m
        r = dense_conjugation(embed(kron(I2, gate_library("RZ", (theta,))), (1, 2), n), n)
        assert_allclose(after, r @ before @ r.T, atol=1e-12)

    def test_refusal_names_offending_op(self):
        circ = Circuit(3)
        circ.append(random_matchgate(np.random.default_rng(1)), (0, 1))
        circ.append(gate_library("SWAP"), (1, 2))
        with pytest.raises(BackendRefusal, match="op 1"):
            run_covariance(circ, 0)

    def test_refusal_non_nearest_neighbor(self):
        circ = Circuit(3)
        circ.append(random_matchgate(np.random.default_rng(2)), (0, 2))
        with pytest.raises(BackendRefusal, match="nearest-neighbor"):
            run_covariance(circ, 0)

    def test_non_unitary_op_names_its_index(self):
        circ = Circuit(3)
        circ.append(random_matchgate(np.random.default_rng(3)), (0, 1))
        # Refused where it enters the circuit, before any backend runs it.
        with pytest.raises(NonUnitaryInput, match=r"op 1 \(gate on \(1, 2\)\)"):
            circ.append(2.0 * np.eye(4), (1, 2))


class TestRepeatGroups:
    def test_huge_count_matches_one_application(self):
        # Order-2 gates: REPEAT_CAP - 1 applications equal one.
        prefix = random_matchgate_circuit(np.random.default_rng(59), 4, 8)
        for gate in (gate_library("FSWAP"), build_pp(H, H)):
            once = Circuit(4, ops=list(prefix.ops))
            once.append(gate, (1, 2))
            folded = Circuit(4, ops=list(prefix.ops))
            folded.append_segment(once.ops[-1:], REPEAT_CAP - 1)
            diff = run_covariance(folded, 5).m - run_covariance(once, 5).m
            assert np.max(np.abs(diff)) < 1e-6

    def test_body_spanning_three_qubits_matches_expansion(self):
        rng = np.random.default_rng(60)
        body = [
            CircuitOp(random_matchgate(rng), (1, 2)),
            CircuitOp(gate_library("RZ", (0.4,)), (2,)),
            CircuitOp(random_matchgate(rng), (3, 2)),
        ]
        seg = Circuit(5)
        seg.append_segment(body, 7)
        flat = Circuit(5, ops=body * 7)
        assert_allclose(run_covariance(seg, 11).m, run_covariance(flat, 11).m, atol=1e-10)

    def test_body_with_an_untouched_qubit_in_its_span(self):
        # The body spans qubits 0-4 but never acts on qubit 2, which starts
        # in |1>: its Majoranas keep their basis-state entries.
        rng = np.random.default_rng(62)
        body = [
            CircuitOp(random_matchgate(rng), (0, 1)),
            CircuitOp(random_matchgate(rng), (4, 3)),
            CircuitOp(gate_library("S"), (4,)),
        ]
        seg = Circuit(6)
        seg.append(random_matchgate(rng), (1, 0))
        seg.append_segment(body, 3)
        m, m0 = run_covariance(seg, "011010").m, init_covariance(6, "011010").m
        assert_allclose(m, oracle_covariance(seg, "011010"), atol=1e-10)
        assert m[4:6].tobytes() == m0[4:6].tobytes()
        assert m[:, 4:6].tobytes() == m0[:, 4:6].tobytes()

    def test_single_qubit_gate_on_last_qubit_matches_expansion(self):
        rng = np.random.default_rng(61)
        body = [CircuitOp(random_matchgate(rng), (1, 2)), CircuitOp(gate_library("RZ", (0.3,)), (2,))]
        for ops in (body, body[1:]):
            seg = Circuit(3)
            seg.append(random_matchgate(rng), (1, 2))
            flat = Circuit(3, ops=list(seg.ops) + list(ops) * 5)
            seg.append_segment(ops, 5)
            assert_allclose(run_covariance(seg, 6).m, run_covariance(flat, 6).m, atol=1e-12)

    def test_refusal_in_group_names_entry_and_position(self):
        circ = Circuit(3)
        circ.append(random_matchgate(np.random.default_rng(4)), (0, 1))
        circ.append_segment(
            [CircuitOp(I2, (0,)), CircuitOp(gate_library("SWAP"), (1, 2), name="swap")], 5
        )
        with pytest.raises(BackendRefusal, match=r"op 1\.1 \(swap on \(1, 2\)\) is not a matchgate"):
            run_covariance(circ, 0)


def oracle_covariance(circuit: Circuit, initial) -> np.ndarray:
    """Op by op over the expanded circuit: each op becomes a dense SO(2n)
    matrix from matchgate_to_rotation on a neighbour pair, a one-qubit gate
    as kron(g, I) (kron(I, g) on the last qubit) and a reversed pair
    conjugated by SWAP."""
    n = circuit.n
    swap = gate_library("SWAP")
    m = init_covariance(n, initial).m
    for op in flat(circuit):
        gate, targets = op.gate, op.targets
        if len(targets) == 1:
            q = targets[0]
            gate, site = (kron(gate, I2), q) if q < n - 1 else (kron(I2, gate), q - 1)
        elif targets[0] > targets[1]:
            gate, site = swap @ gate @ swap, targets[1]
        else:
            site = targets[0]
        r = rotation_matrix(matchgate_to_rotation(gate, site, n))
        m = r @ m @ r.T
    return m


ONE_QUBIT_MATCHGATES = [("z", ()), ("s", ()), ("t", ()), ("rz", (0.37,))]


def random_bulk_op(rng: np.random.Generator, n: int) -> CircuitOp:
    """A matchgate on a forward or reversed neighbour pair, or a one-qubit Z
    rotation."""
    kind = rng.integers(3)
    if kind == 0:
        name, params = ONE_QUBIT_MATCHGATES[rng.integers(len(ONE_QUBIT_MATCHGATES))]
        return CircuitOp(gate_library(name, params), (int(rng.integers(n)),), name=name)
    site = int(rng.integers(n - 1))
    pair = (site, site + 1) if kind == 1 else (site + 1, site)
    return CircuitOp(random_matchgate(rng), pair)


def random_bulk_circuit(rng: np.random.Generator, n: int, entries: int) -> Circuit:
    """Random bulk ops and small repetition groups of them."""
    circuit = Circuit(n)
    for _ in range(entries):
        if rng.random() < 0.1:
            circuit.append_segment([random_bulk_op(rng, n) for _ in range(rng.integers(1, 6))], int(rng.integers(1, 4)))
        else:
            circuit.add(random_bulk_op(rng, n))
    return circuit


class TestBulkPath:
    @pytest.mark.parametrize("n,entries,seed", [(2, 40, 90), (5, 120, 91), (7, 700, 92)])
    def test_matches_op_by_op_oracle(self, n, entries, seed):
        rng = np.random.default_rng(seed)
        circuit = random_bulk_circuit(rng, n, entries)
        initial = int(rng.integers(2**n))
        assert_allclose(run_covariance(circuit, initial).m, oracle_covariance(circuit, initial), atol=1e-10)

    def test_group_across_a_chunk_boundary_matches_oracle(self):
        rng = np.random.default_rng(93)
        circuit = random_bulk_circuit(rng, 4, 0)
        for _ in range(OP_CHUNK - 2):
            circuit.append(random_matchgate(rng), (1, 2))
        body = [CircuitOp(random_matchgate(rng), (2, 1)), CircuitOp(gate_library("S"), (3,))]
        body += [CircuitOp(random_matchgate(rng), (0, 1)), CircuitOp(random_matchgate(rng), (2, 3))]
        circuit.append_segment(body, 3)
        circuit.append(random_matchgate(rng), (0, 1))
        assert_allclose(run_covariance(circuit, 6).m, oracle_covariance(circuit, 6), atol=1e-10)

    @pytest.mark.parametrize(
        "faults,error,message",
        [
            # Non-unitary before non-nearest-neighbour, refused by append.
            ([(2.0 * np.eye(4), (1, 2)), (random_matchgate(np.random.default_rng(94)), (0, 2))],
             NonUnitaryInput, r"^op 3 \(gate on \(1, 2\)\) is not unitary within 1e-09$"),
            # A defect that overflows to NaN still fails.
            ([(np.full((4, 4), 1e200 + 1e200j), (0, 1)), (gate_library("SWAP"), (0, 1))],
             NonUnitaryInput, r"^op 3 \(gate on \(0, 1\)\) is not unitary"),
            # Non-nearest-neighbour before non-matchgate.
            ([(random_matchgate(np.random.default_rng(95)), (2, 0)), (gate_library("SWAP"), (0, 1))],
             BackendRefusal, r"^op 3 \(gate on \(2, 0\)\) is not nearest-neighbor$"),
            # Non-matchgate before non-nearest-neighbour; a one-qubit X is
            # checked as kron(X, I).
            ([(X, (2,)), (random_matchgate(np.random.default_rng(94)), (0, 2))],
             BackendRefusal, r"^op 3 \(gate on \(2,\)\) is not a matchgate: gate is not parity-preserving"),
            ([(gate_library("CZ"), (1, 2)), (X, (0,))],
             BackendRefusal, r"^op 3 \(gate on \(1, 2\)\) is not a matchgate: det\(A\)/det\(B\) = -1\.000000"),
        ],
    )
    # One case overflows on purpose.
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_first_fault_in_walk_order_is_named(self, faults, error, message):
        # A non-unitary op is refused as it is appended, the rest by the backend.
        rng = np.random.default_rng(96)
        circuit = random_matchgate_circuit(rng, 3, 3)
        with pytest.raises(error, match=message):
            for gate, targets in faults:
                circuit.append(gate, targets)
            run_covariance(circuit, 0)

    def test_fault_in_a_later_chunk_is_named(self):
        rng = np.random.default_rng(97)
        circuit = random_matchgate_circuit(rng, 4, OP_CHUNK + 5)
        circuit.append_segment([CircuitOp(random_matchgate(rng), (0, 1)), CircuitOp(gate_library("SWAP"), (2, 3), name="swap")], 4)
        circuit.append(random_matchgate(rng), (0, 2))
        with pytest.raises(BackendRefusal, match=rf"^op {OP_CHUNK + 5}\.1 \(swap on \(2, 3\)\) is not a matchgate"):
            run_covariance(circuit, 0)

    def test_wide_shallow_circuit_leaves_untouched_pairs_alone(self):
        # Gates on qubits 3-6 of 200, over two chunks: M changes only on
        # their Majoranas 6-13, where it equals the same circuit moved onto
        # qubits 0-3 of 4.
        rng = np.random.default_rng(99)
        n, lo, hi = 200, 3, 6
        small = random_bulk_circuit(rng, hi - lo + 1, OP_CHUNK + 20)
        small.append_segment([CircuitOp(random_matchgate(rng), (2, 1)), CircuitOp(gate_library("S"), (3,))], 5)
        small.append(random_matchgate(rng), (0, 1))
        wide = Circuit(n)
        for entry in small.ops:
            group = isinstance(entry, RepeatedSegment)
            body = entry.body if group else (entry,)
            moved = [CircuitOp(op.gate, tuple(q + lo for q in op.targets), name=op.name) for op in body]
            if group:
                wide.append_segment(moved, entry.count)
            else:
                wide.add(*moved)
        bits = "".join(str(b) for b in rng.integers(0, 2, n))
        m, m0 = run_covariance(wide, bits).m, init_covariance(n, bits).m
        inside = np.zeros((2 * n, 2 * n), dtype=bool)
        inside[2 * lo : 2 * hi + 2, 2 * lo : 2 * hi + 2] = True
        assert m[~inside].tobytes() == m0[~inside].tobytes()
        assert np.max(np.abs(m + m.T)) < 1e-12
        assert_allclose(
            m[2 * lo : 2 * hi + 2, 2 * lo : 2 * hi + 2],
            oracle_covariance(small, bits[lo : hi + 1]),
            atol=1e-10,
        )

    def test_groups_across_three_chunk_boundaries_match_oracle(self):
        # Every op admitted by append; a five-op group straddles each of the
        # first three chunk boundaries of the walk, and the walk runs on
        # past the third.
        rng = np.random.default_rng(131)
        n, walked = 6, 0
        circuit = Circuit(n)
        for stop in (OP_CHUNK - 2, 2 * OP_CHUNK - 2, 3 * OP_CHUNK - 2, 3 * OP_CHUNK + 7):
            for _ in range(stop - walked):
                op = random_bulk_op(rng, n)
                circuit.append(op.gate, op.targets, name=op.name)
            walked = stop
            if stop < 3 * OP_CHUNK:
                circuit.append_segment([random_bulk_op(rng, n) for _ in range(5)], int(rng.integers(2, 5)))
                walked += 5
        initial = int(rng.integers(2**n))
        assert_allclose(run_covariance(circuit, initial).m, oracle_covariance(circuit, initial), atol=1e-10)

    @pytest.mark.parametrize("source", ["append", "document"])
    def test_admitted_ops_are_not_checked_for_unitarity_again(self, monkeypatch, source):
        # Ops are checked where they enter a circuit, by append or the
        # parser; the backend tests only parity and det A = det B, and
        # words its refusals without a unitarity check either.
        rng = np.random.default_rng(132)
        circuit = Circuit(5)
        for _ in range(OP_CHUNK + 40):
            op = random_bulk_op(rng, 5)
            circuit.append(op.gate, op.targets, name=op.name)
        circuit.append_segment([random_bulk_op(rng, 5), random_bulk_op(rng, 5)], 3)
        if source == "document":
            circuit = parse_circuit_document(emit_circuit_document(circuit))
        refused = Circuit(5)
        refused.append(random_matchgate(rng), (1, 2))
        refused.append(gate_library("CZ"), (3, 2), name="cz")
        expected = oracle_covariance(circuit, 9)

        def recheck(m):
            raise AssertionError("an admitted op was checked for unitarity again")

        for module in (matchgates.gates, matchgates.analysis, matchgates.fermion):
            monkeypatch.setattr(module, "unitarity_defect", recheck, raising=False)
        assert_allclose(run_covariance(circuit, 9).m, expected, atol=1e-10)
        with pytest.raises(BackendRefusal, match=r"^op 1 \(cz on \(3, 2\)\) is not a matchgate: det\(A\)/det\(B\) = -1\.000000"):
            run_covariance(refused, 0)

    def test_conversion_memory_is_no_more_than_the_full_kernel_took(self):
        # One ff_deep-sized request: 60 qubits, 2000 ops from a palette of
        # 64 matchgates.  With the full (N, 256) outer product in chunks of
        # 128 ops, run_covariance peaked at 1.053 MB here; with the
        # parity-block kernel, in chunks of 256, it peaks at 0.978 MB.
        rng = np.random.default_rng(101)
        n, palette = 60, [random_matchgate(rng) for _ in range(64)]
        circuit = Circuit(n)
        for site, pick in zip(rng.integers(0, n - 1, 2000), rng.integers(0, 64, 2000)):
            circuit.append(palette[pick], (int(site), int(site) + 1))
        run_covariance(circuit, 0)  # first-call caches are not counted
        tracemalloc.start()
        try:
            run_covariance(circuit, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05e6

    def test_memory_stays_bounded_on_a_long_circuit(self):
        # Keeping every block (about 0.3 kB each) or stacking the whole
        # circuit's temporaries (about 2.5 kB per op) would need 6-50 MB.
        rng = np.random.default_rng(98)
        n, palette = 60, [random_matchgate(rng) for _ in range(64)]
        circuit = Circuit(n)
        for site, pick in zip(rng.integers(0, n - 1, 20000), rng.integers(0, 64, 20000)):
            circuit.append(palette[pick], (int(site), int(site) + 1))
        tracemalloc.start()
        try:
            state = run_covariance(circuit, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert antisymmetry_defect(state) < 1e-9
        assert peak < 3e6


def exact_outcome_distribution(state: CovarianceState) -> dict[int, float]:
    """Enumerate all measurement chains with forced outcomes."""
    n = state.n
    dist: dict[int, float] = {}

    def recurse(s: CovarianceState, k: int, prefix: int, prob: float):
        if prob < 1e-15:
            return
        if k == n:
            dist[prefix] = dist.get(prefix, 0.0) + prob
            return
        for outcome in (0, 1):
            p = measurement_probability(s, k, outcome)
            if p < 1e-11:  # stay above the simulator's conditioning floor
                continue
            _, post = measure_z(s, k, 0, force_outcome=outcome)
            recurse(post, k + 1, (prefix << 1) | outcome, prob * p)

    recurse(state, 0, 0, 1.0)
    return dist


class TestMeasurement:
    def test_certain_outcome(self):
        s = init_covariance(3, "010")
        for k, expected in ((0, 0), (1, 1), (2, 0)):
            outcome, _ = measure_z(s, k, seed_or_rng=0)
            assert outcome == expected

    def test_bell_pair_correlation(self):
        circ = Circuit(2)
        circ.append(build_pp(H, H), (0, 1))
        cov = run_covariance(circ, 0)
        assert measurement_probability(cov, 0, 0) == pytest.approx(0.5)
        rng = np.random.default_rng(60)
        for _ in range(20):
            o1, post = measure_z(cov, 0, rng)
            o2, _ = measure_z(post, 1, rng)
            assert o1 == o2

    def test_repeated_measurement_is_stable(self):
        circ = Circuit(2)
        circ.append(build_pp(H, H), (0, 1))
        cov = run_covariance(circ, 0)
        o1, post = measure_z(cov, 0, 5)
        o2, _ = measure_z(post, 0, 99)
        assert o1 == o2

    def test_exact_joint_distribution_matches_statevector(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            circ = random_matchgate_circuit(rng, n, 20)
            cov_dist = exact_outcome_distribution(run_covariance(circ, 0))
            sv_probs = sv_run(circ, 0).probabilities()
            for idx in range(2**n):
                assert cov_dist.get(idx, 0.0) == pytest.approx(
                    float(sv_probs[idx]), abs=1e-9
                )

    def test_sampled_histogram_two_sample(self):
        rng = np.random.default_rng(62)
        circ = random_matchgate_circuit(rng, 5, 25)
        cov = run_covariance(circ, 0)
        state = sv_run(circ, 0)
        shots = 10_000
        h_ff = sample_covariance(cov, shots, seed=100)
        h_sv = sv_sample(state, shots, seed=101)
        stat, dof = two_sample_chi2(h_ff, h_sv, 2**5)
        assert chi2.sf(stat, dof) > 1e-6

    def test_sample_determinism(self):
        circ = Circuit(2)
        circ.append(build_pp(H, H), (0, 1))
        cov = run_covariance(circ, 0)
        assert sample_covariance(cov, 300, 7) == sample_covariance(cov, 300, 7)

    def test_forcing_impossible_outcome_refused(self):
        s = init_covariance(3, "010")
        with pytest.raises(BadSampleCount, match="probability ~0"):
            measure_z(s, 1, 0, force_outcome=0)

    def test_measure_z_rank_two_update(self):
        # Post-measurement covariance against the textbook update
        # M + s/(2p) (m_v m_u^T - m_u m_v^T), measured rows/columns cleared.
        rng = np.random.default_rng(63)
        cov = run_covariance(random_matchgate_circuit(rng, 5, 30), 0)
        m = cov.m
        for k in range(5):
            for outcome in (0, 1):
                u, v = 2 * k, 2 * k + 1
                sign = 1.0 - 2.0 * outcome
                p = (1.0 + sign * m[u, v]) / 2.0
                want = m + sign / (2 * p) * (np.outer(m[:, v], m[:, u]) - np.outer(m[:, u], m[:, v]))
                want[(u, v), :] = 0.0
                want[:, (u, v)] = 0.0
                want[u, v], want[v, u] = sign, -sign
                got, post = measure_z(cov, k, 0, force_outcome=outcome)
                assert got == outcome
                assert_allclose(post.m, want, atol=1e-12)
                assert purity_defect(post) < 1e-9


def certain_qubit_circuit(rng: np.random.Generator, n: int) -> Circuit:
    """Random matchgates on the first three qubits, then Z rotations and
    fermionic swaps that keep every other qubit in a definite state up to
    rounding, so the sampler's probability clamps are exercised."""
    circ = Circuit(n)
    for _ in range(12):
        site = int(rng.integers(0, min(n, 3) - 1))
        circ.append(random_matchgate(rng), (site, site + 1))
    for site in range(3, n - 1):
        circ.append(build_pp(phase_rz(rng.uniform(0, PI)), phase_rz(rng.uniform(0, PI))), (site, site + 1))
        circ.append(gate_library("FSWAP"), (site, site + 1))
    return circ


class TestSampler:
    def test_goodness_of_fit_against_exact_distribution(self):
        rng = np.random.default_rng(64)
        shots = 20_000
        cases = []
        for n in range(2, 7):
            cases.append(run_covariance(random_matchgate_circuit(rng, n, 25), 0))
            cases.append(
                run_covariance(certain_qubit_circuit(rng, n), int(rng.integers(0, 2**n)))
            )
        for trial, cov in enumerate(cases):
            hist = sample_covariance(cov, shots, seed=500 + trial)
            assert_fits(hist, exact_outcome_distribution(cov), shots, trial)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_basis_states_are_certain(self, n):
        for label in range(2**n):
            assert sample_covariance(init_covariance(n, label), 50, 1) == {label: 50}

    @pytest.mark.parametrize(
        "bits", ["1" + "0" * 68 + "1", "0" * 5 + "1" + "0" * 64, "1" * 70, "0" * 70]
    )
    def test_basis_states_beyond_64_qubits(self, bits):
        hist = sample_covariance(init_covariance(70, bits), 3, 0)
        assert hist == {int(bits, 2): 3}
        assert all(type(k) is int for k in hist)

    def test_histogram_sums_to_shots_and_is_seeded(self):
        rng = np.random.default_rng(65)
        cov = run_covariance(random_matchgate_circuit(rng, 12, 80), 0)
        for shots in (1, 7, 1000):
            hist = sample_covariance(cov, shots, seed=3)
            assert sum(hist.values()) == shots
            assert all(c > 0 for c in hist.values())
            assert hist == sample_covariance(cov, shots, seed=3)
        assert sample_covariance(cov, 1000, seed=3) != sample_covariance(cov, 1000, seed=4)

    @pytest.mark.parametrize("shots", [0, -3, 2.5, "10", 2**63])
    def test_bad_shot_count(self, shots):
        with pytest.raises(BadSampleCount):
            sample_covariance(init_covariance(2, 0), shots, 0)

    def test_memory_does_not_scale_with_shots(self):
        # A copy of the 80x80 covariance per shot would need 2000 x 51 kB.
        rng = np.random.default_rng(66)
        cov = run_covariance(brickwork(rng, 40, 6), 0)
        tracemalloc.start()
        try:
            hist = sample_covariance(cov, 2000, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(hist.values()) == 2000
        assert len(hist) > 1000  # a wide prefix tree, not a near-certain state
        assert peak < 48e6


def brickwork(rng: np.random.Generator, n: int, layers: int) -> Circuit:
    """Random matchgates on every pair of ``layers`` alternating brick layers."""
    circ = Circuit(n)
    for layer in range(layers):
        for site in range(layer % 2, n - 1, 2):
            circ.append(random_matchgate(rng), (site, site + 1))
    return circ


def yx_brickwork(rng: np.random.Generator, n: int, layers: int) -> Circuit:
    """Brick layers of exp(i t Y x X), which rotate Majoranas 2s and 2s+2, so
    some qubits' even modes couple further than their odd partners."""
    circ = Circuit(n)
    for layer in range(layers):
        for site in range(layer % 2, n - 1, 2):
            circ.append(expm(1j * rng.uniform(0.2, 1.3) * kron(Y, X)), (site, site + 1))
    return circ


def far_coupling_circuit(rng: np.random.Generator, n: int, start: int) -> Circuit:
    """A two-layer brickwork, then G(H, H) on (start, start+1) and FSWAPs that
    carry qubit start+1 to qubit n-1, so qubit start's modes couple to the
    last qubit's and the light cone jumps to the whole register."""
    circ = brickwork(rng, n, 2)
    circ.append(build_pp(H, H), (start, start + 1))
    for site in range(start + 1, n - 1):
        circ.append(gate_library("FSWAP"), (site, site + 1))
    return circ


def direct_state(rng: np.random.Generator, n: int) -> CovarianceState:
    """A CovarianceState built without run_covariance: a random basis state's
    covariance under the dense product of a three-layer brickwork's
    rotations, R M0 R^T (not exactly antisymmetric in rounding)."""
    r = np.eye(2 * n)
    for layer in range(3):
        for site in range(layer % 2, n - 1, 2):
            r = rotation_matrix(matchgate_to_rotation(random_matchgate(rng), site, n)) @ r
    m0 = init_covariance(n, int(rng.integers(0, 2**n))).m
    return CovarianceState(n, r @ m0 @ r.T)


def random_label(rng: np.random.Generator, n: int) -> str:
    return "".join(rng.choice(["0", "1"], size=n))


# Circuits whose covariance has exact zeros (light cones narrower than the
# register, clamped qubits, a coupling carried across the register), each
# with its initial basis label.  All have n <= 12, so the statevector can
# give their exact distribution.
SPARSE_CIRCUITS = {
    "brickwork-10": lambda rng: (brickwork(rng, 10, 3), 0),
    "brickwork-12": lambda rng: (brickwork(rng, 12, 4), random_label(rng, 12)),
    "yx-brickwork-12": lambda rng: (yx_brickwork(rng, 12, 2), random_label(rng, 12)),
    "certain-qubits-11": lambda rng: (certain_qubit_circuit(rng, 11), random_label(rng, 11)),
    "certain-qubits-12": lambda rng: (certain_qubit_circuit(rng, 12), random_label(rng, 12)),
    "far-coupling-from-0": lambda rng: (far_coupling_circuit(rng, 12, 0), 0),
    "far-coupling-from-5": lambda rng: (far_coupling_circuit(rng, 12, 5), random_label(rng, 12)),
}


def sparse_state(name: str, rng: np.random.Generator) -> CovarianceState:
    if name in SPARSE_CIRCUITS:
        return run_covariance(*SPARSE_CIRCUITS[name](rng))
    if name == "direct":
        return direct_state(rng, 10)
    n, layers = {"brickwork-28": (28, 4), "brickwork-70": (70, 3)}[name]
    return run_covariance(brickwork(rng, n, layers), random_label(rng, n))


class TestLightCone:
    def test_reach_reads_exact_nonzeros_in_rows_and_columns(self):
        m = init_covariance(5, "01101").m
        assert _reach(m).tolist() == [2, 4, 6, 8, 10, 10]
        for i, j in ((7, 0), (0, 7)):
            one_sided = m.copy()
            one_sided[i, j] = 1e-300
            assert _reach(one_sided).tolist() == [8, 8, 8, 8, 10, 10]

    def test_far_coupling_makes_reach_jump(self):
        rng = np.random.default_rng(70)
        reach = _reach(run_covariance(far_coupling_circuit(rng, 12, 5), 0).m)
        assert reach[0] < 24 and reach[5] == 24
        assert all(reach[1:] >= reach[:-1])

    @pytest.mark.parametrize(
        "name", ["brickwork-12", "yx-brickwork-12", "far-coupling-from-5", "direct"]
    )
    def test_entries_beyond_reach_are_never_conditioned(self, name):
        # The sampler's invariant, checked on the dense rank-2 update: after
        # conditioning on qubits 0..k-1, entries (i, j) with
        # max(i, j) >= reach[k-1] are still M's, bit for bit.
        rng = np.random.default_rng(71)
        state = sparse_state(name, rng)
        reach = _reach(state.m)
        modes = np.arange(2 * state.n)
        post = state
        for k in range(1, state.n):
            outcome = int(measurement_probability(post, k - 1, 1) > 0.5)
            _, post = measure_z(post, k - 1, 0, force_outcome=outcome)
            outside = np.maximum.outer(modes, modes) >= reach[k - 1]
            outside[: 2 * k, : 2 * k] = False  # the measured pairs are cleared
            np.testing.assert_array_equal(post.m[outside], state.m[outside])

    @pytest.mark.parametrize("budget", [1, matchgates.fermion.SAMPLER_BUDGET_BYTES, 2**50])
    def test_dense_state_matches_full_matrix_oracle(self, monkeypatch, budget):
        rng = np.random.default_rng(72)
        cov = run_covariance(brickwork(rng, 60, 64), random_label(rng, 60))
        assert _reach(cov.m)[0] == 120
        monkeypatch.setattr(matchgates.fermion, "SAMPLER_BUDGET_BYTES", budget)
        hist = sample_covariance(cov, 40, seed=13)
        assert sum(hist.values()) == 40
        assert hist == full_matrix_sample(cov, 40, seed=13)

    @pytest.mark.parametrize(
        "name", [*SPARSE_CIRCUITS, "brickwork-28", "brickwork-70", "direct"]
    )
    def test_matches_full_matrix_oracle_with_one_batch_per_level(self, monkeypatch, name):
        rng = np.random.default_rng(73)
        cov = sparse_state(name, rng)
        monkeypatch.setattr(matchgates.fermion, "SAMPLER_BUDGET_BYTES", 2**50)
        # The oracle's one batch holds a whole covariance per prefix.
        shots = 100 if cov.n > 64 else 1000
        hist = sample_covariance(cov, shots, seed=14)
        assert sum(hist.values()) == shots
        assert hist == full_matrix_sample(cov, shots, seed=14)

    @pytest.mark.parametrize("name", list(SPARSE_CIRCUITS))
    def test_goodness_of_fit_against_statevector(self, name):
        rng = np.random.default_rng(74)
        circ, initial = SPARSE_CIRCUITS[name](rng)
        probs = sv_run(circ, initial).probabilities()
        exact = {i: float(p) for i, p in enumerate(probs) if p > PROB_FLOOR}
        shots = 20_000
        hist = sample_covariance(run_covariance(circ, initial), shots, seed=15)
        assert_fits(hist, exact, shots, name)

    def test_memory_of_a_shallow_circuit_stays_below_the_full_matrix_sampler(self):
        # The full-matrix sampler peaked at 8.62 MB on this request.
        rng = np.random.default_rng(68)
        cov = run_covariance(brickwork(rng, 28, 4), 0)
        tracemalloc.start()
        try:
            hist = sample_covariance(cov, 1000, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(hist.values()) == 1000
        assert peak <= 8.6e6


def assert_fits(hist: dict[int, int], exact: dict[int, float], shots: int, label) -> None:
    """Chi-square goodness of fit of a histogram to an exact distribution,
    with expected counts below 5 pooled; no outcome outside its support."""
    assert sum(hist.values()) == shots
    assert set(hist) <= set(exact), "sampled an outcome of probability ~0"
    keys = sorted(exact)
    observed = np.array([hist.get(k, 0) for k in keys], dtype=float)
    expected = shots * np.array([exact[k] for k in keys])
    big = expected >= 5
    obs = np.append(observed[big], observed[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    keep = exp > 0
    stat = float(np.sum((obs[keep] - exp[keep]) ** 2 / exp[keep]))
    dof = max(int(keep.sum()) - 1, 1)
    assert chi2.sf(stat, dof) > 1e-6, (label, stat, dof)


def two_sample_chi2(h1: dict[int, int], h2: dict[int, int], size: int):
    """Two-sample chi-square statistic with small bins pooled."""
    c1 = np.array([h1.get(i, 0) for i in range(size)], dtype=float)
    c2 = np.array([h2.get(i, 0) for i in range(size)], dtype=float)
    total = c1 + c2
    keep = total >= 10
    a = np.append(c1[keep], c1[~keep].sum())
    b = np.append(c2[keep], c2[~keep].sum())
    mask = (a + b) > 0
    a, b = a[mask], b[mask]
    stat = float(np.sum((a - b) ** 2 / (a + b)))
    dof = max(len(a) - 1, 1)
    return stat, dof
