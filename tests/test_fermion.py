"""Fermionic simulator tests: rotation extraction against the dense
conjugation oracle, covariance evolution and measurement against the
statevector simulator."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.stats import chi2

from matchgates.circuits import Circuit
from matchgates.errors import (
    BackendRefusal,
    BadSampleCount,
    BadTargets,
    DimensionMismatch,
    NonUnitaryInput,
    NotMatchgate,
)
from matchgates.fermion import (
    CovarianceState,
    init_covariance,
    evolve,
    matchgate_generator_coefficients,
    matchgate_to_rotation,
    measure_z,
    measurement_probability,
    run_covariance,
    sample_covariance,
)
from matchgates.gates import H, I2, X, Y, Z, build_pp, gate_library, kron, nl, phase_rz
from matchgates.statevector import StateVector, apply as sv_apply, expectation_z, run as sv_run, sample as sv_sample
from util import (
    embed_two_qubit,
    haar_unitary,
    majorana_operators,
    principal_log_pauli_coefficients,
    random_matchgate,
    random_matchgate_circuit,
    random_nonmatchgate_pp,
    rotation_matrix,
)

PI = np.pi


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
                full = embed_two_qubit(g, site, n)
                for mu in range(2 * n):
                    lhs = full.conj().T @ cs[mu] @ full
                    rhs = sum(r[mu, nu] * cs[nu] for nu in range(2 * n))
                    assert np.max(np.abs(lhs - rhs)) < 1e-9

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
        for _ in range(20):
            g = random_matchgate(rng)
            coeffs = matchgate_generator_coefficients(g)
            ham = sum(c * paulis[k] for k, c in coeffs.items())
            recon = expm(1j * ham)
            phase = np.vdot(recon.ravel(), np.asarray(g).ravel())
            phase /= abs(phase)
            assert np.max(np.abs(phase * recon - g)) < 1e-9


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

    def test_invariants_preserved(self):
        rng = np.random.default_rng(57)
        circ = random_matchgate_circuit(rng, 8, 60)
        s = run_covariance(circ, int(rng.integers(0, 2**8)))
        assert s.antisymmetry_defect() < 1e-9
        assert s.purity_defect() < 1e-9

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
        circ.append(2.0 * np.eye(4), (1, 2))
        with pytest.raises(NonUnitaryInput, match=r"op 1 \(gate on \(1, 2\)\)"):
            run_covariance(circ, 0)


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
                assert post.purity_defect() < 1e-9


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
            exact = exact_outcome_distribution(cov)
            hist = sample_covariance(cov, shots, seed=500 + trial)
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
            assert chi2.sf(stat, dof) > 1e-6, (trial, stat, dof)

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
        n = 40
        circ = Circuit(n)
        for layer in range(6):
            for site in range(layer % 2, n - 1, 2):
                circ.append(random_matchgate(rng), (site, site + 1))
        cov = run_covariance(circ, 0)
        tracemalloc.start()
        try:
            hist = sample_covariance(cov, 2000, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(hist.values()) == 2000
        assert len(hist) > 1000  # a wide prefix tree, not a near-certain state
        assert peak < 48e6


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
