"""Gate-analysis tests: classification, parameter extraction, KAK,
entangling power, Makhlin invariants."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from matchgates.analysis import (
    MC_SAMPLE_CAP,
    NonlocalTriple,
    classify,
    entangling_power_closed,
    entangling_power_mc,
    kak,
    makhlin_invariants,
    nonlocal_from_pp,
    pp_params,
    reconstruct_pp,
    weyl_chamber,
)
from matchgates.errors import BadSampleCount, NonUnitaryInput, NotParityPreserving, TooLarge
from matchgates.gates import (
    H,
    I2,
    X,
    Y,
    Z,
    build_pp,
    gate_library,
    kron,
    nl,
)
from util import (
    equal_up_to_global_phase,
    haar_unitary,
    locally_equivalent,
    random_matchgate,
    random_nonmatchgate_pp,
    random_pp,
)

PI = np.pi


def canonical_c_distance(c: float) -> float:
    """Distance of a canonical core component from {0, pi/2} (both mean a
    vanishing ZZ strength after local absorption)."""
    return min(abs(c), abs(PI / 2 - c))


class TestClassify:
    def test_swap_pp_not_matchgate(self):
        cls = classify(gate_library("SWAP"))
        assert cls.is_pp and not cls.is_matchgate
        assert_allclose(cls.det_ratio, -1.0)

    @pytest.mark.parametrize("name", ["ISWAP", "FSWAP"])
    def test_known_matchgates(self, name):
        cls = classify(gate_library(name))
        assert cls.is_matchgate

    def test_cnot_not_pp(self):
        cls = classify(gate_library("CNOT"))
        assert cls.is_unitary and not cls.is_pp and not cls.is_matchgate

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = random_matchgate(rng)
            assert classify(np.exp(1j * rng.uniform(0, 2 * PI)) * g).is_matchgate
        for _ in range(20):
            g = random_nonmatchgate_pp(rng)
            assert not classify(np.exp(1j * rng.uniform(0, 2 * PI)) * g).is_matchgate

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryInput):
            classify(np.ones((4, 4), dtype=complex))


class TestPPParams:
    def test_identity(self):
        p = pp_params(np.eye(4, dtype=complex))
        for name in ("theta", "alpha", "gamma", "phi", "mu", "nu", "beta"):
            assert abs(getattr(p, name)) < 1e-12

    @pytest.mark.parametrize("tau", [0.0, PI / 8, PI / 4, 3 * PI / 8, PI / 2])
    def test_swap_iswap_family(self, tau):
        # G(I, e^{i tau} X): theta = 0, phi = pi/2, det A/det B = -e^{-2i tau},
        # so beta = (pi - 2 tau)/4 canonicalized.  At tau = pi/2 (iSWAP) beta = 0.
        g = build_pp(I2, np.exp(1j * tau) * X)
        p = pp_params(g)
        assert abs(p.theta) < 1e-12
        assert abs(p.phi - PI / 2) < 1e-12
        expected_beta = (PI - 2 * tau) / 4
        if expected_beta <= -PI / 4:
            expected_beta += PI / 2
        assert abs(p.beta - expected_beta) < 1e-12

    def test_beta_canonical_range(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            p = pp_params(random_pp(rng))
            assert -PI / 4 < p.beta <= PI / 4 + 1e-12
            assert 0 <= p.theta <= PI / 2
            assert 0 <= p.phi <= PI / 2

    def test_round_trip_random(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            g = random_pp(rng)
            assert np.max(np.abs(reconstruct_pp(pp_params(g)) - g)) < 1e-9

    def test_round_trip_up_to_phase_without_stored_phase(self):
        rng = np.random.default_rng(24)
        g = random_pp(rng)
        assert equal_up_to_global_phase(reconstruct_pp(pp_params(g), with_phase=False), g, 1e-9)

    def test_degenerate_block_flagged(self):
        p = pp_params(gate_library("SWAP"))
        assert p.degenerate  # odd block is anti-diagonal, even diagonal
        rng = np.random.default_rng(25)
        assert pp_params(random_pp(rng)).degenerate == ()

    def test_rejects_non_pp(self):
        with pytest.raises(NotParityPreserving):
            pp_params(gate_library("CNOT"))


class TestNonlocalFromPP:
    def test_identity(self):
        t = nonlocal_from_pp(pp_params(np.eye(4, dtype=complex)))
        assert_allclose(t.as_tuple(), (0, 0, 0), atol=1e-12)

    def test_swap_triple(self):
        t = nonlocal_from_pp(pp_params(gate_library("SWAP")))
        assert_allclose(t.as_tuple(), (PI / 4, PI / 4, PI / 4), atol=1e-12)

    def test_g_a_a_has_b_and_c_zero(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            a = haar_unitary(rng, 2)
            t = nonlocal_from_pp(pp_params(build_pp(a, a)))
            assert abs(t.b) < 1e-9 and abs(t.c) < 1e-9

    def test_matches_kak_class(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            g = random_pp(rng)
            t_pp = nonlocal_from_pp(pp_params(g))
            t_kak = kak(g).core
            assert locally_equivalent(nl(*t_pp.as_tuple()), nl(*t_kak.as_tuple()))


class TestKAK:
    def test_cnot_core(self):
        core = kak(gate_library("CNOT")).core
        assert locally_equivalent(nl(*core.as_tuple()), nl(PI / 4, 0, 0))
        assert_allclose(sorted(core.as_tuple()), [0, 0, PI / 4], atol=1e-9)

    def test_swap_core(self):
        core = kak(gate_library("SWAP")).core
        assert_allclose(core.as_tuple(), (PI / 4, PI / 4, PI / 4), atol=1e-9)

    def test_local_gate_core_zero(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            u = kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
            core = kak(u).core
            assert all(canonical_c_distance(x) < 1e-9 for x in core.as_tuple())

    def test_random_reconstruction(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            u = haar_unitary(rng, 4)
            res = kak(u)
            assert np.max(np.abs(res.reconstruct() - u)) < 1e-10
            # The core is a Weyl chamber point.
            a, b, c = res.core.as_tuple()
            assert PI / 4 >= a >= b >= abs(c)
            assert a < PI / 4 - 1e-12 or c >= 0
            for f in (res.u1, res.u2, res.v1, res.v2):
                assert np.max(np.abs(f @ f.conj().T - np.eye(2))) < 1e-9

    def test_nl_core_is_its_sorted_triple(self):
        assert_allclose(kak(nl(0.2, 0.1, 0.35)).core.as_tuple(), (0.35, 0.2, 0.1), atol=1e-12)
        # The mirror image is another class: c keeps its sign.
        assert_allclose(kak(nl(0.2, 0.1, -0.35)).core.as_tuple(), (0.35, 0.2, -0.1), atol=1e-12)
        # On the a = pi/4 face, c and -c are one class, written c >= 0.
        assert_allclose(kak(nl(0.3, -0.1, PI / 4)).core.as_tuple(), (PI / 4, 0.3, 0.1), atol=1e-12)

    def test_locally_equivalent_gates_share_one_chamber_point(self):
        rng = np.random.default_rng(2102)
        for _ in range(100):
            a, b, c = sorted(rng.uniform(0, PI / 4, size=3), reverse=True)
            point = (a, b, c * rng.choice([-1.0, 1.0]))
            left = kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
            right = kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
            res = kak(left @ nl(*point) @ right)
            assert_allclose(res.core.as_tuple(), point, atol=1e-9)

    def test_weyl_chamber_of_a_triple_is_the_core_of_its_gate(self):
        rng = np.random.default_rng(2103)
        for _ in range(200):
            t = rng.uniform(-2.0, 2.0, size=3)
            point = weyl_chamber(NonlocalTriple(*t))
            assert_allclose(point.as_tuple(), kak(nl(*t)).core.as_tuple(), atol=1e-9)
            assert locally_equivalent(point.matrix(), nl(*t))

    def test_degenerate_inputs(self):
        # Gates whose magic-basis eigenvalues are highly degenerate.
        for g in (
            np.eye(4, dtype=complex),
            gate_library("CZ"),
            gate_library("SWAP"),
            kron(H, H),
            nl(PI / 4, PI / 4, 0),
            np.diag([1, 1j, 1j, 1]).astype(complex),
        ):
            res = kak(g)
            assert np.max(np.abs(res.reconstruct() - g)) < 1e-9

    def test_matchgate_iff_canonical_c_vanishes(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            g = random_matchgate(rng)
            assert canonical_c_distance(kak(g).core.c) < 1e-8
        for _ in range(200):
            g = random_nonmatchgate_pp(rng)
            assert canonical_c_distance(kak(g).core.c) > 1e-8

    def test_hh_conjugation_swaps_a_and_c(self):
        rng = np.random.default_rng(31)
        hh = kron(H, H)
        for _ in range(50):
            g = random_pp(rng)
            a, b, c = kak(g).core.as_tuple()
            conj = hh @ g @ hh
            assert locally_equivalent(conj, nl(c, b, a))


class TestEntanglingPowerClosed:
    def test_cnot_and_swap(self):
        assert entangling_power_closed((PI / 4, 0, 0)) == pytest.approx(1.0)
        assert entangling_power_closed((PI / 4, PI / 4, PI / 4)) == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "tau,expected",
        [(0.0, 1.0), (PI / 6, 0.75), (PI / 3, 0.25), (PI / 2, 0.0)],
    )
    def test_tau_family_law(self, tau, expected):
        ep = entangling_power_closed((0, 0, PI / 4 - tau / 2))
        assert ep == pytest.approx(expected, abs=1e-12)

    def test_permutation_and_sign_invariance(self):
        rng = np.random.default_rng(32)
        from itertools import permutations

        for _ in range(20):
            triple = rng.uniform(-PI, PI, size=3)
            ref = entangling_power_closed(tuple(triple))
            for perm in permutations(triple):
                assert entangling_power_closed(perm) == pytest.approx(ref, abs=1e-12)
            for signs in ((-1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, -1, -1)):
                flipped = tuple(s * t for s, t in zip(signs, triple))
                assert entangling_power_closed(flipped) == pytest.approx(ref, abs=1e-12)


class TestEntanglingPowerMC:
    def test_local_gate_is_zero(self):
        rng = np.random.default_rng(33)
        u = kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        assert entangling_power_mc(u, 2000, 0) == pytest.approx(0.0, abs=1e-12)

    def test_calibration_against_cnot(self):
        # The 9/2 rescaling must reproduce the closed form on CNOT.
        est = entangling_power_mc(gate_library("CNOT"), 100_000, 7)
        assert est == pytest.approx(1.0, abs=0.01)

    def test_matches_closed_form_within_noise(self):
        rng = np.random.default_rng(34)
        for seed in range(5):
            g = random_pp(rng)
            closed = entangling_power_closed(kak(g).core)
            # 3 sigma at 2e4 samples; per-sample std of the rescaled linear
            # entropy is below 1.2 across the gate family.
            est = entangling_power_mc(g, 20_000, seed)
            assert abs(est - closed) < 3 * 1.2 / np.sqrt(20_000)

    def test_deterministic_and_sharded(self):
        g = gate_library("FSWAP")
        a = entangling_power_mc(g, 8000, 3)
        assert entangling_power_mc(g, 8000, 3) == a

    def test_bad_sample_count(self):
        with pytest.raises(BadSampleCount):
            entangling_power_mc(gate_library("CNOT"), 0, 0)

    def test_sample_count_past_the_cap_is_refused_before_any_draw(self):
        # One sample more than the cap would draw about 320 MB.
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=f"cap of {MC_SAMPLE_CAP}$"):
                entangling_power_mc(gate_library("CNOT"), MC_SAMPLE_CAP + 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert MC_SAMPLE_CAP == 10**6
        assert peak < 2**20


class TestMakhlinInvariants:
    def test_known_values(self):
        g1, g2 = makhlin_invariants(np.eye(4, dtype=complex))
        assert_allclose([g1.real, g1.imag, g2], [1, 0, 3], atol=1e-12)
        g1, g2 = makhlin_invariants(gate_library("CNOT"))
        assert_allclose([g1.real, g1.imag, g2], [0, 0, 1], atol=1e-12)
        g1, g2 = makhlin_invariants(gate_library("SWAP"))
        assert_allclose([g1.real, g1.imag, g2], [-1, 0, -3], atol=1e-12)

    def test_local_invariance(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            u = haar_unitary(rng, 4)
            w = kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
            v = kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
            g1a, g2a = makhlin_invariants(u)
            g1b, g2b = makhlin_invariants(w @ u @ v)
            assert abs(g1a - g1b) < 1e-9 and abs(g2a - g2b) < 1e-9

    def test_swap_not_equivalent_to_identity(self):
        # SWAP has e_p = 0 yet is nonlocal.
        assert not locally_equivalent(gate_library("SWAP"), np.eye(4, dtype=complex))

    def test_consistent_with_kak(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            u = haar_unitary(rng, 4)
            core = kak(u).core
            assert locally_equivalent(u, nl(*core.as_tuple()))


class TestMatchgateGenerators:
    def test_six_generator_exponentials_are_matchgates(self):
        rng = np.random.default_rng(37)
        generators = [
            kron(X, X),
            kron(Y, Y),
            kron(I2, Z),
            kron(Z, I2),
            kron(X, Y),
            kron(Y, X),
        ]
        for gen in generators:
            for theta in rng.uniform(-PI, PI, size=4):
                assert classify(expm(1j * theta * gen)).is_matchgate

    def test_random_generator_combinations(self):
        rng = np.random.default_rng(38)
        generators = [
            kron(X, X),
            kron(Y, Y),
            kron(I2, Z),
            kron(Z, I2),
            kron(X, Y),
            kron(Y, X),
        ]
        for _ in range(20):
            coeffs = rng.uniform(-1, 1, size=6)
            ham = sum(c * g for c, g in zip(coeffs, generators))
            assert classify(expm(1j * ham)).is_matchgate
