"""Gate-algebra tests: P.P. constructors, products, the gate zoo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from matchgates.errors import (
    BadArity,
    NonUnitaryInput,
    NotParityPreserving,
    UnknownGate,
)
from matchgates.gates import (
    H,
    I2,
    S,
    T,
    TOL_UNITARY,
    X,
    Y,
    Z,
    build_pp,
    extract_blocks,
    gate_library,
    is_unitary,
    kron,
    nl,
    off_block_weight,
    rx,
    ry,
    rz,
    unitarity_defect,
)
from util import equal_up_to_global_phase, haar_unitary, pp_product, random_pp

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
FSWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex)


class TestBuildPP:
    def test_identity(self):
        assert_allclose(build_pp(I2, I2), np.eye(4))

    def test_swap_is_g_i_x(self):
        assert_allclose(build_pp(I2, X), SWAP)

    def test_fermionic_swap_is_g_z_x(self):
        assert_allclose(build_pp(Z, X), FSWAP)

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryInput):
            build_pp(2 * I2, X)

    def test_block_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = haar_unitary(rng, 2), haar_unitary(rng, 2)
            ra, rb = extract_blocks(build_pp(a, b))
            assert_allclose(ra, a)
            assert_allclose(rb, b)

    def test_result_unitary(self):
        rng = np.random.default_rng(12)
        g = random_pp(rng)
        assert_allclose(g @ g.conj().T, np.eye(4), atol=1e-12)


def product_defect(m):
    """max |m^dag m - I| of each matrix of a stack, by the matrix product."""
    prod = np.conj(np.swapaxes(m, -1, -2)) @ m
    return np.abs(prod - np.eye(m.shape[-1])).max(axis=(-2, -1))


class TestUnitarityDefect:
    """The closed form for 2 x 2 stacks against the product form."""

    def test_random_stacks_match_the_product_form(self):
        rng = np.random.default_rng(21)
        near = np.array([haar_unitary(rng, 2) for _ in range(512)]).reshape(256, 2, 2, 2)
        near += 1e-7 * (rng.normal(size=near.shape) + 1j * rng.normal(size=near.shape))
        wild = rng.normal(size=(300, 2, 2)) + 1j * rng.normal(size=(300, 2, 2))
        for m in (near, wild):
            got = unitarity_defect(m)
            assert got.shape == m.shape[:-2]
            assert_allclose(got, product_defect(m), rtol=1e-12, atol=1e-15)

    def test_exact_unitaries(self):
        m = np.array([I2, X, Y, Z, S, 1j * X, -I2])
        assert np.all(unitarity_defect(m) == 0.0)
        m = np.array([H, T, rx(0.3), ry(-1.2), rz(2.5)] + [haar_unitary(np.random.default_rng(k), 2) for k in range(20)])
        assert np.all(unitarity_defect(m) <= 1e-15)
        assert_allclose(unitarity_defect(m), product_defect(m), atol=3e-16)

    @pytest.mark.parametrize("excess,accepted", [(TOL_UNITARY - 1e-12, True), (TOL_UNITARY + 1e-12, False)])
    @pytest.mark.parametrize("where", ["norm", "inner"])
    def test_threshold_edge(self, excess, accepted, where):
        # A first column of norm squared 1 + excess, or columns whose inner
        # product is excess.
        if where == "norm":
            m = np.array([[np.sqrt(1.0 + excess), 0], [0, 1]], dtype=complex)
        else:
            m = np.array([[1, excess], [0, 1]], dtype=complex)
        assert abs(unitarity_defect(m) - excess) < 1e-15
        assert (unitarity_defect(m[None, None]) <= TOL_UNITARY).item() is accepted
        assert is_unitary(m) is accepted

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_overflow_is_never_accepted(self):
        huge = np.full((3, 2, 2), 1e200 + 1e200j)
        huge[1] = 1e200
        huge[2, 0] = 1e200j
        defect = unitarity_defect(huge)
        assert np.all(np.isnan(defect) | np.isinf(defect))
        assert not np.any(defect <= TOL_UNITARY)
        assert not is_unitary(huge[0])


class TestPPProduct:
    def test_swap_squared_is_identity(self):
        assert_allclose(pp_product(SWAP, SWAP), np.eye(4), atol=1e-15)

    def test_fswap_squared_is_identity(self):
        g = build_pp(Z, X)
        assert_allclose(pp_product(g, g), np.eye(4), atol=1e-15)

    def test_blocks_multiply_blockwise(self):
        prod = pp_product(build_pp(H, H), build_pp(X, X))
        a, b = extract_blocks(prod)
        assert_allclose(a, H @ X, atol=1e-15)
        assert_allclose(b, H @ X, atol=1e-15)

    def test_random_blocks_multiply(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, b, c, d = (haar_unitary(rng, 2) for _ in range(4))
            lhs = pp_product(build_pp(a, b), build_pp(c, d))
            assert np.max(np.abs(lhs - build_pp(a @ c, b @ d))) < 1e-12

    def test_rejects_non_pp(self):
        with pytest.raises(NotParityPreserving):
            pp_product(gate_library("CNOT"), SWAP)


class TestKron:
    def test_identity(self):
        assert_allclose(kron(I2, I2), np.eye(4))

    def test_zz_diagonal(self):
        assert_allclose(kron(Z, Z), np.diag([1, -1, -1, 1]))

    def test_qubit0_most_significant(self):
        # Z on qubit 0 flips the sign of |10> and |11>.
        assert_allclose(np.diag(kron(Z, I2)), [1, 1, -1, -1])

    def test_mixed_product(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            a, b, c, d = (haar_unitary(rng, 2) for _ in range(4))
            assert_allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12)


class TestNonlocalCore:
    def test_zero_is_identity(self):
        assert_allclose(nl(0, 0, 0), np.eye(4))

    def test_swap_up_to_phase(self):
        assert equal_up_to_global_phase(nl(np.pi / 4, np.pi / 4, np.pi / 4), SWAP)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_matrix_exponential(self, seed):
        # Independent oracle: scipy expm of the generator.
        rng = np.random.default_rng(100 + seed)
        for _ in range(25):
            a, b, c = rng.uniform(-np.pi, np.pi, size=3)
            gen = a * kron(X, X) + b * kron(Y, Y) + c * kron(Z, Z)
            assert np.max(np.abs(nl(a, b, c) - expm(1j * gen))) < 1e-12

    def test_is_parity_preserving(self):
        rng = np.random.default_rng(15)
        a, b, c = rng.uniform(-2, 2, size=3)
        assert off_block_weight(nl(a, b, c)) == 0.0


class TestGateLibrary:
    def test_fswap_equals_cz_swap_up_to_phase(self):
        fswap = gate_library("FSWAP")
        assert equal_up_to_global_phase(fswap, gate_library("CZ") @ SWAP)

    def test_iswap_blocks(self):
        a, b = extract_blocks(gate_library("ISWAP"))
        assert_allclose(a, I2)
        assert_allclose(b, 1j * X)

    def test_rotations_are_unitary(self):
        for theta in (0.0, 0.3, -1.7, np.pi):
            for gate in (rx(theta), ry(theta), rz(theta)):
                assert_allclose(gate @ gate.conj().T, np.eye(2), atol=1e-14)

    def test_rz_convention(self):
        assert_allclose(rz(np.pi), np.diag([-1j, 1j]), atol=1e-15)

    def test_unknown_gate(self):
        with pytest.raises(UnknownGate):
            gate_library("TOFFOLI")

    def test_bad_arity(self):
        with pytest.raises(BadArity):
            gate_library("NL", (0.1,))
        with pytest.raises(BadArity):
            gate_library("SWAP", (0.1,))

    def test_parametric_matches_direct(self):
        assert_allclose(gate_library("RZ", (0.7,)), rz(0.7))
        assert_allclose(gate_library("NL", (0.1, 0.2, 0.3)), nl(0.1, 0.2, 0.3))


class TestGlobalPhaseComparison:
    def test_explicit_phase(self):
        rng = np.random.default_rng(16)
        u = haar_unitary(rng, 4)
        assert equal_up_to_global_phase(u, np.exp(1j * np.pi / 7) * u)

    def test_swap_vs_iswap_differ(self):
        # Oracle: no phase in a fine scan brings them within 0.3 entry-wise.
        iswap = gate_library("ISWAP")
        best = min(
            np.max(np.abs(np.exp(1j * t) * SWAP - iswap))
            for t in np.linspace(0, 2 * np.pi, 2000)
        )
        assert best > 0.3
        assert not equal_up_to_global_phase(SWAP, iswap)

    def test_exp_zz_is_local(self):
        # exp(i(pi/2) ZZ) = i ZZ by direct evaluation of the diagonal.
        lhs = nl(0, 0, np.pi / 2)
        assert_allclose(lhs, 1j * kron(Z, Z), atol=1e-15)
        assert equal_up_to_global_phase(lhs, kron(Z, Z))

    def test_all_half_entries(self):
        # Every |entry| is exactly 0.5; the anchor scan must still find one.
        hh = kron(H, H)
        assert equal_up_to_global_phase(hh, -hh)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_build_pp_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    a, b = haar_unitary(rng, 2), haar_unitary(rng, 2)
    ra, rb = extract_blocks(build_pp(a, b))
    assert np.array_equal(ra, a) and np.array_equal(rb, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pp_product_matches_block_product_property(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = (haar_unitary(rng, 2) for _ in range(4))
    lhs = pp_product(build_pp(a, b), build_pp(c, d))
    assert np.max(np.abs(lhs - build_pp(a @ c, b @ d))) < 1e-12
