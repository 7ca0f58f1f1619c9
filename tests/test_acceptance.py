"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import chi2

from matchgates.analysis import (
    NonlocalTriple,
    classify,
    entangling_power_closed,
    entangling_power_mc,
    kak,
    makhlin_invariants,
    nonlocal_from_pp,
    pp_params,
    reconstruct_pp,
)
from matchgates.circuits import Circuit
from matchgates.compiler import (
    Encoding,
    build_entangler_block,
    compile_circuit,
    effective_diagonal,
    strip_z_rotations,
    verify,
)
from matchgates.errors import TargetIsMatchgate
from matchgates.fermion import run_covariance, sample_covariance
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
from matchgates.statevector import (
    expectation_z,
    run as sv_run,
    sample as sv_sample,
)
from util import (
    equal_up_to_global_phase,
    haar_unitary,
    isometry,
    locally_equivalent,
    random_matchgate,
    random_matchgate_circuit,
    random_nonmatchgate_pp,
    random_pp,
)

PI = np.pi
CZ = gate_library("CZ")
SWAP = gate_library("SWAP")


def report(line: str):
    print(f"\n[acceptance] PASS  {line}")


def random_two_qubit_logical(rng, depth=10) -> Circuit:
    circ = Circuit(2)
    for layer in range(depth):
        circ.append(haar_unitary(rng, 2), (int(rng.integers(0, 2)),))
        if layer % 2:
            circ.append(CZ, (0, 1), name="cz")
    return circ


def test_criterion_1_nonlocal_triples():
    """CNOT -> {pi/4, 0, 0}, SWAP -> {pi/4, pi/4, pi/4}; < 1 ms per gate."""
    cnot, swap = gate_library("CNOT"), SWAP
    core_cnot = kak(cnot).core
    core_swap = kak(swap).core
    assert np.allclose(sorted(core_cnot.as_tuple()), [0, 0, PI / 4], atol=1e-9)
    assert np.allclose(core_swap.as_tuple(), [PI / 4] * 3, atol=1e-9)
    # Canonicalization symmetry resolved through Makhlin equality.
    assert locally_equivalent(nl(PI / 4, 0, 0), nl(*core_cnot.as_tuple()), tol=1e-9)
    assert locally_equivalent(nl(PI / 4, PI / 4, PI / 4), nl(*core_swap.as_tuple()), tol=1e-9)

    for gate in (cnot, swap):  # warm-up
        kak(gate)
    # Best of 5 batches of 50, so a process sharing the CPU for part of the
    # run does not count against the decomposition.
    times = []
    reps = 50
    for gate in (cnot, swap):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(reps):
                kak(gate)
            best = min(best, time.perf_counter() - start)
        times.append(best / reps)
    assert max(times) < 1e-3
    report(
        f"criterion 1: CNOT/SWAP triples reproduced at 1e-9; "
        f"{max(times) * 1e6:.0f} us per gate"
    )


def test_criterion_2_entangling_power():
    """Closed form exact on CNOT/SWAP; MC at 1e5 samples within 0.01 on
    CNOT, SWAP, FSWAP, and 20 random P.P. gates."""
    assert entangling_power_closed((PI / 4, 0, 0)) == 1.0
    assert entangling_power_closed((PI / 4, PI / 4, PI / 4)) == 0.0

    rng = np.random.default_rng(202)
    gates = [gate_library("CNOT"), SWAP, gate_library("FSWAP")]
    gates += [random_pp(rng) for _ in range(20)]
    worst = 0.0
    for i, gate in enumerate(gates):
        closed = entangling_power_closed(kak(gate).core)
        est = entangling_power_mc(gate, 100_000, seed=4000 + i)
        worst = max(worst, abs(est - closed))
    assert worst < 0.01
    report(f"criterion 2: e_p closed form exact; MC worst |err| = {worst:.4f} < 0.01")


def test_criterion_3_tau_family_law():
    """Logical gate built from G(I, e^{i tau} X) has e_p = cos^2(tau) within
    1e-9; the tau = pi/2 member is a matchgate and is refused."""
    logical = Circuit(2)
    logical.append(CZ, (0, 1), name="cz")
    for tau in (0.0, PI / 8, PI / 4, 3 * PI / 8):
        gate = build_pp(I2, np.exp(1j * tau) * X)
        strip = strip_z_rotations(gate)
        diag = effective_diagonal(strip.core, strip.global_phase)
        ep = entangling_power_closed(kak(diag).core)
        assert abs(ep - np.cos(tau) ** 2) < 1e-9
        compiled = compile_circuit(logical, gate, 1e-6)
        assert verify(compiled.physical, logical).fidelity >= 1 - 1e-6
    iswap = build_pp(I2, np.exp(1j * PI / 2) * X)
    assert classify(iswap).is_matchgate
    with pytest.raises(TargetIsMatchgate):
        compile_circuit(logical, iswap, 1e-6)
    report("criterion 3: tau family e_p = cos^2(tau) at 1e-9; tau = pi/2 refused")


def test_criterion_4_theorem_dichotomy():
    """500 random P.P. targets: 250 matchgates all refused, 250 nonmatchgates
    all compile with fidelity >= 1 - 1e-6 on depth-10 circuits; < 60 s."""
    rng = np.random.default_rng(204)
    start = time.perf_counter()
    refused = 0
    for _ in range(250):
        target = random_matchgate(rng)
        logical = random_two_qubit_logical(rng)
        with pytest.raises(TargetIsMatchgate):
            compile_circuit(logical, target, 1e-6)
        refused += 1
    min_fidelity = 1.0
    for _ in range(250):
        target = random_nonmatchgate_pp(rng)
        logical = random_two_qubit_logical(rng)
        compiled = compile_circuit(logical, target, 1e-6)
        rep = verify(compiled.physical, logical, 1e-6)
        assert rep.passed
        min_fidelity = min(min_fidelity, rep.fidelity)
    elapsed = time.perf_counter() - start
    assert refused == 250
    assert min_fidelity >= 1 - 1e-6
    assert elapsed < 60.0
    report(
        f"criterion 4: 250/250 matchgates refused, 250/250 compiled, "
        f"min fidelity {min_fidelity:.9f}, {elapsed:.1f} s"
    )


def test_criterion_5_cz_construction_exact():
    """Compiled CZ with target SWAP equals logical CZ up to phase at 1e-12."""
    logical = Circuit(2)
    logical.append(CZ, (0, 1), name="cz")
    compiled = compile_circuit(logical, SWAP, 1e-6)
    from matchgates.statevector import circuit_unitary

    u = circuit_unitary(compiled.physical)
    v = isometry(Encoding(2))
    u_sub = v.conj().T @ u @ v
    assert equal_up_to_global_phase(u_sub, CZ, 1e-12)
    report("criterion 5: G(H,H) G(X,X) SWAP G(H,H) gives logical CZ at 1e-12")


def test_criterion_6_sin_squared_law():
    """Effective logical entangling power equals sin^2(2c) within 1e-9 for
    100 random cores."""
    rng = np.random.default_rng(206)
    worst = 0.0
    for _ in range(100):
        core = NonlocalTriple(*rng.uniform(-PI / 2, PI / 2, size=3))
        _, diag = build_entangler_block(core)
        ep = entangling_power_closed(kak(diag).core)
        worst = max(worst, abs(ep - np.sin(2 * core.c) ** 2))
    assert worst < 1e-9
    report(f"criterion 6: e_p = sin^2(2c) on 100 random cores, worst err {worst:.2e}")


def test_criterion_7_fermionic_oracle_equivalence():
    """200 random NN matchgate circuits (n <= 10, depth <= 50): marginals
    within 1e-9 of statevector; full-register samples pass a two-sample
    chi-square test at 1e4 shots."""
    rng = np.random.default_rng(207)
    worst_marginal = 0.0
    min_pvalue = 1.0
    for trial in range(200):
        n = int(rng.integers(2, 11))
        depth = int(rng.integers(5, 51))
        circ = random_matchgate_circuit(rng, n, depth)
        label = int(rng.integers(0, 2**n))
        state = sv_run(circ, label)
        cov = run_covariance(circ, label)
        for k in range(n):
            worst_marginal = max(
                worst_marginal, abs(expectation_z(state, k) - cov.expectation_z(k))
            )
        shots = 10_000
        h_ff = sample_covariance(cov, shots, seed=9000 + trial)
        h_sv = sv_sample(state, shots, seed=19000 + trial)
        c1 = np.array([h_ff.get(i, 0) for i in range(2**n)], dtype=float)
        c2 = np.array([h_sv.get(i, 0) for i in range(2**n)], dtype=float)
        total = c1 + c2
        keep = total >= 10
        a = np.append(c1[keep], c1[~keep].sum())
        b = np.append(c2[keep], c2[~keep].sum())
        mask = (a + b) > 0
        a, b = a[mask], b[mask]
        stat = float(np.sum((a - b) ** 2 / (a + b)))
        dof = max(len(a) - 1, 1)
        min_pvalue = min(min_pvalue, float(chi2.sf(stat, dof)))
    assert worst_marginal < 1e-9
    assert min_pvalue > 1e-6
    report(
        f"criterion 7: 200 circuits, worst marginal err {worst_marginal:.2e}, "
        f"min two-sample p-value {min_pvalue:.3g}"
    )


def test_criterion_8_fermionic_scaling():
    """60 qubits, 1e3 gates, full readout in < 1 s."""
    rng = np.random.default_rng(208)
    n, n_gates = 60, 1000
    gates = [random_matchgate(rng) for _ in range(64)]
    sites = rng.integers(0, n - 1, size=n_gates)
    circ = Circuit(n)
    for i in range(n_gates):
        circ.append(gates[i % 64], (int(sites[i]), int(sites[i]) + 1))
    start = time.perf_counter()
    cov = run_covariance(circ, 0)
    hist = sample_covariance(cov, 1, seed=1)
    elapsed = time.perf_counter() - start
    assert sum(hist.values()) == 1
    assert elapsed < 1.0
    report(f"criterion 8: 60 qubits / 1000 gates / full readout in {elapsed:.3f} s")


def test_criterion_9_round_trip_suites():
    """1000 P.P. build->extract->rebuild and 1000 random SU(4) KAK
    reconstructions, both at 1e-9."""
    rng = np.random.default_rng(209)
    worst_pp = 0.0
    for _ in range(1000):
        g = random_pp(rng)
        worst_pp = max(worst_pp, float(np.max(np.abs(reconstruct_pp(pp_params(g)) - g))))
    worst_kak = 0.0
    for _ in range(1000):
        u = haar_unitary(rng, 4)
        worst_kak = max(worst_kak, float(np.max(np.abs(kak(u).reconstruct() - u))))
    assert worst_pp < 1e-9
    assert worst_kak < 1e-9
    report(
        f"criterion 9: 1000 P.P. round trips (worst {worst_pp:.2e}) and "
        f"1000 KAK reconstructions (worst {worst_kak:.2e})"
    )


def test_criterion_10_structure_properties():
    """H x H conjugation swaps a and c (100 gates); the six generator
    exponentials are matchgates; b = 0, c != 0 targets compile."""
    rng = np.random.default_rng(210)
    hh = kron(H, H)
    for _ in range(100):
        g = random_pp(rng)
        a, b, c = kak(g).core.as_tuple()
        assert locally_equivalent(hh @ g @ hh, nl(c, b, a), tol=1e-8)

    generators = [kron(X, X), kron(Y, Y), kron(I2, Z), kron(Z, I2), kron(X, Y), kron(Y, X)]
    for gen in generators:
        for theta in rng.uniform(-PI, PI, size=3):
            assert classify(expm(1j * theta * gen)).is_matchgate

    logical = Circuit(2)
    logical.append(H, (0,))
    logical.append(CZ, (0, 1), name="cz")
    compiled_count = 0
    for _ in range(20):
        theta = rng.uniform(0, PI / 2)
        c_val = rng.uniform(0.05, PI / 4)
        params = pp_params(random_pp(rng))
        target = reconstruct_pp(
            type(params)(
                theta=theta,
                alpha=params.alpha,
                gamma=params.gamma,
                phi=theta,  # phi = theta <=> b = 0
                mu=params.mu,
                nu=params.nu,
                beta=c_val,
            ),
            with_phase=False,
        )
        triple = nonlocal_from_pp(pp_params(target))
        assert abs(triple.b) < 1e-9
        compiled = compile_circuit(logical, target, 1e-6)
        assert verify(compiled.physical, logical, 1e-6).passed
        compiled_count += 1
    assert compiled_count == 20
    report(
        "criterion 10: a<->c swap on 100 gates, six-generator closure, "
        "20 b=0 targets compiled"
    )
