"""Command-line front-end: analyze, compile, simulate, verify.

Exit codes are a stable contract:

    0  success
    1  internal error (decomposition/synthesis bug)
    2  parse or usage error (including a bad shot count, a logical two-qubit
       gate other than CZ, CNOT, SWAP, a non-unitary gate: a document's
       'g' block or 'matrix' entry is refused when it is parsed, with one
       text whichever command reads it, or an --epsilon below the
       verifier's rounding resolution, 4 * 2**-52 per flat op of the
       physical circuit, in ``mgc verify`` or a verifying ``mgc compile``,
       or a physical document's provenance span that fails its check in
       ``mgc verify``)
    3  target gate is a matchgate
    4  target gate is not parity-preserving
    5  problem too large for the requested mode (e.g. verifying more than 10
       logical qubits, or more than 8 for a physical document without
       provenance, more than 1,000,000 --mc-samples, or a document's 'repeat'
       count past 10,000,000, ``circuits.REPEAT_CAP``)
    6  backend refusal (e.g. non-matchgate op on the ff backend)
    7  repetition synthesis failed within --r-max
    8  verification failed (|1 - fidelity|, plus the decoded mode's leakage
       terms 2s + s^2, past epsilon, in ``mgc verify`` or in ``mgc compile``
       without --skip-verify; the summary and --out are still written)

The unitarity and classification thresholds are fixed at 1e-9
(``gates.TOL_UNITARY`` and ``gates.TOL_CLASSIFY``); no option changes them.
"""

from __future__ import annotations

import functools
from dataclasses import asdict
from pathlib import Path

import click

from . import __version__
from .analysis import (
    classify,
    entangling_power_closed,
    entangling_power_mc,
    kak,
    makhlin_invariants,
    nonlocal_from_pp,
    pp_params,
    weyl_chamber,
)
from .circuits import REPEAT_CAP
from .compiler import DEFAULT_R_MAX, check_epsilon, check_resolution, compile_circuit, verify as verify_compiled
from .errors import (
    BackendRefusal,
    BadSampleCount,
    MatchgatesError,
    NonUnitaryInput,
    ParseError,
    SynthesisError,
    TargetIsMatchgate,
    TargetNotPP,
    TooLarge,
    UnsupportedLogicalGate,
)
from .fermion import run_covariance, sample_covariance
from .io import (
    dumps_document,
    emit_circuit_document,
    histogram_out,
    load_circuit,
    matrix_out,
    parse_gate_spec,
)
from .statevector import run as sv_run, sample as sv_sample

EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_TARGET_IS_MATCHGATE = 3
EXIT_TARGET_NOT_PP = 4
EXIT_TOO_LARGE = 5
EXIT_BACKEND_REFUSAL = 6
EXIT_SYNTHESIS = 7
EXIT_VERIFY_FAILED = 8

_EXIT_BY_ERROR = [
    (ParseError, EXIT_PARSE),
    (BadSampleCount, EXIT_PARSE),
    (NonUnitaryInput, EXIT_PARSE),
    (UnsupportedLogicalGate, EXIT_PARSE),
    (TargetIsMatchgate, EXIT_TARGET_IS_MATCHGATE),
    (TargetNotPP, EXIT_TARGET_NOT_PP),
    (TooLarge, EXIT_TOO_LARGE),
    (BackendRefusal, EXIT_BACKEND_REFUSAL),
    (SynthesisError, EXIT_SYNTHESIS),
]


def _exit_codes(command):
    """Report a package error raised by ``command`` on stderr and exit with
    its documented code (1 if it has none); other exceptions propagate."""

    @functools.wraps(command)
    def mapped(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except MatchgatesError as exc:
            click.echo(f"error: {exc}", err=True)
            code = next((c for klass, c in _EXIT_BY_ERROR if isinstance(exc, klass)), EXIT_ERROR)
            raise click.exceptions.Exit(code) from exc

    return mapped


def _emit(payload: dict, as_json: bool, render) -> None:
    if as_json:
        click.echo(dumps_document(payload), nl=False)
    else:
        render(payload)


@click.group()
@click.version_option(__version__)
def main():
    """Analyze two-qubit gates, simulate matchgate circuits, and compile
    logical circuits onto the even-parity pair encoding."""


@main.command()
@click.option("--gate", required=True, help="Gate spec: name, NAME(args), or JSON file.")
@click.option("--mc-samples", default=0, show_default=True, help="Monte-Carlo samples for the entangling-power estimator (0 = skip; at most 1,000,000).")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@_exit_codes
def analyze(gate, mc_samples, seed, as_json):
    """Classify a two-qubit gate and report its nonlocal parameters."""
    u = parse_gate_spec(gate)
    if u.shape != (4, 4):
        raise ParseError("analyze expects a two-qubit gate")
    cls = classify(u)
    dec = kak(u)
    core = dec.core
    g1, g2 = makhlin_invariants(u)
    report = {
        "gate": gate,
        "is_unitary": cls.is_unitary,
        "is_pp": cls.is_pp,
        "is_matchgate": cls.is_matchgate,
        "nonlocal_triple": {"a": core.a, "b": core.b, "c": core.c},
        "entangling_power": entangling_power_closed(core),
        "makhlin_invariants": {"g1": [g1.real, g1.imag], "g2": g2},
    }
    if cls.is_pp:
        report["det_ratio"] = [cls.det_ratio.real, cls.det_ratio.imag]
        p = pp_params(u)
        report["pp_params"] = {
            "theta": p.theta,
            "alpha": p.alpha,
            "gamma": p.gamma,
            "phi": p.phi,
            "mu": p.mu,
            "nu": p.nu,
            "beta": p.beta,
        }
        t = weyl_chamber(nonlocal_from_pp(p))
        report["pp_nonlocal_triple"] = {"a": t.a, "b": t.b, "c": t.c}
    if mc_samples:
        report["entangling_power_mc"] = entangling_power_mc(u, mc_samples, seed)
        report["mc_samples"] = mc_samples
        report["seed"] = seed

    def render(r):
        click.echo(f"gate: {r['gate']}")
        click.echo(
            f"unitary: {r['is_unitary']}   parity-preserving: {r['is_pp']}   "
            f"matchgate: {r['is_matchgate']}"
        )
        t = r["nonlocal_triple"]
        click.echo(f"nonlocal triple (canonical): a={t['a']:.9f} b={t['b']:.9f} c={t['c']:.9f}")
        if "pp_params" in r:
            p = r["pp_params"]
            click.echo(
                "pp params: "
                + " ".join(f"{k}={p[k]:.9f}" for k in ("theta", "alpha", "gamma", "phi", "mu", "nu", "beta"))
            )
        click.echo(f"entangling power: {r['entangling_power']:.9f}")
        if "entangling_power_mc" in r:
            click.echo(
                f"entangling power (MC, {r['mc_samples']} samples, seed {r['seed']}): "
                f"{r['entangling_power_mc']:.6f}"
            )
        g1 = r["makhlin_invariants"]["g1"]
        click.echo(
            f"makhlin invariants: G1 = {g1[0]:.9f}{g1[1]:+.9f}i, "
            f"G2 = {r['makhlin_invariants']['g2']:.9f}"
        )

    _emit(report, as_json, render)


@main.command("compile")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True), help="Logical circuit JSON.")
@click.option("--target", required=True, help="Target gate spec.")
@click.option("--epsilon", default=1e-6, show_default=True, help="Encoded-subspace infidelity budget.")
@click.option("--r-max", type=click.IntRange(min=1, max=REPEAT_CAP), default=DEFAULT_R_MAX, show_default=True, help="Repetition search cap.")
@click.option("--out", type=click.Path(), help="Write the compiled circuit JSON here.")
@click.option("--skip-verify", is_flag=True, help="Skip the verification summary.")
@click.option("--json", "as_json", is_flag=True)
@_exit_codes
def compile_cmd(input_path, target, epsilon, r_max, out, skip_verify, as_json):
    """Compile a logical circuit into matchgates + the target gate."""
    logical = load_circuit(input_path)
    target_gate = parse_gate_spec(target)
    if target_gate.shape != (4, 4):
        raise ParseError("target must be a two-qubit gate")
    compiled = compile_circuit(logical, target_gate, epsilon, r_max=r_max)
    if not skip_verify:
        check_resolution(epsilon, compiled.physical)
    doc = None
    if out or as_json:
        meta = {
            "target": {"matrix": matrix_out(target_gate), "spec": target},
            "provenance": compiled.provenance,
        }
        if compiled.plan:
            meta["plan"] = asdict(compiled.plan)
        doc = emit_circuit_document(compiled.physical, meta)
    if out:
        Path(out).write_text(dumps_document(doc), encoding="utf-8")
    summary = {
        "logical_qubits": logical.n,
        "physical_qubits": compiled.physical.n,
        "flat_op_count": compiled.physical.flat_count(),
        "target_uses": compiled.target_uses,
        "repetitions": compiled.plan.repetitions if compiled.plan else 0,
        "out": out,
    }
    if not skip_verify:
        try:
            report = verify_compiled(compiled.physical, logical, epsilon, compiled.provenance)
        except TooLarge as exc:
            raise TooLarge(f"{exc}; compile with --skip-verify") from exc
        summary["verification"] = {
            "mode": report.mode,
            "fidelity": report.fidelity,
            "leakage": report.leakage,
            "passed": report.passed,
        }
    if doc is not None and not out:
        summary["circuit"] = doc

    def render(s):
        click.echo(
            f"compiled {s['logical_qubits']} logical -> {s['physical_qubits']} physical qubits; "
            f"{s['flat_op_count']} gates, {s['target_uses']} target uses"
        )
        if "verification" in s:
            v = s["verification"]
            click.echo(
                f"verification ({v['mode']}): fidelity={v['fidelity']:.12f} "
                f"leakage={v['leakage']:.3e} passed={v['passed']}"
            )
        if s.get("out"):
            click.echo(f"wrote {s['out']}")

    _emit(summary, as_json, render)

    if summary.get("verification", {}).get("passed") is False:
        raise click.exceptions.Exit(EXIT_VERIFY_FAILED)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--backend", type=click.Choice(["sv", "ff"]), default="sv", show_default=True)
@click.option("--shots", default=0, show_default=True, help="0 dumps the state (sv) or Z expectations (ff).")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="RNG seed for sampling.")
@click.option("--initial", default=None, help="Initial basis state, e.g. 0101.")
@click.option("--strict", is_flag=True, help="Require an explicit --seed for sampling.")
@click.option("--out", type=click.Path())
@click.option("--json", "as_json", is_flag=True)
@_exit_codes
def simulate(input_path, backend, shots, seed, initial, strict, out, as_json):
    """Run a circuit on the statevector (sv) or free-fermion (ff) backend."""
    circuit = load_circuit(input_path)
    if initial is not None and (
        len(initial) != circuit.n or set(initial) - {"0", "1"}
    ):
        raise ParseError(
            f"--initial must be a {circuit.n}-character bitstring, got {initial!r}"
        )
    initial_label = initial if initial is not None else 0
    if shots and seed is None:
        if strict:
            raise ParseError("--strict requires --seed when sampling")
        seed = 0
    payload: dict = {
        "backend": backend,
        "qubits": circuit.n,
        "shots": shots,
    }
    if shots:
        payload["seed"] = seed
    if backend == "sv":
        state = sv_run(circuit, initial_label)
        if shots:
            payload["counts"] = histogram_out(sv_sample(state, shots, seed), circuit.n)
        else:
            payload["state"] = matrix_out(state.amps)
    else:
        cov = run_covariance(circuit, initial_label)
        payload["z_expectations"] = [cov.expectation_z(k) for k in range(circuit.n)]
        if shots:
            payload["counts"] = histogram_out(
                sample_covariance(cov, shots, seed), circuit.n
            )

    text = dumps_document(payload)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        click.echo(f"wrote {out}")
    elif as_json:
        click.echo(text, nl=False)
    else:
        if "counts" in payload:
            for bits, count in payload["counts"].items():
                click.echo(f"{bits} {count}")
        elif backend == "ff":
            for k, z in enumerate(payload["z_expectations"]):
                click.echo(f"<Z_{k}> = {z:+.9f}")
        else:
            for i, (re, im) in enumerate(payload["state"]):
                # A row shows only what its 9 decimals can tell from zero.
                if round(re, 9) or round(im, 9):
                    click.echo(f"|{format(i, f'0{circuit.n}b')}>  {re:+.9f}{im:+.9f}i")


def _load_side(path: str, side: str):
    """``load_circuit``, with a refusal prefixed by the document's side."""
    try:
        return load_circuit(path)
    except MatchgatesError as exc:
        raise type(exc)(f"{side} circuit: {exc}") from exc


@main.command()
@click.option("--logical", "logical_path", required=True, type=click.Path(exists=True))
@click.option("--physical", "physical_path", required=True, type=click.Path(exists=True))
@click.option("--epsilon", default=1e-6, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@_exit_codes
def verify(logical_path, physical_path, epsilon, as_json):
    """Check a physical circuit against a logical one under the pair encoding.
    A document with the provenance that compile --out writes is decoded span
    by span and certified up to 10 logical qubits; one without is checked
    exactly up to 8."""
    check_epsilon(epsilon)
    logical = _load_side(logical_path, "logical")
    physical = _load_side(physical_path, "physical")
    report = verify_compiled(physical, logical, epsilon, physical.metadata.get("provenance"))

    def render(r):
        click.echo(
            f"{r['mode']} verification: fidelity={r['fidelity']:.12f} "
            f"leakage={r['leakage']:.3e} epsilon={r['epsilon']:g} passed={r['passed']}"
        )

    _emit(asdict(report), as_json, render)

    if report.passed is False:
        raise click.exceptions.Exit(EXIT_VERIFY_FAILED)


if __name__ == "__main__":
    main()
