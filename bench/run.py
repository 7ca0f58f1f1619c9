"""End-to-end and per-layer benchmark of the ``mgc`` pipeline.

    python3 bench/run.py --workload compile_generic --seed 1 --seconds 18 --trace 0

Runs ``mgc`` commands in-process through click's test runner: one client in
a closed loop, each request issued when the previous one has finished and
been checked against this directory's own reference (see reference.py).
Inputs come from ``--seed`` (see workloads.py).  BLAS runs single-threaded.
Every time is reported in seconds at a fixed reference machine speed: the
wall time scaled by the speed probes run around it (see speed.py).  The
raw wall times are in the report line.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` it spends half its time untraced and half traced
(see tracing.py) and reports the per-layer metrics, including the tracing
overhead between the two halves.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the environment, the input hash, the tail percentile used and
the full per-layer table.  Exits 2 without a result when the package
source is not beside this directory.
"""

from __future__ import annotations

import os

# Before numpy is imported, here and in the set-up subprocesses.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from reference import CheckFailed, Checker  # noqa: E402
from tracing import Patches, PeakProbe, Tracer, layer_metrics, patch_layers  # noqa: E402

SETUP_REPEATS = 7
# The percentile of latency_tail_s: the highest of p50/75/90/95/99/99.9
# with at least 10 requests beyond it in an 18 s run at the reference speed.
# Fixed per workload, so that a run's request count, which moves with the
# machine's speed, cannot move the rank to another size of request.
TAIL_PERCENTILE = {"compile_generic": 90.0, "ff_deep": 50.0, "ff_shots": 75.0, "sv_mixed": 90.0}
# The speed probe each workload's times are scaled by (see speed.py): the
# kind of work that bounds its requests.  ff_shots streams shots x (2n)^2
# arrays through the shared cache and memory; the other three run mostly
# in the core's own caches.  Over 150 s of interleaved requests, log
# ff_shots request time correlated 0.84 with the memory probe and -0.02
# with the core probe.
PROBE_KIND = {"compile_generic": "core", "ff_deep": "core", "ff_shots": "memory", "sv_mixed": "core"}
MB = 2.0**20

END_TO_END = {"setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s", "throughput_rps": "1/s", "peak_mb": "MB"}

# Per-layer metrics reported with --trace 1, with their units.  A layer a
# workload never executes reads 0.
PER_LAYER = {
    "cli.analyze.self_s": "s",
    "cli.compile.self_s": "s",
    "cli.simulate.self_s": "s",
    "io.load_circuit.self_s": "s",
    "io.parse_gate_spec.self_s": "s",
    "io.emit_circuit_document.self_s": "s",
    "io.dumps_document.self_s": "s",
    "io.histogram_out.self_s": "s",
    "circuits.Circuit.append.calls": "count",
    "circuits.Circuit.append.self_s": "s",
    "gates.is_unitary.calls": "count",
    "gates.is_unitary.self_s": "s",
    "gates.build_pp.calls": "count",
    "gates.build_pp.self_s": "s",
    "analysis.classify.calls": "count",
    "analysis.classify.self_s": "s",
    "analysis.kak.self_s": "s",
    "analysis.makhlin_invariants.self_s": "s",
    "analysis.pp_params.self_s": "s",
    "compiler.compile_circuit.self_s": "s",
    "compiler.strip_z_rotations.self_s": "s",
    "compiler.plan_entangler.calls": "count",
    "compiler.plan_entangler.self_s": "s",
    "compiler.plan_entangler.retries": "count",
    "compiler.CompiledCircuit.target_uses.calls": "count",
    "compiler.CompiledCircuit.target_uses.self_s": "s",
    "compiler.verify.self_s": "s",
    "compiler.verify.peak_mb": "MB",
    "compiler.repetitions_p50": "count",
    "compiler.routed_cz_per_2q": "count",
    "compiler.target_uses_per_2q": "count",
    "compiler.flat_ops_per_2q": "count",
    "statevector.circuit_unitary.calls": "count",
    "statevector.circuit_unitary.self_s": "s",
    "statevector.run.self_s": "s",
    "statevector.run.ms_per_gate": "ms",
    "statevector.sample.self_s": "s",
    "fermion.matchgate_to_rotation.calls": "count",
    "fermion.matchgate_to_rotation.self_s": "s",
    "fermion.matchgate_to_rotation.us_per_call": "us",
    "fermion.rotations_per_distinct_gate": "ratio",
    "fermion.run_covariance.self_s": "s",
    "fermion.run_covariance.us_per_gate": "us",
    "fermion.sample_covariance.self_s": "s",
    "fermion.sample_covariance.ms_per_shot": "ms",
    "fermion.sample_covariance.peak_mb": "MB",
    "trace.overhead_frac": "ratio",
}
PEAK_PROBED = ("compiler.verify", "fermion.sample_covariance")


class Session:
    """Issues requests in-process and checks each one."""

    def __init__(self, workdir: Path):
        from click.testing import CliRunner

        import matchgates.cli

        self.main = matchgates.cli.main
        self.runner = CliRunner()
        self.workdir = workdir
        self.checker = Checker()
        self.failures: list[str] = []
        self.counters: dict[int, dict] = {}  # first successful counters per request index

    def argv(self, req) -> list[list[str]]:
        work = str(self.workdir)
        return [[a.replace(workloads.WORK, work) for a in cmd] for cmd in req.commands]

    def execute(self, argvs) -> list:
        return [self.runner.invoke(self.main, argv, catch_exceptions=True) for argv in argvs]

    def timed(self, req, argvs) -> tuple[float, bool, dict]:
        """One closed-loop request: (latency, ok, counters)."""
        start = time.perf_counter()
        results = self.execute(argvs)
        latency = time.perf_counter() - start
        ok, counters = self.judge(req, results)
        return latency, ok, counters

    def judge(self, req, results) -> tuple[bool, dict]:
        try:
            for argv, res in zip(req.commands, results):
                if res.exception is not None and not isinstance(res.exception, SystemExit):
                    raise CheckFailed(f"{argv[0]} raised {type(res.exception).__name__}: {res.exception}")
                if res.exit_code != 0:
                    raise CheckFailed(f"{argv[0]} exited {res.exit_code}: {res.stderr.strip()[:200]}")
            out_text = None
            if "out" in req.spec:
                path = self.workdir / req.spec["out"]
                out_text = path.read_text(encoding="utf-8") if path.exists() else None
            counters = self.checker.check(req, [r.stdout for r in results], out_text)
        except (CheckFailed, LookupError, TypeError, ValueError) as exc:
            # The last three: output whose JSON has the wrong structure.
            self.failures.append(f"{req.workload}[{req.index}]: {type(exc).__name__}: {exc}")
            return False, {}
        self.counters.setdefault(req.index, counters)
        return True, counters


def run_loop(session, requests, prepared, seconds, cycle, kind, start_at=0, tracer=None):
    """Issue requests in stream order, in whole cycles, until their summed
    wall latency reaches ``seconds``; returns (wall latencies, latencies at
    reference speed, failed count, next index, {request index: counters})."""
    measure, reference = speed.PROBES[kind]
    latencies, probes, failed, ids = [], [measure()], 0, {}
    i = start_at
    while sum(latencies) < seconds or (i - start_at) % cycle:
        k = i % len(requests)
        if tracer is not None:
            tracer.request = i
        latency, ok, counters = session.timed(requests[k], prepared[k])
        probes.append(measure())
        latencies.append(latency)
        failed += not ok
        ids[i] = counters
        i += 1
    if tracer is not None:
        tracer.request = -1
    return latencies, speed.rescale(latencies, probes, reference), failed, i, ids


def percentile(latencies: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least pct% of the
    requests at or below it.  Runs hold whole cycles of an odd number of
    request sizes, so this rank falls inside one size group on every run."""
    ordered = sorted(latencies)
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)), 1) - 1]


def setup_seconds() -> tuple[list[float], float]:
    """Import time of matchgates.cli in fresh interpreters: (wall seconds,
    the factor that turns them into seconds at reference speed).  The factor
    comes from the median of the probes run between the interpreters, so one
    probe disturbed by a child process's start or exit cannot skew it."""
    code = (
        "import time; t = time.perf_counter(); import matchgates.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, probes = [], [speed.probe()]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=str(ROOT), env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append(speed.probe())
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples, speed.REFERENCE_S / statistics.median(probes)


def peak_requests(workload: str, requests) -> list:
    """The requests of the untimed memory pass: the largest of each kind."""
    if workload == "compile_generic":
        cycle = requests[: len(workloads.COMPILE_SHAPES)]
        widest = max(cycle, key=lambda r: (r.spec["logical_qubits"], r.spec["model_cz"]))
        dearest = max(cycle, key=lambda r: r.spec["model_target_uses"])
        return [widest] if widest is dearest else [widest, dearest]
    return [max(requests[: workloads.CYCLES[workload]], key=lambda r: r.spec["qubits"])]


def peak_pass(session, workload, requests) -> tuple[float, dict]:
    probe = PeakProbe()
    patches = Patches()
    patch_layers(patches, probe.wrap, names=PEAK_PROBED)
    peaks = []
    tracemalloc.start()
    try:
        for req in peak_requests(workload, requests):
            argvs = session.argv(req)
            results = []
            peaks.append(probe.measure(lambda: results.extend(session.execute(argvs))))
            session.judge(req, results)
    finally:
        tracemalloc.stop()
        patches.restore()
    return max(peaks) / MB, {k: v / MB for k, v in probe.function_peaks.items()}


def compile_counts(counters: dict[int, dict]) -> dict[str, float]:
    """Exact counts over the first cycle of compile requests."""
    first = [counters[i] for i in sorted(counters) if i < len(workloads.COMPILE_SHAPES)]
    if not first:
        return {}
    n2q = sum(c["two_qubit_gates"] for c in first)
    return {
        "compiler.repetitions_p50": statistics.median(c["repetitions"] for c in first),
        "compiler.routed_cz_per_2q": sum(c["routed_cz"] for c in first) / n2q,
        "compiler.target_uses_per_2q": sum(c["target_uses"] for c in first) / n2q,
        "compiler.flat_ops_per_2q": sum(c["flat_ops"] for c in first) / n2q,
        "compile_requests_counted": len(first),
    }


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    requests = workloads.make_requests(workload, seed)
    (warmup,) = workloads.make_requests(workload, seed, [len(requests)])
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for req in [*requests, warmup]:
            for name, text in req.files.items():
                (workdir / name).write_text(text, encoding="utf-8")
        session = Session(workdir)
        prepared = [session.argv(r) for r in requests]
        report: dict = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "inputs_sha256": workloads.inputs_hash(requests),
            "environment": environment(),
            "loop": "closed, one client, no think time",
        }
        session.timed(warmup, session.argv(warmup))

        cycle = workloads.CYCLES[workload]
        kind = PROBE_KIND[workload]
        metrics: dict[str, float] = {}
        if trace:
            _, plain, failed, nxt, _ = run_loop(session, requests, prepared, seconds / 2, cycle, kind)
            tracer = Tracer()
            patches = Patches()
            patch_layers(patches, tracer.wrap)
            try:
                _, traced, t_failed, _, ids = run_loop(session, requests, prepared, seconds / 2, cycle, kind, nxt, tracer)
            finally:
                patches.restore()
            layers = layer_metrics(tracer, ids)
            _, probed = peak_pass(session, workload, requests)
            layers.update({f"{k}.peak_mb": v for k, v in probed.items()})
            if workload == "compile_generic":
                layers.update(compile_counts(session.counters))
            layers["trace.overhead_frac"] = percentile(traced, 50) / percentile(plain, 50) - 1.0
            metrics = {k: layers.get(k, 0.0) for k in PER_LAYER}
            latencies = plain + traced
            failed += t_failed
            report["layers"] = layers
            report["spans"] = len(tracer.spans)
            report["requests_traced"] = len(traced)
        else:
            setup_wall, setup_scale = setup_seconds()
            setup = [t * setup_scale for t in setup_wall]
            wall, latencies, failed, _, _ = run_loop(session, requests, prepared, seconds, cycle, kind)
            peak_mb, probed = peak_pass(session, workload, requests)
            pct = TAIL_PERCENTILE[workload]
            metrics = {
                "setup_s": statistics.median(setup),
                "latency_p50_s": percentile(latencies, 50),
                "latency_tail_s": percentile(latencies, pct),
                "throughput_rps": len(latencies) / sum(latencies),
                "peak_mb": peak_mb,
            }
            report["setup_samples_s"] = setup
            report["setup_wall_samples_s"] = setup_wall
            report["wall_latency_p50_s"] = percentile(wall, 50)
            report["wall_latencies_s"] = wall
            report["tail_percentile"] = pct
            report["layer_peaks_mb"] = probed
            if workload == "compile_generic":
                report["compile_counts"] = compile_counts(session.counters)
        report["requests"] = len(latencies)
        report["latencies_s"] = latencies
        report["failures"] = session.failures[:5]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not session.failures,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "matchgates" / "cli.py").is_file():
        print(f"error: package source not found at {SRC / 'matchgates'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matchgates

    if Path(matchgates.__file__).resolve().parent != SRC / "matchgates":
        print(f"error: imported matchgates from {matchgates.__file__}, not {SRC}", file=sys.stderr)
        return 2
    report, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
