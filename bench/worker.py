"""One benchmark process: set up, run the closed loop, report.

Usage: python3 bench/worker.py JOB.json RESULT.json

The job (written by run.py) holds the inputs as plain numbers, so nothing of
the program is imported before the set-up clock starts. Modes:

* ``setup``: import photonpad, build the inputs through its public
  constructors, run one warm-up op of each kind, report the time taken.
* ``run``: the same set-up, then whole rounds of ops, one at a time, until
  the time is up, with the host probe timed between them; report per-op
  latencies, outputs, probe times and peak memory.
* ``trace``: wrap the traced functions (set-up times the quadrature builds),
  run rounds for half the time with the wrappers removed, then the same ops
  again with spans on; report per-layer metrics, the tracing overhead and
  both passes' outputs.

For cli-mix each op is a fresh ``python -m photonpad`` process, except in
``trace`` mode, which replays the same argv in-process through ``cli.main``.
This process never checks outputs: the oracle runs in run.py, so it costs
neither set-up time nor memory here.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time

CLI_TIMEOUT_S = 120.0


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _probe() -> float:
    """Seconds taken by a fixed numpy and Python kernel that never calls the
    program: tensor powers up to 256 x 256 by ``np.kron``, small eigensolves
    and an interpreter loop. Sampled between ops, it shows how fast the host
    runs this process at the time."""
    import numpy as np

    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    h = np.add.outer(np.arange(9.0), np.arange(9.0)) / 9.0
    t0 = time.perf_counter()
    for _ in range(3):
        x = u
        for _ in range(7):
            x = np.kron(x, u)
    for i in range(60):
        np.linalg.eigvalsh(h + i * np.eye(9))
    s = 0
    for i in range(20000):
        s += i % 7
    return time.perf_counter() - t0


def _loop(rounds: list, seconds: float, min_rounds: int, run_one, probes: list | None = None,
          probe_each_op: bool = False) -> tuple[list, float]:
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` are done.

    With ``probes``, the host probe runs after every round (twice), or after
    every op with ``probe_each_op``, and its times are appended to it.
    """
    done = []
    start = time.perf_counter()
    r = 0
    while True:
        distinct = r % len(rounds)
        for pos, call in enumerate(rounds[distinct]):
            done.append(((distinct, pos),) + run_one(call))
            if probes is not None and probe_each_op:
                probes.append(_probe())
        if probes is not None and not probe_each_op:
            probes.extend((_probe(), _probe()))
        r += 1
        if r >= min_rounds and time.perf_counter() - start >= seconds:
            return done, time.perf_counter() - start


def _timed(call) -> tuple:
    t0 = time.perf_counter()
    try:
        out, err = call(), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, err


# -- in-process workloads ---------------------------------------------------


def _program(job: dict):
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import photonpad

    expected = os.path.join(job["root"], "src", "photonpad")
    if os.path.dirname(os.path.abspath(photonpad.__file__)) != os.path.abspath(expected):
        raise RuntimeError(f"imported photonpad from {photonpad.__file__}, not {expected}")
    return photonpad


def _prepare(job: dict, pp) -> tuple[list, list]:
    """Build inputs through the public constructors; return (rounds, warm-up) of calls."""
    import numpy as np

    def ensemble(e):
        if "builtin" in e:
            return {"pauli": pp.pauli_ensemble, "clifford12": pp.clifford12_ensemble}[e["builtin"]]()
        us = np.array([[[complex(*z) for z in row] for row in u] for u in e["unitaries"]])
        return pp.WeightedEnsemble(us, np.array(e["weights"]), name=e["name"])

    def source(s):
        pol = pp.PolarizationSpec(complex(*s["alpha"]), complex(*s["beta"]))
        return pp.SourceSpec(pol, tuple(complex(*c) for c in s["amps"]))

    ensembles = [ensemble(e) for e in job["ensembles"]]
    sources = [source(s) for s in job["sources"]]
    pre = {"none": None, "parity": "parity_dephase", "photon-number": "photon_number_dephase"}

    # Calls look the function up on the package when they run, so the same
    # closures reach the wrappers while tracing and the originals after.
    def call(op):
        if op["kind"] == "analyze":
            e, n = ensembles[op["ens"]], op["N"]
            return lambda: pp.security_report(e, n)
        if op["kind"] == "design":
            e, k = ensembles[op["ens"]], op["k"]
            return lambda: pp.is_k_design(e, k)
        e, a, b, n, p = ensembles[op["ens"]], sources[op["a"]], sources[op["b"]], op["N"], pre[op["pre"]]
        return lambda: pp.leakage(e, a, b, n, pre_channel=None if p is None else getattr(pp, p))

    return [[call(op) for op in ops] for ops in job["rounds"]], [call(op) for op in job["warmup"]]


def _summary(kind: str, out) -> dict:
    if kind == "analyze":
        return {"dev": out.deviations.tolist(), "cls": out.classification.value}
    if kind == "design":
        return {"dev": out.moment_deviation, "fp": out.frame_potential, "hfp": out.haar_frame_potential,
                "passed": out.passed, "frame_passed": out.frame_passed}
    return {"value": float(out)}


def _outputs(job: dict, done: list) -> list:
    kinds = {(r, p): op["kind"] for r, ops in enumerate(job["rounds"]) for p, op in enumerate(ops)}
    return [[list(key), dt, None if err else _summary(kinds[key], out), err]
            for key, dt, out, err in done]


def run_inprocess(job: dict) -> dict:
    mode = job["mode"]
    t0 = time.perf_counter()
    pp = _program(job)
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    rounds, warmup = _prepare(job, pp)
    for call in warmup:
        call()
    setup_s = time.perf_counter() - t0
    if mode == "setup":
        return {"setup_s": setup_s}
    # The job's parsed inputs stay alive for the whole run; keep the
    # collector from rescanning them, which no real caller would pay for.
    gc.collect()
    gc.freeze()
    if tracer is None:
        probes: list = []
        done, elapsed = _loop(rounds, job["seconds"], job["min_rounds"], _timed, probes)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"setup_s": setup_s, "elapsed_s": elapsed, "peak_rss_mb": peak_mb,
                "blas_threads": _blas_threads(), "ops": _outputs(job, done), "probe_s": probes}
    return _trace(job, rounds, tracer, lambda done: _outputs(job, done))


def _trace(job: dict, rounds: list, tracer, outputs) -> dict:
    """Untraced rounds for half the time, then the same ops again with spans on.

    The untraced pass runs first, with the wrappers removed, so neither its
    timing nor its outputs depend on the tracer or on the spans it holds.
    """
    tracer.uninstall()
    done, untraced_s = _loop(rounds, job["seconds"] / 2, 1, _timed)
    tracer.install()
    traced = []
    t0 = time.perf_counter()
    for i, (key, *_) in enumerate(done):
        call = rounds[key[0]][key[1]]
        traced.append((key,) + _timed(lambda: tracer.run_op(i, call)))
    traced_s = time.perf_counter() - t0
    tracer.uninstall()
    tracer.write(job["trace_file"])
    return {"ops_traced": len(traced), "traced_s": traced_s, "untraced_s": untraced_s,
            "layers": tracer.summary(len(traced)), "absent": tracer.absent, "bindings": tracer.bindings,
            "spans": len(tracer.spans), "blas_threads": _blas_threads(),
            "traced": outputs(traced), "untraced": outputs(done)}


# -- cli-mix ------------------------------------------------------------------


def _write_files(job: dict) -> None:
    for name, text in job["files"].items():
        with open(os.path.join(job["workdir"], name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _spawn(job: dict, argv: list) -> tuple[float, int, float, bytes]:
    """Run one CLI process; return (seconds, exit code, its peak RSS in MB, stdout)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(job["root"], "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "photonpad", *argv], cwd=job["workdir"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
                            env=env)
    watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        data = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0, data


def _kept(first: dict, key, code: int, digest: str) -> bool:
    """Keep the payload of the first run of each distinct op and of any run
    that differs from it. The oracle checks every kept payload; every dropped
    one is byte-identical, exit code included, to a kept one."""
    key = tuple(key)
    if key not in first:
        first[key] = (code, digest)
        return True
    return first[key] != (code, digest)


def run_cli(job: dict) -> dict:
    t0 = time.perf_counter()
    _write_files(job)
    for op in job["warmup"]:
        _spawn(job, op["argv"])
    setup_s = time.perf_counter() - t0
    if job["mode"] == "setup":
        return {"setup_s": setup_s}
    probes: list = []
    done, elapsed = _loop(job["rounds"], job["seconds"], job["min_rounds"],
                          lambda op: _spawn(job, op["argv"]), probes, probe_each_op=True)
    first: dict = {}
    ops = []
    for i, (key, dt, code, _, data) in enumerate(done):
        digest = hashlib.sha256(data).hexdigest()
        path = None
        if _kept(first, key, code, digest):
            path = os.path.join(job["workdir"], f"out-{i}")
            with open(path, "wb") as fh:
                fh.write(data)
        ops.append([list(key), dt, {"code": code, "sha": digest, "path": path}, None])
    return {"setup_s": setup_s, "elapsed_s": elapsed, "blas_threads": None,
            "peak_rss_mb": max(entry[3] for entry in done), "ops": ops, "probe_s": probes}


def run_cli_trace(job: dict) -> dict:
    os.chdir(job["workdir"])
    _program(job)
    import photonpad.cli as cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    _write_files(job)

    def call(argv):
        def run():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, stdout.getvalue()
        return run

    for op in job["warmup"]:
        call(op["argv"])()
    rounds = [[call(op["argv"]) for op in ops] for ops in job["rounds"]]
    first: dict = {}

    def outputs(done):
        out = []
        for key, dt, result, err in done:
            if err is not None:
                out.append([list(key), dt, None, err])
                continue
            code, text = result
            digest = hashlib.sha256(text.encode()).hexdigest()
            keep = _kept(first, key, code, digest)
            out.append([list(key), dt, {"code": code, "sha": digest, "text": text if keep else None}, None])
        return out

    return _trace(job, rounds, tracer, outputs)


def main() -> int:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    if job["workload"] == "cli-mix":
        result = run_cli_trace(job) if job["mode"] == "trace" else run_cli(job)
    else:
        result = run_inprocess(job)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
