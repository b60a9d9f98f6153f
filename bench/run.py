"""photonpad benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload analyze-sweep --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off, ``--trace 1``
the per-layer metrics from a separate traced run. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
``{"detail": ...}`` record with the environment, the inputs and the checks.

    python3 bench/run.py --workload all --seed 1 --seconds 22

runs every workload both ways and prints every metric by name with its unit.
Every op's output is checked against ``oracle.py`` outside the timed loop.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy loads, here and in every process started
# from here. One thread is within every machine's core count and keeps the
# timings free of thread scheduling.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from oracle import Oracle  # noqa: E402
from workloads import SPECS, WORKLOADS, build_job  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
# Set-up is measured in this many fresh processes and reported as the median.
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 170
# Median time of the host probe (worker._probe) on the host the benchmark was
# defined on, a shared 2-vCPU x86_64 VM. Latencies are scaled to that speed.
PROBE_REF_MS = 5.8
# The traced and untraced runs of one op must agree this closely.
SAME_RTOL = 1e-12

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB"}
_LAYER_UNITS = {"calls_per_op": "count", "self_ms_per_op": "ms", "unique_ratio": "ratio",
                "share_of_op": "ratio", "bytes_per_op": "B_computed", "build_ms": "ms",
                "ops_per_s_traced": "1/s", "ops_per_s_untraced": "1/s", "overhead_ratio": "ratio",
                "failed_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def layer_unit(name: str) -> str:
    return _LAYER_UNITS[name.rsplit(".", 1)[1]]


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads_pinned": BLAS_THREADS, "machine": platform.machine()}


def _worker(job: dict, mode: str, tmp: Path) -> dict:
    job_path, result_path = tmp / f"job-{mode}.json", tmp / f"result-{mode}.json"
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(dict(job, mode=mode), fh)
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), str(job_path), str(result_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"{mode} worker exited {proc.returncode}: " + " | ".join(tail))
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


class _Checker:
    """Checks op outputs against the oracle; repeats of a CLI payload share one verdict."""

    def __init__(self, job: dict):
        self.job = job
        self.oracle = Oracle(job)
        self.failures: list[str] = []
        self._cli: dict = {}

    def errors(self, key, out, err) -> list[str]:
        if err is not None:
            return [f"raised {err}"]
        op = self.job["rounds"][key[0]][key[1]]
        if op["kind"] != "cli":
            return self.oracle.check(tuple(key), op, out)
        verdict = (tuple(key), out["code"], out["sha"])
        if verdict not in self._cli:
            text = out.get("text")
            if text is None:
                with open(out["path"], encoding="utf-8") as fh:
                    text = fh.read()
            self._cli[verdict] = self.oracle.check_cli(tuple(key), op["argv"], text, out["code"])
        return self._cli[verdict]

    def check(self, entries: list) -> list[bool]:
        """One flag per op: True when its output is correct."""
        flags = []
        for key, _, out, err in entries:
            errs = self.errors(key, out, err)
            if errs:
                self.failures.append(f"op {key} {self._label(key)}: {'; '.join(errs[:3])}")
            flags.append(not errs)
        return flags

    def _label(self, key) -> str:
        op = self.job["rounds"][key[0]][key[1]]
        return " ".join(op["argv"]) if op["kind"] == "cli" else json.dumps(op)


def _same_outputs(traced, untraced) -> bool:
    """Same verdicts, same exit codes and the same numbers within SAME_RTOL."""
    if (traced[3] is None) != (untraced[3] is None) or traced[0] != untraced[0]:
        return False
    a, b = traced[2], untraced[2]
    if a is None or b is None:
        return a is b
    if "code" in a:
        return a["code"] == b["code"]
    for name in a:
        x, y = a[name], b[name]
        if isinstance(x, (str, bool)):
            if x != y:
                return False
        elif not np.allclose(x, y, rtol=SAME_RTOL, atol=SAME_RTOL):
            return False
    return True


def _repeat_share(job: dict, entries: list) -> float:
    seen, repeats = set(), 0
    for key, *_ in entries:
        ident = json.dumps(job["rounds"][key[0]][key[1]], sort_keys=True)
        repeats += ident in seen
        seen.add(ident)
    return repeats / len(entries)


def at_reference_speed(lat_ms: np.ndarray, probe_ms: np.ndarray) -> tuple[np.ndarray, float]:
    """(latencies scaled to the reference host speed, this run's host speed).

    A shared host runs this process up to about 1.8x slower for stretches of
    seconds to minutes, so raw latencies largely measure how busy the host
    was. The host probe, timed between ops, slows down with it. Its median
    time in the run against ``PROBE_REF_MS`` is the run's host speed, and
    every latency is multiplied by it.
    """
    host_speed = PROBE_REF_MS / float(np.median(probe_ms))
    return lat_ms * host_speed, host_speed


def _untraced(job: dict, tmp: Path, detail: dict) -> dict:
    spec = SPECS[job["workload"]]
    setups = [_worker(job, "setup", tmp)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    res = _worker(job, "run", tmp)
    setups.append(res["setup_s"])
    checker = _Checker(job)
    ok = checker.check(res["ops"])
    raw_ms = np.array([dt for _, dt, _, _ in res["ops"]]) * 1e3
    probe_ms = np.array(res["probe_s"]) * 1e3
    lat_ms, host_speed = at_reference_speed(raw_ms, probe_ms)
    tail = float(np.percentile(lat_ms, spec.tail_percentile))
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat_ms) / (lat_ms.sum() / 1e3),
        "op_p50_ms": float(np.median(lat_ms)),
        "op_tail_ms": tail,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail.update(
        host_probe_ms={"median": float(np.median(probe_ms)), "min": float(probe_ms.min()),
                       "samples": len(probe_ms), "reference": PROBE_REF_MS},
        host_speed=host_speed,
        unscaled={"ops_per_s": len(raw_ms) / (raw_ms.sum() / 1e3), "op_p50_ms": float(np.median(raw_ms)),
                     "op_tail_ms": float(np.percentile(raw_ms, spec.tail_percentile))},
        ops=len(lat_ms), rounds=len(lat_ms) // len(job["rounds"][0]), elapsed_s=res["elapsed_s"],
        setup_runs_s=setups, blas_threads_reported=res["blas_threads"],
        tail={"percentile": spec.tail_percentile, "samples": len(lat_ms),
              "beyond": int(np.sum(lat_ms > tail))},
        repeat_share=_repeat_share(job, res["ops"]), failed_ratio=ok.count(False) / len(ok),
        failures=checker.failures[:10],
    )
    return _result(len(ok), ok.count(False), {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


def _traced(job: dict, tmp: Path, detail: dict) -> dict:
    res = _worker(job, "trace", tmp)
    checker = _Checker(job)
    ok_traced = checker.check(res["traced"])
    ok_untraced = checker.check(res["untraced"])
    ok = []
    for traced, untraced, a, b in zip(res["traced"], res["untraced"], ok_traced, ok_untraced):
        same = _same_outputs(traced, untraced)
        if not same:
            checker.failures.append(f"op {traced[0]}: traced and untraced outputs differ")
        ok.append(a and b and same)
    n = res["ops_traced"]
    layers = dict(res["layers"])
    layers["trace.ops_per_s_traced"] = n / res["traced_s"]
    layers["trace.ops_per_s_untraced"] = n / res["untraced_s"]
    layers["trace.overhead_ratio"] = res["traced_s"] / res["untraced_s"]
    layers["op.failed_ratio"] = ok.count(False) / len(ok)
    detail.update(
        ops=n, spans=res["spans"], absent=res["absent"], bindings=res["bindings"],
        blas_threads_reported=res["blas_threads"], trace_file=os.path.relpath(job["trace_file"], ROOT),
        repeat_share=_repeat_share(job, res["traced"]), failed_ratio=layers["op.failed_ratio"],
        failures=checker.failures[:10],
    )
    return _result(len(ok), ok.count(False), {k: (v, layer_unit(k)) for k, v in layers.items()})


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """(result, detail) of one run."""
    if not (ROOT / "src" / "photonpad" / "__init__.py").is_file():
        raise FileNotFoundError(f"no photonpad sources under {ROOT / 'src'}")
    job = build_job(workload, seed, tiny)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    job.update(root=str(ROOT), workdir=str(tmp), seconds=float(seconds),
               trace_file=str(OUT_DIR / f"trace-{workload}.jsonl"))
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "tiny": tiny, "env": _environment()}
    try:
        result = (_traced if trace else _untraced)(job, tmp, detail)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return result, detail


def _report(seed: int, seconds: float, tiny: bool) -> int:
    """Every workload, untraced and traced: one line per metric."""
    all_correct = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result, detail = run_workload(workload, seed, seconds, trace, tiny)
            all_correct &= result["correct"]
            for name, m in result["metrics"].items():
                print(f"{workload:14s} {name:44s} {m['value']:14.6g} {m['unit']}")
            print(f"{workload:14s} {'failed_ratio (trace ' + str(int(trace)) + ')':44s} "
                  f"{detail['failed_ratio']:14.6g} ratio")
            for failure in detail["failures"]:
                print(f"{workload:14s} FAILED {failure}")
            sys.stdout.flush()
    print("all outputs correct" if all_correct else "SOME OUTPUTS WRONG")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="cap N and k at 2 and run one round: a quick smoke run")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return _report(args.seed, args.seconds, args.tiny)
        result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (BenchError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
