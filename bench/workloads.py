"""Seeded inputs for the four benchmark workloads.

Only numpy is used here: the program under test never runs in this module.
``build_job`` turns (workload, seed) into a JSON-ready job: the ensembles and
sources as plain numbers, a list of distinct *rounds* of ops, and the warm-up
ops. The timed loop in ``worker.py`` runs whole rounds, cycling through the
distinct rounds if the program is fast enough to finish them all.

Every round of a workload has the same fixed composition of op shapes
(photon bound N, design order k, ensemble size). The seed draws the unitaries,
weights, sources and the order of ops inside each round, so runs with
different seeds do the same amount of work and their timings are comparable.
The compositions are chosen so that the median and the tail percentile fall
inside a group of equally expensive ops, not on the edge between two groups:
otherwise a one-op change in the count would jump from one cost level to the
next.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("analyze-sweep", "design-ladder", "leakage-pairs", "cli-mix")
PRE_CHANNELS = ("none", "parity", "photon-number")
MAX_K = 4


@dataclass(frozen=True)
class Spec:
    tail_percentile: float
    # Whole rounds run until --seconds have passed and at least this many
    # rounds are done, so that the tail percentile has >= 10 samples beyond it.
    min_rounds: int
    # Distinct rounds generated; a faster program cycles through them again.
    # This bounds the oracle's work (it checks each distinct op once).
    distinct_rounds: int


SPECS = {
    "analyze-sweep": Spec(90.0, 10, 120),
    "design-ladder": Spec(90.0, 10, 100),
    "leakage-pairs": Spec(90.0, 4, 200),
    "cli-mix": Spec(75.0, 3, 30),
}

# (N, ensemble) per analyze op; an int is the size of a fresh random ensemble.
# Sorted by cost, the two N=8 ops on 4 elements are ranks 6-7 (the median)
# and the two N=8 ops on 8 elements ranks 11-12 (the p90). Both statistics
# sit on large-N ops: on a shared host the small, call-bound ops vary far
# more from run to run than the large ones.
ANALYZE_SLOTS = [(1, 24), (2, 20), (3, "pauli"), (4, "clifford12"), (5, 4), (8, 4), (8, 4),
                 (6, 15), (7, 9), (6, 16), (8, 8), (8, 8)]
# (k, ensemble): six k=4 ops hold both the median and the p90, for the same
# reason; the k=4 cost is mostly the Haar moment, so they cost about the same.
DESIGN_SLOTS = [(1, "pauli"), (2, "clifford12"), (3, 12), (3, "clifford12"), (4, 4), (4, "pauli"),
                (4, 8), (4, "clifford12"), (4, 16), (4, 24)]
# (N, pool ensemble) per group of three leakage ops, one per pre-channel.
LEAKAGE_POOL = {"pauli": "pauli", "clifford12": "clifford12", "A": 6, "B": 8, "C": 16, "D": 24}
LEAKAGE_SLOTS = [(1, "D"), (2, "C"), (3, "pauli"), (4, "B"), (5, "clifford12"),
                 (5, "clifford12"), (6, "C"), (7, "A"), (8, "B"), (8, "B")]
# Size of the random ensemble in each cli-mix round's ensemble file.
CLI_ENSEMBLE_SIZE = 8


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary: QR of a complex Gaussian, phases fixed by R's diagonal."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_ensemble(rng: np.random.Generator, size: int, name: str) -> dict:
    us = [random_unitary(rng) for _ in range(size)]
    ws = rng.random(size) + 0.1
    ws = ws / ws.sum()
    return {
        "name": name,
        "unitaries": [[[_pair(z) for z in row] for row in u] for u in us],
        "weights": [float(w) for w in ws],
    }


def random_source(rng: np.random.Generator, top: int, parity: int | None = None) -> dict:
    """Random polarization and photon-number amplitudes on sectors 0..top."""
    pol = rng.normal(size=2) + 1j * rng.normal(size=2)
    pol = pol / np.linalg.norm(pol)
    amps = rng.normal(size=top + 1) + 1j * rng.normal(size=top + 1)
    if parity is not None:
        amps[[n for n in range(top + 1) if n % 2 != parity]] = 0.0
    amps = amps / np.linalg.norm(amps)
    return {"alpha": _pair(pol[0]), "beta": _pair(pol[1]), "amps": [_pair(c) for c in amps]}


def complex_token(z: complex) -> str:
    """A CLI complex literal that parses back to exactly the same float pair."""
    z = complex(z)
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


class _Inputs:
    def __init__(self, workload: str, seed: int, tiny: bool):
        self.rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
        self.tiny = tiny
        self.ensembles: list[dict] = []
        self.sources: list[dict] = []
        self.builtin_index: dict[str, int] = {}

    def cap(self, value: int) -> int:
        """A photon bound or design order, capped at 2 in a tiny run."""
        return min(value, 2) if self.tiny else value

    def ensemble(self, kind, name: str) -> int:
        if isinstance(kind, str):
            if kind not in self.builtin_index:
                self.builtin_index[kind] = len(self.ensembles)
                self.ensembles.append({"name": kind, "builtin": kind})
            return self.builtin_index[kind]
        size = min(kind, 4) if self.tiny else kind
        self.ensembles.append(random_ensemble(self.rng, size, name))
        return len(self.ensembles) - 1

    def source(self, top: int, parity: int | None = None) -> int:
        self.sources.append(random_source(self.rng, top, parity))
        return len(self.sources) - 1

    def shuffled(self, ops: list) -> list:
        return [ops[i] for i in self.rng.permutation(len(ops))]


def _analyze(b: _Inputs, spec: Spec) -> tuple[list, list, dict]:
    rounds = []
    for r in range(spec.distinct_rounds):
        ops = [{"kind": "analyze", "ens": b.ensemble(ens, f"rand-r{r}s{i}"), "N": b.cap(n)}
               for i, (n, ens) in enumerate(ANALYZE_SLOTS)]
        rounds.append(b.shuffled(ops))
    warmup = [{"kind": "analyze", "ens": b.ensemble("pauli", "pauli"), "N": 2}]
    return rounds, warmup, {}


def _design(b: _Inputs, spec: Spec) -> tuple[list, list, dict]:
    rounds = []
    for r in range(spec.distinct_rounds):
        ops = [{"kind": "design", "ens": b.ensemble(ens, f"rand-r{r}s{i}"), "k": b.cap(k)}
               for i, (k, ens) in enumerate(DESIGN_SLOTS)]
        rounds.append(b.shuffled(ops))
    pauli = b.ensemble("pauli", "pauli")
    warmup = [{"kind": "design", "ens": pauli, "k": k} for k in range(1, b.cap(MAX_K) + 1)]
    return rounds, warmup, {}


def _leakage(b: _Inputs, spec: Spec) -> tuple[list, list, dict]:
    pool = {label: b.ensemble(kind, f"pool-{label}") for label, kind in LEAKAGE_POOL.items()}
    rounds = []
    for _ in range(spec.distinct_rounds):
        ops = []
        for n, label in LEAKAGE_SLOTS:
            top = b.cap(n)
            for pre in PRE_CHANNELS:
                ops.append({"kind": "leakage", "ens": pool[label], "a": b.source(top),
                            "b": b.source(top), "N": top, "pre": pre})
        rounds.append(b.shuffled(ops))
    fixed_a = b.source(2)
    fixed_b = b.source(2)
    warmup = [{"kind": "leakage", "ens": pool["pauli"], "a": fixed_a, "b": fixed_b, "N": 2, "pre": pre}
              for pre in PRE_CHANNELS]
    return rounds, warmup, {}


def _ensemble_file(b: _Inputs, index: int) -> str:
    e = b.ensembles[index]
    payload = {
        "name": e["name"],
        "elements": [{"weight": w, "unitary": u} for w, u in zip(e["weights"], e["unitaries"])],
    }
    return json.dumps(payload)


def _source_file(b: _Inputs, index: int) -> str:
    s = b.sources[index]
    return json.dumps({"alpha": s["alpha"], "beta": s["beta"], "photon_amplitudes": s["amps"]})


def _cli(b: _Inputs, spec: Spec) -> tuple[list, list, dict]:
    """Seventeen CLI runs per round, the same shapes in every round.

    Ten are light (mostly interpreter start and import) and hold the median.
    haar at N=4 and 6 come next, four design-check --k 4 runs hold the p75,
    and haar at N=8 gives the peak memory. Every subcommand runs in both
    formats. The seed draws the ensemble file, the sources, the lift
    unitary, the appendix-B parameters and the order of the round.
    """
    files: dict[str, str] = {}
    rounds = []
    json_, text = ("--format", "json"), ("--format", "text")
    for r in range(spec.distinct_rounds):
        ens_path = f"ens-r{r}.json"
        files[ens_path] = _ensemble_file(b, b.ensemble(CLI_ENSEMBLE_SIZE, f"cli-r{r}"))
        src = [b.source(b.cap(3)), b.source(b.cap(3)), b.source(2, parity=0), b.source(2, parity=0)]
        src_paths = [f"src-r{r}-{i}.json" for i in range(4)]
        for path, index in zip(src_paths, src):
            files[path] = _source_file(b, index)
        u = random_unitary(b.rng)
        c = complex(b.rng.uniform(0.0, 0.95) * np.exp(2j * np.pi * b.rng.random()))
        pol = b.rng.normal(size=2) + 1j * b.rng.normal(size=2)
        pol = pol / np.linalg.norm(pol)
        argvs = [
            ["analyze", "--ensemble", ens_path, "--max-photons", str(b.cap(4)), *json_],
            ["analyze", "--ensemble", "pauli", "--max-photons", str(b.cap(3)), *text],
            ["design-check", "--ensemble", ens_path, "--k", str(b.cap(2)), *text],
            ["leakage", "--ensemble", ens_path, "--max-photons", str(b.cap(3)), "--dephase", "photon-number",
             src_paths[0], src_paths[1], *json_],
            ["leakage", "--ensemble", "clifford12", "--max-photons", "2", "--dephase", "parity",
             src_paths[2], src_paths[3], *text],
            ["haar", "--max-photons", "0", *text],
            ["haar", "--max-photons", str(b.cap(2)), *json_],
            ["lift", "--n", str(b.cap(8)), "--unitary=" + ",".join(complex_token(z) for z in u.reshape(-1)),
             *json_],
            ["reproduce", "appendix-a", *text],
            ["reproduce", "appendix-b", f"--c={complex_token(c)}", f"--alpha={complex_token(pol[0])}",
             f"--beta={complex_token(pol[1])}", *json_],
            ["haar", "--max-photons", str(b.cap(4)), *text],
            ["haar", "--max-photons", str(b.cap(6)), *json_],
            *[["design-check", "--ensemble", ens, "--k", str(b.cap(4)), *fmt]
              for ens in (ens_path, "clifford12") for fmt in (json_, text)],
            ["haar", "--max-photons", str(b.cap(8)), *json_],
        ]
        rounds.append(b.shuffled([{"kind": "cli", "argv": argv} for argv in argvs]))
    wa, wb = b.source(1), b.source(1)
    files["warm-a.json"] = _source_file(b, wa)
    files["warm-b.json"] = _source_file(b, wb)
    warmup = [{"kind": "cli", "argv": argv} for argv in (
        ["analyze", "--ensemble", "pauli", "--max-photons", "1"],
        ["design-check", "--ensemble", "pauli", "--k", "1"],
        ["leakage", "--ensemble", "pauli", "--max-photons", "1", "warm-a.json", "warm-b.json"],
        ["haar", "--max-photons", "1"],
        ["lift", "--n", "1", "--unitary", "0,1,1,0"],
        ["reproduce", "appendix-a"],
        ["reproduce", "appendix-b", "--c", "0.6", "--alpha", "1", "--beta", "0"],
    )]
    return rounds, warmup, files


_BUILDERS = {"analyze-sweep": _analyze, "design-ladder": _design,
             "leakage-pairs": _leakage, "cli-mix": _cli}


def build_job(workload: str, seed: int, tiny: bool = False) -> dict:
    """All inputs of one run, as plain JSON-ready data."""
    spec = SPECS[workload]
    b = _Inputs(workload, seed, tiny)
    rounds, warmup, files = _BUILDERS[workload](b, spec)
    return {
        "workload": workload,
        "ensembles": b.ensembles,
        "sources": b.sources,
        "rounds": rounds,
        "warmup": warmup,
        "files": files,
        "min_rounds": 1 if tiny else spec.min_rounds,
    }


def ensemble_arrays(ensemble: dict, builtins: dict) -> tuple[np.ndarray, np.ndarray]:
    """(unitaries, weights) of a job ensemble; built-ins come from ``builtins``."""
    if "builtin" in ensemble:
        return builtins[ensemble["builtin"]]
    us = np.array([[[complex(*z) for z in row] for row in u] for u in ensemble["unitaries"]])
    return us, np.array(ensemble["weights"], dtype=np.float64)


def source_arrays(source: dict) -> tuple[complex, complex, np.ndarray]:
    return (complex(*source["alpha"]), complex(*source["beta"]),
            np.array([complex(*c) for c in source["amps"]]))
