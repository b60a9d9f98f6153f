"""Independent references for every benchmark op.

Nothing here imports photonpad. The references are the benchmark's own dense
constructions: a symmetric embedding built from bit counts, ``np.kron``
tensor powers, the Haar moment operator as the projector onto the span of
qubit permutation operators (Schur-Weyl duality), and recorded values (the
Catalan numbers as Haar frame potentials, the appendix-A (2,1) block and the
built-in ensembles as defined in the package documentation). They keep
working when the program's own dense helpers leave its public API.

``Oracle.check`` returns a list of error strings for one op and its output;
an empty list means the output is correct. Each distinct op is computed once
and the value is reused for repeats.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from functools import lru_cache, reduce

import numpy as np

from workloads import ensemble_arrays, source_arrays

# Tolerances of the comparisons, not of the program's verdicts.
DEV_TOL = 1e-9          # Choi-block deviations and leakage values
MOMENT_TOL = 1e-8       # moment deviations (the program integrates by quadrature)
PRINT_TOL = 1e-11       # numbers printed with 12 decimals
VERDICT_TOL = 1e-9      # the program's default verdict tolerance for analyze/design/leakage
REPRO_TOL = 1e-10       # default tolerance of the reproduce commands

# Haar frame potentials of a qubit: the Catalan numbers.
CATALAN = {1: 1.0, 2: 2.0, 3: 5.0, 4: 14.0}

EXIT_CODES = {"SECURE": 0, "PARITY_SECURE": 3, "INSECURE": 2}

_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _rotation(theta: float, axis) -> np.ndarray:
    n = np.asarray(axis, dtype=np.float64) / np.linalg.norm(axis)
    return math.cos(theta / 2) * np.eye(2) + 1j * math.sin(theta / 2) * (
        n[0] * _SX + n[1] * _SY + n[2] * _SZ)


def _builtins() -> dict:
    pauli = np.stack([np.eye(2, dtype=np.complex128), _SX, _SY, _SZ])
    rots = [np.eye(2, dtype=np.complex128)] + [_rotation(math.pi, a) for a in np.eye(3)]
    rots += [_rotation(2 * math.pi / 3, [(-1) ** k, (-1) ** l, (-1) ** m])
             for k, l, m in itertools.product((0, 1), repeat=3)]
    return {"pauli": (pauli, np.full(4, 0.25)),
            "clifford12": (np.stack(rots), np.full(12, 1.0 / 12.0))}


BUILTINS = _builtins()


def _appendix_a_reference() -> np.ndarray:
    """The recorded 9x4 (2,1) Choi block of the twelve-rotation ensemble."""
    a, b, c = (3 + 1j) / 12, (1 + 1j) / 12, 1 / (3 * math.sqrt(2))
    bc = np.conj(b)
    return np.array([
        [a, 0, 0, -b], [0, c, 0, 0], [0, b, -bc, 0], [0, 0, c, 0], [bc, -bc, b, b],
        [0, c, 0, 0], [0, b, -bc, 0], [0, 0, c, 0], [-bc, 0, 0, np.conj(a)],
    ], dtype=np.complex128)


APPENDIX_A = _appendix_a_reference()
APPENDIX_A_CHECKSUM = 0.5


@lru_cache(maxsize=None)
def sym_embedding(n: int) -> np.ndarray:
    """Columns: normalized symmetric n-qubit states, column c has c ones (vertical photons)."""
    ones = np.array([bin(i).count("1") for i in range(1 << n)], dtype=np.int64)
    v = np.zeros((1 << n, n + 1))
    v[np.arange(1 << n), ones] = 1.0
    return v / np.sqrt([math.comb(n, c) for c in range(n + 1)])


def kron_power(u: np.ndarray, n: int) -> np.ndarray:
    return reduce(np.kron, [u] * n, np.eye(1, dtype=np.complex128))


def lift_batch(us: np.ndarray, n: int) -> np.ndarray:
    """V^T (U^(x n)) V for a stack of unitaries, shape (s, n+1, n+1).

    The tensor power is applied one factor at a time to the columns of V
    instead of being formed as a 2^n x 2^n matrix, which keeps the reference
    cheap enough to check every distinct op.
    """
    v = sym_embedding(n)
    x = np.broadcast_to(v, (len(us),) + v.shape).astype(np.complex128)
    for i in range(n):
        x = np.einsum("sab,sibj->siaj", us, x.reshape(len(us), 1 << i, 2, -1))
    return np.einsum("ai,saj->sij", v, x.reshape(len(us), 1 << n, n + 1))


def lift(u: np.ndarray, n: int) -> np.ndarray:
    return lift_batch(np.asarray(u)[None], n)[0]


def haar_projector(k: int) -> np.ndarray:
    """Projector onto span{vec(P_pi)}: the twirl over U(2) of k-fold operators."""
    dim = 1 << k
    digits = np.array(list(itertools.product((0, 1), repeat=k)))
    weights = 1 << np.arange(k - 1, -1, -1)
    rows = []
    for perm in itertools.permutations(range(k)):
        p = np.zeros((dim, dim))
        p[digits[:, list(perm)] @ weights, np.arange(dim)] = 1.0
        rows.append(p.reshape(-1))
    _, s, vh = np.linalg.svd(np.array(rows), full_matrices=False)
    basis = vh[: int(np.sum(s > 1e-10 * s[0]))]
    return basis.T @ basis.conj()


def classify(deviations: np.ndarray, tol: float) -> str:
    fails = np.argwhere(deviations > tol)
    if len(fails) == 0:
        return "SECURE"
    if all((m - n) % 2 for m, n in fails):
        return "PARITY_SECURE"
    return "INSECURE"


def _offsets(top: int) -> list[int]:
    return [n * (n + 1) // 2 for n in range(top + 1)]


def _close(label: str, got, want, atol: float, errors: list, rtol: float = 0.0) -> None:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        errors.append(f"{label}: shape {got.shape} != reference {want.shape}")
    elif not np.all(np.abs(got - want) <= atol + rtol * np.abs(want)):
        errors.append(f"{label}: max deviation {np.max(np.abs(got - want)):.3e} from reference")


def _same(label: str, got, want, errors: list) -> None:
    if got != want:
        errors.append(f"{label}: {got!r} != reference {want!r}")


_ROW_TOKEN = re.compile(r"([+-]\d+\.\d+)([+-]\d+\.\d+)i")


def _parse_rows(lines: list[str]) -> np.ndarray:
    return np.array([[complex(float(a), float(b)) for a, b in _ROW_TOKEN.findall(line)] for line in lines])


def _pairs(entries) -> np.ndarray:
    return np.array([[complex(re_, im) for re_, im in row] for row in entries])


def _argv_options(argv: list[str]) -> tuple[dict, list]:
    opts, pos, i = {}, [], 0
    while i < len(argv):
        token = argv[i]
        if token.startswith("--"):
            if "=" in token:
                key, value = token[2:].split("=", 1)
                i += 1
            else:
                key, value = token[2:], argv[i + 1]
                i += 2
            opts[key] = value
        else:
            pos.append(token)
            i += 1
    return opts, pos


def parse_literal(token: str) -> complex:
    return complex(token[:-1] + "j") if token.endswith("i") else complex(token)


class Oracle:
    """References for one job's ops, computed lazily and cached."""

    def __init__(self, job: dict):
        self.job = job
        self.ensembles = [ensemble_arrays(e, BUILTINS) for e in job["ensembles"]]
        self._file_ensembles: dict[str, tuple] = {}
        self._lifts: dict = {}
        self._projectors: dict = {}
        self._values: dict = {}

    # -- references -------------------------------------------------------

    def _ensemble(self, ref) -> tuple:
        if isinstance(ref, int):
            return self.ensembles[ref]
        if ref in BUILTINS:
            return BUILTINS[ref]
        if ref not in self._file_ensembles:
            data = json.loads(self.job["files"][ref])
            us = np.array([_pairs(el["unitary"]) for el in data["elements"]])
            ws = np.array([el["weight"] for el in data["elements"]], dtype=np.float64)
            self._file_ensembles[ref] = (us, ws)
        return self._file_ensembles[ref]

    def lifts(self, ref, n: int) -> np.ndarray:
        key = (ref, n)
        if key not in self._lifts:
            us, _ = self._ensemble(ref)
            self._lifts[key] = lift_batch(us, n)
        return self._lifts[key]

    def deviations(self, ref, top: int) -> np.ndarray:
        _, ws = self._ensemble(ref)
        vecs = [self.lifts(ref, n).reshape(len(ws), -1) for n in range(top + 1)]
        dev = np.zeros((top + 1, top + 1))
        for m in range(top + 1):
            for n in range(top + 1):
                block = (vecs[m] * ws[:, None]).T @ vecs[n].conj()
                if m == n:
                    block = block - np.eye((n + 1) ** 2) / (n + 1)
                dev[m, n] = np.linalg.norm(block)
        return dev

    def projector(self, k: int) -> np.ndarray:
        if k not in self._projectors:
            self._projectors[k] = haar_projector(k)
        return self._projectors[k]

    def design(self, ref, k: int) -> dict:
        us, ws = self._ensemble(ref)
        moment = np.zeros((4**k, 4**k), dtype=np.complex128)
        for w, u in zip(ws, us):
            uk = kron_power(u, k)
            moment += w * np.kron(uk, uk.conj())
        overlaps = np.abs(np.einsum("iab,jab->ij", us.conj(), us)) ** (2 * k)
        fp = float(ws @ overlaps @ ws)
        return {"dev": float(np.linalg.norm(moment - self.projector(k))), "fp": fp,
                "hfp": CATALAN[k], "gap": fp - CATALAN[k]}

    def state(self, alpha: complex, beta: complex, amps, top: int) -> np.ndarray:
        pol = np.array([alpha, beta])
        vec = np.zeros((top + 1) * (top + 2) // 2, dtype=np.complex128)
        for n, (off, c) in enumerate(zip(_offsets(top), amps)):
            vec[off: off + n + 1] = c * (sym_embedding(n).T @ kron_power(pol[:, None], n)[:, 0])
        return vec

    def encrypt(self, ref, rho: np.ndarray, top: int) -> np.ndarray:
        _, ws = self._ensemble(ref)
        offs = _offsets(top)
        out = np.zeros_like(rho)
        for j, w in enumerate(ws):
            big = np.zeros_like(rho)
            for n, off in enumerate(offs):
                big[off: off + n + 1, off: off + n + 1] = self.lifts(ref, n)[j]
            out += w * (big @ rho @ big.conj().T)
        return out

    def leakage(self, ref, src_a, src_b, top: int, pre: str) -> float:
        sector = np.repeat(np.arange(top + 1), np.arange(1, top + 2))
        if pre == "parity":
            mask = (sector[:, None] - sector[None, :]) % 2 == 0
        elif pre == "photon-number":
            mask = sector[:, None] == sector[None, :]
        else:
            mask = np.ones((len(sector), len(sector)), dtype=bool)
        outs = []
        for alpha, beta, amps in (src_a, src_b):
            vec = self.state(alpha, beta, amps, top)
            outs.append(self.encrypt(ref, np.outer(vec, vec.conj()) * mask, top))
        diff = outs[0] - outs[1]
        return 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())

    def _cached(self, key, fn):
        if key not in self._values:
            self._values[key] = fn()
        return self._values[key]

    # -- checks -----------------------------------------------------------

    def check(self, key, op: dict, output) -> list[str]:
        """Errors for one in-process op; ``key`` identifies the distinct op."""
        errors: list[str] = []
        kind = op["kind"]
        if kind == "analyze":
            dev = self._cached(key, lambda: self.deviations(op["ens"], op["N"]))
            _close("deviations", output["dev"], dev, DEV_TOL, errors)
            _same("classification", output["cls"], classify(dev, VERDICT_TOL), errors)
        elif kind == "design":
            ref = self._cached(key, lambda: self.design(op["ens"], op["k"]))
            _close("moment_deviation", output["dev"], ref["dev"], MOMENT_TOL, errors)
            _close("frame_potential", output["fp"], ref["fp"], DEV_TOL, errors, rtol=DEV_TOL)
            _close("haar_frame_potential", output["hfp"], ref["hfp"], DEV_TOL, errors)
            _same("passed", output["passed"], ref["dev"] <= VERDICT_TOL, errors)
            # the frame-potential cross-check must give the same verdict
            _same("passed vs frame gap", output["passed"], ref["gap"] <= VERDICT_TOL, errors)
            _same("frame_passed", output["frame_passed"], ref["gap"] <= VERDICT_TOL, errors)
        elif kind == "leakage":
            sources = self.job["sources"]
            value = self._cached(key, lambda: self.leakage(
                op["ens"], source_arrays(sources[op["a"]]), source_arrays(sources[op["b"]]),
                op["N"], op["pre"]))
            _close("leakage", output["value"], value, DEV_TOL, errors)
        else:
            errors.append(f"unknown op kind {kind!r}")
        return errors

    def check_cli(self, key, argv: list[str], stdout: str, code: int) -> list[str]:
        """Errors for one CLI run: its exit code and its JSON or text payload."""
        errors: list[str] = []
        opts, pos = _argv_options(argv)
        text = opts.get("format", "json") == "text"
        cmd = pos[0] if pos[0] != "reproduce" else "reproduce/" + pos[1]
        try:
            payload = None if text else json.loads(stdout)
            want_code = getattr(self, "_cli_" + cmd.replace("-", "_").replace("/", "_"))(
                key, opts, pos, payload, stdout.splitlines(), errors)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            errors.append(f"unreadable {cmd} output: {exc!r}")
            return errors
        _same("exit code", code, want_code, errors)
        return errors

    def _cli_analyze(self, key, opts, pos, payload, lines, errors) -> int:
        top = int(opts["max-photons"])
        dev = self._cached(key, lambda: self.deviations(opts["ensemble"], top))
        cls = classify(dev, VERDICT_TOL)
        if payload is not None:
            got = np.zeros_like(dev)
            for b in payload["blocks"]:
                got[b["m"], b["n"]] = b["deviation"]
            _close("deviations", got, dev, DEV_TOL, errors)
            _same("classification", payload["classification"], cls, errors)
        else:
            got = np.zeros_like(dev)
            for line in lines:
                m = re.match(r"block \((\d+),(\d+)\): deviation (\S+) (ok|FAIL)$", line)
                if m:
                    got[int(m[1]), int(m[2])] = float(m[3])
                    _same(f"block ({m[1]},{m[2]}) status", m[4],
                          "ok" if dev[int(m[1]), int(m[2])] <= VERDICT_TOL else "FAIL", errors)
            _close("printed deviations", got, dev, 1e-12, errors, rtol=1e-6)
            _same("classification line", lines[-1], f"classification: {cls}", errors)
        return EXIT_CODES[cls]

    def _cli_design_check(self, key, opts, pos, payload, lines, errors) -> int:
        top = int(opts["k"])
        refs = self._cached(key, lambda: [self.design(opts["ensemble"], k) for k in range(1, top + 1)])
        passed = refs[-1]["dev"] <= VERDICT_TOL
        if payload is not None:
            _same("check count", len(payload["checks"]), top, errors)
            for c, ref in zip(payload["checks"], refs):
                _close(f"k={c['k']} moment_deviation", c["moment_deviation"], ref["dev"], MOMENT_TOL, errors)
                _close(f"k={c['k']} frame_potential", c["frame_potential"], ref["fp"], DEV_TOL, errors,
                       rtol=DEV_TOL)
                _close(f"k={c['k']} haar_frame_potential", c["haar_frame_potential"], ref["hfp"],
                       DEV_TOL, errors)
                _same(f"k={c['k']} passed", c["passed"], ref["dev"] <= VERDICT_TOL, errors)
                _same(f"k={c['k']} passed vs frame gap", c["passed"], ref["gap"] <= VERDICT_TOL, errors)
            _same("is_design", payload["is_design"], passed, errors)
        else:
            rows = [re.match(r"k=(\d+) frame_potential=(\S+) haar=(\S+) gap=\S+ "
                             r"moment_deviation=(\S+) (pass|FAIL)$", line) for line in lines]
            rows = [m for m in rows if m]
            _same("check count", len(rows), top, errors)
            for m, ref in zip(rows, refs):
                _close(f"k={m[1]} frame_potential", float(m[2]), ref["fp"], PRINT_TOL, errors, rtol=1e-12)
                _close(f"k={m[1]} haar", float(m[3]), ref["hfp"], PRINT_TOL, errors)
                _close(f"k={m[1]} moment_deviation", float(m[4]), ref["dev"], MOMENT_TOL, errors, rtol=1e-3)
                _same(f"k={m[1]} verdict", m[5], "pass" if ref["dev"] <= VERDICT_TOL else "FAIL", errors)
            _same("verdict line", " is NOT " not in lines[-1], passed, errors)
        return 0 if passed else 2

    def _cli_leakage(self, key, opts, pos, payload, lines, errors) -> int:
        top = int(opts["max-photons"])

        def source(path):
            data = json.loads(self.job["files"][path])
            return complex(*data["alpha"]), complex(*data["beta"]), [complex(*c) for c in data["photon_amplitudes"]]

        value = self._cached(key, lambda: self.leakage(
            opts["ensemble"], source(pos[1]), source(pos[2]), top, opts.get("dephase", "none")))
        same = value <= VERDICT_TOL
        if payload is not None:
            _close("leakage", payload["leakage"], value, DEV_TOL, errors)
            _same("indistinguishable", payload["indistinguishable"], same, errors)
        else:
            printed = float(lines[1].split(":", 1)[1])
            _close("printed leakage", printed, value, DEV_TOL, errors)
            _same("verdict line", lines[2], "verdict: " + ("indistinguishable" if same else "DISTINGUISHABLE"),
                  errors)
        return 0 if same else 2

    def _cli_haar(self, key, opts, pos, payload, lines, errors) -> int:
        top = int(opts["max-photons"])

        def want(m, n):
            return np.eye((n + 1) ** 2) / (n + 1) if m == n else np.zeros(((m + 1) ** 2, (n + 1) ** 2))

        if payload is not None:
            _same("max_photons", payload["max_photons"], top, errors)
            _same("block count", len(payload["blocks"]), (top + 1) ** 2, errors)
            for b in payload["blocks"]:
                _close(f"block ({b['m']},{b['n']})", _pairs(b["matrix"]), want(b["m"], b["n"]), DEV_TOL, errors)
        else:
            heads = [i for i, line in enumerate(lines) if line.startswith("block (")]
            _same("block count", len(heads), (top + 1) ** 2, errors)
            for i, start in enumerate(heads):
                m, n = map(int, re.match(r"block \((\d+),(\d+)\):", lines[start]).groups())
                end = heads[i + 1] if i + 1 < len(heads) else len(lines)
                _close(f"block ({m},{n})", _parse_rows(lines[start + 1: end]), want(m, n), PRINT_TOL, errors)
        return 0

    def _cli_lift(self, key, opts, pos, payload, lines, errors) -> int:
        n = int(opts["n"])
        u = np.array([parse_literal(t) for t in opts["unitary"].split(",")]).reshape(2, 2)
        ref = self._cached(key, lambda: lift(u, n))
        if payload is not None:
            _close("lift", _pairs(payload["matrix"]), ref, DEV_TOL, errors)
        else:
            _close("printed lift", _parse_rows(lines[1:]), ref, PRINT_TOL, errors)
        return 0

    def _cli_reproduce_appendix_a(self, key, opts, pos, payload, lines, errors) -> int:
        _, ws = BUILTINS["clifford12"]
        block = self._cached(key, lambda: (self.lifts("clifford12", 2).reshape(12, -1) * ws[:, None]).T
                             @ self.lifts("clifford12", 1).reshape(12, -1).conj())
        _close("recorded reference", block, APPENDIX_A, REPRO_TOL, errors)
        if payload is not None:
            _close("computed", _pairs(payload["computed"]), block, DEV_TOL, errors)
            _close("reference", _pairs(payload["reference"]), APPENDIX_A, DEV_TOL, errors)
            _close("checksum", payload["checksum"], APPENDIX_A_CHECKSUM, REPRO_TOL, errors)
            _same("passed", payload["passed"], True, errors)
        else:
            _close("printed computed", _parse_rows(lines[2:11]), block, PRINT_TOL, errors)
            _close("printed reference", _parse_rows(lines[12:21]), APPENDIX_A, PRINT_TOL, errors)
            _same("verdict line", lines[-1], "verdict: match", errors)
        return 0

    def _cli_reproduce_appendix_b(self, key, opts, pos, payload, lines, errors) -> int:
        c = parse_literal(opts["c"])
        weight = min(abs(c) ** 2, 1.0)
        ref = np.zeros((6, 6), dtype=np.complex128)
        ref[0, 0] = weight
        ref[3:, 3:] = (1.0 - weight) * np.eye(3) / 3.0
        if payload is not None:
            _close("output", _pairs(payload["output"]), ref, REPRO_TOL, errors)
            _close("reference", _pairs(payload["reference"]), ref, DEV_TOL, errors)
            _same("passed", payload["passed"], True, errors)
        else:
            _close("printed output", _parse_rows(lines[2:8]), ref, REPRO_TOL, errors)
            _close("printed reference", _parse_rows(lines[9:15]), ref, PRINT_TOL, errors)
            _same("verdict line", lines[-1], "verdict: match", errors)
        return 0
