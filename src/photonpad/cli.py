"""Command-line verification workflows with machine-readable output.

Subcommands:

* ``design-check``  frame potentials and moment deviations up to order k
* ``analyze``       per-block Choi deviations and a security classification
* ``reproduce``     the built-in reference computations (appendix-a /
                    appendix-b worked examples)
* ``leakage``       trace distance between two encrypted source files
* ``haar``          the Haar channel's Choi operator, block by block
* ``lift``          a single qubit unitary lifted to an n-photon sector

Exit codes: 0 pass/secure, 2 negative verdict, 3 parity-secure only,
1 usage or input error. stdout carries exactly one payload (JSON by
default, ``--format text`` for a human rendering); diagnostics go to
stderr. Identical invocations produce byte-identical output.

Complex number literals on the command line are single tokens of the form
``a``, ``bi``, ``a+bi`` or ``a-bi``, e.g. ``0.6``, ``-i``, ``0.6+0.8i``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .channels import parity_dephase, photon_number_dephase
from .designs import is_k_design, key_length, load_ensemble
from .errors import ParseError, PhotonPadError
from .fock import SourceSpec, _json_pairs
from .linalg import as_matrix
from .security import (
    Classification,
    leakage,
    reproduce_appendix_a,
    reproduce_appendix_b,
    security_report,
)
from .su2 import lift_symmetric

__all__ = ["main", "parse_complex"]

MAX_PHOTON_BOUND = 8
MAX_DESIGN_ORDER = 5
MAX_TOL = 1e-3

_CLASSIFICATION_EXIT = {
    Classification.SECURE: 0,
    Classification.PARITY_SECURE: 3,
    Classification.INSECURE: 2,
}


def parse_complex(token: str) -> complex:
    """Parse a single-token complex literal: "a", "bi", "a+bi" or "a-bi"."""
    s = str(token).strip()
    if not s or " " in s:
        raise ParseError(f"bad complex literal {token!r}")
    try:
        z = complex(s[:-1] + "j") if s.endswith("i") else complex(s)
    except ValueError:
        raise ParseError(f"bad complex literal {token!r}") from None
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ParseError(f"non-finite complex literal {token!r}")
    return z


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.12f}{z.imag:+.12f}i"


def _fmt_matrix(mat: np.ndarray, indent: str = "  ") -> list[str]:
    return [indent + " ".join(_fmt_complex(z) for z in row) for row in np.asarray(mat)]


def _matrix_from_pairs(entries: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in entries])


def _check_bounds(flag: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ParseError(f"{flag} must be in [{lo}, {hi}], got {value}")


def _check_tol(tol: float | None, default: float) -> float:
    """The --tol value, or ``default`` when it is absent; it must lie in (0, MAX_TOL].

    A larger tolerance would pass deviations of order one, so a verdict at it
    says nothing: pauli's (2,2) block deviates by sqrt(2).
    """
    tol = default if tol is None else tol
    if not 0 < tol <= MAX_TOL:  # NaN fails both comparisons
        raise ParseError(f"tolerance must be in (0, {MAX_TOL:g}], got {tol}")
    return tol


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="photonpad", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help=f"numerical tolerance, in (0, {MAX_TOL:g}]")
    common.add_argument("--out", default=None, help="write the payload to this file instead of stdout")
    common.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("design-check", parents=[common], help="k-design verification")
    p.add_argument("--ensemble", required=True, help="builtin name (pauli, clifford12) or JSON path")
    p.add_argument("--k", type=int, required=True, help=f"design order to certify, 1..{MAX_DESIGN_ORDER}")

    p = sub.add_parser("analyze", parents=[common], help="Choi-block security classification")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--max-photons", type=int, default=3)

    rep = sub.add_parser("reproduce", help="built-in reference computations")
    rsub = rep.add_subparsers(dest="which", required=True, parser_class=_Parser)
    p = rsub.add_parser("appendix-a", parents=[common])
    p = rsub.add_parser("appendix-b", parents=[common])
    p.add_argument("--c", type=parse_complex, required=True, help="vacuum amplitude")
    p.add_argument("--alpha", type=parse_complex, required=True)
    p.add_argument("--beta", type=parse_complex, required=True)

    p = sub.add_parser("leakage", parents=[common], help="trace distance of two encrypted sources")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--max-photons", type=int, default=3)
    p.add_argument("--dephase", choices=("none", "parity", "photon-number"), default="none",
                   help="dephasing applied to both plaintexts before encryption")
    p.add_argument("source_a", help="source spec JSON file")
    p.add_argument("source_b", help="source spec JSON file")

    p = sub.add_parser("haar", parents=[common], help="Haar channel Choi operator")
    p.add_argument("--max-photons", type=int, default=3)

    p = sub.add_parser("lift", parents=[common], help="lift a qubit unitary to an n-photon sector")
    p.add_argument("--n", type=int, required=True, help="photon number")
    p.add_argument("--unitary", required=True,
                   help="four comma-separated complex literals u00,u01,u10,u11")
    return parser


def _cmd_design_check(args, tol: float) -> tuple[dict, int]:
    _check_bounds("--k", args.k, 1, MAX_DESIGN_ORDER)
    ensemble = load_ensemble(args.ensemble)
    checks = [is_k_design(ensemble, k, tol) for k in range(1, args.k + 1)]
    payload = {
        "ensemble": ensemble.name or str(args.ensemble),
        "k": args.k,
        "tol": tol,
        "key_bits_per_use": key_length(ensemble, 1),
        "checks": [c.to_json_dict() for c in checks],
        "is_design": checks[-1].passed,
    }
    return payload, 0 if checks[-1].passed else 2


def _render_design_check(payload: dict) -> str:
    lines = [
        f"design check: ensemble={payload['ensemble']} k={payload['k']} tol={payload['tol']:g}",
        f"key bits per use: {payload['key_bits_per_use']:.10f}",
    ]
    for c in payload["checks"]:
        lines.append(
            "k={k} frame_potential={fp:.12f} haar={haar:.12f} gap={gap:.3e} "
            "moment_deviation={dev:.3e} {verdict}".format(
                k=c["k"], fp=c["frame_potential"], haar=c["haar_frame_potential"],
                gap=c["frame_gap"], dev=c["moment_deviation"],
                verdict="pass" if c["passed"] else "FAIL",
            )
        )
    verdict = "is" if payload["is_design"] else "is NOT"
    lines.append(f"{payload['ensemble']} {verdict} a {payload['k']}-design at tol {payload['tol']:g}")
    return "\n".join(lines)


def _cmd_analyze(args, tol: float) -> tuple[dict, int]:
    _check_bounds("--max-photons", args.max_photons, 1, MAX_PHOTON_BOUND)
    ensemble = load_ensemble(args.ensemble)
    report = security_report(ensemble, args.max_photons, tol)
    return report.to_json_dict(), _CLASSIFICATION_EXIT[report.classification]


def _render_analyze(payload: dict) -> str:
    lines = [
        "security analysis: ensemble={} max_photons={} tol={:g}".format(
            payload["ensemble"], payload["max_photons"], payload["tol"]
        )
    ]
    for b in payload["blocks"]:
        status = "ok" if b["deviation"] <= payload["tol"] else "FAIL"
        lines.append(f"block ({b['m']},{b['n']}): deviation {b['deviation']:.6e} {status}")
    wm, wn = payload["worst_block"]
    lines.append(f"worst block ({wm},{wn}): {payload['worst_deviation']:.6e}")
    lines.append(f"classification: {payload['classification']}")
    return "\n".join(lines)


def _cmd_reproduce_a(args, tol: float) -> tuple[dict, int]:
    result = reproduce_appendix_a(tol)
    return {"which": "appendix-a", **result.to_json_dict()}, 0 if result.passed else 2


def _render_reproduce_a(payload: dict) -> str:
    lines = ["reproduce appendix-a: the (2,1) Choi block of clifford12", "computed:"]
    lines += _fmt_matrix(_matrix_from_pairs(payload["computed"]))
    lines.append("reference:")
    lines += _fmt_matrix(_matrix_from_pairs(payload["reference"]))
    lines.append(f"max entry deviation: {payload['max_deviation']:.6e}")
    lines.append(
        f"checksum |C|_F^2: {payload['checksum']:.12f} "
        f"(target 0.5, deviation {payload['checksum_deviation']:.6e})"
    )
    lines.append(f"nonzero block: {'yes' if payload['nonzero'] else 'no'}")
    lines.append(f"verdict: {'match' if payload['passed'] else 'MISMATCH'}")
    return "\n".join(lines)


def _cmd_reproduce_b(args, tol: float) -> tuple[dict, int]:
    result = reproduce_appendix_b(args.c, args.alpha, args.beta, tol)
    payload = {
        "which": "appendix-b",
        "c": [args.c.real, args.c.imag],
        "alpha": [args.alpha.real, args.alpha.imag],
        "beta": [args.beta.real, args.beta.imag],
        **result.to_json_dict(),
    }
    return payload, 0 if result.passed else 2


def _render_reproduce_b(payload: dict) -> str:
    c = complex(*payload["c"])
    lines = [
        f"reproduce appendix-b: vacuum amplitude c={_fmt_complex(c)}",
        "encrypted output:",
    ]
    lines += _fmt_matrix(_matrix_from_pairs(payload["output"]))
    lines.append("closed-form reference:")
    lines += _fmt_matrix(_matrix_from_pairs(payload["reference"]))
    lines.append(f"deviation: {payload['deviation']:.6e}")
    lines.append(f"verdict: {'match' if payload['passed'] else 'MISMATCH'}")
    return "\n".join(lines)


def _cmd_leakage(args, tol: float) -> tuple[dict, int]:
    _check_bounds("--max-photons", args.max_photons, 1, MAX_PHOTON_BOUND)
    ensemble = load_ensemble(args.ensemble)
    sources = []
    for path in (args.source_a, args.source_b):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                sources.append(SourceSpec.from_json(fh.read()))
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read source spec {path!r}: {exc}") from exc
    pre = {"none": None, "parity": parity_dephase, "photon-number": photon_number_dephase}[args.dephase]
    value = leakage(ensemble, sources[0], sources[1], args.max_photons, pre_channel=pre)
    payload = {
        "ensemble": ensemble.name or str(args.ensemble),
        "max_photons": args.max_photons,
        "tol": tol,
        "dephase": args.dephase,
        "leakage": value,
        "indistinguishable": value <= tol,
    }
    return payload, 0 if value <= tol else 2


def _render_leakage(payload: dict) -> str:
    return "\n".join(
        [
            "leakage: ensemble={} max_photons={} dephase={}".format(
                payload["ensemble"], payload["max_photons"], payload["dephase"]
            ),
            f"trace distance: {payload['leakage']:.12e}",
            "verdict: {}".format(
                "indistinguishable" if payload["indistinguishable"] else "DISTINGUISHABLE"
            ),
        ]
    )


def _cmd_haar(args, tol: float) -> tuple[dict, int]:
    """The Haar channel's Choi blocks in closed form: C_mn = delta_mn I / (n+1)."""
    _check_bounds("--max-photons", args.max_photons, 0, MAX_PHOTON_BOUND)
    sectors = range(args.max_photons + 1)
    blocks = [
        {
            "m": m,
            "n": n,
            "matrix": _json_pairs(
                np.eye((n + 1) ** 2) / (n + 1) if m == n else np.zeros(((m + 1) ** 2, (n + 1) ** 2))
            ),
        }
        for m in sectors
        for n in sectors
    ]
    return {"max_photons": args.max_photons, "blocks": blocks}, 0


def _render_haar(payload: dict) -> str:
    lines = [f"haar channel Choi operator: max_photons={payload['max_photons']}"]
    for b in payload["blocks"]:
        lines.append(f"block ({b['m']},{b['n']}):")
        lines += _fmt_matrix(_matrix_from_pairs(b["matrix"]))
    return "\n".join(lines)


def _cmd_lift(args, tol: float) -> tuple[dict, int]:
    _check_bounds("--n", args.n, 0, MAX_PHOTON_BOUND)
    parts = args.unitary.split(",")
    if len(parts) != 4:
        raise ParseError(f"--unitary needs 4 comma-separated entries, got {len(parts)}")
    u = as_matrix([[parse_complex(parts[0]), parse_complex(parts[1])],
                   [parse_complex(parts[2]), parse_complex(parts[3])]])
    lifted = lift_symmetric(u, args.n, tol)
    payload = {
        "n": args.n,
        "unitary": _json_pairs(u),
        "matrix": _json_pairs(lifted),
    }
    return payload, 0


def _render_lift(payload: dict) -> str:
    lines = [f"lift to sector n={payload['n']}:"]
    lines += _fmt_matrix(_matrix_from_pairs(payload["matrix"]))
    return "\n".join(lines)


# key: (default --tol, handler, text renderer)
_COMMANDS = {
    "design-check": (1e-9, _cmd_design_check, _render_design_check),
    "analyze": (1e-9, _cmd_analyze, _render_analyze),
    "reproduce/appendix-a": (1e-10, _cmd_reproduce_a, _render_reproduce_a),
    "reproduce/appendix-b": (1e-10, _cmd_reproduce_b, _render_reproduce_b),
    "leakage": (1e-9, _cmd_leakage, _render_leakage),
    "haar": (1e-9, _cmd_haar, _render_haar),
    "lift": (1e-10, _cmd_lift, _render_lift),
}


def main(argv=None) -> int:
    try:
        args, extras = _build_parser().parse_known_args(argv)
        if extras:  # argparse would print them raw, and a token may hold a line break
            raise ParseError(f"unrecognized arguments: {' '.join(map(repr, extras))}")
        key = f"reproduce/{args.which}" if args.command == "reproduce" else args.command
        default_tol, handler, render = _COMMANDS[key]
        payload, code = handler(args, _check_tol(args.tol, default_tol))
    except PhotonPadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rendered = json.dumps(payload, indent=2) if args.format == "json" else render(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
            return 1
    else:
        print(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
