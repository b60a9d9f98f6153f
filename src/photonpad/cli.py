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
1 usage or input error. stdout carries exactly one payload: by default
one line of JSON, written by the C encoder of ``json.dumps`` (pipe it
through ``python3 -m json.tool`` to indent it), or ``--format text`` for a
human rendering. Diagnostics go to stderr. Identical invocations produce
byte-identical output. A reader that closes stdout early gets the exit code, with no traceback.

Options must be spelled in full: ``--alp`` or ``--max`` is an input error.
Complex number literals on the command line are single tokens of the form
``a``, ``bi``, ``a+bi`` or ``a-bi``, e.g. ``0.6``, ``-i``, ``0.6+0.8i``; one
that starts with a minus sign may follow its option as ``--c -i`` or ``--c=-i``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .channels import parity_dephase, photon_number_dephase
from .designs import MAX_DESIGN_ORDER, is_k_design, key_length, load_ensemble
from .errors import ParseError, PhotonPadError
from .fock import MAX_TOL, SourceSpec, _count, _json_pairs, _read_json_object, _tolerance
from .security import (
    Classification,
    leakage,
    reproduce_appendix_a,
    reproduce_appendix_b,
    security_report,
)
from .su2 import _haar_rows, lift_symmetric

__all__ = ["main", "parse_complex"]

MAX_PHOTON_BOUND = 8

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


def _fmt_complex(re: float, im: float) -> str:
    """re+im i at 12 decimals; a part that rounds to zero prints as +0, whatever its sign."""
    return f"{round(re, 12) + 0.0:+.12f}{round(im, 12) + 0.0:+.12f}i"


def _fmt_matrix(rows: list) -> list[str]:
    """Rows of [re, im] pairs, as the payloads carry them.

    Matrix entries round as ``np.round`` does (scaled ``rint``), so a cell on a
    12th-decimal half-way point keeps the digits the text form has always printed;
    ``_fmt_complex`` then leaves each rounded entry as it is.
    """
    rows = np.round(np.asarray(rows, dtype=float), 12).tolist()
    return ["  " + " ".join(_fmt_complex(re, im) for re, im in row) for row in rows]


def _counted(name: str, lo: int, hi: int):
    """``fock._count`` as an argparse type, as ``_tol`` is ``_tolerance``; a non-int reads "invalid int value: ..."."""

    def parse(token: str) -> int:
        return _count(int(token), name, lo, hi, argparse.ArgumentTypeError)

    parse.__name__ = "int"  # argparse names the type in that message
    return parse


def _tol(token: str) -> float:
    """``fock._tolerance`` as an argparse type: argparse prints its message, as for ``_complex``."""
    try:
        return _tolerance(float(token))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _complex(token: str) -> complex:
    """``parse_complex`` as an argparse type: argparse prints its message, not its name."""
    try:
        return parse_complex(token)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _unitary(token: str) -> np.ndarray:
    """Four comma-separated complex literals u00,u01,u10,u11 as a 2x2 matrix."""
    parts = token.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"needs 4 comma-separated entries, got {len(parts)}")
    return np.array([_complex(part) for part in parts]).reshape(2, 2)


class _Parser(argparse.ArgumentParser):
    """No abbreviations: ``main`` joins a minus-led value to its option by the option's full name."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="photonpad", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"photonpad {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--out", default=None, help="write the payload to this file instead of stdout")
    common.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(subparsers, name, run, render, tol=None, **kwargs):
        # Each verdict command declares its own --tol: parsers built from one
        # parent share its actions, so one default would leak into the others.
        p = subparsers.add_parser(name, parents=[common], **kwargs)
        if tol is not None:
            p.add_argument("--tol", type=_tol, default=tol, help=f"numerical tolerance, in (0, {MAX_TOL:g}]")
        p.set_defaults(run=run, render=render)
        return p

    photons = _counted("max_photons", 1, MAX_PHOTON_BOUND)
    p = command(sub, "design-check", _cmd_design_check, _render_design_check, 1e-9, help="k-design verification")
    p.add_argument("--ensemble", required=True, help="builtin name (pauli, clifford12) or JSON path")
    p.add_argument("--k", type=_counted("k", 1, MAX_DESIGN_ORDER), required=True,
                   help=f"design order to certify, 1..{MAX_DESIGN_ORDER}")

    p = command(sub, "analyze", _cmd_analyze, _render_analyze, 1e-9, help="Choi-block security classification")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--max-photons", type=photons, default=3)

    rep = sub.add_parser("reproduce", help="built-in reference computations")
    rsub = rep.add_subparsers(dest="which", required=True, parser_class=_Parser)
    command(rsub, "appendix-a", _cmd_reproduce_a, _render_reproduce_a, 1e-10)
    p = command(rsub, "appendix-b", _cmd_reproduce_b, _render_reproduce_b, 1e-10)
    p.add_argument("--c", type=_complex, required=True, help="vacuum amplitude")
    p.add_argument("--alpha", type=_complex, required=True)
    p.add_argument("--beta", type=_complex, required=True)

    p = command(sub, "leakage", _cmd_leakage, _render_leakage, 1e-9, help="trace distance of two encrypted sources")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--max-photons", type=photons, default=3)
    p.add_argument("--dephase", choices=("none", "parity", "photon-number"), default="none",
                   help="dephasing applied to both plaintexts before encryption")
    p.add_argument("source_a", help="source spec JSON file")
    p.add_argument("source_b", help="source spec JSON file")

    p = command(sub, "haar", _cmd_haar, _render_haar, help="Haar channel Choi operator")
    p.add_argument("--max-photons", type=_counted("max_photons", 0, MAX_PHOTON_BOUND), default=3)

    p = command(sub, "lift", _cmd_lift, _render_lift, help="lift a qubit unitary to an n-photon sector")
    p.add_argument("--n", type=_counted("n", 0, MAX_PHOTON_BOUND), required=True, help="photon number")
    p.add_argument("--unitary", type=_unitary, required=True,
                   help="four comma-separated complex literals u00,u01,u10,u11")
    # A missing subcommand is reported by metavar, or else by the internal dest.
    for group in (sub, rsub):
        group.metavar = "{" + ",".join(group.choices) + "}"
    return parser


def _cmd_design_check(args) -> tuple[dict, int]:
    ensemble = load_ensemble(args.ensemble)
    checks = [is_k_design(ensemble, k, args.tol) for k in range(1, args.k + 1)]
    payload = {
        "ensemble": ensemble.name,
        "k": args.k,
        "tol": args.tol,
        "key_bits_per_use": key_length(ensemble),
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


def _cmd_analyze(args) -> tuple[dict, int]:
    report = security_report(load_ensemble(args.ensemble), args.max_photons, args.tol)
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


def _cmd_reproduce_a(args) -> tuple[dict, int]:
    result = reproduce_appendix_a(args.tol)
    return {"which": "appendix-a", **result.to_json_dict()}, 0 if result.passed else 2


def _render_reproduce_a(payload: dict) -> str:
    lines = ["reproduce appendix-a: the (2,1) Choi block of clifford12", "computed:"]
    lines += _fmt_matrix(payload["computed"])
    lines.append("reference:")
    lines += _fmt_matrix(payload["reference"])
    lines.append(f"max entry deviation: {payload['max_deviation']:.6e}")
    lines.append(
        f"checksum |C|_F^2: {payload['checksum']:.12f} "
        f"(target 0.5, deviation {payload['checksum_deviation']:.6e})"
    )
    lines.append(f"nonzero block: {'yes' if payload['nonzero'] else 'no'}")
    lines.append(f"verdict: {'match' if payload['passed'] else 'MISMATCH'}")
    return "\n".join(lines)


def _cmd_reproduce_b(args) -> tuple[dict, int]:
    result = reproduce_appendix_b(args.c, args.alpha, args.beta, args.tol)
    payload = {
        "which": "appendix-b",
        "c": [args.c.real, args.c.imag],
        "alpha": [args.alpha.real, args.alpha.imag],
        "beta": [args.beta.real, args.beta.imag],
        **result.to_json_dict(),
    }
    return payload, 0 if result.passed else 2


def _render_reproduce_b(payload: dict) -> str:
    lines = [
        f"reproduce appendix-b: vacuum amplitude c={_fmt_complex(*payload['c'])}",
        "encrypted output:",
    ]
    lines += _fmt_matrix(payload["output"])
    lines.append("closed-form reference:")
    lines += _fmt_matrix(payload["reference"])
    lines.append(f"deviation: {payload['deviation']:.6e}")
    lines.append(f"verdict: {'match' if payload['passed'] else 'MISMATCH'}")
    return "\n".join(lines)


def _cmd_leakage(args) -> tuple[dict, int]:
    ensemble = load_ensemble(args.ensemble)
    a, b = (SourceSpec.from_json_dict(_read_json_object(path, "source file"))
            for path in (args.source_a, args.source_b))
    pre = {"none": None, "parity": parity_dephase, "photon-number": photon_number_dephase}[args.dephase]
    value = leakage(ensemble, a, b, args.max_photons, pre_channel=pre)
    payload = {
        "ensemble": ensemble.name,
        "max_photons": args.max_photons,
        "tol": args.tol,
        "dephase": args.dephase,
        "leakage": value,
        "indistinguishable": value <= args.tol,
    }
    return payload, 0 if value <= args.tol else 2


def _render_leakage(payload: dict) -> str:
    verdict = "indistinguishable" if payload["indistinguishable"] else "DISTINGUISHABLE"
    return (
        f"leakage: ensemble={payload['ensemble']} max_photons={payload['max_photons']} "
        f"dephase={payload['dephase']}\ntrace distance: {payload['leakage']:.12e}\nverdict: {verdict}"
    )


def _cmd_haar(args) -> tuple[dict, int]:
    """The Haar channel's Choi blocks in closed form: C_mn = delta_mn I / (n+1)."""
    sectors = range(args.max_photons + 1)
    blocks = [{"m": m, "n": n, "matrix": _haar_rows(m, n)} for m in sectors for n in sectors]
    return {"max_photons": args.max_photons, "blocks": blocks}, 0


def _render_haar(payload: dict) -> str:
    lines = [f"haar channel Choi operator: max_photons={payload['max_photons']}"]
    for b in payload["blocks"]:
        lines.append(f"block ({b['m']},{b['n']}):")
        lines += _fmt_matrix(b["matrix"])
    return "\n".join(lines)


def _cmd_lift(args) -> tuple[dict, int]:
    lifted = lift_symmetric(args.unitary, args.n)
    payload = {
        "n": args.n,
        "unitary": _json_pairs(args.unitary),
        "matrix": _json_pairs(lifted),
    }
    return payload, 0


def _render_lift(payload: dict) -> str:
    lines = [f"lift to sector n={payload['n']}:"]
    lines += _fmt_matrix(payload["matrix"])
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):  # argparse would take "-i" or "-1,0,0,-1" for an option
        if argv[i - 1] in ("--c", "--alpha", "--beta", "--unitary") and argv[i][:1] == "-" and argv[i][:2] != "--":
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        if any(t.startswith("--") and t.partition("=")[2] == "--" for t in argv):  # argparse reads "--" as no value
            raise ParseError("an option's value may not be '--'")
        args, extras = _build_parser().parse_known_args(argv)
        if extras:  # argparse would print them raw, and a token may hold a line break
            raise ParseError(f"unrecognized arguments: {' '.join(map(repr, extras))}")
        payload, code = args.run(args)
    except PhotonPadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rendered = json.dumps(payload) if args.format == "json" else args.render(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
            return 1
    else:
        try:
            print(rendered, flush=True)
        except BrokenPipeError:  # the reader closed stdout: the rest, and the exit flush, go to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
