import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import photonpad
from photonpad import cli
from photonpad.channels import as_choi_operator, parity_dephase, photon_number_dephase
from photonpad.cli import MAX_PHOTON_BOUND, _fmt_complex, _fmt_matrix, _render_haar, main, parse_complex
from photonpad.designs import clifford12_ensemble, is_k_design, pauli_ensemble
from photonpad.errors import ParseError
from photonpad.fock import PolarizationSpec, SectorStructure, SourceSpec
from photonpad.security import leakage, reproduce_appendix_a, reproduce_appendix_b, security_report
from photonpad.su2 import haar_choi

from conftest import ensemble_to_json_dict
from test_designs import rotated_clifford12

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_source(tmp_path, name, alpha, beta, amplitudes):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "alpha": [complex(alpha).real, complex(alpha).imag],
                "beta": [complex(beta).real, complex(beta).imag],
                "photon_amplitudes": [[complex(c).real, complex(c).imag] for c in amplitudes],
            }
        )
    )
    return str(path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"photonpad {photonpad.__version__}\n" == "photonpad 0.1.0\n"


def test_parse_complex():
    assert parse_complex("0.6") == 0.6
    assert parse_complex("-i") == -1j
    assert parse_complex("0.6+0.8i") == 0.6 + 0.8j
    assert parse_complex("1-2i") == 1 - 2j
    assert parse_complex("2i") == 2j
    for bad in ("", "abc", "1 + 2i", "i2"):
        with pytest.raises(ParseError):
            parse_complex(bad)


def test_design_check_pauli_first_order(capsys):
    code, out, err = run(capsys, "design-check", "--ensemble", "pauli", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ensemble"] == "pauli"
    assert payload["is_design"] is True
    assert payload["key_bits_per_use"] == 2.0
    assert len(payload["checks"]) == 1
    assert payload["checks"][0]["passed"] is True


def test_design_check_runs_orders_cumulatively(capsys):
    code, out, _ = run(capsys, "design-check", "--ensemble", "clifford12", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert [c["k"] for c in payload["checks"]] == [1, 2]
    assert payload["is_design"] is True


def test_design_check_clifford12_third_order_fails(capsys):
    code, out, _ = run(capsys, "design-check", "--ensemble", "clifford12", "--k", "3")
    assert code == 2
    payload = json.loads(out)
    assert payload["is_design"] is False
    third = payload["checks"][-1]
    assert np.isclose(third["moment_deviation"], 1.0, atol=1e-9)
    assert np.isclose(third["frame_potential"], 6.0, atol=1e-9)
    assert np.isclose(third["haar_frame_potential"], 5.0, atol=1e-9)


def test_design_check_fails_closed_where_frame_gap_passes(capsys, tmp_path):
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(ensemble_to_json_dict(rotated_clifford12())))
    code, out, _ = run(capsys, "design-check", "--ensemble", str(path), "--k", "2")
    assert code == 2
    payload = json.loads(out)
    assert payload["is_design"] is False
    assert abs(payload["checks"][-1]["moment_deviation"] - 2.0e-6) <= 1e-9


def test_analyze_exit_codes(capsys):
    code, out, _ = run(capsys, "analyze", "--ensemble", "pauli", "--max-photons", "1")
    assert code == 3
    assert json.loads(out)["classification"] == "PARITY_SECURE"

    code, out, _ = run(capsys, "analyze", "--ensemble", "pauli", "--max-photons", "2")
    assert code == 2
    assert json.loads(out)["classification"] == "INSECURE"

    code, out, _ = run(capsys, "analyze", "--ensemble", "clifford12", "--max-photons", "2")
    assert code == 3
    payload = json.loads(out)
    assert payload["classification"] == "PARITY_SECURE"
    assert payload["worst_block"] in ([1, 2], [2, 1])
    assert np.isclose(payload["worst_deviation"], 1 / np.sqrt(2), atol=1e-12)


def test_analyze_custom_ensemble_file(capsys, tmp_path):
    path = tmp_path / "sign_balanced.json"
    elements = []
    sx = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    msx = [[[0.0, 0.0], [-1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    meye = [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    sz = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    msz = [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    sy = [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]
    msy = [[[0.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [0.0, 0.0]]]
    for u in (eye, meye, sx, msx, sy, msy, sz, msz):
        elements.append({"weight": 0.125, "unitary": u})
    path.write_text(json.dumps({"name": "sign_balanced", "elements": elements}))
    code, out, _ = run(capsys, "analyze", "--ensemble", str(path), "--max-photons", "1")
    assert code == 0
    assert json.loads(out)["classification"] == "SECURE"


def test_unnamed_ensemble_file_is_named_by_its_path_in_every_payload(capsys, tmp_path):
    path = tmp_path / "unnamed.json"
    data = ensemble_to_json_dict(photonpad.pauli_ensemble())
    del data["name"]
    a = write_source(tmp_path, "a.json", 1.0, 0.0, (0.6, 0.8))
    b = write_source(tmp_path, "b.json", 0.0, 1.0, (0.6, 0.8))
    commands = [
        ["design-check", "--ensemble", str(path), "--k", "1"],
        ["analyze", "--ensemble", str(path), "--max-photons", "1"],
        ["leakage", "--ensemble", str(path), "--max-photons", "1", a, b],
    ]
    for named in (data, {**data, "name": ""}):  # no name, or an empty one
        path.write_text(json.dumps(named))
        for argv in commands:
            _, out, err = run(capsys, *argv)
            assert json.loads(out)["ensemble"] == str(path), (argv, err)


def test_reproduce_appendix_a(capsys):
    code, out, _ = run(capsys, "reproduce", "appendix-a")
    assert code == 0
    payload = json.loads(out)
    assert payload["which"] == "appendix-a"
    assert payload["passed"] is True
    assert payload["nonzero"] is True
    assert payload["max_deviation"] < 1e-12
    assert np.isclose(payload["checksum"], 0.5, atol=1e-12)


def test_reproduce_appendix_b(capsys):
    code, out, _ = run(
        capsys, "reproduce", "appendix-b", "--c", "0.6", "--alpha", "0.8", "--beta", "0.6"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["which"] == "appendix-b"
    assert payload["passed"] is True
    assert payload["deviation"] < 1e-12


def test_reproduce_appendix_b_rejects_oversized_amplitude(capsys):
    code, out, err = run(
        capsys, "reproduce", "appendix-b", "--c", "1.5", "--alpha", "1", "--beta", "0"
    )
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("c, accepted", [("1.0000000000009", False), ("1.0000000000004", True)])
def test_reproduce_appendix_b_checks_c_by_its_square(capsys, c, accepted):
    # |c|^2 - 1 is held to the source norm tolerance 1e-12, so the |c| message is the only one
    code, out, err = run(capsys, "reproduce", "appendix-b", "--c", c, "--alpha", "1", "--beta", "0")
    if accepted:
        assert (code, err) == (0, "") and json.loads(out)["passed"] is True
    else:
        assert (code, out, err) == (1, "", f"error: |c| = {c} exceeds 1\n")


@pytest.mark.parametrize("flag", ["--c", "--alpha", "--beta"])
def test_reproduce_appendix_b_names_the_bad_complex_literal(capsys, flag):
    argv = {"--c": "0.6", "--alpha": "1", "--beta": "0", flag: "q"}
    code, out, err = run(capsys, "reproduce", "appendix-b", *[t for pair in argv.items() for t in pair])
    assert (code, out) == (1, "")
    assert err == f"error: argument {flag}: bad complex literal 'q'\n"


@pytest.mark.parametrize("argv", [
    ["reproduce", "appendix-b", "--c", "-i", "--alpha", "-i", "--beta", "0"],
    ["lift", "--n", "1", "--unitary", "-0.2920676904815,0.956397649608573,-0.956397649608573,-0.2920676904815"],
], ids=["appendix-b", "lift"])
def test_minus_led_complex_value_may_be_a_separate_token(capsys, argv):
    i = argv.index("--c" if "--c" in argv else "--unitary")
    joined = argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2 :]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out
    assert run(capsys, *joined) == (code, out, err)
    # Options are spelled in full: an abbreviation fails in either form, as one line on stderr.
    for k in [k for k, token in enumerate(argv) if token.startswith("--") and len(token) > 3]:
        short = argv[k][:-1]
        for abbreviated in (argv[:k] + [short] + argv[k + 1 :], argv[:k] + [f"{short}={argv[k + 1]}"] + argv[k + 2 :]):
            code, out, err = run(capsys, *abbreviated)
            assert (code, out) == (1, "") and err.count("\n") == 1, abbreviated


@pytest.mark.parametrize("argv", [
    ["reproduce", "appendix-a", "--format=--"],
    ["analyze", "--ensemble", "pauli", "--tol=--"],
    ["analyze", "--ensemble=--", "--max-photons", "1"],
    ["haar", "--max-photons", "1", "--out=--"],
    ["lift", "--n", "1", "--unitary=--"],
])
def test_an_option_value_of_double_dash_fails_closed(capsys, argv):
    # argparse drops such a value and hands the command an empty list
    assert run(capsys, *argv) == (1, "", "error: an option's value may not be '--'\n")


def test_option_is_not_taken_as_a_missing_complex_value(capsys):
    code, out, err = run(capsys, "reproduce", "appendix-b", "--c", "--alpha", "1", "--beta", "0")
    assert (code, out, err) == (1, "", "error: argument --c: expected one argument\n")


@pytest.mark.parametrize("argv, choices", [
    ([], "{design-check,analyze,reproduce,leakage,haar,lift}"),
    (["reproduce"], "{appendix-a,appendix-b}"),
], ids=["photonpad", "reproduce"])
def test_missing_subcommand_lists_the_choices(capsys, argv, choices):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: the following arguments are required: {choices}\n"


def test_leakage_mixed_parity(capsys, tmp_path):
    a = write_source(tmp_path, "a.json", 1.0, 0.0, (0.0, 0.6, 0.8))
    b = write_source(tmp_path, "b.json", 0.0, 1.0, (0.0, 0.6, 0.8))
    code, out, _ = run(capsys, "leakage", "--ensemble", "clifford12", "--max-photons", "2", a, b)
    assert code == 2
    payload = json.loads(out)
    assert np.isclose(payload["leakage"], 0.3417246728111771, atol=1e-12)
    assert payload["indistinguishable"] is False
    assert payload["dephase"] == "none"


def test_leakage_with_parity_dephase(capsys, tmp_path):
    a = write_source(tmp_path, "a.json", 1.0, 0.0, (0.0, 0.6, 0.8))
    b = write_source(tmp_path, "b.json", 0.0, 1.0, (0.0, 0.6, 0.8))
    code, out, _ = run(
        capsys,
        "leakage",
        "--ensemble",
        "clifford12",
        "--max-photons",
        "2",
        "--dephase",
        "parity",
        a,
        b,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["leakage"] < 1e-14
    assert payload["indistinguishable"] is True


def test_leakage_fixed_parity(capsys, tmp_path):
    a = write_source(tmp_path, "a.json", 1.0, 0.0, (0.6, 0.0, 0.8))
    b = write_source(tmp_path, "b.json", 0.0, 1.0, (0.6, 0.0, 0.8))
    code, out, _ = run(capsys, "leakage", "--ensemble", "clifford12", "--max-photons", "2", a, b)
    assert code == 0
    assert json.loads(out)["indistinguishable"] is True


def test_leakage_missing_source_file(capsys, tmp_path):
    a = write_source(tmp_path, "a.json", 1.0, 0.0, (0.0, 1.0))
    code, out, err = run(
        capsys, "leakage", "--ensemble", "pauli", "--max-photons", "1", a, str(tmp_path / "nope.json")
    )
    assert code == 1
    assert "error" in err


def test_haar_payload(capsys):
    code, out, _ = run(capsys, "haar", "--max-photons", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_photons"] == 1
    by_key = {(b["m"], b["n"]): b["matrix"] for b in payload["blocks"]}
    assert by_key[(0, 0)] == [[[1.0, 0.0]]]
    block11 = np.array([[complex(re, im) for re, im in row] for row in by_key[(1, 1)]])
    assert np.abs(block11 - np.eye(4) / 2).max() < 1e-14
    cross = np.array([[complex(re, im) for re, im in row] for row in by_key[(1, 0)]])
    assert np.abs(cross).max() < 1e-14


def test_haar_payload_matches_dense_oracle(capsys):
    # the closed-form blocks, serialized exactly as the sliced dense Haar Choi matrix
    for top in range(5):
        s = SectorStructure(top)
        blocks = as_choi_operator(haar_choi(s), s)
        expected = {
            "max_photons": top,
            "blocks": [
                {"m": m, "n": n, "matrix": [[[z.real, z.imag] for z in row] for row in blocks[(m, n)]]}
                for m in range(top + 1)
                for n in range(top + 1)
            ],
        }
        code, out, _ = run(capsys, "haar", "--max-photons", str(top))
        assert code == 0
        assert out == json.dumps(expected) + "\n"
        code, out, _ = run(capsys, "haar", "--max-photons", str(top), "--format", "text")
        assert code == 0
        assert out == _render_haar(expected) + "\n"


def test_haar_payload_at_the_cap_is_the_closed_form(capsys):
    # the dense-oracle comparison above stops at N = 4; past it, check each block against delta_mn I/(n+1)
    code, out, _ = run(capsys, "haar", "--max-photons", str(MAX_PHOTON_BOUND))
    assert code == 0
    assert len(out.encode()) <= 1.1e6
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert out == json.dumps(payload) + "\n"
    sectors = range(MAX_PHOTON_BOUND + 1)
    assert [(b["m"], b["n"]) for b in payload["blocks"]] == [(m, n) for m in sectors for n in sectors]
    for b in payload["blocks"]:
        m, n = b["m"], b["n"]
        expected = [
            [[1 / (n + 1) if m == n and i == j else 0.0, 0.0] for j in range((n + 1) ** 2)]
            for i in range((m + 1) ** 2)
        ]
        assert b["matrix"] == expected, (m, n)


@pytest.mark.parametrize("fmt, size, digest", [
    ("json", 985145, "859808d415826db0309582f2ca435b9baef4d4a36da5e7336120f576c8cfe1a9"),
    ("text", 2605425, "a3c01b4a74d7eb7964a07eb3b79e9e061fe8e11f8ed0ff8a2ca446a41c877481"),
])
def test_haar_bytes_at_the_cap_are_pinned(capsys, fmt, size, digest):
    # The stdout bytes at N = 8, trailing newline included; the other haar tests parse the payload or stop at N = 4.
    code, out, _ = run(capsys, "haar", "--max-photons", str(MAX_PHOTON_BOUND), "--format", fmt)
    assert code == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_haar_payload_forms_no_dense_block():
    # Shared closed-form rows: building and encoding the N = 8 payload peaks at
    # 3.6 MB, and at 14.0 MB when each block is a dense array turned into pairs.
    args = argparse.Namespace(max_photons=MAX_PHOTON_BOUND)
    json.dumps(cli._cmd_haar(args)[0])
    tracemalloc.start()
    try:
        json.dumps(cli._cmd_haar(args)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


def test_choi_json_schema(capsys):
    _, out, _ = run(capsys, "haar", "--max-photons", "1")
    d = json.loads(out)
    assert d["max_photons"] == 1
    assert [(b["m"], b["n"]) for b in d["blocks"]] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert set(d["blocks"][0]) == {"m", "n", "matrix"}
    assert d["blocks"][0]["matrix"] == [[[1.0, 0.0]]]
    by_key = {(b["m"], b["n"]): b["matrix"] for b in d["blocks"]}
    assert len(by_key[(1, 1)]) == 4 and len(by_key[(1, 1)][0]) == 4
    assert len(by_key[(0, 1)]) == 1 and len(by_key[(0, 1)][0]) == 4


def test_lift_diagonal_unitary(capsys):
    code, out, _ = run(capsys, "lift", "--n", "2", "--unitary", "i,0,0,-i")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    lifted = np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])
    assert np.abs(lifted - np.diag([-1.0, 1.0, -1.0])).max() < 1e-12


def test_lift_rejects_nonunitary(capsys):
    code, out, err = run(capsys, "lift", "--n", "1", "--unitary", "1,0,0,2")
    assert code == 1
    assert "error" in err


def test_photon_bound_enforced(capsys):
    # each count takes fock._count's message; a token that is not an int keeps argparse's own
    for argv, message in [
        ("analyze --ensemble pauli --max-photons 9", "--max-photons: max_photons must be an int in [1, 8], got 9"),
        ("haar --max-photons -1", "--max-photons: max_photons must be an int in [0, 8], got -1"),
        ("lift --n 9 --unitary 1,0,0,1", "--n: n must be an int in [0, 8], got 9"),
        ("lift --n 2.0 --unitary 1,0,0,1", "--n: invalid int value: '2.0'"),
    ]:
        assert run(capsys, *argv.split()) == (1, "", f"error: argument {message}\n")


@pytest.mark.parametrize("k", ["0", "13", "20"])
def test_design_order_bound_enforced(capsys, k):
    # --k takes designs.MAX_DESIGN_ORDER through fock._count, the API's own rule and message
    code, out, err = run(capsys, "design-check", "--ensemble", "pauli", "--k", k)
    assert code == 1
    assert out == ""
    assert err == f"error: argument --k: k must be an int in [1, 12], got {k}\n"


def test_design_check_runs_to_the_cap(capsys):
    code, out, _ = run(capsys, "design-check", "--ensemble", "clifford12", "--k", "12")
    assert code == 2
    checks = json.loads(out)["checks"]
    assert [c["k"] for c in checks] == list(range(1, 13))
    assert [c["passed"] for c in checks] == [True, True] + [False] * 10


def test_unknown_ensemble_fails_cleanly(capsys):
    code, out, err = run(capsys, "analyze", "--ensemble", "mystery", "--max-photons", "1")
    assert code == 1
    assert out == ""
    assert "error" in err


def test_bad_tol_rejected(capsys):
    code, _, err = run(capsys, "analyze", "--ensemble", "pauli", "--tol", "-1")
    assert code == 1
    assert "error" in err


# the subcommands that decide a verdict, and so take --tol
VERDICT_COMMANDS = [
    ["design-check", "--ensemble", "pauli", "--k", "1"],
    ["analyze", "--ensemble", "pauli", "--max-photons", "2"],
    ["reproduce", "appendix-a"],
    ["reproduce", "appendix-b", "--c", "0.6", "--alpha", "1", "--beta", "0"],
    ["leakage", "--ensemble", "pauli", "--max-photons", "1", "a.json", "b.json"],
]


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize("argv", VERDICT_COMMANDS)
def test_non_finite_tol_rejected(capsys, tmp_path, monkeypatch, argv, tol):
    monkeypatch.chdir(tmp_path)
    write_source(tmp_path, "a.json", 1.0, 0.0, (0.0, 1.0))
    write_source(tmp_path, "b.json", 0.0, 1.0, (0.0, 1.0))
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 1
    assert out == ""
    assert err == f"error: argument --tol: tol must be a number in (0, 0.001], got {tol}\n"


@pytest.mark.parametrize("tol", ["1e300", "0.5"])
@pytest.mark.parametrize("argv", VERDICT_COMMANDS)
def test_vacuous_tol_rejected(capsys, tmp_path, monkeypatch, argv, tol):
    # A tolerance above 1e-3 would pass order-one deviations: pauli's (2,2)
    # block deviates by sqrt(2) and its k = 3 moments by sqrt(11).
    monkeypatch.chdir(tmp_path)
    write_source(tmp_path, "a.json", 1.0, 0.0, (0.0, 1.0))
    write_source(tmp_path, "b.json", 0.0, 1.0, (0.0, 1.0))
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 1
    assert out == ""
    assert err == f"error: argument --tol: tol must be a number in (0, 0.001], got {float(tol)}\n"


@pytest.mark.parametrize("argv, tol", zip(VERDICT_COMMANDS, [1e-9, 1e-9, 1e-10, 1e-10, 1e-9]))
def test_default_tol(capsys, tmp_path, monkeypatch, argv, tol):
    # Each verdict command declares its own --tol: subparsers built from one
    # parent share its actions, so one command's default would reach the others.
    monkeypatch.chdir(tmp_path)
    write_source(tmp_path, "a.json", 1.0, 0.0, (0.0, 1.0))
    write_source(tmp_path, "b.json", 0.0, 1.0, (0.0, 1.0))
    code, out, _ = run(capsys, *argv)
    assert code in (0, 2, 3)
    assert json.loads(out)["tol"] == tol


@pytest.mark.parametrize("tol", ["1e-9", "1e-3", "inf", "nan", "1e300", "0.5"])
@pytest.mark.parametrize("argv", [["haar", "--max-photons", "1"], ["lift", "--n", "1", "--unitary", "0,1,1,0"]])
def test_tol_rejected_where_no_verdict_is_decided(capsys, argv, tol):
    # haar prints closed-form blocks, and lift checks its unitary at the fixed 1e-10
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: unrecognized arguments: '--tol' '{tol}'"]


def test_largest_tol_accepted(capsys):
    code, out, _ = run(capsys, "analyze", "--ensemble", "clifford12", "--max-photons", "2", "--tol", "1e-3")
    assert code == 3
    assert json.loads(out)["tol"] == 1e-3



def test_near_unitary_ensemble_file_keeps_the_verdict(capsys, tmp_path):
    # clifford12 with every entry times (1 + 3.5e-11) is admitted and stored as clifford12 again,
    # so it is PARITY_SECURE at N = 2 even at tol 1e-12, as clifford12 is
    data = ensemble_to_json_dict(clifford12_ensemble())
    for element in data["elements"]:
        element["unitary"] = [[[re * (1 + 3.5e-11), im * (1 + 3.5e-11)] for re, im in row] for row in element["unitary"]]
    (tmp_path / "near12.json").write_text(json.dumps(data))
    for ensemble in ("clifford12", str(tmp_path / "near12.json")):
        code, out, _ = run(capsys, "analyze", "--ensemble", ensemble, "--max-photons", "2", "--tol", "1e-12")
        assert (code, json.loads(out)["classification"]) == (3, "PARITY_SECURE")


def test_weight_scaled_ensemble_file_keeps_the_verdicts(capsys, tmp_path):
    # clifford12 with every weight times (1 + 9e-13) is admitted and stored with its weights divided by their
    # sum, so at tol 1e-13 it is PARITY_SECURE at N = 2 and a 2-design, as clifford12 is
    data = ensemble_to_json_dict(clifford12_ensemble())
    for element in data["elements"]:
        element["weight"] *= 1 + 9e-13
    path = tmp_path / "heavy12.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "analyze", "--ensemble", str(path), "--max-photons", "2", "--tol", "1e-13")
    assert (code, json.loads(out)["classification"]) == (3, "PARITY_SECURE")
    code, out, _ = run(capsys, "design-check", "--ensemble", str(path), "--k", "2", "--tol", "1e-13")
    assert (code, json.loads(out)["is_design"]) == (0, True)


# The dense reference constructions, which only tests and the mixed-state channel use.
REFERENCE_LAYER = {
    "apply_channel": photonpad.channels, "block_lift": photonpad.su2, "check_density": photonpad.su2,
    "build_source_state": photonpad.fock, "symmetric_embedding": photonpad.fock, "tensor_power": photonpad.su2,
    "haar_moment": photonpad.su2, "ensemble_moment": photonpad.designs, "haar_choi": photonpad.su2,
    "as_choi_operator": photonpad.channels, "trace_norm": photonpad.linalg,
}


def test_no_verdict_reaches_the_reference_layer(capsys, tmp_path, monkeypatch):
    # Every binding of a reference function in the package raises, as the lift_sweeps fixture binds its counter
    for name, home in REFERENCE_LAYER.items():
        original = getattr(home, name)

        def refused(*args, name=name, **kwargs):
            raise AssertionError(f"a verdict called {name}")

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("photonpad") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, refused)
    with pytest.raises(AssertionError, match="^a verdict called trace_norm$"):
        photonpad.linalg.trace_norm(np.eye(2))
    for ensemble, top in ((pauli_ensemble(), 3), (clifford12_ensemble(), 3), (rotated_clifford12(), 2)):
        security_report(ensemble, top)
    assert [is_k_design(clifford12_ensemble(), k).passed for k in (1, 2, 3, 4)] == [True, True, False, False]
    assert not is_k_design(rotated_clifford12(), 2).passed  # on the spin blocks, not the gap
    a = SourceSpec(PolarizationSpec(1.0, 0.0), (0.0, 0.6, 0.8))
    b = SourceSpec(PolarizationSpec(0.0, 1.0), (0.0, 0.6, 0.8))
    for pre in (None, parity_dephase, photon_number_dephase):
        leakage(clifford12_ensemble(), a, b, 3, pre_channel=pre)
    assert reproduce_appendix_a().passed and reproduce_appendix_b(0.6, 0.8, 0.6).passed
    a_path = write_source(tmp_path, "a.json", 1.0, 0.0, (0.0, 0.6, 0.8))
    b_path = write_source(tmp_path, "b.json", 0.0, 1.0, (0.0, 0.6, 0.8))
    leak = ["leakage", "--ensemble", "clifford12", "--max-photons", "2", a_path, b_path]
    for argv, expected in [
        (["design-check", "--ensemble", "clifford12", "--k", "4"], 2),
        (["design-check", "--ensemble", "clifford12", "--k", "2"], 0),
        (["analyze", "--ensemble", "clifford12", "--max-photons", "3"], 2),
        (["reproduce", "appendix-a"], 0),
        (["reproduce", "appendix-b", "--c", "0.6", "--alpha", "0.8", "--beta", "0.6"], 0),
        (leak, 2), (leak + ["--dephase", "parity"], 0), (leak + ["--dephase", "photon-number"], 0),
        (["haar", "--max-photons", "2"], 0),
        (["lift", "--n", "3", "--unitary", "0.6,0.8i,0.8i,0.6"], 0),
    ]:
        assert run(capsys, *argv)[::2] == (expected, ""), argv

def assert_fails_closed(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_ensemble_elements_not_a_list_fails_closed(capsys, tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"elements": 5}))
    assert_fails_closed(capsys, "analyze", "--ensemble", str(path))


def test_deeply_nested_input_file_fails_closed(capsys, tmp_path):
    # json.loads raises RecursionError here, which used to end the process with a traceback.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert_fails_closed(capsys, "analyze", "--ensemble", str(path))
    assert_fails_closed(capsys, "leakage", "--ensemble", "pauli", "--max-photons", "1", str(path), str(path))


@pytest.mark.filterwarnings("error")
def test_overflowing_unitary_fails_closed(capsys, tmp_path):
    assert_fails_closed(capsys, "lift", "--n", "2", "--unitary", "1e308,0,0,1")
    path = tmp_path / "e.json"
    entries = [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    path.write_text(json.dumps({"elements": [{"weight": 1.0, "unitary": entries}]}))
    assert_fails_closed(capsys, "analyze", "--ensemble", str(path))


def test_overflowing_amplitude_fails_closed(capsys, tmp_path):
    assert_fails_closed(capsys, "reproduce", "appendix-b", "--c", "0.5", "--alpha", "1e200", "--beta", "0")
    assert_fails_closed(capsys, "reproduce", "appendix-b", "--c", "1.7e308+1.7e308i", "--alpha", "1", "--beta", "0")
    a = write_source(tmp_path, "a.json", 1.0, 0.0, (0.0, 1.0))
    b = write_source(tmp_path, "b.json", 1.0, 0.0, (0.0, 1.5e154))
    assert_fails_closed(capsys, "leakage", "--ensemble", "pauli", "--max-photons", "1", a, b)
    # |z| itself past the float range: abs(z) used to raise OverflowError
    b = write_source(tmp_path, "b.json", 1.0, 0.0, (0.0, complex(1.7e308, 1.7e308)))
    assert_fails_closed(capsys, "leakage", "--ensemble", "pauli", "--max-photons", "1", a, b)


def test_bool_among_numbers_in_an_input_file_fails_closed(capsys, tmp_path):
    # true is not the JSON number 1: each reader takes the array rule, which numpy alone would read as 1
    data = ensemble_to_json_dict(pauli_ensemble())
    assert data["elements"][0]["unitary"][0][0] == [1.0, 0.0]
    data["elements"][0]["unitary"][0][0] = [True, 0.0]
    path = tmp_path / "e.json"
    path.write_text(json.dumps(data))
    assert_fails_closed(capsys, "analyze", "--ensemble", str(path))
    a = write_source(tmp_path, "a.json", 1.0, 0.0, (0.0, 1.0))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"alpha": [True, 0], "beta": [0.0, 0.0], "photon_amplitudes": [[0.0, 0.0], [1.0, 0.0]]}))
    assert_fails_closed(capsys, "leakage", "--ensemble", "pauli", "--max-photons", "1", a, str(b))


def test_malformed_unitary_in_a_file_is_reported_as_the_user_wrote_it(capsys, tmp_path):
    # The shape is that of the complex matrix, without the reader's [re, im] axis; a nesting past numpy's
    # 64 axes is not called ragged
    path = tmp_path / "e.json"
    three = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
    deep = [1.0, 0.0]
    for _ in range(70):
        deep = [deep]
    for unitary, message in [(three, "of shape (2, 2), got shape (3, 3)"),
                             (deep, "numbers, got a nesting past 64 levels")]:
        path.write_text(json.dumps({"elements": [{"weight": 1.0, "unitary": unitary}]}))
        code, out, err = run(capsys, "analyze", "--ensemble", str(path))
        assert (code, out, err) == (1, "", f"error: malformed ensemble element 0: unitary must be {message}\n")


def test_out_writes_file_and_silences_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "analyze", "--ensemble", "pauli", "--max-photons", "1", "--out", str(target)
    )
    assert code == 3
    assert out == ""
    assert json.loads(target.read_text())["classification"] == "PARITY_SECURE"


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "analyze", "--ensemble", "clifford12", "--max-photons", "2")
    _, second, _ = run(capsys, "analyze", "--ensemble", "clifford12", "--max-photons", "2")
    assert first == second


def test_text_format_renders(capsys):
    for argv in (
        ("design-check", "--ensemble", "pauli", "--k", "1", "--format", "text"),
        ("analyze", "--ensemble", "pauli", "--max-photons", "1", "--format", "text"),
        ("reproduce", "appendix-a", "--format", "text"),
        ("haar", "--max-photons", "1", "--format", "text"),
        ("lift", "--n", "1", "--unitary", "1,0,0,1", "--format", "text"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code in (0, 2, 3)
        assert out.strip()
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


def fmt_matrix_per_cell(rows: list) -> list[str]:
    """The text matrix lines with each entry rounded on its own as a numpy float, then printed by the
    ``_fmt_complex`` f-string."""
    return [
        "  " + " ".join(
            f"{round(np.float64(re), 12) + 0.0:+.12f}{round(np.float64(im), 12) + 0.0:+.12f}i" for re, im in row
        )
        for row in rows
    ]


# -0.2920676904815 sits on a 12th-decimal half-way point, where numpy's scaled rint and Python's round() differ
HALF_WAY = -0.2920676904815
HALF_WAY_UNITARY = "-0.2920676904815,0.956397649608573,-0.956397649608573,-0.2920676904815"


@pytest.mark.parametrize(
    "argv",
    [
        ("haar", "--max-photons", str(MAX_PHOTON_BOUND)),
        ("lift", "--n", "3", "--unitary", "0.6,0.8i,0.8i,0.6"),
        ("lift", "--n", "1", f"--unitary={HALF_WAY_UNITARY}"),
        ("reproduce", "appendix-a"),
        ("reproduce", "appendix-b", "--c", "0.6", "--alpha", "0.8", "--beta", "0.6i"),
    ],
)
def test_text_matrices_match_a_per_cell_formatter(capsys, monkeypatch, argv):
    code, out, _ = run(capsys, *argv, "--format", "text")
    monkeypatch.setattr(cli, "_fmt_matrix", fmt_matrix_per_cell)
    assert run(capsys, *argv, "--format", "text") == (code, out, "")


def test_fmt_matrix_rounds_each_cell_as_numpy_does():
    # signed zeros, parts that round to zero and parts that do not, and two half-way cells
    parts = [0.0, -0.0, 4e-13, -4e-13, -6e-13, 0.5, 1 / 3, HALF_WAY, 2.2053876672105]
    rows = [[[re, im] for im in parts] for re in parts]
    assert _fmt_matrix(rows) == fmt_matrix_per_cell(rows)
    assert _fmt_matrix([[[HALF_WAY, 2.2053876672105]]]) == ["  -0.292067690482+2.205387667210i"]


def test_text_format_has_no_signed_zero(capsys):
    # a part that rounds to zero prints the same whatever sign the summation order left it
    assert _fmt_complex(-1e-17, -0.0) == "+0.000000000000+0.000000000000i"
    assert _fmt_complex(-6e-13, 4e-13) == "-0.000000000001+0.000000000000i"
    code, out, _ = run(capsys, "reproduce", "appendix-b", "--c", "0.6", "--alpha", "0.8", "--beta", "0.6i",
                       "--format", "text")
    assert code == 0
    assert "+0.000000000000" in out and "-0.000000000000" not in out


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "design-check", "--ensemble", "pauli")
    assert code == 1
    assert err
    # stray tokens are quoted, so a line break inside one cannot split the message
    code, out, err = run(capsys, "haar", "extra\ntoken")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: unrecognized arguments: 'extra\\ntoken'"]


def child_env() -> dict:
    """The environment of a ``python -m photonpad`` child that imports the same package the tests do."""
    src = str(Path(photonpad.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "photonpad", "reproduce", "appendix-a"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_closed_pipe_exits_cleanly():
    # The N = 8 payload (about 985 KB) outgrows a pipe buffer, so the child is still writing when the reader closes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "photonpad", "haar", "--max-photons", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_closed_stdout_keeps_the_exit_code(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:  # every write that reaches the pipe raises BrokenPipeError
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["analyze", "--ensemble", "clifford12", "--max-photons", "2"]) == 3


def readme_block(heading: str) -> str:
    """The first fenced code block after a README heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize(
    "line", [ln for ln in readme_block("Command line").splitlines() if ln.startswith("photonpad ")]
)
def test_readme_command_line_examples(capsys, tmp_path, monkeypatch, line):
    # The README's a.json and b.json: same photon amplitudes, different polarizations.
    monkeypatch.chdir(tmp_path)
    write_source(tmp_path, "a.json", 1.0, 0.0, (0.0, 0.6, 0.8))
    write_source(tmp_path, "b.json", 0.0, 1.0, (0.0, 0.6, 0.8))
    command, _, comment = line.partition("#")
    stated = re.match(r"\s*exit (\d+)", comment)
    code, out, err = run(capsys, *shlex.split(command)[1:])
    assert code == (int(stated.group(1)) if stated else 0), err
    assert out.count("\n") == 1
    assert out == json.dumps(json.loads(out)) + "\n"


def test_readme_python_api_example(capsys):
    exec(compile(readme_block("Python API in one minute"), str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["[True, True, False]", "PARITY_SECURE"]
    assert out[2].startswith("0.7071") and out[3].startswith("0.3417")
    assert float(out[4]) < 1e-14
