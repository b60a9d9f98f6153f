import json

import numpy as np
import pytest

from photonpad.channels import as_choi_operator
from photonpad.cli import _COMMANDS, main, parse_complex
from photonpad.errors import ParseError
from photonpad.fock import SectorStructure
from photonpad.su2 import haar_choi


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
        assert out == json.dumps(expected, indent=2) + "\n"
        code, out, _ = run(capsys, "haar", "--max-photons", str(top), "--format", "text")
        assert code == 0
        assert out == _COMMANDS["haar"][2](expected) + "\n"


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
    code, _, err = run(capsys, "analyze", "--ensemble", "pauli", "--max-photons", "9")
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, "haar", "--max-photons", "-1")
    assert code == 1


@pytest.mark.parametrize("k", ["0", "6", "8"])
def test_design_order_bound_enforced(capsys, k):
    code, out, err = run(capsys, "design-check", "--ensemble", "pauli", "--k", k)
    assert code == 1
    assert out == ""
    assert err == f"error: --k must be in [1, 5], got {k}\n"


def test_unknown_ensemble_fails_cleanly(capsys):
    code, out, err = run(capsys, "analyze", "--ensemble", "mystery", "--max-photons", "1")
    assert code == 1
    assert out == ""
    assert "error" in err


def test_bad_tol_rejected(capsys):
    code, _, err = run(capsys, "analyze", "--ensemble", "pauli", "--tol", "-1")
    assert code == 1
    assert "error" in err


EVERY_COMMAND = [
    ["design-check", "--ensemble", "pauli", "--k", "1"],
    ["analyze", "--ensemble", "pauli", "--max-photons", "2"],
    ["reproduce", "appendix-a"],
    ["reproduce", "appendix-b", "--c", "0.6", "--alpha", "1", "--beta", "0"],
    ["leakage", "--ensemble", "pauli", "--max-photons", "1", "a.json", "b.json"],
    ["haar", "--max-photons", "1"],
    ["lift", "--n", "1", "--unitary", "0,1,1,0"],
]


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_non_finite_tol_rejected(capsys, tmp_path, monkeypatch, argv, tol):
    monkeypatch.chdir(tmp_path)
    write_source(tmp_path, "a.json", 1.0, 0.0, (0.0, 1.0))
    write_source(tmp_path, "b.json", 0.0, 1.0, (0.0, 1.0))
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: tolerance")


@pytest.mark.parametrize("tol", ["1e300", "0.5"])
@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_vacuous_tol_rejected(capsys, tmp_path, monkeypatch, argv, tol):
    # A tolerance above 1e-3 would pass order-one deviations: pauli's (2,2)
    # block deviates by sqrt(2) and its k = 3 moments by sqrt(11).
    monkeypatch.chdir(tmp_path)
    write_source(tmp_path, "a.json", 1.0, 0.0, (0.0, 1.0))
    write_source(tmp_path, "b.json", 0.0, 1.0, (0.0, 1.0))
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: tolerance")


def test_largest_tol_accepted(capsys):
    code, out, _ = run(capsys, "analyze", "--ensemble", "clifford12", "--max-photons", "2", "--tol", "1e-3")
    assert code == 3
    assert json.loads(out)["tol"] == 1e-3


def assert_fails_closed(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_ensemble_elements_not_a_list_fails_closed(capsys, tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"elements": 5}))
    assert_fails_closed(capsys, "analyze", "--ensemble", str(path))


@pytest.mark.filterwarnings("error")
def test_overflowing_unitary_fails_closed(capsys, tmp_path):
    assert_fails_closed(capsys, "lift", "--n", "2", "--unitary", "1e308,0,0,1")
    path = tmp_path / "e.json"
    entries = [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    path.write_text(json.dumps({"elements": [{"weight": 1.0, "unitary": entries}]}))
    assert_fails_closed(capsys, "analyze", "--ensemble", str(path))


def test_overflowing_amplitude_fails_closed(capsys, tmp_path):
    assert_fails_closed(capsys, "reproduce", "appendix-b", "--c", "0.5", "--alpha", "1e200", "--beta", "0")
    a = write_source(tmp_path, "a.json", 1.0, 0.0, (0.0, 1.0))
    b = write_source(tmp_path, "b.json", 1.0, 0.0, (0.0, 1.5e154))
    assert_fails_closed(capsys, "leakage", "--ensemble", "pauli", "--max-photons", "1", a, b)


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


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "design-check", "--ensemble", "pauli")
    assert code == 1
    assert err
    # stray tokens are quoted, so a line break inside one cannot split the message
    code, out, err = run(capsys, "haar", "extra\ntoken")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: unrecognized arguments: 'extra\\ntoken'"]


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import photonpad

    # the child imports the same package the tests do, installed or not
    src = str(Path(photonpad.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "photonpad", "reproduce", "appendix-a"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
