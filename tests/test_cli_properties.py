"""Property tests: malformed input to the command line fails closed.

Each example runs in-process through ``cli.main`` with warnings turned into
errors, so a numpy RuntimeWarning that a terminal user would see on stderr
fails the example instead of being captured by pytest. Malformed input must
give exit 1, exactly one stderr line and empty stdout: never a traceback and
never exit 0. Every generator below produces input that is malformed by
construction. The runs are derandomized and bounded so that they stay fast.
"""

import contextlib
import copy
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpad.cli import MAX_PHOTON_BOUND, main, parse_complex
from photonpad.designs import MAX_DESIGN_ORDER, pauli_ensemble

from conftest import ensemble_to_json_dict

EXAMPLES = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# An OS argv string cannot hold a NUL byte.
TEXT = st.text(st.characters(exclude_characters="\x00"), max_size=8)
HUGE = st.sampled_from([10**400, 1e308, -1e308, 1.5e154])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | HUGE | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
NUMBER = st.floats() | st.integers() | HUGE
PAIR = st.lists(NUMBER, min_size=2, max_size=2)

PAULI = ensemble_to_json_dict(pauli_ensemble())
SOURCE = {"alpha": [1.0, 0.0], "beta": [0.0, 0.0], "photon_amplitudes": [[0.0, 0.0], [1.0, 0.0]]}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_properties")
    (path / "source.json").write_text(json.dumps(SOURCE))
    return path


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_fails_closed(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (1, ""), argv
    assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def far_from(modulus, gap):
    """Keep a value unless it is a numeric [re, im] pair with modulus within ``gap`` of ``modulus``."""

    def keep(value):
        if not (isinstance(value, list) and len(value) == 2 and all(map(is_number, value))):
            return True
        try:
            return not abs(abs(complex(value[0], value[1])) - modulus) <= gap
        except OverflowError:
            return True

    return keep


@st.composite
def malformed_ensembles(draw):
    """The pauli ensemble as JSON with one part broken.

    A changed entry moves a column norm of its unitary by more than 1e-8 and
    a changed weight moves the weight sum by more than 1e-11, both far
    beyond the unitarity and weight-sum tolerances.
    """
    data = copy.deepcopy(PAULI)
    i = draw(st.integers(0, 3))
    element = data["elements"][i]
    kind = draw(st.sampled_from(["top", "name", "elements", "element", "weight", "unitary", "entry"]))
    if kind == "top":
        return draw(JSON)  # short dict keys never spell "elements"
    if kind == "name":
        data["name"] = draw(JSON.filter(lambda v: not isinstance(v, str)))
    elif kind == "elements":
        data["elements"] = draw(JSON)
    elif kind == "element":
        data["elements"][i] = draw(JSON)
    elif kind == "weight":
        element["weight"] = draw((JSON | NUMBER).filter(
            lambda w: not (isinstance(w, float) and abs(w - 0.25) <= 1e-11)))
    elif kind == "unitary":
        element["unitary"] = draw(JSON.filter(lambda v: not (isinstance(v, list) and len(v) == 2)))
    else:
        row, col = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        modulus = abs(complex(*element["unitary"][row][col]))
        element["unitary"][row][col] = draw((JSON | PAIR).filter(far_from(modulus, 1e-4)))
    return data


@st.composite
def malformed_sources(draw):
    """A one-photon horizontal source as JSON with one part broken; every changed modulus moves the norm."""
    data = copy.deepcopy(SOURCE)
    kind = draw(st.sampled_from(["top", "alpha", "beta", "amplitudes", "amplitude"]))
    if kind == "top":
        return draw(JSON)
    if kind in ("alpha", "beta"):
        data[kind] = draw((JSON | PAIR).filter(far_from(abs(complex(*data[kind])), 1e-4)))
    elif kind == "amplitudes":
        data["photon_amplitudes"] = draw(JSON.filter(
            lambda v: not (isinstance(v, list) and all(isinstance(c, list) for c in v))))
    else:
        n = draw(st.integers(0, 1))
        modulus = abs(complex(*data["photon_amplitudes"][n]))
        data["photon_amplitudes"][n] = draw((JSON | PAIR).filter(far_from(modulus, 1e-4)))
    return data


def rejects(parse, token):
    try:
        parse(token)
    except ValueError:  # ParseError included
        return True
    return False


def literal(z):
    return f"{z.real!r}{z.imag:+}i"


NOT_FLOAT = TEXT.filter(lambda t: rejects(float, t))
NOT_INT = TEXT.filter(lambda t: rejects(int, t))
NOT_COMPLEX = TEXT.filter(lambda t: rejects(parse_complex, t))
TOL = (st.floats(max_value=0) | st.floats(min_value=1e-3, exclude_min=True)).map(repr) \
    | st.sampled_from(["nan", "inf", "-inf", "1e400", "0.5", "1e300"]) | NOT_FLOAT
COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e300)
REQUIRED = {"--ensemble", "--k", "--c", "--alpha", "--beta", "--n", "--unitary"}


def photons(low):
    out_of_range = st.integers(max_value=low - 1) | st.integers(min_value=MAX_PHOTON_BOUND + 1)
    return out_of_range.map(str) | NOT_INT


@st.composite
def bad_unitaries(draw):
    """Too few or too many entries, a bad literal, or a unitary scaled off the unit circle."""
    kind = draw(st.sampled_from(["count", "literal", "scaled"]))
    if kind == "count":
        count = draw(st.integers(0, 8).filter(lambda k: k != 4))
        return ",".join(draw(st.lists(COMPLEX.map(literal), min_size=count, max_size=count)))
    entries = ["0", "1", "1", "0"]
    if kind == "literal":
        entries[draw(st.integers(0, 3))] = draw(NOT_COMPLEX.filter(lambda t: "," not in t))
    else:
        scale = draw(st.floats(min_value=1e-300, max_value=1e300).filter(lambda s: abs(s - 1) > 1e-6))
        entries = ["0", literal(complex(scale)), literal(complex(scale)), "0"]
    return ",".join(entries)


def command_cases(source):
    """Per subcommand: the words that select it, and per option a valid value and malformed ones.

    The valid complex values start with a minus sign, which argparse would read as an option.
    """
    ensemble = ("pauli", TEXT.filter(lambda t: t not in ("pauli", "clifford12")))
    c = COMPLEX.filter(lambda z: abs(z) > 1 + 1e-9).map(literal) | NOT_COMPLEX
    alpha = COMPLEX.filter(lambda z: abs(abs(z) - 1) > 1e-6).map(literal) | NOT_COMPLEX
    dephase = TEXT.filter(lambda t: t not in ("none", "parity", "photon-number"))
    design_orders = (st.integers(max_value=0) | st.integers(min_value=MAX_DESIGN_ORDER + 1)).map(str) | NOT_INT
    return {
        "design-check": (["design-check"], {
            "--ensemble": ensemble, "--k": ("1", design_orders)}),
        "analyze": (["analyze"], {"--ensemble": ensemble, "--max-photons": ("2", photons(1))}),
        "appendix-a": (["reproduce", "appendix-a"], {}),
        "appendix-b": (["reproduce", "appendix-b"], {
            "--c": ("-0.6i", c), "--alpha": ("-i", alpha), "--beta": ("0", NOT_COMPLEX)}),
        "leakage": (["leakage", source, source], {
            "--ensemble": ensemble, "--max-photons": ("1", photons(1)), "--dephase": ("none", dephase)}),
        "haar": (["haar"], {"--max-photons": ("1", photons(0))}),
        "lift": (["lift"], {"--n": ("1", photons(0)), "--unitary": ("-1,0,0,1", bad_unitaries())}),
    }


@st.composite
def malformed_argv(draw, source, command):
    """One change to a valid argv: a malformed value, a missing required option, a junk token,
    a bad source path or an unknown subcommand."""
    words, options = command_cases(source)[command]
    values = {name: valid for name, (valid, _) in options.items()}
    if command not in ("haar", "lift"):  # only the verdict commands take --tol
        values["--tol"] = "1e-9"
    values["--format"] = draw(st.sampled_from(["json", "text"]))
    required = sorted(set(options) & REQUIRED)
    kinds = ["value", "junk", "command"] + ["missing"] * bool(required) + ["source"] * (command == "leakage")
    kind = draw(st.sampled_from(kinds))
    if kind == "value":
        name = draw(st.sampled_from(sorted(values)))
        bad = {"--tol": TOL, "--format": TEXT.filter(lambda t: t not in ("json", "text"))}
        values[name] = draw(bad[name] if name in bad else options[name][1])
    elif kind == "missing":
        del values[draw(st.sampled_from(required))]
    argv = list(words) + [f"{name}={value}" for name, value in values.items()]
    if kind == "junk":
        argv.append(draw(TEXT.filter(lambda t: not t.startswith("-"))))
    elif kind == "source":  # no such file, a directory, or a file that is not a source spec
        argv[draw(st.integers(1, 2))] = draw(TEXT.filter(lambda t: not t.startswith("-")))
    elif kind == "command":
        argv[0] = draw(TEXT.filter(lambda t: not t.startswith("-") and t not in (
            "design-check", "analyze", "reproduce", "leakage", "haar", "lift")))
    return argv


@EXAMPLES
@given(data=malformed_ensembles(), command=st.sampled_from(["analyze", "design-check"]))
def test_malformed_ensemble_json_fails_closed(workdir, data, command):
    path = workdir / "ensemble.json"
    path.write_text(json.dumps(data))
    extra = ["--max-photons", "1"] if command == "analyze" else ["--k", "1"]
    assert_fails_closed([command, "--ensemble", str(path), *extra])


@EXAMPLES
@given(data=malformed_sources(), first=st.booleans())
def test_malformed_source_json_fails_closed(workdir, data, first):
    path = workdir / "malformed_source.json"
    path.write_text(json.dumps(data))
    pair = [str(path), str(workdir / "source.json")]
    if not first:
        pair.reverse()
    assert_fails_closed(["leakage", "--ensemble", "pauli", "--max-photons", "1", *pair])


@pytest.mark.parametrize("command", sorted(command_cases("")))
@settings(EXAMPLES, max_examples=30)
@given(data=st.data())
def test_malformed_argv_fails_closed(workdir, command, data):
    assert_fails_closed(data.draw(malformed_argv(str(workdir / "source.json"), command)))


def test_valid_bases_succeed(workdir):
    # the malformed argv are single changes of these; each must pass unchanged, as name=value or as two tokens
    for words, options in command_cases(str(workdir / "source.json")).values():
        joined = list(words) + [f"{name}={valid}" for name, (valid, _) in options.items()]
        separate = list(words) + [token for name, (valid, _) in options.items() for token in (name, valid)]
        results = [run_cli(argv) for argv in (joined, separate)]
        code, out, err = results[0]
        assert code in (0, 2, 3) and out and not err, joined
        assert results[1] == results[0], separate
