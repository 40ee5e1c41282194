"""Property test: ``cli.main`` on generated argument text and JSON documents.

Whatever the input, a command ends in exit code 0, 2 (invalid input), 3
(budget) or 4 (numeric failure); argparse's own usage errors count as 2.
Any other exception escapes ``main`` and fails the test.  Examples are
derandomized so the suite stays reproducible.
"""

import contextlib
import io
import json
import os
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from bellbounds import catalog, cli
from bellbounds.cli import main, parse_angles
from bellbounds.qops import bell_operator, to_bell_basis
from bellbounds.states import PureState

EXIT_CODES = {0, 2, 3, 4}

SCALARS = [
    "0", "1", "-1", "0.5", "pi", "-pi", "pi/4", "3pi/4", "2pi", "1/2/3", "-2.5e-3",
    "nan", "inf", "-inf", "1e400", "1e308pi", "pi/0", "", "x", "1..2", "+", "/",
]
EXPRS = [
    "t", "2t", "-t", "2*t", "0.5t+pi/4", "3t-pi", "pi/4", "0", "", "+", "t+", "*t",
    "nant", "1e400t", "t/0", "tt", "1e308t+1e308t",
]
# Number tokens swapped into JSON documents: non-finite, too large for a
# float, wrong type.  Python's json reads Infinity and NaN, and 1e400 as inf.
ODD_NUMBERS = [
    "Infinity", "-Infinity", "NaN", "1e400", "-1e400", "1.7e308", "-9e307", "0", "-1", "7",
    "1.5", "1" + "0" * 400, "null", "true", "[]", "{}", '"1/2"',
]
# Whole values swapped in for any node of a JSON document: each container
# type, null and a string.
ODD_VALUES = [[], [1], {}, None, "x"]
# (structure, inequality, valid --angles, valid --schedule)
LAYOUTS = [
    (reference.single_setting_structure(), reference.trivial_facet(), "1=0,2=pi/4", "1=0,2=t"),
    (
        catalog.ch_structure(),
        catalog.ch_inequality(),
        "1=0,2=pi/2,3=pi/4,4=3pi/4",
        "1=0,2=2t,3=t,4=3t",
    ),
    (
        catalog.i33_structure(),
        catalog.i33_inequality(),
        "1=0,2=pi/3,3=2pi/3,4=0,5=pi/3,6=2pi/3",
        "1=0,2=t,3=2t,4=0,5=t,6=2t",
    ),
]

scalars = st.one_of(
    st.sampled_from(SCALARS),
    st.floats().map(repr),
    st.text(alphabet="0123456789.+-*/epitnaf ", max_size=8),
)
indices = st.one_of(st.integers(-1, 9).map(str), st.text(alphabet="0123456789x+-", max_size=3))


def assignments(values):
    """'idx=value,...' text, well formed or not."""
    return st.one_of(
        st.lists(st.tuples(indices, values), max_size=7).map(
            lambda items: ",".join(f"{k}={v}" for k, v in items)
        ),
        st.text(alphabet="0123456789=,./-+*pitnax ", max_size=30),
    )


angles = assignments(scalars)
schedules = assignments(st.one_of(st.sampled_from(EXPRS), scalars))
grids = st.one_of(
    st.tuples(scalars, scalars, st.integers(-2, 50).map(str)).map(":".join),
    st.tuples(st.sampled_from(["0", "-pi"]), st.sampled_from(["pi", "1"]), st.integers(1, 50)).map(
        lambda g: f"{g[0]}:{g[1]}:{g[2]}"
    ),
    st.text(alphabet="0123456789:.-pi", max_size=12),
)


def node_paths(doc, path=()):
    """The key path of every node of a JSON document, the root's ``()`` first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from node_paths(value, (*path, key))


def replaced(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = replaced(doc[path[0]], path[1:], value)
    return out


@st.composite
def odd_json(draw, doc):
    """``doc`` as JSON text, a quarter of the time with one of its nodes
    replaced by a value from ``ODD_VALUES``, and a quarter of the time with
    one or two of its integers swapped for odd tokens."""
    if draw(st.sampled_from([False] * 3 + [True])):
        path = draw(st.sampled_from(list(node_paths(doc))))
        doc = replaced(doc, path, draw(st.sampled_from(ODD_VALUES)))
    text = json.dumps(doc)
    spans = [m.span() for m in re.finditer(r"-?\d+", text)]
    n = min(draw(st.sampled_from([0] * 6 + [1, 2])), len(spans))
    chosen = draw(st.sets(st.sampled_from(spans), min_size=n, max_size=n)) if n else ()
    for start, end in sorted(chosen, reverse=True):
        text = text[:start] + draw(st.sampled_from(ODD_NUMBERS)) + text[end:]
    return text


@st.composite
def cases(draw, column, texts):
    """(structure JSON, inequality JSON, argument text) for a random layout.

    The inequality is usually the layout's own; the argument text is the
    layout's valid one from ``LAYOUTS`` column ``column``, or drawn from
    ``texts``.
    """
    k = draw(st.integers(0, len(LAYOUTS) - 1))
    j = draw(st.one_of(st.just(k), st.integers(0, len(LAYOUTS) - 1)))
    return (
        draw(odd_json(LAYOUTS[k][0].to_json())),
        draw(odd_json(LAYOUTS[j][1].to_json())),
        draw(st.one_of(st.just(LAYOUTS[k][column]), texts)),
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    assert rc in EXIT_CODES, (argv, rc, err.getvalue())
    return rc


def write_documents(workdir, case):
    s, i = workdir / "structure.json", workdir / "ineq.json"
    s.write_text(case[0])
    i.write_text(case[1])
    return ["--structure", str(s), "--ineq", str(i)]


CH_STRUCTURE = json.dumps(catalog.ch_structure().to_json())
CH_INEQUALITY = json.dumps(catalog.ch_inequality().to_json())
# the CH structure with its sides and joints written as strings of digits
CH_DIGIT_STRINGS = '{"n_single": 4, "sides": ["12", "34"], "joints": ["13", "14", "23", "24"]}'
# the CH structure with an event count that is not an integer
CH_FLOAT_COUNT = CH_STRUCTURE.replace('"n_single": 4', '"n_single": 4.9')
# numbers whose decimal exponent Fraction would expand into 10^999999999,
# as a coefficient and as a bound
HUGE_EXPONENT = '{"coeffs": {"1": "1e999999999", "1,3": 1}}'
HUGE_NEGATIVE_EXPONENT = '{"coeffs": {"1": 1, "1,3": -1}, "upper": "1e-999999999"}'
CH_ANGLES, CH_SCHEDULE = LAYOUTS[1][2], LAYOUTS[1][3]


FUZZ = settings(max_examples=250, deadline=None, derandomize=True)


@FUZZ
@given(
    case=cases(2, angles),
    command=st.sampled_from([["bound"], ["operator", "build"], ["operator", "build", "--bell-basis"]]),
)
@example(case=(CH_STRUCTURE, HUGE_EXPONENT, CH_ANGLES), command=["bound"])
@example(case=(CH_STRUCTURE, HUGE_NEGATIVE_EXPONENT, CH_ANGLES), command=["bound"])
def test_bound_and_operator(workdir, case, command):
    run([*command, *write_documents(workdir, case), f"--angles={case[2]}"])


@FUZZ
@given(
    case=cases(3, schedules),
    grid=grids,
    samples=st.integers(-2, 10),
    seed=st.one_of(st.integers(-3, 3), st.just(2**64), st.just(2**128)),
    eigencurves=st.booleans(),
)
@example(
    case=(CH_STRUCTURE, HUGE_EXPONENT, CH_SCHEDULE), grid="0:pi:3", samples=0, seed=0, eigencurves=False
)
def test_sweep(workdir, case, grid, samples, seed, eigencurves):
    run(
        [
            "sweep",
            *write_documents(workdir, case),
            f"--schedule={case[2]}",
            f"--grid={grid}",
            "--samples", str(samples),
            "--seed", str(seed),
            "--out", str(workdir / "sweep.csv"),
            *(["--eigencurves"] if eigencurves else []),
        ]
    )


@FUZZ
@given(case=cases(2, angles), action=st.sampled_from(["vertices", "verify"]))
@example(case=(CH_STRUCTURE, '{"coeffs": [], "lower": 0}', ""), action="verify")
@example(case=(CH_STRUCTURE, '{"coeffs": null}', ""), action="verify")
@example(case=(CH_DIGIT_STRINGS, CH_INEQUALITY, ""), action="verify")
@example(case=(CH_FLOAT_COUNT, CH_INEQUALITY, ""), action="verify")
@example(case=(CH_STRUCTURE, HUGE_EXPONENT, ""), action="verify")
def test_polytope(workdir, case, action):
    run(["polytope", action, *write_documents(workdir, case)])


def operator_docs():
    """Each layout's operator at its valid angles, in both bases."""
    docs = []
    for structure, ineq, text, _ in LAYOUTS:
        op = bell_operator(ineq, parse_angles(text), structure)
        docs += [op.to_json(), to_bell_basis(op).to_json()]
    return docs


# an operator whose source inequality carries a huge exponent, and one that
# declares a dimension above qops.MAX_EIG_DIM
HUGE_EXPONENT_SOURCE = json.dumps({**operator_docs()[2], "source": json.loads(HUGE_EXPONENT)})
HUGE_DIM = json.dumps({**operator_docs()[2], "dim": 10**6})


@FUZZ
@given(doc=st.sampled_from(operator_docs()).flatmap(odd_json), out=st.booleans())
@example(doc='{"dim": 1, "entries": [[[1, 0]]], "angles": [1]}', out=False)
@example(doc=HUGE_EXPONENT_SOURCE, out=False)
@example(doc=HUGE_DIM, out=False)
def test_spectrum(workdir, doc, out):
    path = workdir / "operator.json"
    path.write_text(doc)
    out_args = ["--out", str(workdir / "spectrum.json")] if out else []
    run(["spectrum", "--operator", str(path), *out_args])


STATE_DOCS = [
    PureState(np.array([1, 0, 0, 1]) / np.sqrt(2)).to_json(),
    reference.to_bell(PureState(np.array([0, 1, 1j, 0]) / np.sqrt(2))).to_json(),
    PureState(np.array([0.6, 0, 0.8j, 0])).to_json(),
]


@FUZZ
@given(doc=st.sampled_from(STATE_DOCS).flatmap(odd_json))
def test_state(workdir, doc):
    path = workdir / "state.json"
    path.write_text(doc)
    run(["state", "analyze", "--state", str(path)])


def timed(argv):
    """``run(argv)`` and its wall time in seconds."""
    start = time.perf_counter()
    rc = run(argv)
    return rc, time.perf_counter() - start


@pytest.mark.parametrize(
    "command",
    [["bound", f"--angles={CH_ANGLES}"], ["polytope", "verify"],
     ["sweep", f"--schedule={CH_SCHEDULE}", "--grid=0:pi:3", "--out", "{out}"]],
    ids=["bound", "polytope-verify", "sweep"],
)
@pytest.mark.parametrize("ineq", [HUGE_EXPONENT, HUGE_NEGATIVE_EXPONENT], ids=["coeff", "bound"])
def test_huge_exponent_refused_at_once(workdir, command, ineq):
    command = [a.format(out=workdir / "sweep.csv") for a in command]
    rc, seconds = timed([command[0], *write_documents(workdir, (CH_STRUCTURE, ineq)), *command[1:]])
    assert rc == 2 and seconds < 1.0


@pytest.mark.parametrize("doc,code", [(HUGE_EXPONENT_SOURCE, 2), (HUGE_DIM, 3)], ids=["source", "dim"])
def test_operator_file_refused_at_once(workdir, doc, code):
    path = workdir / "operator.json"
    path.write_text(doc)
    rc, seconds = timed(["spectrum", "--operator", str(path)])
    assert rc == code and seconds < 1.0


def test_oversized_file(workdir):
    # valid JSON, refused by its size before it is parsed
    path = workdir / "big.json"
    path.write_text(" " * cli.MAX_INPUT_BYTES + json.dumps(catalog.ch_structure().to_json()))
    rc, seconds = timed(["polytope", "vertices", "--structure", str(path)])
    assert rc == 3 and seconds < 1.0


def test_file_one_byte_over_budget_is_not_parsed(workdir, monkeypatch):
    path = workdir / "over.json"
    path.write_bytes(b" " * (cli.MAX_INPUT_BYTES + 1))

    def loads(*args, **kwargs):
        raise AssertionError("an oversized input reached json.loads")

    monkeypatch.setattr(json, "loads", loads)
    assert run(["polytope", "vertices", "--structure", str(path)]) == 3


def test_small_file_is_read_into_its_own_size(workdir):
    # a buffer of the 4 MiB budget would be the whole traced peak
    path = workdir / "small.json"
    path.write_text(CH_INEQUALITY)
    cli._load_json(str(path))
    tracemalloc.start()
    try:
        doc = cli._load_json(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc == json.loads(CH_INEQUALITY) and peak < 128 * 1024


def test_device_is_read_up_to_the_budget():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["polytope", "vertices", "--structure", os.devnull])
    assert rc == 2
    assert err.getvalue() == (
        f"error: invalid JSON in {os.devnull}: Expecting value: line 1 column 1 (char 0)\n"
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_pipe_is_read_whole(workdir):
    # a pipe reports no size, so it is read up to the budget, not cut short
    path = workdir / "structure.pipe"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(CH_STRUCTURE,), daemon=True)
    writer.start()
    try:
        assert run(["polytope", "vertices", "--structure", str(path)]) == 0
    finally:
        writer.join(timeout=10)
