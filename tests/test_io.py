import tracemalloc

import numpy as np
import pytest
from conftest import random_density

from mubgeo.core import Modulus
from mubgeo.errors import IncompleteProbabilitiesError, MissingLineError
from mubgeo.io import (
    matrix_to_json,
    parse_matrix_json,
    parse_probabilities_csv,
    parse_quasi_csv,
    probabilities_to_csv,
    quasi_to_csv,
    quasi_to_json,
)
from mubgeo.phasespace import map_operator, probabilities_from_state

MOD3 = Modulus(3)


def test_format_float_17_digits():
    # every writer prints a value as format(x, ".17g") does, the edges of float64 included
    tiny, top = np.nextafter(0, 1), np.finfo(float).max
    values = [1 / 3, 1.0, 0.1 + 0.2, -0.0, tiny, -tiny, np.finfo(float).tiny, top, -top]
    text = matrix_to_json(np.array([values]))
    assert '[0.33333333333333331, 1, 0.30000000000000004, -0, 4.9406564584124654e-324,' in text
    assert "    [" + ", ".join(format(v, ".17g") for v in values) + "]" in text
    assert float("0.30000000000000004") == 0.1 + 0.2
    with pytest.raises(ValueError):
        matrix_to_json(np.array([[float("nan")]]))


def test_matrix_json_round_trip_is_exact(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    text = matrix_to_json(m)
    again = parse_matrix_json(text)
    assert np.array_equal(again, m)
    assert matrix_to_json(again) == text


def test_matrix_json_layout():
    text = matrix_to_json(np.eye(2, dtype=complex))
    assert text.startswith('{\n  "d": 2,\n  "re": [\n')
    assert text.endswith("\n}\n")
    parsed = parse_matrix_json(text)
    assert parsed.shape == (2, 2)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"d": 2, "re": [[1, 0], [0, 1]]}',
        '{"d": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]}',
        '{"d": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, "x"]]}',
        '{"d": true, "re": [[1]], "im": [[0]]}',
        "[1, 2]",
    ],
)
def test_matrix_json_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_matrix_json(text)


@pytest.mark.parametrize(
    "entry",
    ["1" + "0" * 400, "-" + "9" * 309, "NaN", "Infinity"],
    ids=["10^400", "-(10^309-1)", "nan", "inf"],
)
def test_matrix_json_refuses_an_entry_that_is_no_finite_float(entry):
    # an integer past the float range is refused as nan and inf are, with no OverflowError
    text = '{"d": 1, "re": [[%s]], "im": [[0]]}' % entry
    with pytest.raises(ValueError, match=r"matrix entry .* is not a finite number"):
        parse_matrix_json(text)


def test_matrix_json_rejects_non_finite():
    m = np.zeros((2, 2), dtype=complex)
    m[0, 0] = np.inf
    with pytest.raises(ValueError):
        matrix_to_json(m)


def test_quasi_csv_layout_and_round_trip():
    quasi = map_operator(MOD3, np.eye(3) / 3)
    text = quasi_to_csv(quasi)
    lines = text.splitlines()
    assert lines[0] == "m_minus1,m0,value"
    assert len(lines) == 10
    assert lines[1].startswith("0,0,")
    assert lines[-1].startswith("2,2,")
    again = parse_quasi_csv(text, MOD3)
    assert np.array_equal(again.values, quasi.values)
    assert quasi_to_csv(again) == text


def test_quasi_csv_missing_row():
    quasi = map_operator(MOD3, np.eye(3) / 3)
    lines = quasi_to_csv(quasi).splitlines()
    with pytest.raises(MissingLineError, match=r"\(2,2\)"):
        parse_quasi_csv("\n".join(lines[:-1]) + "\n", MOD3)


def test_quasi_csv_duplicate_row():
    quasi = map_operator(MOD3, np.eye(3) / 3)
    text = quasi_to_csv(quasi) + "1,1,0.5\n"
    with pytest.raises(MissingLineError, match="duplicate"):
        parse_quasi_csv(text, MOD3)


def test_quasi_csv_label_out_of_range():
    text = "m_minus1,m0,value\n5,0,1.0\n"
    with pytest.raises(MissingLineError):
        parse_quasi_csv(text, MOD3)


def test_quasi_csv_bad_header():
    with pytest.raises(ValueError, match="header"):
        parse_quasi_csv("a,b,c\n0,0,1\n", MOD3)


def test_quasi_json_shape():
    quasi = map_operator(MOD3, np.eye(3) / 3)
    import json

    data = json.loads(quasi_to_json(quasi))
    assert data["d"] == 3
    assert len(data["values"]) == 9
    assert set(data["values"][0]) == {"m_minus1", "m0", "value"}


def test_probabilities_csv_round_trip(rng):
    probs = probabilities_from_state(MOD3, random_density(rng, 3))
    text = probabilities_to_csv(probs)
    lines = text.splitlines()
    assert lines[0] == "m,b,value"
    assert lines[1].startswith("0,-1,")
    assert len(lines) == 13
    again = parse_probabilities_csv(text, MOD3)
    assert np.array_equal(again.values, probs.values)
    assert probabilities_to_csv(again) == text


def test_probabilities_csv_incomplete():
    probs = probabilities_from_state(MOD3, np.eye(3) / 3)
    lines = probabilities_to_csv(probs).splitlines()
    with pytest.raises(IncompleteProbabilitiesError):
        parse_probabilities_csv("\n".join(lines[:-2]) + "\n", MOD3)


def test_probabilities_csv_duplicate():
    probs = probabilities_from_state(MOD3, np.eye(3) / 3)
    text = probabilities_to_csv(probs) + "0,0,0.1\n"
    with pytest.raises(IncompleteProbabilitiesError, match="duplicate"):
        parse_probabilities_csv(text, MOD3)


def test_missing_labels_are_named_in_label_order():
    skipped = {(0, 2), (1, 0), (2, 1)}
    rows = [f"{a},{b},0.5" for a in range(3) for b in range(3) if (a, b) not in skipped]
    with pytest.raises(MissingLineError) as exc:
        parse_quasi_csv("\n".join(["m_minus1,m0,value", *rows]) + "\n", MOD3)
    assert str(exc.value) == "3 line labels missing (first: (0,2), (1,0), (2,1))"
    skipped = {(2, -1), (1, 0), (0, 2), (2, 2), (1, 2)}
    rows = [f"{m},{b},0.5" for b in range(-1, 3) for m in range(3) if (m, b) not in skipped]
    with pytest.raises(IncompleteProbabilitiesError) as exc:
        parse_probabilities_csv("\n".join(["m,b,value", *rows]) + "\n", MOD3)
    assert str(exc.value) == "5 point labels missing (first: (2,-1), (1,0), (0,2), (1,2))"


@pytest.mark.parametrize(
    "parse, text, error, message",
    [
        (
            parse_quasi_csv,
            "m_minus1,m0,value\n0,0,1.0\n",
            MissingLineError,
            "1018080 line labels missing (first: (0,1), (0,2), (0,3), (0,4))",
        ),
        (
            parse_probabilities_csv,
            "m,b,value\n0,-1,1.0\n",
            IncompleteProbabilitiesError,
            "1019089 point labels missing (first: (1,-1), (2,-1), (3,-1), (4,-1))",
        ),
    ],
    ids=["quasi", "probabilities"],
)
def test_missing_labels_cost_a_few_tables_not_a_list(parse, text, error, message):
    # one row at d = 1009: the message names a million missing labels without listing them,
    # and no d-sized table is built for a file that cannot fill it
    d = 1009
    tracemalloc.start()
    try:
        with pytest.raises(error) as exc:
            parse(text, Modulus(d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 1_000_000



# both layouts share one reader: each error names the file, the label word and the offender
READERS = {
    "line": (parse_quasi_csv, MissingLineError, "m_minus1,m0,value"),
    "point": (parse_probabilities_csv, IncompleteProbabilitiesError, "m,b,value"),
}


def _read(word, rows, header=None):
    parse, _, default = READERS[word]
    return parse("\n".join([default if header is None else header, *rows]) + "\n", MOD3)


@pytest.mark.parametrize(
    "word, rows, message",
    [
        ("line", ["3,0,1"], "line label (3,0) is out of range for d=3"),
        ("line", ["0,3,1"], "line label (0,3) is out of range for d=3"),
        ("line", ["0,-1,1"], "line label (0,-1) is out of range for d=3"),
        ("line", ["-1,0,1"], "line label (-1,0) is out of range for d=3"),
        ("point", ["0,-2,1"], "point label (0,-2) is out of range for d=3"),
        ("point", ["3,0,1"], "point label (3,0) is out of range for d=3"),
        ("point", ["0,3,1"], "point label (0,3) is out of range for d=3"),
        ("point", ["-1,0,1"], "point label (-1,0) is out of range for d=3"),
        ("line", ["1,2,1", "0,0,1", "1,2,0.5"], "duplicate row for line (1,2)"),
        ("point", ["1,-1,1", "2,0,1", "1,-1,1"], "duplicate row for point (1,-1)"),
        ("line", [], "9 line labels missing (first: (0,0), (0,1), (0,2), (1,0))"),
        ("line", ["0,1,1", "1,0,1"], "7 line labels missing (first: (0,0), (0,2), (1,1), (1,2))"),
        ("point", [], "12 point labels missing (first: (0,-1), (1,-1), (2,-1), (0,0))"),
        (
            "point",
            ["1,-1,1", "0,0,1"],
            "10 point labels missing (first: (0,-1), (2,-1), (1,0), (2,0))",
        ),
    ],
)
def test_reader_label_errors_keep_their_text_and_type(word, rows, message):
    with pytest.raises(ValueError) as exc:
        _read(word, rows)
    assert type(exc.value) is READERS[word][1]
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "word, rows, message",
    [
        ("line", ["0,0"], "quasi-distribution CSV rows need 3 fields, got ['0', '0']"),
        ("point", ["0,0,1,2"], "probability CSV rows need 3 fields, got ['0', '0', '1', '2']"),
        (
            "line",
            ["0,x,1"],
            "malformed quasi-distribution CSV row ['0', 'x', '1']:"
            " invalid literal for int() with base 10: 'x'",
        ),
        (
            "point",
            ["0,0,one"],
            "malformed probability CSV row ['0', '0', 'one']:"
            " could not convert string to float: 'one'",
        ),
        ("line", ["0,0,nan"], "quasi-distribution CSV value 'nan' is not finite"),
        ("point", ["0,0,-inf"], "probability CSV value '-inf' is not finite"),
        (
            "line",
            ["0,0,1", "0,1,"],
            "malformed quasi-distribution CSV row ['0', '1', '']:"
            " could not convert string to float: ''",
        ),
    ],
)
def test_reader_row_errors_keep_their_text_and_type(word, rows, message):
    with pytest.raises(ValueError) as exc:
        _read(word, rows)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "word, header, message",
    [
        ("line", "m,b,value", "quasi-distribution CSV must start with header 'm_minus1,m0,value'"),
        ("point", "m_minus1,m0,value", "probability CSV must start with header 'm,b,value'"),
        ("point", "", "probability CSV must start with header 'm,b,value'"),
    ],
)
def test_reader_header_errors_keep_their_text_and_type(word, header, message):
    with pytest.raises(ValueError) as exc:
        _read(word, ["0,0,1"], header)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message
