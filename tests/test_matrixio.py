"""Text format for matrices and observable files.

Round trips must be value-exact: format_entry prints the shortest repr
that parses back to the same float, so write-then-read is bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmeasure.errors import ParseError
from qmeasure.linalg import dagger
from qmeasure.matrixio import (
    format_entry,
    format_matrix,
    parse_entry,
    parse_matrix,
    parse_observable_text,
    read_matrix,
    read_observable_file,
    write_matrix,
)


GOOD_ENTRIES = [
    ("1.0+2.0i", 1.0 + 2.0j),
    ("1.0-2.0i", 1.0 - 2.0j),
    ("-0.5+0.25i", -0.5 + 0.25j),
    ("3", 3.0),
    ("-4.5", -4.5),
    ("2i", 2.0j),
    ("-0.25i", -0.25j),
    ("i", 1.0j),
    ("-i", -1.0j),
    ("1e-3+2.5e2i", 1e-3 + 250.0j),
    ("1E3", 1000.0),
]

BAD_ENTRIES = [
    "1+2j",
    "(1+2i)",
    "1_000",
    "nan",
    "inf+0.0i",
    "-inf",
    "1.0 + 2.0i",
    "1.0+2.0i+3.0i",
    "1.0i+2.0",
    "",
    "abc",
    "++1",
]


@pytest.mark.parametrize("text,value", GOOD_ENTRIES)
def test_parse_entry_accepts(text, value):
    assert parse_entry(text) == value


@pytest.mark.parametrize("text", BAD_ENTRIES)
def test_parse_entry_rejects(text):
    with pytest.raises(ParseError):
        parse_entry(text)


def test_format_entry_roundtrip_exact():
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = complex(rng.standard_normal() * 10.0 ** rng.integers(-8, 9),
                    rng.standard_normal() * 10.0 ** rng.integers(-8, 9))
        assert parse_entry(format_entry(z)) == z


def test_format_entry_negative_zero_imag():
    # sign of the imaginary part is carried by the separator
    assert format_entry(1.0 - 0.25j) == "1.0-0.25i"
    assert format_entry(1.0 + 0.25j) == "1.0+0.25i"


def test_matrix_roundtrip_exact():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = (g + dagger(g)) / 2.0
    again = parse_matrix(format_matrix(m), "roundtrip")
    assert np.array_equal(m, again)


def test_parse_matrix_with_comments_and_blanks():
    text = """
# a comment
dim 2

1.0+0.0i 2.0+0.0i
# interior comment
2.0+0.0i -1.0+0.0i
"""
    m = parse_matrix(text, "commented")
    np.testing.assert_array_equal(m, np.array([[1.0, 2.0], [2.0, -1.0]]))


def test_parse_matrix_errors():
    with pytest.raises(ParseError):
        parse_matrix("dim 2\n1 2\n", "short")  # missing a row
    with pytest.raises(ParseError):
        parse_matrix("dim 2\n1 2 3\n4 5\n", "ragged")
    with pytest.raises(ParseError):
        parse_matrix("dim 0\n", "empty")
    with pytest.raises(ParseError):
        parse_matrix("size 2\n1 2\n3 4\n", "bad header")
    with pytest.raises(ParseError):
        parse_matrix("dim 2\n1 2\n3 4\n5 6\n", "trailing row")
    with pytest.raises(ParseError):
        parse_matrix("", "empty file")
    with pytest.raises(ParseError):
        parse_matrix("dim " + "1" * 5000 + "\n", "more digits than int() reads")


def test_parse_matrix_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_matrix("dim 2\n1.0 2.0\n3.0 oops\n", "lines")
    assert ":3:" in str(err.value)


LONG = "x" * 5000


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_matrix, "dim " + "1" * 5000),
        (parse_matrix, "dim 1\n1.0\n" + LONG),
        (parse_matrix, "dim 1\n" + LONG),
        (parse_matrix, "dim 1\n1.0" + "0" * 5000 + "i1"),
        (parse_matrix, "dim 1\n1e999" + "0" * 5000),
        (parse_observable_text, "spectral\ndim 1\npairs " + LONG),
        (parse_observable_text, "spectral\ndim 1\npairs 1\n" + LONG),
        (parse_observable_text, "spectral\ndim 1\npairs 1\neigenvalue " + LONG),
    ],
    ids=["dim", "trailing", "row", "entry", "non-finite", "pairs", "eigenvalue-header", "eigenvalue"],
)
def test_parse_errors_quote_at_most_80_characters(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text, "long")
    message = str(err.value)
    assert len(message) < 160 and message.endswith("...")


def test_file_roundtrip(tmp_path):
    path = tmp_path / "m.txt"
    m = np.array([[0.5, 0.25 - 0.1j], [0.25 + 0.1j, 0.5]])
    write_matrix(path, m, comment="state file")
    assert np.array_equal(read_matrix(path), m)
    first = path.read_text()
    assert first.startswith("# state file\n")


def test_read_missing_file():
    with pytest.raises(ParseError):
        read_matrix("/nonexistent/nowhere.txt")


def test_observable_plain_matrix():
    kind, payload = parse_observable_text("dim 2\n1 0\n0 -1\n", "obs")
    assert kind == "matrix"
    np.testing.assert_array_equal(payload, np.diag([1.0, -1.0]))


SPECTRAL_TEXT = """spectral
dim 2
pairs 2
eigenvalue -1.0
0.0+0.0i 0.0+0.0i
0.0+0.0i 1.0+0.0i
eigenvalue 1.0
1.0+0.0i 0.0+0.0i
0.0+0.0i 0.0+0.0i
"""


def test_observable_spectral_block():
    kind, pairs = parse_observable_text(SPECTRAL_TEXT, "obs")
    assert kind == "spectral"
    assert [v for v, _ in pairs] == [-1.0, 1.0]
    np.testing.assert_array_equal(pairs[0][1], np.diag([0.0, 1.0]))


def test_observable_spectral_errors():
    with pytest.raises(ParseError):
        parse_observable_text("spectral\ndim 2\npairs 1\n", "truncated")
    with pytest.raises(ParseError):
        parse_observable_text("spectral\ndim 2\npairs " + "1" * 5000 + "\n", "more digits than int() reads")
    with pytest.raises(ParseError):
        parse_observable_text(
            SPECTRAL_TEXT.replace("pairs 2", "pairs 3"), "count mismatch"
        )


def test_read_observable_file(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text(SPECTRAL_TEXT)
    kind, pairs = read_observable_file(path)
    assert kind == "spectral"
    assert len(pairs) == 2


# ------------------------------------------------------------ fuzzing

# pieces of the grammar, near misses and hostile input; Hypothesis tries
# the first entries of a list most often, so the most hostile come first
NUMBERS = ["1" * 5000, "0", "1", "2", "8", "01", "-1", "+3", "\u0661", "\uff11"]
ENTRIES = [
    "1.5", "-0.0", "1e308", "-1e308", "1e999", "5e-324", "nan", "inf", "-inf", "1+2i", "1-2i",
    "2i", "-i", "i", "1e+3-4e-2i", "1+2j", "(1+2j)", "1_0", "1ii", "i1", "+", "-", "e", ".", "0x1",
]
OTHER = ["#", "\x00", "\xe9", "\ud7ff", "\t", "dimdim", "spectral spectral"]


@st.composite
def token_soups(draw):
    """Header lines with good and bad arguments, rows of entries, and
    garbage, so that line-level grammar errors come up often."""
    # a valid start reaches the later states of the grammar
    start = draw(st.sampled_from(["", "spectral", "dim 1", "spectral\ndim 1", "spectral\ndim 1\npairs 1"]))
    header = st.tuples(
        st.sampled_from(["dim", "pairs", "eigenvalue", "spectral", "#"]),
        st.one_of(st.sampled_from(NUMBERS), st.sampled_from(ENTRIES)),
    ).map(" ".join)
    row = st.lists(st.sampled_from(ENTRIES + NUMBERS), max_size=3).map(" ".join)
    garbage = st.lists(st.sampled_from(NUMBERS + ENTRIES + OTHER), max_size=3).map("".join)
    lines = draw(st.lists(st.one_of(header, row, garbage), max_size=12))
    return draw(st.sampled_from(["\n", "\r\n"])).join([start, *lines])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(token_soups(), st.text(max_size=200)))
def test_any_text_parses_or_raises_parse_error(text):
    for parse in (parse_matrix, parse_observable_text):
        try:
            parse(text)
        except ParseError:
            pass


# entries that stress the shortest-repr round trip
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308]


@st.composite
def matrices(draw):
    dim = draw(st.integers(1, 8))
    parts = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
    values = draw(st.lists(st.tuples(parts, parts), min_size=dim * dim, max_size=dim * dim))
    return np.array([complex(a, b) for a, b in values]).reshape(dim, dim)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(matrices())
def test_format_then_parse_is_bitwise(m):
    again = parse_matrix(format_matrix(m))
    assert again.tobytes() == m.tobytes()
