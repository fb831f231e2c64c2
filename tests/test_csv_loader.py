"""CSV loader: the np.loadtxt fast path against the row-by-row parser."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bezier_dp import DataFormatError, harness, load_csv_dataset


def _outcome(load, path, clip_input):
    """(array bytes, shape) on success, the DataFormatError text otherwise."""
    try:
        arr = load(path, clip_input)
    except DataFormatError as exc:
        return str(exc)
    arr = np.asarray(getattr(arr, "values", arr))
    return arr.tobytes(), arr.shape


_IN_RANGE = st.one_of(
    st.floats(0.0, 1.0).map(lambda v: "%.17g" % v),
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(["0", "1", "0.5", " 0.1 ", "\t0.25", "1e-3", ".5", "+0.5", "-0", "5e-324"]),
)
_ODD_CELLS = (
    "", " ", "x", "#", "0.1 # c", "# 0.1", '"0.1"', '" 0.1"', '"0.1,0.2"', '"x"', "0.1_0",
    "1_0", "inf", "-inf", "nan", "NaN", "Infinity", "1e400", "1.5", "-0.25", "2", "0x1p-1",
    "١", "\x1c0.1", "0.1\x1f", "\xa00.3", "0.3\x00", "\ufeff0.1", "0.1\x0b",
    "0." + "1" * 200_000,  # longer than the csv module's field limit
)
_ODD_CELL = st.one_of(st.sampled_from(_ODD_CELLS), st.text("0123456789.,e-+ x#\"\t\x1c", max_size=4))
_BLANK = st.sampled_from(["", " ", "\t", ",", " , ", ",,", '""'])
_REGULAR = {w: st.lists(_IN_RANGE, min_size=w, max_size=w) for w in (1, 2, 3, 4)}
_HEADER = st.sampled_from(["x", "x,y", "a,b,c", "x,0.5", "0.5,x", '"x",y', "#x", '"0.1"', '" 0.1"'])
_DEFECT = st.sampled_from(["blank", "odd", "odd", "ragged"])


@st.composite
def csv_texts(draw):
    # Regular rows with at most a few defects: one odd cell or ragged row in
    # an otherwise good file is where the two parsers could disagree.
    width = draw(st.integers(1, 3))
    lines = [draw(_REGULAR[width]) for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(_DEFECT)
        if kind == "blank":
            cells = [draw(_BLANK)]
        elif kind == "ragged":
            cells = draw(_REGULAR[draw(st.sampled_from([w for w in _REGULAR if w != width]))])
        else:
            cells = draw(_REGULAR[width])
            cells[draw(st.integers(0, width - 1))] = draw(_ODD_CELL)
        lines.insert(draw(st.integers(0, len(lines))), cells)
    lines = [",".join(cells) for cells in lines]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, min(1, len(lines)))), draw(_HEADER))
    lines[:0] = draw(st.lists(_BLANK, max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "data.csv"


@given(text=csv_texts(), clip_input=st.booleans())
@settings(max_examples=500, deadline=None)
def test_fast_path_agrees_with_row_parser(csv_path, text, clip_input):
    # The public loader tries np.loadtxt first; whatever it returns must be
    # exactly what the row parser gives, array bit for bit or error text.
    csv_path.write_bytes(text.encode("utf-8"))
    got = _outcome(load_csv_dataset, str(csv_path), clip_input)
    assert got == _outcome(harness._load_csv_rows, str(csv_path), clip_input)


@pytest.mark.parametrize("clip_input", [False, True])
def test_odd_cells_agree_with_row_parser(csv_path, clip_input):
    # Hypothesis draws each odd cell only now and then; here every one of
    # them sits in every position that the header rule or np.loadtxt treats
    # differently: alone on the first line, after it, beside a number.
    templates = ("{c}\n0.5\n", "0.5\n{c}\n", "0.25,{c}\n0.5,0.5\n", "x\n{c}\n", "{c},{c}\n0.5,0.5\n")
    for cell in _ODD_CELLS:
        for template in templates:
            csv_path.write_bytes(template.format(c=cell).encode("utf-8"))
            got = _outcome(load_csv_dataset, str(csv_path), clip_input)
            assert got == _outcome(harness._load_csv_rows, str(csv_path), clip_input), (
                template.format(c=cell)[:80]
            )


@given(raw=st.lists(st.sampled_from([b"a", b"\n", b"\r"]), max_size=40).map(b"".join),
       limit=st.integers(1, 12))
def test_long_line_scan_matches_split(raw, limit):
    longest = max(len(line) for line in re.split(rb"\r|\n", raw))
    assert harness._has_line_over(raw, limit) == (longest > limit)


def test_well_formed_file_skips_row_parser(tmp_path, monkeypatch):
    def forbidden(*_args):
        raise AssertionError("row parser called on a well-formed file")

    monkeypatch.setattr(harness, "_load_csv_rows", forbidden)
    p = tmp_path / "ok.csv"
    p.write_text("\ufeff\n x , y \r\n0.25,1\r\n\r\n0,0.5\r\n")
    assert load_csv_dataset(str(p)).values.tolist() == [[0.25, 1.0], [0.0, 0.5]]
    p.write_text("-0.5\n1.5\n")
    assert load_csv_dataset(str(p), clip_input=True).values.ravel().tolist() == [0.0, 1.0]


def test_large_file_error_names_its_line(tmp_path):
    lines = ["0.25,0.75"] * 100_000
    lines[73_000] = "0.25,oops"  # line 73,001
    p = tmp_path / "big.csv"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=r"row 73001: non-numeric cell"):
        load_csv_dataset(str(p))


def test_round_trip_file_matches_loadtxt(tmp_path):
    # The "%.17g" layout perfbench/workloads.py::_write_csv writes.
    rng = np.random.default_rng(7)
    table = np.column_stack([rng.beta(2.0, 5.0, 100_000), rng.random(100_000)])
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    p = tmp_path / "pair.csv"
    p.write_text((line * table.shape[0]) % tuple(table.ravel().tolist()))
    got = load_csv_dataset(str(p)).values
    want = np.loadtxt(p, delimiter=",", ndmin=2)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert got.tobytes() == table.tobytes()
