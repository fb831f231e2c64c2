"""CSV loader: the np.loadtxt fast path against the row-by-row parser."""

import re
from fractions import Fraction

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
    # The "%.17g" layout perfbench/workloads.py::_write_csv writes.  Uniform
    # values below 1e-4 are written with an exponent.
    rng = np.random.default_rng(7)
    for kind in ("beta", "uniform"):
        first = rng.beta(2.0, 5.0, 100_000) if kind == "beta" else rng.random(100_000)
        table = np.column_stack([first, rng.random(100_000)])
        line = ",".join(["%.17g"] * table.shape[1]) + "\n"
        p = tmp_path / "pair.csv"
        p.write_text((line * table.shape[0]) % tuple(table.ravel().tolist()))
        got = load_csv_dataset(str(p)).values
        want = np.loadtxt(p, delimiter=",", ndmin=2)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.tobytes() == table.tobytes()
    assert p.read_bytes().count(b"e-") >= 5  # the uniform file has exponent fields


# ---------------------------------------------------------------------------
# the plain-decimal tier, field by field against float()
# ---------------------------------------------------------------------------

x87 = pytest.mark.skipif(not harness._X87_LONGDOUBLE, reason="needs x87 extended precision")


def _tier(fields, width=1, newline_at_end=True, chunk=harness._CHUNK):
    """The tier's array for `fields` laid out `width` to a line, or None.

    Any share of sign and exponent fields is re-read here, so that every
    field form reaches the tier.
    """
    lines = [",".join(fields[i:i + width]) for i in range(0, len(fields), width)]
    raw = ("\n".join(lines) + ("\n" if newline_at_end else "")).encode()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_CHUNK", chunk)
        mp.setattr(harness, "_MAX_REREAD_SHARE", 1.0)
        return harness._plain_decimals(raw, 0)


def _same_as_float(fields, width=1, newline_at_end=True, chunk=harness._CHUNK):
    got = _tier(fields, width, newline_at_end, chunk)
    want = np.array([float(f) for f in fields]).reshape(-1, width)
    assert got is not None and got.shape == want.shape
    wrong = [f for f, g in zip(fields, got.ravel()) if g != float(f)]
    assert got.tobytes() == want.tobytes(), wrong


_FORMATS = st.one_of(
    st.sampled_from(["%.17g", "%.16g", "%r"]),
    st.integers(0, 18).map(lambda k: f"%.{k}f"),  # 1.0 at "%.18f" is the largest D, 10**18
    st.integers(0, 17).map(lambda k: f"%.{k}e"),
)


@x87
@given(cells=st.lists(st.tuples(st.floats(0.0, 1.0), _FORMATS), min_size=1, max_size=60),
       width=st.integers(1, 3), newline_at_end=st.booleans(),
       chunk=st.sampled_from([128, harness._CHUNK]))
@settings(max_examples=300, deadline=None)
def test_tier_matches_float_bit_for_bit(cells, width, newline_at_end, chunk):
    # 128-byte chunks cut most files into several blocks at line ends.
    fields = [fmt % v for v, fmt in cells]
    fields += ["0.5"] * (-len(fields) % width)
    _same_as_float(fields, width, newline_at_end, chunk)


def test_power_table_is_exact():
    assert [int(t) for t in harness._TEN] == [10**q for q in range(28)]


def _forced_midpoint():
    # A seeded scan for a 19-digit decimal whose 64-bit quotient is exactly a
    # midpoint between doubles and on the other side of it from the decimal,
    # so that rounding the quotient to double gives the wrong neighbor.
    rng = np.random.default_rng(20261019)
    while True:
        d = rng.integers(10**18, 10**19, 4096, dtype=np.uint64)
        quotient = d.astype(np.longdouble) / harness._TEN[19]
        for i in np.flatnonzero((quotient.view(np.uint64)[::2] & 2047) == 1024):
            field = "0." + str(int(d[i])).rjust(19, "0")
            if float(quotient[i]) != float(field):
                return field, quotient[i]


@x87
def test_forced_midpoint_is_read_by_float():
    field, quotient = _forced_midpoint()
    x = float(field)
    other = float(quotient)
    exact = Fraction(*quotient.as_integer_ratio())
    assert exact == (Fraction(x) + Fraction(other)) / 2  # a midpoint ...
    # ... on the far side from the decimal
    assert abs(Fraction(field) - Fraction(x)) < abs(Fraction(field) - Fraction(other))
    _same_as_float([field, "0.25", field], width=3)


@x87
def test_tier_edge_fields():
    _same_as_float(["0." + "1234567890" + "123456789"])  # 19 significant digits
    _same_as_float(["9" * 19, "0" * 40 + "1", "000.5", "0.5000"])  # the largest D; leading zeros
    _same_as_float(["0." + "0" * 26 + "1", "0." + "0" * 27 + "1"])  # q = 27 divides, 28 does not
    _same_as_float(["5.", ".5", "0", "1", "1E-5", "2.5e-07", "1e-400"], newline_at_end=False)
    _same_as_float(["-0.5", "+.5", "-0", "1E+00", "-1e-3"])  # signs: float() reads them
    assert _tier(["0.5", "0." + "1234567890" * 2]) is None  # 20 digits: D >= 10**19
    assert _tier(["0." + "9" * 25]) is None  # np.fromstring saturates
    for odd in (".", "", "1.2.3", "0.5 ", "0.5\r", "0x1", "nan"):
        assert _tier(["0.5", odd]) is None, odd
    for bad in ("e", "1e", "5e-", "1+e5", "1-5", "--5"):
        with pytest.raises(ValueError):
            _tier(["0.5", bad])


@x87
def test_many_exponents_go_to_loadtxt():
    raw = ("%.6e\n" * 400 % tuple(np.linspace(0.01, 1.0, 400))).encode()
    assert harness._plain_decimals(raw, 0) is None
    fields = ["%.17g" % v for v in np.linspace(0.0, 1.0, 2000)]
    fields[::500] = ["1.5e-05"] * 4  # 4 exponent fields among 2000
    assert harness._plain_decimals(("\n".join(fields) + "\n").encode(), 0) is not None


@x87
def test_width_change_across_chunks(tmp_path, monkeypatch):
    lines = ["0.25,0.5"] * 10 + ["0.25"] * 10  # line 11 is the first of width 1
    raw = ("\n".join(lines) + "\n").encode()
    assert harness._plain_decimals(raw, 0) is None  # one block: declined
    assert harness._plain_decimals(b"0.25,0.5\n0.25\n0.25,0.5,0.75\n", 0) is None  # 6 = 3 x 2
    monkeypatch.setattr(harness, "_CHUNK", 81)  # the first block ends after line 10
    with pytest.raises(ValueError):
        harness._plain_decimals(raw, 0)
    p = tmp_path / "ragged.csv"
    p.write_bytes(raw)
    with pytest.raises(DataFormatError, match=r"row 11: expected 2 column\(s\), got 1"):
        load_csv_dataset(str(p))


@pytest.mark.parametrize("text", [
    "x,y\r0.25,0.5\n0.5,0.75\n", "\r\n\rx\r\n0.5\n0.25\n", "\n\r0.5\n0.25\n", "x\r\n0.5\n",
    "\ufeff\n\nx\n0.5\n0.25",
])
def test_line_ends_before_data_agree_with_row_parser(csv_path, text):
    # The tier starts at a byte offset; a CR before the first data row ends a
    # line for the header rule but not for a search for LF.
    csv_path.write_bytes(text.encode("utf-8"))
    want = _outcome(harness._load_csv_rows, str(csv_path), False)
    assert _outcome(load_csv_dataset, str(csv_path), False) == want


def test_header_only_file_has_no_data_offset(csv_path):
    csv_path.write_bytes(b"\n\nx,y")
    assert harness._csv_lines_before_data(str(csv_path))[1:] == (3, 5)  # offset: the end
    with pytest.raises(DataFormatError, match="no data rows after the header"):
        load_csv_dataset(str(csv_path))


def _plain_file(tmp_path):
    # a byte-order mark, a blank line and a header before 200 plain rows,
    # one with an exponent, the last without LF
    table = np.linspace(0.0, 1.0, 400).reshape(200, 2)
    table[7, 1] = 1e-05
    rows = "\n".join("%.17g,%.17g" % tuple(row) for row in table.tolist())
    p = tmp_path / "plain.csv"
    p.write_text("\ufeff\nx,y\n" + rows)
    return p, table


@x87
def test_plain_decimal_file_skips_loadtxt(tmp_path, monkeypatch):
    def forbidden(*_args, **_kw):
        raise AssertionError("np.loadtxt called on a plain-decimal file")

    p, table = _plain_file(tmp_path)
    monkeypatch.setattr(np, "loadtxt", forbidden)
    got = load_csv_dataset(str(p)).values
    assert got.shape == table.shape and got.tobytes() == table.tobytes()


@x87
def test_one_dot_file_with_exponents_skips_the_dot_search(tmp_path, monkeypatch):
    # Every field of a "%.17g" file holds one dot, its exponent fields too, so
    # the tier reads digit counts off the field bounds and finds the field of
    # each exponent byte by counting separators: no binary search.
    def forbidden(*_args, **_kw):
        raise AssertionError("np.searchsorted or np.loadtxt called on a one-dot file")

    table = np.linspace(0.001, 0.999, 400).reshape(200, 2)
    table[7, 1], table[150, 0] = 1e-05, 2.5e-07
    p = tmp_path / "one_dot.csv"
    p.write_text("x,y\n" + "".join("%.17g,%.17g\n" % tuple(row) for row in table.tolist()))
    assert p.read_text().count("e-0") == 2
    monkeypatch.setattr(np, "searchsorted", forbidden)
    monkeypatch.setattr(np, "loadtxt", forbidden)
    got = load_csv_dataset(str(p)).values
    assert got.shape == table.shape and got.tobytes() == table.tobytes()


@x87
@pytest.mark.parametrize("chunk", [128, harness._CHUNK])
def test_blocks_with_and_without_one_dot_per_field(chunk):
    # Fields without a dot ("0", "1") send their block to the dot search;
    # "5." and ".5" hold one dot at either end of the field.  128-byte chunks
    # put one-dot blocks beside searched ones in one file.
    one_dot = ["%.17g" % v for v in np.linspace(0.01, 0.99, 40)]
    _same_as_float(one_dot[:20] + ["0", "1", "5.", ".5"] + one_dot[20:], width=2, chunk=chunk)
    _same_as_float(["5.", ".5"] + one_dot + [".5", "5."], width=2, chunk=chunk)
    _same_as_float(["0", "1"] * 30 + one_dot, chunk=chunk)
    # as many dots as fields, but two in one field and none in the other
    assert _tier(["1.2.3", "0"], chunk=chunk) is None
    assert _tier(["1.2.3", "0"], width=2, chunk=chunk) is None
    assert _tier(one_dot[:30] + ["1.2.3", "0"] + one_dot[30:], width=2, chunk=chunk) is None
    assert _tier([".", "0.5"] + one_dot, chunk=chunk) is None  # one dot each, one field lone


@pytest.mark.parametrize("text", [
    "x\x1c,y\n0.25,0.5\n0.5,0.75\n", "x,y\n0.25,0.5\n0.5,\x1c0.75\n", "0.25,0.5\x1f\n0.5,0.75\n",
    "x\r\n0.25\n\x1e0.5\n", "\x1d\n0.25\n0.5\n",
])
def test_numpy_only_whitespace_agrees_with_row_parser(csv_path, text):
    # numpy strips \x1c-\x1f around a number, float() rejects them.  The tier
    # declines them in data rows; where it reads, only the lines before the
    # data are scanned for them, and the whole file before np.loadtxt reads.
    csv_path.write_bytes(text.encode("utf-8"))
    want = _outcome(harness._load_csv_rows, str(csv_path), False)
    assert _outcome(load_csv_dataset, str(csv_path), False) == want


def test_without_long_double_loadtxt_reads_the_same(tmp_path, monkeypatch):
    p, _table = _plain_file(tmp_path)
    tiered = load_csv_dataset(str(p)).values
    calls = []
    real = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    monkeypatch.setattr(harness, "_X87_LONGDOUBLE", False)
    plain = load_csv_dataset(str(p)).values
    assert len(calls) == 1 and plain.tobytes() == tiered.tobytes() and plain.shape == tiered.shape


@x87
@pytest.mark.parametrize("chunk", [128, harness._CHUNK])
def test_every_byte_value_keeps_the_tier_outcome(chunk, monkeypatch):
    # A block of only digits, ".", "," and LF skips the byte-class translate;
    # any other byte sends its block through it.  Each byte value inserted at
    # four places in a plain "%.17g" block gives the outcome the translate path
    # gives: an array bit for bit float()'s, ValueError, or None.
    vals = np.linspace(0.013, 0.987, 60).reshape(30, 2)
    base = "".join("%.17g,%.17g\n" % tuple(pair) for pair in vals.tolist()).encode()
    line = base.index(b"\n", len(base) // 2) + 1  # "0.5...": 18 digits, room for a 19th
    places = {"start": 0, "mid": line + 4, "before_lf": base.index(b"\n", line), "end": len(base)}
    digits = set(b"0123456789")
    read = {  # byte values read as numbers; "10.013..." has 20 digits and is declined
        "start": set(b"+-0"), "mid": digits | set(b"eE"), "before_lf": digits, "end": set(),
    }
    malformed = {"start": set(b"eE"), "mid": set(b"+-"), "before_lf": set(b"+-eE"), "end": set()}
    cases = [
        (place, bytes([b]), "array" if b in read[place] else "error" if b in malformed[place]
         else None)  # "end": a one-field line after the last
        for place in places for b in range(256)
    ]
    cases += [
        ("end", b"1,+0.5\n", "array"), ("before_lf", b"e-5", "array"), ("mid", b"E+5", "array"),
        ("start", b"-0", "array"), ("mid", b"-0", "error"), ("mid", b"\r\n", None),
        ("before_lf", b" ", None), ("start", b"\x80", None), ("mid", b"/", None),
    ]
    monkeypatch.setattr(harness, "_CHUNK", chunk)
    for place, insert, want in cases:
        raw = base[: places[place]] + insert + base[places[place] :]
        if want == "error":
            with pytest.raises(ValueError):
                harness._plain_decimals(raw, 0)
            continue
        got = harness._plain_decimals(raw, 0)
        if want is None:
            assert got is None, (place, insert)
            continue
        fields = np.array([float(f) for f in raw.replace(b"\n", b",").split(b",")[:-1]])
        assert got is not None and got.shape == (fields.size // 2, 2), (place, insert)
        assert got.tobytes() == fields.tobytes(), (place, insert)
