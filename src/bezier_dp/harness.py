"""Monte Carlo benchmark harness: configs, data generation, reports.

Reproducibility contract: every noise draw in trial t of mechanism channel
ch comes from the substream (base_seed, t, ch) -- the same draws, scaled, at
every epsilon -- and synthetic data for trial t from (base_seed, t,
DATA_CHANNEL).  Trials run in blocks through one engine: fixed data binds
each mechanism to one dataset once, fresh data draws a block's datasets as
one (trials, n, d) block and binds each mechanism to it once.  Per-trial
squared errors are written into preallocated slots indexed by trial and
reduced in a fixed order, so a report depends only on the config -- not on
thread count, block size or scheduling.

Report CSVs carry both the raw MSE and the normalized MSE n^2 * MSE; the
attached analytic predictions always live on the normalized scale.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, DomainError
from .mechanisms import REGISTRY, prepare
from .noise import (
    NoiseRows,
    NoiseSource,
    derive_seed,
    derive_seeds,
    derive_substream,
    laplace_rows,
    uniforms01_rows,
)
from .stats import Dataset
from .theory import predicted_normalized_mse
from .version import __version__

# Channel index reserved for data generation; mechanism channels are the
# (much smaller) positions of the mechanism in the config list.
DATA_CHANNEL = 1_000_003

# Most rows, trials times budgets, released by one kernel call: their
# (rows, cells) noise then stays near 5 MB for at most 10 cells.
_BLOCK_ROWS = 1 << 16
# Most record values, trials times n * d, in one block of fresh datasets.
_BLOCK_VALUES = 1 << 19

# Statistics the registry's mechanisms estimate.
_STATISTICS = sorted({spec.statistic for spec in REGISTRY.values()})


def _records(statistic: str) -> list:
    found = [spec for spec in REGISTRY.values() if spec.statistic == statistic]
    if not found:
        raise ConfigError(f"unknown statistic {statistic!r}")
    return found


def resolve_mechanism(name: str, statistic: str) -> str:
    """Map a mechanism name or alias to its canonical id for a statistic.

    Plain aliases (``naive_cov``, ``composed``, ...) name one id; a family
    alias (``bezier``, ``naive``, ``swap``, ``improved``) names the family's
    member for the statistic.
    """
    records = _records(statistic)
    for spec in records:
        if name in (spec.id, spec.family) or name in spec.aliases:
            return spec.id
    choices = ", ".join(spec.id for spec in records)
    if any(spec.family == name for spec in REGISTRY.values()):
        raise ConfigError(f"alias {name!r} has no {statistic} form; use one of {choices}")
    raise ConfigError(
        f"mechanism {name!r} does not estimate {statistic}; choose from {choices}"
    )


def _resolve_for_data(name: str, d: int) -> str:
    """Id for a mechanism name or alias given d-column data (the `estimate` path).

    Ids and plain aliases name one id whatever d is, so `prepare` can report
    a dimension mismatch.  A family alias takes its first form, in registry
    order, for d-column data: variance for one column, covariance for two;
    with no form for d columns it raises ConfigError.  Unknown names pass
    through for `prepare` to reject.
    """
    for spec in REGISTRY.values():
        if name == spec.id or name in spec.aliases:
            return spec.id
    widths = sorted({spec.d for spec in REGISTRY.values() if name == spec.family})
    if widths and d not in widths:
        raise ConfigError(
            f"alias {name!r} has no form for {d}-column data; its forms take "
            f"{' or '.join(map(str, widths))} columns"
        )
    for spec in REGISTRY.values():
        if name == spec.family and spec.d == d:
            return spec.id
    return name


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one benchmark run."""

    mechanisms: list
    epsilons: list
    n: int | None = 100
    trials: int = 1000
    statistic: str = "variance"
    distribution: str = "uniform"
    dist_param: float | None = None
    csv_path: str | None = None
    moment_k: int | None = None
    moment_j: int | None = None
    base_seed: int = 0
    fixed_data: bool = True
    noise: str = "seeded"
    clip_input: bool = False
    threads: int | None = None
    output_path: str | None = None

    def normalized(self) -> "ExperimentConfig":
        """Validated copy with canonical mechanism ids (raises ConfigError)."""
        cfg = dataclasses.replace(self)
        if cfg.statistic not in _STATISTICS:
            raise ConfigError(
                f"statistic must be one of {_STATISTICS}, got {cfg.statistic!r}"
            )
        if not isinstance(cfg.mechanisms, (list, tuple)) or not all(
            isinstance(m, str) for m in cfg.mechanisms
        ):
            raise ConfigError(f"mechanisms must be a list of names, got {cfg.mechanisms!r}")
        if not cfg.mechanisms:
            raise ConfigError("at least one mechanism is required")
        cfg.mechanisms = [resolve_mechanism(m, cfg.statistic) for m in cfg.mechanisms]
        if len(set(cfg.mechanisms)) < len(cfg.mechanisms):
            raise ConfigError(f"each mechanism may be listed once, got {cfg.mechanisms}")
        if not isinstance(cfg.epsilons, (list, tuple)):
            raise ConfigError(f"epsilons must be a list of numbers, got {cfg.epsilons!r}")
        if not cfg.epsilons:
            raise ConfigError("at least one epsilon is required")
        cfg.epsilons = [_number(e, "epsilon") for e in cfg.epsilons]
        for e in cfg.epsilons:
            if not (math.isfinite(e) and e > 0.0):
                raise ConfigError(f"epsilon must be finite and > 0, got {e}")
        cfg.trials = _integer(cfg.trials, "trials")
        if cfg.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {cfg.trials}")
        # optional fields are type-checked wherever they are set; data, moment
        # and clip fields are dropped (at the end) where the run reads none
        for name, convert in (
            ("dist_param", _number), ("moment_k", _integer), ("moment_j", _integer),
            ("threads", _integer),
        ):
            value = getattr(cfg, name)
            if value is not None:
                setattr(cfg, name, convert(value, name))
        for name in ("csv_path", "output_path"):
            value = getattr(cfg, name)
            if value is not None and not (isinstance(value, str) and value):
                raise ConfigError(f"{name} must be a path, got {value!r}")
        if cfg.statistic == "moment":
            if cfg.moment_k is None or cfg.moment_j is None:
                raise ConfigError("statistic 'moment' needs moment_k and moment_j")
            if cfg.moment_k < 1:
                raise ConfigError(f"moment_k must be >= 1, got {cfg.moment_k}")
            if not 0 <= cfg.moment_j <= cfg.moment_k:
                raise ConfigError(
                    f"moment_j must lie in [0, {cfg.moment_k}], got {cfg.moment_j}"
                )
        if cfg.distribution not in ("uniform", "beta", "correlated", "csv"):
            raise ConfigError(
                f"distribution must be uniform, beta, correlated or csv, "
                f"got {cfg.distribution!r}"
            )
        if cfg.distribution == "csv":
            if cfg.csv_path is None:
                raise ConfigError("distribution 'csv' needs csv_path")
        else:
            cfg.n = _integer(cfg.n, "n")
            if cfg.n < 1:
                raise ConfigError(f"n must be >= 1 for synthetic data, got {cfg.n}")
        if cfg.distribution == "beta":
            if cfg.dist_param is None or not 0.0 < cfg.dist_param < 1.0:
                raise ConfigError(
                    f"beta data needs a mean parameter in (0, 1), got {cfg.dist_param}"
                )
        if cfg.distribution == "correlated":
            if statistic_dimension(cfg.statistic) != 2:
                raise ConfigError("correlated data needs a two-column statistic")
            if cfg.dist_param is None or not 0.0 <= cfg.dist_param <= 1.0:
                raise ConfigError(
                    f"correlated data needs rho in [0, 1], got {cfg.dist_param}"
                )
        if cfg.noise not in ("seeded", "zero"):
            raise ConfigError(f"noise must be 'seeded' or 'zero', got {cfg.noise!r}")
        for name in ("fixed_data", "clip_input"):
            if not isinstance(getattr(cfg, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(cfg, name)!r}")
        if cfg.threads is not None and cfg.threads < 0:
            raise ConfigError(f"threads must be >= 0, got {cfg.threads}")
        cfg.base_seed = _integer(cfg.base_seed, "base_seed")
        if cfg.statistic != "moment":
            cfg.moment_k = cfg.moment_j = None
        if cfg.distribution not in ("beta", "correlated"):
            cfg.dist_param = None
        if cfg.distribution == "csv":
            cfg.n = None  # the file sets n
        else:
            cfg.csv_path, cfg.clip_input = None, False  # only a file is clipped
        return cfg

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(payload) - known
        if extra:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(extra))}")
        if "mechanisms" not in payload or "epsilons" not in payload:
            raise ConfigError("config needs 'mechanisms' and 'epsilons'")
        return cls(**payload)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_json_dict(payload)


def _number(value, what: str) -> float:
    """`value` as a float; ConfigError for a bool or what float() rejects."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{what} must be a number, got {value!r}")


def _integer(value, what: str) -> int:
    """`value` as an int; ConfigError unless it is a number with an integral value."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    x = _number(value, what)
    if not x.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(x)


def parse_distribution(text: str) -> tuple[str, float | None, str | None]:
    """Parse 'uniform' | 'beta:R' | 'correlated:RHO' | 'csv:PATH'."""
    if text == "uniform":
        return "uniform", None, None
    kind, sep, arg = text.partition(":")
    if not sep or not arg:
        raise ConfigError(
            f"distribution {text!r} not recognized; expected uniform, "
            "beta:R, correlated:RHO or csv:PATH"
        )
    if kind == "csv":
        return "csv", None, arg
    if kind in ("beta", "correlated"):
        try:
            return kind, float(arg), None
        except ValueError:
            raise ConfigError(f"bad numeric parameter in {text!r}") from None
    raise ConfigError(f"unknown distribution kind {kind!r}")


def statistic_dimension(statistic: str) -> int:
    return _records(statistic)[0].d


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def _normals(src: NoiseSource, count: int) -> np.ndarray:
    """Standard normals via Box-Muller from the source's open-(0,1) uniforms."""
    m = (count + 1) // 2
    u1 = src.uniforms01(m)
    u2 = src.uniforms01(m)
    r = np.sqrt(-2.0 * np.log(u1))
    ang = (2.0 * np.pi) * u2
    return np.concatenate([r * np.cos(ang), r * np.sin(ang)])[:count]


def _gamma_mt(src: NoiseSource, shape: float, count: int) -> np.ndarray:
    """Gamma(shape >= 1) via the Marsaglia-Tsang squeeze-free rejection."""
    dpar = shape - 1.0 / 3.0
    cpar = 1.0 / math.sqrt(9.0 * dpar)
    out = np.empty(count)
    filled = 0
    while filled < count:
        need = count - filled
        x = _normals(src, need)
        v = (1.0 + cpar * x) ** 3
        u = src.uniforms01(need)
        pos = v > 0.0
        safe_v = np.where(pos, v, 1.0)
        ok = pos & (np.log(u) < 0.5 * x * x + dpar * (1.0 - v + np.log(safe_v)))
        acc = dpar * v[ok]
        out[filled : filled + acc.shape[0]] = acc
        filled += acc.shape[0]
    return out


def _beta_column(src: NoiseSource, r: float, count: int) -> np.ndarray:
    """Beta(r/2, (1-r)/2) draws: mean r, variance (2/3) r (1-r).

    Both gamma shapes a lie below 1: Gamma(a) = Gamma(a + 1) * U^(1/a).
    """
    ga, gb = (
        _gamma_mt(src, a + 1.0, count) * src.uniforms01(count) ** (1.0 / a)
        for a in (0.5 * r, 0.5 * (1.0 - r))
    )
    tot = ga + gb
    good = tot > 0.0
    return np.where(good, ga / np.where(good, tot, 1.0), r)


def _synthetic(cfg: ExperimentConfig, seeds) -> np.ndarray:
    """Records (len(seeds), n, d): dataset i drawn from the stream seeded seeds[i].

    `correlated:` pairs read x, y' and c, n uniforms each: y = x where c <
    rho, else y', so y has the law of x and cov(x, y) = rho var(x).  `beta:`
    runs a rejection loop, with its data-dependent draw count, per stream.
    """
    n, d = int(cfg.n), statistic_dimension(cfg.statistic)
    if cfg.distribution == "uniform":
        return uniforms01_rows(seeds, n * d).reshape(-1, n, d)
    if cfg.distribution == "correlated":
        x, y, c = uniforms01_rows(seeds, 3 * n).reshape(-1, 3, n).transpose(1, 0, 2)
        return np.stack([x, np.where(c < float(cfg.dist_param), x, y)], axis=-1)
    if cfg.distribution == "beta":
        sources = [NoiseSource.seeded(seed) for seed in np.asarray(seeds).tolist()]
        r = float(cfg.dist_param)
        return np.stack([
            np.column_stack([_beta_column(src, r, n) for _ in range(d)]) for src in sources
        ])
    raise ConfigError(f"unknown distribution {cfg.distribution!r}")


def generate_dataset(cfg: ExperimentConfig, trial_seed: int) -> Dataset:
    """Synthetic dataset for one trial (csv configs load the file instead)."""
    if cfg.distribution == "csv":
        return load_csv_dataset(cfg.csv_path, clip_input=cfg.clip_input)
    return Dataset(_synthetic(cfg, np.array([int(trial_seed) % (1 << 64)], dtype=np.uint64))[0])


# numpy strips these around a number as whitespace; float() rejects them
_NUMPY_ONLY_SPACE = b"\x1c\x1d\x1e\x1f"

# The plain-decimal tier needs x87 extended precision: a 64-bit significand in
# the low 8 bytes of a 16-byte little-endian slot.  Elsewhere np.loadtxt reads.
_X87_LONGDOUBLE = (np.finfo(np.longdouble).nmant == 63 and np.little_endian
                   and np.dtype(np.longdouble).itemsize == 16)
_TEN = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))  # 10**q, exact for q <= 27
_DIGITS = bytes.maketrans(b"\neE+-", b",0000")  # a field's text without "." -> D
_CHUNK = 1 << 18  # plain-decimal blocks end at the first LF past this many bytes
_MAX_REREAD_SHARE = 1 / 64  # more sign and exponent bytes: float() re-reads cost more than loadtxt


def load_csv_dataset(path: str, clip_input: bool = False) -> Dataset:
    """Read a numeric CSV (optional header) into a Dataset.

    Cells must parse as floats in [0, 1] unless `clip_input` clamps them.
    Blank lines are skipped and a UTF-8 byte-order mark is accepted.  The
    first non-blank row is a header when none of its cells parses as a
    float; a row that mixes numbers and labels is an error.  A well-formed
    file is read as integers where it holds plain decimals (`_plain_decimals`)
    and by one np.loadtxt call otherwise; anything else goes to the
    row-by-row parser, which gives the same array or raises
    DataFormatError naming the file line (counting blank lines and the
    header) of the first problem.
    """
    data = _load_csv_fast(path, clip_input)
    return Dataset(_load_csv_rows(path, clip_input)) if data is None else data


def _parse_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _load_csv_fast(path: str, clip_input: bool) -> Dataset | None:
    """The Dataset of a well-formed file, or None to leave it to the row parser.

    None covers every case neither `_plain_decimals` (x87 only) nor np.loadtxt
    settles: an unreadable file, a first row that is not plainly a header or
    plainly numbers, a byte numpy strips and float() rejects (the tier
    declines it in data rows; the scan covers the rest of what is read),
    anything np.loadtxt rejects or warns about, and a value Dataset rejects.
    """
    try:
        head = _csv_lines_before_data(path)
        if head is None:
            return None
        raw, skip, offset = head
        arr = _plain_decimals(raw, offset) if _X87_LONGDOUBLE and offset is not None else None
        end = len(raw) if arr is None else offset  # bounds, not a slice: no copy of the file
        if any(raw.find(c, 0, end) >= 0 for c in _NUMPY_ONLY_SPACE):
            return None
        if arr is None:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                arr = np.loadtxt(
                    path, delimiter=",", comments=None, ndmin=2, dtype=np.float64,
                    encoding="utf-8-sig", skiprows=skip,
                )
    except (OSError, ValueError, UserWarning):
        return None
    if clip_input and np.isfinite(arr).all():  # an infinity stays for Dataset to reject
        arr = np.clip(arr, 0.0, 1.0)
    try:
        return Dataset(arr)
    except DomainError:
        return None


def _csv_lines_before_data(path: str) -> tuple[bytes, int, int | None] | None:
    """(file bytes, lines before the first data row, byte offset of that row).

    The lines are blank lines, then a header if any; the offset is None when
    a CR ends one of them.  None where the row parser must decide: no
    non-blank row, a first row that mixes numbers and labels, quoting, or a
    line longer than the csv module's field limit (np.loadtxt has none); not
    bytes numpy and float() read differently, which `_load_csv_fast` seeks.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if _has_line_over(raw, csv.field_size_limit()):
        return None
    skip = 0
    for line in io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig"):
        if '"' in line:
            return None  # quoting is the csv module's business
        cells = line.rstrip("\n").split(",")
        if any(c.strip() for c in cells):
            break
        skip += 1
    else:
        return None
    parsed = [_parse_float(c) for c in cells]
    if all(v is None for v in parsed):
        skip += 1  # header line
    elif any(v is None for v in parsed):
        return None
    offset = 3 if raw.startswith(b"\xef\xbb\xbf") else 0  # past a byte-order mark
    for _ in range(skip):
        offset = raw.find(b"\n", offset) + 1 or len(raw)
    return raw, skip, None if b"\r" in raw[:offset] else offset


def _plain_decimals(raw: bytes, offset: int) -> np.ndarray | None:
    """float() of each cell of `raw[offset:]`, or None if it is not plain decimals.

    D / 10**q (digits D < 10**19, q <= 27 fraction digits) has exact operands
    and rounds once to the x87 64-bit significand; rounding that to double
    gives float() unless it lands exactly on a midpoint between doubles.  Such
    fields and those with a sign or an exponent are re-read by float().  A
    malformed field or a ragged file raises ValueError.
    """
    blocks = []
    while offset < len(raw):
        end = raw.find(b"\n", offset + _CHUNK) + 1 or len(raw)
        text = raw[offset:end] if raw[end - 1] == 10 else raw[offset:end] + b"\n"
        blocks.append(_plain_decimal_block(text))
        if blocks[-1] is None:
            return None
        offset = end
    return np.concatenate(blocks) if blocks else None


def _plain_decimal_block(text: bytes) -> np.ndarray | None:
    """The (lines, fields) array of whole LF-ended lines of equal width, or None.
    Only a block with a field of no dot or two searches for each dot's field."""
    other = text.translate(None, b"0123456789.,\n")
    if other.translate(None, b"eE+-") or len(other) > len(text) * _MAX_REREAD_SHARE:
        return None  # spaces, CR, letters, quotes, or too many signs and exponents
    buf = np.frombuffer(text, np.uint8)
    ends = np.flatnonzero(buf <= 44)  # the "," or LF after each field, and any "+"
    ends = ends[buf[ends] != 43] if b"+" in other else ends
    at_lf = buf[ends] == 10
    width = int(at_lf.argmax()) + 1
    if ends.size != at_lf.sum() * width or not at_lf[width - 1::width].all():
        return None  # a line of another width
    starts = np.r_[0, ends[:-1] + 1]
    dots = np.flatnonzero(buf == 46)
    if dots.size == ends.size and (dots < ends).all() and (dots >= starts).all():
        digits, q = ends - starts - 1, ends - dots - 1  # one dot in every field
    else:
        field = np.searchsorted(ends, dots)
        if (np.diff(field) == 0).any():
            return None  # two dots in a field
        digits, q = ends - starts, np.zeros(ends.size, dtype=np.intp)
        digits[field] -= 1
        q[field] = ends[field] - dots - 1
    if digits.min() < 1:
        return None  # an empty field or a lone "."
    d = np.fromstring(text.translate(_DIGITS, b"."), dtype=np.uint64, sep=",")
    redo = q > 27
    if other:  # field of each sign or exponent byte (a "0" here): the separators before it
        marks = np.flatnonzero(np.frombuffer(text.translate(_DIGITS, b"0123456789."), "u1") == 48)
        redo[marks - np.arange(marks.size)] = True
    if d[~redo].max(initial=0) >= 10**19:
        return None  # np.fromstring saturates at 2**64 - 1
    quotient = d.astype(np.longdouble) / _TEN[np.minimum(q, 27)]
    x = quotient.astype(np.float64)
    redo |= (quotient.view(np.uint64)[::2] & 2047) == 1024  # 53-bit midpoints
    idx = np.flatnonzero(redo)
    x[idx] = [float(text[a:b]) for a, b in zip(starts[idx].tolist(), ends[idx].tolist())]
    return x.reshape(-1, width)


def _has_line_over(raw: bytes, limit: int) -> bool:
    """Whether a line of `raw`, ended by LF, CR or the file, exceeds `limit` bytes."""
    start = 0
    while len(raw) - start > limit:  # jump to the last line end in the next limit+1 bytes
        end = start + limit + 1
        start = max(raw.rfind(b"\n", start, end), raw.rfind(b"\r", start, end)) + 1
        if not start:  # no line end: a found one would put start past 0
            return True
    return False


def _load_csv_rows(path: str, clip_input: bool) -> np.ndarray:
    """Row-by-row parse that names the file line of the first problem."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                raw = [(reader.line_num, row) for row in reader if any(c.strip() for c in row)]
            except csv.Error as exc:
                raise DataFormatError(f"{path}: row {reader.line_num}: {exc}") from exc
    except (OSError, UnicodeError) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if not raw:
        raise DataFormatError(f"{path}: no data rows")

    def parse_row(row):
        try:
            return [float(c) for c in row]
        except ValueError:
            return None

    first_line, first_row = raw[0]
    if parse_row(first_row) is None:
        if any(_parse_float(c) is not None for c in first_row):
            raise DataFormatError(f"{path}: row {first_line} mixes numbers and labels")
        raw = raw[1:]  # header line
    rows = []
    width = None
    for line, row in raw:
        vals = parse_row(row)
        if vals is None:
            raise DataFormatError(f"{path}: row {line}: non-numeric cell in {row!r}")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise DataFormatError(
                f"{path}: row {line}: expected {width} column(s), got {len(vals)}"
            )
        rows.append(vals)
    if not rows:
        raise DataFormatError(f"{path}: no data rows after the header")
    arr = np.array(rows, dtype=np.float64)
    lines = [line for line, _row in raw]
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        raise DataFormatError(
            f"{path}: row {lines[bad[0, 0]]}: non-finite value {arr[tuple(bad[0])]}"
        )
    if clip_input:
        return np.clip(arr, 0.0, 1.0)
    bad = np.argwhere((arr < 0.0) | (arr > 1.0))
    if bad.size:
        raise DataFormatError(
            f"{path}: row {lines[bad[0, 0]]}: value {arr[tuple(bad[0])]} outside "
            "[0, 1] (pass clip_input to clamp)"
        )
    return arr


# ---------------------------------------------------------------------------
# benchmark engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkRow:
    mechanism: str
    epsilon: float
    n: int
    trials: int
    mse: float
    normalized_mse: float
    std_error: float
    analytic_prediction: float | None


@dataclass
class BenchmarkReport:
    config: ExperimentConfig
    rows: list
    trial_errors: dict | None = None

    def row_for(self, mechanism: str, eps: float) -> BenchmarkRow:
        for row in self.rows:
            if row.mechanism == mechanism and row.epsilon == float(eps):
                return row
        raise KeyError(f"no row for ({mechanism}, {eps})")

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(f.name for f in dataclasses.fields(BenchmarkRow))
            for row in self.rows:
                writer.writerow(
                    "" if v is None else v if isinstance(v, str) else repr(v)
                    for v in dataclasses.astuple(row)
                )

    def write_config_sidecar(self, path: str) -> None:
        payload = {"config": self.config.to_json_dict(), "version": __version__}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _resolve_threads(cfg: ExperimentConfig) -> int:
    """Worker count: the config's, 1 when unset, every core for 0, at most every core."""
    if cfg.threads in (None, 1):
        # no os.cpu_count(): it reads the system's CPU list, tens of microseconds
        return 1
    cores = os.cpu_count() or 1
    return min(cfg.threads or cores, cores)


def _trial_blocks(
    trials: int, threads: int, budgets: int = 1, values: int = 0
) -> list[tuple[int, int]]:
    """Trial ranges processed as one block each.

    One thread takes all trials at once; a pool gets several blocks per
    worker.  Either way a block holds at most _BLOCK_ROWS // budgets trials,
    and at most _BLOCK_VALUES // values where each trial draws `values`
    record values (fresh data; fixed data draws none).
    """
    per = trials if threads <= 1 else -(-trials // (threads * 8))
    per = max(1, min(per, _BLOCK_ROWS // budgets, _BLOCK_VALUES // max(values, 1)))
    return [(t0, min(trials, t0 + per)) for t0 in range(0, trials, per)]


def run_benchmark(cfg: ExperimentConfig, keep_trial_errors: bool = False) -> BenchmarkReport:
    """Run the full mechanism x epsilon grid and aggregate squared errors.

    Trials are processed in blocks.  Per block, one `derive_seeds` call
    gives every trial's seed on every channel; with fresh data, the block's
    datasets are drawn as one (trials, n, d) block and every mechanism is
    prepared once on it.  Per mechanism channel, one unit-Laplace matrix
    holds the first draws of every trial's substream, and one `run_value`
    call scales it for every epsilon and releases them all.  Squared errors
    fill one (mechanisms, epsilons, trials) array.
    """
    cfg = cfg.normalized()
    if cfg.output_path and not os.path.isdir(os.path.dirname(cfg.output_path) or "."):
        raise ConfigError(f"cannot write report {cfg.output_path}: no such directory")
    threads = _resolve_threads(cfg)
    mechs, epss, trials = cfg.mechanisms, cfg.epsilons, cfg.trials
    zero_noise = cfg.noise == "zero"
    kw = {"moment_k": cfg.moment_k, "moment_j": cfg.moment_j}

    want_fixed = cfg.fixed_data or cfg.distribution == "csv"
    channels = [*range(len(mechs))] + ([] if want_fixed else [DATA_CHANNEL])
    d = statistic_dimension(cfg.statistic)
    blocks = _trial_blocks(trials, threads, len(epss), 0 if want_fixed else cfg.n * d)

    def draw(block):
        """Seeds of a block's trials on every channel and, for fresh data, its datasets."""
        seeds = derive_seeds(cfg.base_seed, np.arange(*block, dtype=np.uint64), channels)
        return seeds, None if want_fixed else Dataset(_synthetic(cfg, seeds[:, -1]))

    drawn = {} if want_fixed else {blocks[0]: draw(blocks[0])}  # row 0 is trial 0's dataset
    data0 = Dataset(drawn[blocks[0]][1].values[0].copy()) if drawn else generate_dataset(
        cfg, derive_seed(cfg.base_seed, 0, DATA_CHANNEL))
    if data0.d != d:
        raise ConfigError(f"statistic {cfg.statistic!r} needs d={d} data, got d={data0.d}")
    errors = np.zeros((len(mechs), len(epss), trials), dtype=np.float64)

    # bound to data0 once: the fixed-data releases and every prediction use it
    prepared = [prepare(m, data0, **kw) for m in mechs]
    if want_fixed:
        _require_exact(cfg, prepared, data0, kw)

    def work(block):
        """Squared errors of trials [t0, t1) on every channel at every epsilon."""
        t0, t1 = block
        seeds, data = drawn.pop(block, None) or draw(block)
        bound = prepared
        if data is not None:  # the block's own datasets
            bound = [prepare(m, data, **kw) for m in mechs]
            _require_exact(cfg, bound, data, kw, t0)
        for ch, p in enumerate(bound):
            cells = p.cells
            unit = np.zeros((t1 - t0, cells)) if zero_noise else laplace_rows(seeds[:, ch], cells)
            diff = p.run_value(epss, NoiseRows(unit)) - p.exact_value
            errors[ch, :, t0:t1] = diff * diff

    if threads <= 1 or len(blocks) <= 1:
        for block in blocks:
            work(block)
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs it
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, blocks))

    n_report = data0.n
    mses = np.mean(errors, axis=-1)
    spread = np.std(errors, axis=-1, ddof=1) if trials >= 2 else np.zeros_like(mses)
    std_errors = spread / math.sqrt(trials)
    rows = []
    for i, (m, p) in enumerate(zip(mechs, prepared)):
        for j, e in enumerate(epss):
            mse = float(mses[i, j])
            pred = predicted_normalized_mse(p, data0, e)
            rows.append(
                BenchmarkRow(
                    mechanism=m,
                    epsilon=float(e),
                    n=n_report,
                    trials=trials,
                    mse=mse,
                    normalized_mse=float(n_report**2) * mse,
                    std_error=float(std_errors[i, j]),
                    analytic_prediction=None if pred is None else float(pred),
                )
            )
    views = {(m, e): errors[i, j] for i, m in enumerate(mechs) for j, e in enumerate(epss)}
    report = BenchmarkReport(
        config=cfg,
        rows=rows,
        trial_errors=views if keep_trial_errors else None,
    )
    if cfg.output_path:
        try:
            report.write_csv(cfg.output_path)
            report.write_config_sidecar(cfg.output_path + ".config.json")
        except OSError as exc:
            raise ConfigError(f"cannot write report {cfg.output_path}: {exc}") from exc
    return report


def _require_exact(cfg: ExperimentConfig, bound: list, data: Dataset, kw: dict, t0=None):
    """ConfigError where a mechanism bound to `data` has no exact value; with
    `t0`, `data` holds the datasets of trials t0, t0 + 1, ... and the error
    names the first without the statistic."""
    for m, p in zip(cfg.mechanisms, bound):
        if p.exact_value is None:
            where = "the benchmark dataset"
            if t0 is not None:
                t = next(t for t, records in enumerate(data.values, t0)
                         if prepare(m, Dataset(records), **kw).exact_value is None)
                where = f"the trial-{t} dataset"
            raise ConfigError(f"{cfg.statistic} is undefined on {where}; cannot score {m}")


def run_estimate(
    data_path: str,
    mechanism: str,
    eps: float,
    seed: int | None = None,
    noise: str = "seeded",
    clip_input: bool = False,
):
    """One private release from a CSV dataset (the CLI `estimate` path).

    Without a seed the noise comes from OS entropy, so nobody can regenerate
    it.  A seed (or zero noise) makes the release reproducible and therefore
    NOT private; use it for tests and demonstrations only.
    """
    if noise not in ("seeded", "zero"):
        raise ConfigError(f"noise must be 'seeded' or 'zero', got {noise!r}")
    data = load_csv_dataset(data_path, clip_input=clip_input)
    moment_k = moment_j = None
    name = mechanism
    if mechanism.startswith("moment:"):
        parts = mechanism.split(":")
        if len(parts) != 3:
            raise ConfigError("moment mechanism syntax is moment:K:J")
        try:
            moment_k, moment_j = int(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError("moment mechanism syntax is moment:K:J") from None
        name = "moment"
    name = _resolve_for_data(name, data.d)
    if moment_k is None and name in REGISTRY and REGISTRY[name].params is not None:
        raise ConfigError("moment mechanism syntax is moment:K:J")
    if noise == "zero":
        src = NoiseSource.zero()
    elif seed is None:
        # the OS entropy secrets.randbits(64) reads, without the 3.5 MB that
        # importing secrets (hashlib, OpenSSL) adds to every process
        src = NoiseSource.seeded(int.from_bytes(os.urandom(8), "little"))
    else:
        src = derive_substream(int(seed), 0, 0)
    prepared = prepare(name, data, moment_k=moment_k, moment_j=moment_j)
    return prepared.run(float(eps), src)
