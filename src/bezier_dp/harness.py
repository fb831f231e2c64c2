"""Monte Carlo benchmark harness: configs, data generation, reports.

Reproducibility contract: every noise draw in trial t of mechanism channel
ch comes from the substream (base_seed, t, ch) -- the same draws, scaled, at
every epsilon -- and synthetic data for trial t from (base_seed, t,
DATA_CHANNEL).  Per-trial squared errors are written into preallocated slots
indexed by trial and reduced in a fixed order, so a report depends only on
the config -- not on thread count, block size or scheduling.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError
from .mechanisms import REGISTRY, prepare
from .noise import (
    NoiseRows,
    NoiseSource,
    derive_seed,
    derive_seeds,
    derive_substream,
    laplace_rows,
)
from .stats import Dataset
from .theory import predicted_normalized_mse
from .version import __version__

# Channel index reserved for data generation; mechanism channels are the
# (much smaller) positions of the mechanism in the config list.
DATA_CHANNEL = 1_000_003

# Most trials drawn as one noise block: a (trials, cells) matrix of at most
# 10 cells then stays near 5 MB.
_BLOCK_TRIALS = 1 << 16

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
    n: int = 100
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
        if cfg.statistic == "moment":
            if cfg.moment_k is None or cfg.moment_j is None:
                raise ConfigError("statistic 'moment' needs moment_k and moment_j")
            cfg.moment_k = _integer(cfg.moment_k, "moment_k")
            cfg.moment_j = _integer(cfg.moment_j, "moment_j")
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
            if not cfg.csv_path or not isinstance(cfg.csv_path, str):
                raise ConfigError("distribution 'csv' needs csv_path")
        else:
            cfg.n = _integer(cfg.n, "n")
            if cfg.n < 1:
                raise ConfigError(f"n must be >= 1 for synthetic data, got {cfg.n}")
        if cfg.distribution in ("beta", "correlated") and cfg.dist_param is not None:
            cfg.dist_param = _number(cfg.dist_param, "dist_param")
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
        if cfg.threads is not None:
            cfg.threads = _integer(cfg.threads, "threads")
            if cfg.threads < 0:
                raise ConfigError(f"threads must be >= 0, got {cfg.threads}")
        cfg.base_seed = _integer(cfg.base_seed, "base_seed")
        if cfg.output_path is not None and not isinstance(cfg.output_path, str):
            raise ConfigError(f"output_path must be a path, got {cfg.output_path!r}")
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


def _gamma(src: NoiseSource, shape: float, count: int) -> np.ndarray:
    if shape >= 1.0:
        return _gamma_mt(src, shape, count)
    # boost: Gamma(a) = Gamma(a + 1) * U^(1/a) for a < 1
    g = _gamma_mt(src, shape + 1.0, count)
    u = src.uniforms01(count)
    return g * u ** (1.0 / shape)


def _beta_column(src: NoiseSource, r: float, count: int) -> np.ndarray:
    """Beta(r/2, (1-r)/2) draws: mean r, variance (2/3) r (1-r)."""
    ga = _gamma(src, 0.5 * r, count)
    gb = _gamma(src, 0.5 * (1.0 - r), count)
    tot = ga + gb
    good = tot > 0.0
    return np.where(good, ga / np.where(good, tot, 1.0), r)


_RHO_TABLE: tuple[np.ndarray, np.ndarray] | None = None
_RHO_TABLE_SEED = 0x5EEDBA5E
_RHO_TABLE_SAMPLES = 40_000


def _rho_table() -> tuple[np.ndarray, np.ndarray]:
    """Monotone map width -> correlation for the additive-jitter pair model."""
    global _RHO_TABLE
    if _RHO_TABLE is None:
        widths = np.linspace(0.0, 8.0, 81)
        src = NoiseSource.seeded(_RHO_TABLE_SEED)
        corrs = np.empty_like(widths)
        corrs[0] = 1.0
        for i, w in enumerate(widths[1:], start=1):
            x = src.uniforms01(_RHO_TABLE_SAMPLES)
            u = src.uniforms01(_RHO_TABLE_SAMPLES)
            y = np.clip(x + (2.0 * u - 1.0) * w, 0.0, 1.0)
            cx = x - x.mean()
            cy = y - y.mean()
            corrs[i] = float(
                np.sum(cx * cy)
                / math.sqrt(float(np.sum(cx * cx)) * float(np.sum(cy * cy)))
            )
        corrs = np.minimum.accumulate(np.clip(corrs, 0.0, 1.0))
        _RHO_TABLE = (widths, corrs)
    return _RHO_TABLE


def _width_for_rho(rho: float) -> float:
    widths, corrs = _rho_table()
    lo = float(corrs[-1])
    if rho < lo:
        raise ConfigError(
            f"rho={rho} below the attainable range [{lo:.4f}, 1] of the "
            "jitter model; use rho=0 for independent columns"
        )
    return float(np.interp(rho, corrs[::-1], widths[::-1]))


def _correlated_pair(src: NoiseSource, rho: float, count: int) -> np.ndarray:
    x = src.uniforms01(count)
    if rho >= 1.0:
        y = x.copy()
    elif rho == 0.0:
        y = src.uniforms01(count)
    else:
        w = _width_for_rho(rho)
        u = src.uniforms01(count)
        y = np.clip(x + (2.0 * u - 1.0) * w, 0.0, 1.0)
    return np.column_stack([x, y])


def generate_dataset(cfg: ExperimentConfig, trial_seed: int) -> Dataset:
    """Synthetic dataset for one trial (csv configs load the file instead)."""
    d = statistic_dimension(cfg.statistic)
    if cfg.distribution == "csv":
        return load_csv_dataset(cfg.csv_path, clip_input=cfg.clip_input)
    src = NoiseSource.seeded(trial_seed)
    n = int(cfg.n)
    if cfg.distribution == "uniform":
        return Dataset(src.uniforms01(n * d).reshape(n, d), d=d)
    if cfg.distribution == "beta":
        cols = [_beta_column(src, float(cfg.dist_param), n) for _ in range(d)]
        return Dataset(np.column_stack(cols), d=d)
    if cfg.distribution == "correlated":
        return Dataset(_correlated_pair(src, float(cfg.dist_param), n), d=2)
    raise ConfigError(f"unknown distribution {cfg.distribution!r}")


# numpy strips these around a number as whitespace; float() rejects them
_NUMPY_ONLY_SPACE = b"\x1c\x1d\x1e\x1f"


def load_csv_dataset(path: str, clip_input: bool = False) -> Dataset:
    """Read a numeric CSV (optional header) into a Dataset.

    Cells must parse as floats in [0, 1] unless `clip_input` clamps them.
    Blank lines are skipped and a UTF-8 byte-order mark is accepted.  The
    first non-blank row is a header when none of its cells parses as a
    float; a row that mixes numbers and labels is an error.  A well-formed
    file is parsed by one np.loadtxt call; anything else goes to the
    row-by-row parser, which gives the same array or raises
    DataFormatError naming the file line (counting blank lines and the
    header) of the first problem.
    """
    arr = _load_csv_fast(path, clip_input)
    if arr is None:
        arr = _load_csv_rows(path, clip_input)
    return Dataset(arr)


def _parse_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _load_csv_fast(path: str, clip_input: bool) -> np.ndarray | None:
    """The array of a well-formed file, or None to leave it to the row parser.

    None covers every case this path does not settle: an unreadable file, a
    first row that is not plainly a header or plainly numbers, anything
    np.loadtxt rejects or warns about, and a non-finite or (without
    `clip_input`) out-of-range value.
    """
    try:
        skip = _csv_lines_before_data(path)
        if skip is None:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arr = np.loadtxt(
                path, delimiter=",", comments=None, ndmin=2, dtype=np.float64,
                encoding="utf-8-sig", skiprows=skip,
            )
    except (OSError, ValueError, UserWarning):
        return None
    if not np.isfinite(arr).all():
        return None
    if clip_input:
        return np.clip(arr, 0.0, 1.0)
    if arr.min() < 0.0 or arr.max() > 1.0:
        return None
    return arr


def _csv_lines_before_data(path: str) -> int | None:
    """Lines before the first data row (blank lines, then a header if any).

    None where the row parser must decide: no non-blank row, a first row
    that mixes numbers and labels, quoting, a character that numpy and
    float() read differently, or a line longer than the csv module's field
    limit (np.loadtxt has none).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if any(c in raw for c in _NUMPY_ONLY_SPACE):
        return None
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
        return skip + 1  # header line
    if any(v is None for v in parsed):
        return None
    return skip


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
    """Worker count: the config's, 1 when unset, every core for 0."""
    return (1 if cfg.threads is None else cfg.threads) or os.cpu_count() or 1


def _trial_blocks(trials: int, threads: int) -> list[tuple[int, int]]:
    """Trial ranges processed as one noise block each.

    One thread takes all trials at once; a pool gets several blocks per
    worker.  Either way a block holds at most _BLOCK_TRIALS trials.
    """
    per = trials if threads <= 1 else -(-trials // (threads * 8))
    per = max(1, min(per, _BLOCK_TRIALS))
    return [(t0, min(trials, t0 + per)) for t0 in range(0, trials, per)]


def run_benchmark(cfg: ExperimentConfig, keep_trial_errors: bool = False) -> BenchmarkReport:
    """Run the full mechanism x epsilon grid and aggregate squared errors.

    Trials are processed in blocks.  Per block and mechanism channel, one
    unit-Laplace matrix holds the first draws of every trial's substream;
    each epsilon scales it and runs the mechanism once over all rows.
    """
    cfg = cfg.normalized()
    if cfg.output_path and not os.path.isdir(os.path.dirname(cfg.output_path) or "."):
        raise ConfigError(f"cannot write report {cfg.output_path}: no such directory")
    threads = _resolve_threads(cfg)
    mechs, epss, trials = cfg.mechanisms, cfg.epsilons, cfg.trials
    zero_noise = cfg.noise == "zero"
    kw = {"moment_k": cfg.moment_k, "moment_j": cfg.moment_j}

    want_fixed = cfg.fixed_data or cfg.distribution == "csv"
    data0 = generate_dataset(cfg, derive_seed(cfg.base_seed, 0, DATA_CHANNEL))
    if data0.d != statistic_dimension(cfg.statistic):
        raise ConfigError(
            f"statistic {cfg.statistic!r} needs d={statistic_dimension(cfg.statistic)} "
            f"data, got d={data0.d}"
        )
    errors = {
        (m, e): np.zeros(trials, dtype=np.float64) for m in mechs for e in epss
    }

    def score(m: str, p, t0: int, t1: int, channel: int) -> None:
        """Squared errors of trials [t0, t1) of mechanism `m` at every epsilon."""
        if zero_noise:
            unit = np.zeros((t1 - t0, p.cells))
        else:
            seeds = derive_seeds(cfg.base_seed, np.arange(t0, t1, dtype=np.uint64), channel)
            unit = laplace_rows(seeds, p.cells)
        for e in epss:
            diff = p.run_value(e, NoiseRows(unit)) - p.exact_value
            errors[(m, e)][t0:t1] = diff * diff

    # bound to data0 once: the fixed-data releases and every prediction use it
    prepared = [prepare(m, data0, **kw) for m in mechs]
    if want_fixed:
        for m, p in zip(mechs, prepared):
            if p.exact_value is None:
                raise ConfigError(
                    f"{cfg.statistic} is undefined on the benchmark dataset; "
                    f"cannot score {m}"
                )

        def work(block):
            for ch, (m, p) in enumerate(zip(mechs, prepared)):
                score(m, p, block[0], block[1], ch)

    else:

        def work(block):
            trial_ids = np.arange(*block, dtype=np.uint64)
            seeds = derive_seeds(cfg.base_seed, trial_ids, DATA_CHANNEL)
            for t, data_seed in zip(range(*block), seeds):
                if t > 0:
                    data_t = generate_dataset(cfg, int(data_seed))
                for ch, m in enumerate(mechs):
                    p = prepared[ch] if t == 0 else prepare(m, data_t, **kw)
                    if p.exact_value is None:
                        raise ConfigError(
                            f"{cfg.statistic} undefined on the trial-{t} dataset"
                        )
                    score(m, p, t, t + 1, ch)

    blocks = _trial_blocks(trials, threads)
    if threads <= 1 or len(blocks) <= 1:
        for block in blocks:
            work(block)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, blocks))

    n_report = data0.n
    rows = []
    for m, p in zip(mechs, prepared):
        for e in epss:
            errs = errors[(m, e)]
            mse = float(np.mean(errs))
            if trials >= 2:
                std_error = float(np.std(errs, ddof=1) / math.sqrt(trials))
            else:
                std_error = 0.0
            pred = predicted_normalized_mse(p, data0, e)
            rows.append(
                BenchmarkRow(
                    mechanism=m,
                    epsilon=float(e),
                    n=n_report,
                    trials=trials,
                    mse=mse,
                    normalized_mse=float(n_report**2) * mse,
                    std_error=std_error,
                    analytic_prediction=None if pred is None else float(pred),
                )
            )
    report = BenchmarkReport(
        config=cfg,
        rows=rows,
        trial_errors=errors if keep_trial_errors else None,
    )
    if cfg.output_path:
        try:
            report.write_csv(cfg.output_path)
            report.write_config_sidecar(cfg.output_path + ".config.json")
        except OSError as exc:
            raise ConfigError(f"cannot write report {cfg.output_path}: {exc}") from exc
    return report


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
