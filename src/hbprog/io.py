"""Dataset ingestion, artifact persistence, synthetic-fleet generation and
run configuration.

File conventions (all diff-able text):

* a dataset is ``<stem>.csv`` with header ``cycle,value`` plus a sidecar
  ``<stem>.meta.json`` carrying unit id, family, units, nominals and the
  crack geometry/loading or battery threshold;
* a sample set is ``<stem>.csv`` (header = component labels) plus
  ``<stem>.json`` with provenance, seeds, config hash, code version and the
  optional log-evidence;
* a prognosis is ``<stem>.bands.csv`` / ``<stem>.rul.csv`` plus
  ``<stem>.json`` with the summary and configuration.

Floats are written with ``repr`` so every save -> load -> save round trip is
byte-identical; writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import types
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from hbprog import __version__
from hbprog.hierarchy import Candidate, ClassicalPrior, Dataset, build_model
from hbprog.models import FAMILIES, CrackGeometry, LoadingSpec
from hbprog.prognosis import (
    PrognosisConfig,
    PrognosisResult,
    _perturb,
    end_of_life,
    quantile_levels,
)
from hbprog.samplers import SampleSet, SamplerConfig, config_fingerprint, subseed
from hbprog.targets import HyperParameters, HyperPriorBounds, trunc_normal_ppf


class DataFormatError(ValueError):
    """A data or metadata file does not match the documented schema."""


def _fmt(v: float) -> str:
    return repr(float(v))


def atomic_write(path: Path | str, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read_json(path: Path):
    """The JSON document at ``path``; an unreadable file or invalid JSON is a
    :class:`DataFormatError` naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read ({exc.strerror})") from None
    except ValueError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from None


def _as_dict(obj) -> dict:
    """The JSON form of a dataclass: its fields, without those set to None."""
    return _jsonable({k: v for k, v in asdict(obj).items() if v is not None})


def _meta_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".meta.json")


_REQUIRED, _MISSING = object(), object()


def _field(doc: dict, key: str, where: str, convert=None, default=_REQUIRED):
    """The value at the dotted ``key`` of a JSON document ``where``, passed
    through ``convert``. A part of the key may index a list, as in
    ``candidates[0].family``. A missing field without a default, a part
    that is not an object (or, indexed, not a list), or a value that
    ``convert`` rejects with TypeError or ValueError, is a
    :class:`DataFormatError` naming the field (or its first missing part)."""
    cur, path = doc, ""
    for part in key.split("."):
        name, bracket, index = part.partition("[")
        if not isinstance(cur, dict):
            what = f"field {path!r}" if path else "document"
            raise DataFormatError(f"{where}: {what} must be an object")
        path += f".{name}" if path else name
        cur = cur.get(name, _MISSING)
        if bracket and cur is not _MISSING:
            if not isinstance(cur, list):
                raise DataFormatError(f"{where}: field {path!r} must be a list")
            i = int(index.rstrip("]"))
            path += f"[{i}]"
            cur = cur[i] if i < len(cur) else _MISSING
        if cur is _MISSING:
            if default is not _REQUIRED:
                return default
            raise DataFormatError(f"{where}: missing field {path!r}")
    if convert is None:
        return cur
    try:
        return convert(cur)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{where}: field {key!r}: {exc}") from None


def _json_bool(value) -> bool:
    """A JSON boolean; anything else (a string such as "no", a number,
    null) is rejected rather than cast."""
    if not isinstance(value, bool):
        raise TypeError(f"must be true or false, got {value!r}")
    return value


def _numbers(value) -> list[float]:
    """A JSON list of finite numbers (booleans are not numbers here)."""
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise TypeError(f"must be a list of numbers, got {value!r}")
    if not all(math.isfinite(v) for v in value):
        raise ValueError(f"must hold finite numbers, got {value!r}")
    return [float(v) for v in value]


def _number(value) -> float:
    """A finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TypeError(f"must be a finite number, got {value!r}")
    return float(value)


def _positive(value) -> float:
    value = _number(value)
    if not value > 0:
        raise ValueError(f"must be > 0, got {value!r}")
    return value


def _integer(value, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"must be >= {low}, got {value}")
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def _path(value) -> str:
    if not isinstance(value, str) or not value:
        raise TypeError(f"must be a nonempty path string, got {value!r}")
    return value


def _list(value, low: int) -> list:
    """A JSON list of at least ``low`` entries."""
    if not isinstance(value, list):
        raise TypeError(f"must be a list, got {value!r}")
    if len(value) < low:
        raise ValueError(f"must hold at least {low} entries, got {len(value)}")
    return value


def _paths(value) -> list[str]:
    return [_path(v) for v in _list(value, 1)]


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"must be an object, got {value!r}")
    return value


def _choice(*options: str):
    """A converter accepting exactly one of the strings ``options``."""

    def convert(value) -> str:
        if not (isinstance(value, str) and value in options):
            raise ValueError(f"must be one of {', '.join(map(repr, options))}, got {value!r}")
        return value

    return convert


_family = _choice(*FAMILIES)


def _seed(value) -> int:
    return _integer(value, 0)


def _count(value) -> int:
    return _integer(value, 1)


def _optional(convert):
    """``convert`` that also passes JSON null through as None."""
    return lambda value: None if value is None else convert(value)


def _pair(value) -> tuple[float, float]:
    """A ``[lower, upper]`` bound pair."""
    pair = _numbers(value)
    if len(pair) != 2:
        raise ValueError(f"must be a [lower, upper] pair, got {value!r}")
    return pair[0], pair[1]


def _pairs(value) -> tuple[tuple[float, float], ...]:
    """A list of ``[lower, upper]`` bound pairs."""
    if not isinstance(value, list):
        raise TypeError(f"must be a list of [lower, upper] pairs, got {value!r}")
    return tuple(_pair(v) for v in value)


def _loading(doc: dict, key: str, where: str) -> LoadingSpec:
    """The :class:`LoadingSpec` at ``key`` of a dataset sidecar or config."""
    mode = _field(doc, f"{key}.mode", where)
    names = ("delta_sigma",) if mode == "constant" else ("delta_sigma1", "n1", "delta_sigma2", "n2")
    values = {k: _field(doc, f"{key}.{k}", where, float) for k in names}
    try:
        return LoadingSpec(mode, **values)
    except ValueError as exc:
        raise DataFormatError(f"{where}: field {key!r}: {exc}") from None


def _geometry(doc: dict, key: str, where: str) -> CrackGeometry:
    """The :class:`CrackGeometry` at ``key`` of a dataset sidecar or config."""
    values = [_field(doc, f"{key}.{k}", where, float) for k in ("a0", "n0", "a_f")]
    try:
        return CrackGeometry(*values)
    except ValueError as exc:
        raise DataFormatError(f"{where}: field {key!r}: {exc}") from None


def load_dataset(path: Path | str) -> Dataset:
    """Read a ``cycle,value`` CSV and its ``<stem>.meta.json`` sidecar."""
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"{path}: no such dataset file")
    meta_path = _meta_path(path)
    if not meta_path.is_file():
        raise DataFormatError(f"{meta_path}: missing metadata sidecar")
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "cycle,value":
        raise DataFormatError(f"{path}:1: expected header 'cycle,value'")
    cycles, values = [], []
    prev = None
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataFormatError(f"{path}:{ln}: expected two comma-separated fields")
        try:
            c = int(parts[0])
            v = float(parts[1])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{ln}: unparseable row ({exc})") from None
        if prev is not None and c <= prev:
            kind = "duplicate" if c == prev else "decreasing"
            raise DataFormatError(f"{path}:{ln}: {kind} cycle index {c}")
        prev = c
        cycles.append(c)
        values.append(v)

    meta = _read_json(meta_path)
    where = str(meta_path)
    family = _field(meta, "family", where, _family)
    loading = geometry = None
    if family == "paris":
        geometry = _geometry(meta, "geometry", where)
        loading = _loading(meta, "loading", where)
    try:
        return Dataset(
            unit_id=str(_field(meta, "unit_id", where)),
            cycles=np.array(cycles, dtype=np.int64),
            values=np.array(values, dtype=float),
            family=family,
            units=str(_field(meta, "units", where)),
            loading=loading,
            geometry=geometry,
            threshold=_field(meta, "threshold", where, _optional(_number), None),
            nominals=_field(meta, "nominals", where, _optional(_numbers), None),
            note=_field(meta, "note", where, _optional(_text), None),
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def save_dataset(dataset: Dataset, path: Path | str) -> Path:
    """Write the CSV body and metadata sidecar for a dataset."""
    path = Path(path)
    rows = [f"{int(c)},{_fmt(v)}" for c, v in zip(dataset.cycles, dataset.values)]
    atomic_write(path, "\n".join(["cycle,value", *rows]) + "\n")
    meta = {
        "unit_id": dataset.unit_id,
        "family": dataset.family,
        "units": dataset.units,
        "threshold": dataset.threshold,
        "nominals": list(dataset.nominals) if dataset.nominals is not None else None,
        "note": dataset.note,
    }
    for key in ("geometry", "loading"):
        if getattr(dataset, key) is not None:
            meta[key] = _as_dict(getattr(dataset, key))
    atomic_write(_meta_path(path), _dump_json(meta))
    return path


def save_sample_set(ss: SampleSet, stem: Path | str) -> Path:
    """Persist a sample set as ``<stem>.csv`` + ``<stem>.json``."""
    stem = Path(stem)
    header = ",".join(ss.labels)
    rows = [",".join(_fmt(v) for v in row) for row in ss.samples]
    atomic_write(stem.with_suffix(".csv"), "\n".join([header, *rows]) + "\n")
    manifest = {
        "labels": list(ss.labels),
        "provenance": _jsonable(ss.provenance),
        "log_evidence": ss.log_evidence,
        "log_evidence_se": ss.log_evidence_se,
        "n": ss.n,
        "version": __version__,
    }
    atomic_write(stem.with_suffix(".json"), _dump_json(manifest))
    return stem.with_suffix(".csv")


def _read_table(path: Path, finite: bool) -> tuple[list[str], np.ndarray]:
    """The header and the numeric rows of a comma-separated table. An empty
    file, or a row that is ragged, not numeric or (with ``finite``) not
    finite, is a :class:`DataFormatError` naming the file and 1-based line."""
    lines = path.read_text().splitlines()
    if not lines:
        raise DataFormatError(f"{path}:1: missing header")
    header = lines[0].split(",")
    rows, numbers = [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError as exc:
            raise DataFormatError(f"{path}:{ln}: {exc}") from None
        if len(row) != len(header):
            raise DataFormatError(f"{path}:{ln}: expected {len(header)} values, got {len(row)}")
        rows.append(row)
        numbers.append(ln)
    table = np.array(rows, dtype=float).reshape(-1, len(header))
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1)) if finite else []
    if len(bad):
        raise DataFormatError(f"{path}:{numbers[bad[0]]}: values must be finite")
    return header, table


def load_sample_set(stem: Path | str) -> SampleSet:
    """Read ``<stem>.csv`` and its ``<stem>.json`` manifest; a malformed
    row or manifest is a :class:`DataFormatError` naming the file."""
    stem = Path(stem)
    csv_path = stem.with_suffix(".csv")
    json_path = stem.with_suffix(".json")
    if not csv_path.is_file() or not json_path.is_file():
        raise DataFormatError(f"{stem}: missing sample-set artifact pair")
    manifest = _read_json(json_path)
    provenance = _field(manifest, "provenance", str(json_path), _object, {})
    labels, data = _read_table(csv_path, finite=True)
    try:
        return SampleSet(
            data,
            tuple(labels),
            dict(provenance),
            manifest.get("log_evidence"),
            manifest.get("log_evidence_se"),
        )
    except ValueError as exc:
        raise DataFormatError(f"{csv_path}: {exc}") from None


def save_prognosis(res: PrognosisResult, stem: Path | str) -> list[Path]:
    """Persist a prognosis: plot-ready band table, RUL sample table and a
    JSON summary. Only the parts the result holds are written."""
    stem = Path(stem)
    written = []
    if res.grid is not None:
        header = "cycle," + ",".join(f"q{q}" for q in res.config.quantiles)
        rows = [
            ",".join([_fmt(c)] + [_fmt(res.bands[j, i]) for j in range(len(res.config.quantiles))])
            for i, c in enumerate(res.grid)
        ]
        p = stem.parent / (stem.name + ".bands.csv")
        atomic_write(p, "\n".join([header, *rows]) + "\n")
        written.append(p)
    if res.rul is not None:
        rows = [
            f"{_fmt(e)},{_fmt(r)},{int(c)}"
            for e, r, c in zip(res.t_eol, res.rul, res.censored)
        ]
        p = stem.parent / (stem.name + ".rul.csv")
        atomic_write(p, "\n".join(["t_eol,rul,censored", *rows]) + "\n")
        written.append(p)
    manifest = {
        "config": _as_dict(res.config),
        "summary": _jsonable(res.summary),
        "provenance": _jsonable(res.provenance),
        "version": __version__,
    }
    p = stem.parent / (stem.name + ".json")
    atomic_write(p, _dump_json(manifest))
    written.append(p)
    return written


def load_prognosis(stem: Path | str) -> PrognosisResult:
    stem = Path(stem)
    path = stem.parent / (stem.name + ".json")
    manifest = _read_json(path)
    cfg = _field(manifest, "config", str(path), lambda d: PrognosisConfig(**d))
    grid = bands = t_eol = rul = censored = None
    bands_path = stem.parent / (stem.name + ".bands.csv")
    if bands_path.exists():
        _, table = _read_table(bands_path, finite=False)
        grid = table[:, 0]
        bands = table[:, 1:].T
    rul_path = stem.parent / (stem.name + ".rul.csv")
    if rul_path.exists():
        _, table = _read_table(rul_path, finite=False)
        t_eol = table[:, 0]
        rul = table[:, 1]
        censored = table[:, 2].astype(bool)
    return PrognosisResult(
        config=cfg,
        grid=grid,
        bands=bands,
        t_eol=t_eol,
        rul=rul,
        censored=censored,
        summary=dict(manifest.get("summary", {})),
        provenance=dict(manifest.get("provenance", {})),
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator settings for a synthetic fleet: the true population
    distribution, number of units, shared measurement grid, a noise-scale
    multiplier on the drawn per-unit error scales (0 gives noiseless data)
    and the physics metadata each unit carries."""

    family: str
    psi: HyperParameters
    n_units: int
    cycles: np.ndarray
    noise_scale: float = 1.0
    loading: LoadingSpec | None = None
    geometry: CrackGeometry | None = None
    threshold: float | None = None
    nominals: tuple | None = None
    unit_prefix: str = "S"
    min_points: int = 3

    def __post_init__(self):
        cycles = np.asarray(self.cycles, dtype=np.int64)
        cycles.setflags(write=False)
        object.__setattr__(self, "cycles", cycles)
        if not cycles.size or cycles[0] < 0 or np.any(np.diff(cycles) <= 0):
            raise ValueError("cycles must be >= 0 and strictly increasing")
        if self.n_units < 1:
            raise ValueError("n_units must be >= 1")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if self.family == "paris" and (self.loading is None or self.geometry is None):
            raise ValueError("crack fleets require loading and geometry metadata")


def generate_synthetic(spec: SyntheticSpec, seed: int) -> tuple[list[Dataset], dict]:
    """Draw a fleet from the population distribution and simulate noisy
    measurement series plus a ground-truth record for test harnesses.

    Per unit: theta from the population Gaussian, sigma from the truncated
    block (scaled by ``noise_scale``), the model curve on the shared grid,
    then family-appropriate measurement noise. Crack series are truncated at
    their latent threshold crossing, mirroring run-to-failure campaigns that
    stop once the critical length is reached. Draws violating model
    admissibility (divergence or fewer than ``min_points`` surviving grid
    points) are retried a bounded number of times.
    """
    psi = spec.psi
    datasets: list[Dataset] = []
    truth_units = []
    for i in range(spec.n_units):
        rng = np.random.default_rng(subseed(seed, 4, i))
        unit_id = f"{spec.unit_prefix}{i + 1}"
        probe = Dataset(
            unit_id, spec.cycles, np.ones_like(spec.cycles, dtype=float),
            spec.family, "mm" if spec.family == "paris" else "Ahr",
            spec.loading, spec.geometry, spec.threshold, spec.nominals,
        )
        model = build_model(probe)
        cap = None
        if spec.family == "paris":
            cap = spec.threshold if spec.threshold is not None else spec.geometry.a_f
        for attempt in range(100):
            z = rng.standard_normal(psi.n_theta)
            if psi.correlated:
                z = np.array([z[0], psi.rho * z[0] + math.sqrt(1 - psi.rho**2) * z[1]])
            theta = psi.mu0 + psi.sd0 * z
            sigma = float(
                trunc_normal_ppf(rng.uniform(), psi.mu_sigma, psi.sd_sigma, 0.0, psi.sigma_trunc)
            )
            sigma_eff = sigma * spec.noise_scale
            curve = model.predict(theta, spec.cycles.astype(float))
            keep = np.isfinite(curve) & (curve > 0)
            if cap is not None:
                keep &= curve <= cap
            if int(keep.sum()) < spec.min_points or not model.admissible(theta):
                continue
            cycles_i, values = spec.cycles[keep], curve[keep]
            # noiseless data draws no normals
            if sigma_eff != 0.0:
                _perturb(values[None], np.array([sigma_eff]), model.likelihood, rng)
            if np.all(np.isfinite(values)) and np.all(values > 0):
                break
        else:
            raise RuntimeError(f"unit {unit_id}: no admissible parameter draw in 100 tries")
        datasets.append(
            Dataset(
                unit_id, cycles_i, values, spec.family,
                "mm" if spec.family == "paris" else "Ahr",
                spec.loading, spec.geometry, spec.threshold, spec.nominals,
            )
        )
        truth_units.append(
            {
                "unit_id": unit_id,
                "theta": [float(v) for v in theta],
                "sigma": sigma,
                "sigma_effective": sigma_eff,
                "eol": _true_eol(model, theta, spec),
            }
        )
    truth = {
        "seed": seed,
        "family": spec.family,
        # truth files name rho also for an uncorrelated population (as null)
        "psi": {**_as_dict(psi), "rho": psi.rho},
        "noise_scale": spec.noise_scale,
        "units": truth_units,
    }
    return datasets, truth


def _true_eol(model, theta, spec: SyntheticSpec) -> float | None:
    threshold = spec.threshold
    if spec.family == "paris":
        threshold = threshold if threshold is not None else spec.geometry.a_f
        try:
            return float(model.cycles_to_failure(theta, a_f=threshold))
        except Exception:
            return None
    if threshold is None:
        return None
    # first crossing in cycles 1 .. 20 * (last observed cycle) + 99
    horizon = 20 * int(spec.cycles[-1]) + 99
    t_eol, censored = end_of_life(theta, model, PrognosisConfig(threshold, 0.0, horizon))
    return None if censored else t_eol


def _json_fits(value, hint) -> bool:
    """Whether a JSON value fits a :class:`SamplerConfig` field type: ints
    for ``int``, any number for ``float``, a nonempty list of numbers for
    ``tuple``, null for ``None``."""
    if isinstance(hint, types.UnionType):
        return any(_json_fits(value, h) for h in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if hint is tuple:
        return isinstance(value, list) and bool(value) and all(_json_fits(v, float) for v in value)
    if isinstance(value, bool):
        return False
    if hint is int:
        return isinstance(value, int)
    if hint is float:
        return isinstance(value, (int, float))
    raise TypeError(f"no JSON form for the field type {hint!r}")


#: the top-level fields a run config may set
CONFIG_FIELDS = frozenset({
    "family", "likelihood", "seed", "case", "sigma_trunc", "cutoff", "nominals",
    "stage1_thin", "hyper_subsample", "sampler", "datasets", "stage1_bounds",
    "hyper_bounds", "candidates", "literature_prior", "prognosis", "synthetic",
})


class RunConfig:
    """Parsed run configuration for the command-line pipeline; the one
    reader of the config document.

    A key the reader of its section does not know is rejected, at the top
    level (outside :data:`CONFIG_FIELDS`) and in every section. The
    top-level fields and the ``sampler`` and ``datasets`` sections are
    typed and range-checked when the config is built. A section that only
    some commands need (bounds, candidates, prognosis, synthetic fleet,
    literature prior) is checked when a command asks for it, before any data
    is read or sampled. Every violation is a :class:`DataFormatError` naming
    the dotted field. Dataset paths resolve relative to the config file. The
    fingerprint covers the whole document with the command-line flags
    applied, and is embedded in every artifact the run writes.
    """

    def __init__(self, raw: dict, base_dir: Path | None = None):
        self.raw = raw
        self.base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
        self._known("", CONFIG_FIELDS)
        field = self._get
        self.family = field("family", _optional(_family), None)
        likelihood = field("likelihood", _optional(_text), None)
        if self.family and likelihood:
            expected = FAMILIES[self.family].likelihood
            if likelihood != expected:
                raise DataFormatError(
                    f"family {self.family!r} pairs with the {expected} likelihood, not {likelihood!r}"
                )
        self.seed = field("seed", _seed, 0)
        self.case = field("case", _choice("diag", "corr"), "diag")
        self.sigma_trunc = field("sigma_trunc", _positive, 0.2 if self.family == "paris" else 0.4)
        self.cutoff = field("cutoff", _optional(_number), None)
        self.nominals = self._nominals("nominals", self.family)
        self.stage1_thin = field("stage1_thin", _optional(_count), None)
        self.hyper_subsample = field("hyper_subsample", _optional(_count), None)
        self.sampler_kind = field("sampler.kind", _choice("slice", "tmcmc"), "slice")
        self._sampler = self._sampler_config(field("sampler", _object, {}))
        self._known("datasets", ("historical", "current"))
        self._historical = field("datasets.historical", _paths, None)
        self._current = field("datasets.current", _path, None)

    @classmethod
    def from_file(
        cls, path: Path | str, *, seed=None, family=None, case=None, cutoff=None, sampler=None,
        samples=None,
    ) -> "RunConfig":
        """The config at ``path`` with the command-line flags applied before
        it is checked. Each flag given (not None) replaces the field it
        overrides: ``seed``, ``family``, ``case``, ``cutoff``,
        ``sampler.kind`` and ``sampler.n_samples``; ``seed`` also replaces a
        ``sampler.seed``."""
        path = Path(path)
        raw = _read_json(path)
        if not isinstance(raw, dict):
            raise DataFormatError(f"{path}: the config must be a JSON object")
        top = {"seed": seed, "family": family, "case": case, "cutoff": cutoff}
        raw.update({k: v for k, v in top.items() if v is not None})
        section = raw.get("sampler", {})
        if isinstance(section, dict):
            flags = {"kind": sampler, "n_samples": samples, "seed": seed if "seed" in section else None}
            section.update({k: v for k, v in flags.items() if v is not None})
            if section:
                raw["sampler"] = section
        return cls(raw, path.parent)

    def _get(self, key: str, convert=None, default=_REQUIRED):
        return _field(self.raw, key, "config", convert, default)

    def _known(self, key: str, names) -> None:
        """Reject a key outside ``names`` in the object at the dotted
        ``key`` (the whole document when empty), naming its dotted path. A
        section that is absent or not an object is left to its reader."""
        section = self._get(key, default=None) if key else self.raw
        if isinstance(section, dict):
            for name in section:
                if name not in names:
                    path = f"{key}.{name}" if key else name
                    raise DataFormatError(f"config: unknown field {path!r}")

    def _section(self, name: str):
        """:meth:`_get` for the fields under the section ``name``."""
        return lambda key, convert=None, default=_REQUIRED: self._get(f"{name}.{key}", convert, default)

    def fingerprint(self) -> str:
        return config_fingerprint(self.raw)

    def resolve(self, rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else self.base_dir / p

    def _nominals(self, key: str, family: str | None) -> tuple[float, ...] | None:
        """Nominal-value overrides at ``key``, one per parameter of
        ``family`` when it is known, or None for the dataset's own."""
        nominals = self._get(key, _optional(_numbers), None)
        if nominals is not None and family and len(nominals) != FAMILIES[family].n_theta:
            raise DataFormatError(
                f"config: field {key!r} must have {FAMILIES[family].n_theta} entries, "
                f"got {len(nominals)}"
            )
        return None if nominals is None else tuple(nominals)

    def _sampler_config(self, section: dict) -> SamplerConfig:
        """The :class:`SamplerConfig` of the ``sampler`` section, with every
        key and value type checked; its seed defaults to the run seed."""
        hints = typing.get_type_hints(SamplerConfig)
        declared = {f.name: f.type for f in fields(SamplerConfig)}
        self._known("sampler", ("kind", *declared))
        settings = {"seed": self.seed}
        for key, value in section.items():
            if key == "kind":
                continue
            if not _json_fits(value, hints[key]):
                raise DataFormatError(
                    f"config: field 'sampler.{key}' must be of type {declared[key]}, got {value!r}"
                )
            settings[key] = value
        try:
            return SamplerConfig(**settings)
        except ValueError as exc:
            raise DataFormatError(f"config: field 'sampler': {exc}") from None

    def sampler_config(self) -> SamplerConfig:
        return self._sampler

    def _required(self, value, key: str):
        if value is None:
            raise DataFormatError(f"config: missing field {key!r}")
        return value

    def historical_paths(self) -> list[Path]:
        return [self.resolve(p) for p in self._required(self._historical, "datasets.historical")]

    def current_path(self) -> Path:
        return self.resolve(self._required(self._current, "datasets.current"))

    def stage1_bounds(self, key: str = "stage1_bounds", family: str | None = None):
        """The ``(lower, upper)`` arrays of the stage-1 prior box at ``key``.
        With a known ``family`` (the config's own by default) each must hold
        one entry per model parameter plus one for sigma."""
        self._known(key, ("lower", "upper"))
        lower, upper = (np.asarray(self._get(f"{key}.{side}", _numbers)) for side in ("lower", "upper"))
        family = family or self.family
        dim = FAMILIES[family].n_theta + 1 if family else lower.size
        for side, arr in (("lower", lower), ("upper", upper)):
            if arr.size != dim:
                raise DataFormatError(
                    f"config: field '{key}.{side}' must have {dim} entries "
                    f"(theta..., sigma), got {arr.size}"
                )
        if np.any(lower > upper):
            raise DataFormatError(f"config: field {key!r}: lower exceeds upper")
        return lower, upper

    def hyper_bounds(
        self, key: str = "hyper_bounds", family: str | None = None
    ) -> HyperPriorBounds:
        """The uniform hyper-prior box at ``key``; with a known ``family`` it
        must bound one mean and one spread per model parameter."""
        self._known(key, ("mu_theta", "sd_theta", "mu_sigma", "sd_sigma", "rho"))
        mu_theta, sd_theta = (self._get(f"{key}.{k}", _pairs) for k in ("mu_theta", "sd_theta"))
        family = family or self.family
        if family and len(mu_theta) != FAMILIES[family].n_theta:
            raise DataFormatError(
                f"config: field '{key}.mu_theta' must have {FAMILIES[family].n_theta} pairs, "
                f"got {len(mu_theta)}"
            )
        try:
            return HyperPriorBounds(
                mu_theta=mu_theta,
                sd_theta=sd_theta,
                mu_sigma=self._get(f"{key}.mu_sigma", _pair),
                sd_sigma=self._get(f"{key}.sd_sigma", _pair),
                # the correlated case samples rho, so its box must bound it
                rho=self._get(f"{key}.rho", _pair)
                if self.case == "corr"
                else self._get(f"{key}.rho", _optional(_pair), None),
            )
        except ValueError as exc:
            raise DataFormatError(f"config: field {key!r}: {exc}") from None

    def candidates(self) -> list[Candidate]:
        """The ``candidates`` section for model selection, one
        :class:`~hbprog.hierarchy.Candidate` per entry (at least two)."""
        out = []
        # model selection ranks at least two candidates
        for i in range(len(self._get("candidates", lambda v: _list(v, 2)))):
            key = f"candidates[{i}]"
            self._known(
                key, ("family", "stage1_bounds", "hyper_bounds", "nominals", "sigma_trunc", "name")
            )
            field = self._section(key)
            family = field("family", _family)
            out.append(
                Candidate(
                    family=family,
                    stage1_bounds=self.stage1_bounds(f"{key}.stage1_bounds", family),
                    hyper_bounds=self.hyper_bounds(f"{key}.hyper_bounds", family),
                    nominals=self._nominals(f"{key}.nominals", family),
                    sigma_trunc=field("sigma_trunc", _positive, self.sigma_trunc),
                    name=field("name", _optional(_text), None),
                )
            )
        return out

    def literature_prior(self) -> ClassicalPrior:
        """The ``literature_prior`` section: Gaussian means and sds of the
        physical parameters (one per parameter of ``family`` when it is set)
        and the error-scale prior."""
        self._known("literature_prior", ("means", "sds", "sigma_bounds", "sigma_mu", "sigma_sd"))
        field = self._section("literature_prior")
        means, sds = field("means", _numbers), field("sds", _numbers)
        n_theta = FAMILIES[self.family].n_theta if self.family else len(means)
        for name, values in (("means", means), ("sds", sds)):
            if len(values) != n_theta:
                raise DataFormatError(
                    f"config: field 'literature_prior.{name}' must have {n_theta} entries, "
                    f"got {len(values)}"
                )
        try:
            return ClassicalPrior(
                means=tuple(means),
                sds=tuple(sds),
                sigma_bounds=field("sigma_bounds", _pair, (0.0, 0.2)),
                sigma_mu=field("sigma_mu", _optional(_number), None),
                sigma_sd=field("sigma_sd", _optional(_number), None),
            )
        except ValueError as exc:
            raise DataFormatError(f"config: field 'literature_prior': {exc}") from None

    def _linspace(self, key: str) -> np.ndarray:
        """The evenly spaced cycles of a ``{start, stop, num}`` section."""
        self._known(key, ("start", "stop", "num"))
        start, stop = (self._get(f"{key}.{k}", _number) for k in ("start", "stop"))
        return np.linspace(start, stop, self._get(f"{key}.num", _count))

    def prognosis_grid(self) -> np.ndarray | None:
        """The band grid ``prognosis.grid`` ({start, stop, num}), or None
        when the config does not set one."""
        if self._get("prognosis.grid", default=None) is None:
            return None
        return self._linspace("prognosis.grid")

    def prognosis_config(self, t_c: float) -> PrognosisConfig:
        self._known(
            "prognosis", ("threshold", "horizon", "quantiles", "include_observation_noise", "grid")
        )
        field = self._section("prognosis")
        t_c, horizon = float(t_c), field("horizon", float)
        if not horizon > t_c:
            raise DataFormatError(
                f"config: field 'prognosis.horizon': {horizon:g} must exceed the current cycle {t_c:g}"
            )
        return PrognosisConfig(
            threshold=field("threshold", float),
            t_c=t_c,
            horizon=horizon,
            quantiles=field("quantiles", quantile_levels, (0.025, 0.5, 0.975)),
            include_observation_noise=field("include_observation_noise", _json_bool, False),
        )

    def synthetic_spec(self) -> SyntheticSpec:
        self._known(
            "synthetic",
            ("family", "psi", "n_units", "cycles", "noise_scale", "loading", "geometry",
             "threshold", "nominals", "unit_prefix"),
        )
        self._known("synthetic.psi", ("mu0", "sd0", "mu_sigma", "sd_sigma", "rho", "sigma_trunc"))
        self._known("synthetic.loading", [f.name for f in fields(LoadingSpec)])
        self._known("synthetic.geometry", [f.name for f in fields(CrackGeometry)])
        field = self._section("synthetic")
        mu0, sd0 = (np.asarray(field(f"psi.{k}", _numbers)) for k in ("mu0", "sd0"))
        mu_sigma, sd_sigma = (field(f"psi.{k}", _number) for k in ("mu_sigma", "sd_sigma"))
        rho = field("psi.rho", _optional(_number), None)
        sigma_trunc = field("psi.sigma_trunc", _positive, self.sigma_trunc)
        try:
            psi = HyperParameters(mu0, sd0, mu_sigma, sd_sigma, rho, sigma_trunc)
        except ValueError as exc:
            raise DataFormatError(f"config: field 'synthetic.psi': {exc}") from None
        loading = geometry = None
        if field("loading", None, None) is not None:
            loading = _loading(self.raw, "synthetic.loading", "config")
        if field("geometry", None, None) is not None:
            geometry = _geometry(self.raw, "synthetic.geometry", "config")
        if isinstance(field("cycles", None), dict):
            cycles = self._linspace("synthetic.cycles").astype(np.int64)
        else:
            cycles = np.asarray(field("cycles", _numbers), dtype=np.int64)
        nominals = field("nominals", _optional(_numbers), None)
        spec = dict(
            family=field("family", _family, self.family or _REQUIRED),
            psi=psi,
            n_units=field("n_units", _count),
            cycles=cycles,
            noise_scale=field("noise_scale", _number, 1.0),
            loading=loading,
            geometry=geometry,
            threshold=field("threshold", _optional(_number), None),
            nominals=tuple(nominals) if nominals else None,
            unit_prefix=field("unit_prefix", _text, "S"),
        )
        try:
            return SyntheticSpec(**spec)
        except ValueError as exc:
            raise DataFormatError(f"config: field 'synthetic': {exc}") from None
