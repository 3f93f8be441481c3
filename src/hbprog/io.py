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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from hbprog import __version__
from hbprog.hierarchy import Candidate, ClassicalPrior, Dataset, build_model
from hbprog.models import FAMILIES, LOADING_FIELDS, CrackGeometry, LoadingSpec
from hbprog.prognosis import (
    MAX_HORIZON,
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


_REQUIRED = object()


def _convert(value, key: str, where: str, convert):
    """``value``, the field at the dotted ``key`` of the JSON document
    ``where``, passed through ``convert``: a schema reads an object (see
    :func:`_read`), and a function's TypeError or ValueError is a
    :class:`DataFormatError` naming the field."""
    if isinstance(convert, dict):
        return _read(value, key, where, convert)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{where}: field {key!r}: {exc}") from None


def _entry(entry) -> tuple:
    """The ``(convert, default)`` of a schema entry."""
    return entry if isinstance(entry, tuple) else (entry, _REQUIRED)


def _read(obj, key: str, where: str, schema: dict) -> dict:
    """Every field of ``schema`` in the JSON object ``obj`` at the dotted
    ``key`` of the document ``where`` (the whole document when ``key`` is
    empty): the one reader of config sections, sidecars and manifests.

    The schema maps each field to ``(convert, default)``, or to a bare
    ``convert`` when it is required. A field the schema lacks is rejected,
    a present one passes through ``convert`` (None keeps it as written) and
    an absent one takes ``default``; each violation is a
    :class:`DataFormatError` naming the dotted field."""
    if not isinstance(obj, dict):
        raise DataFormatError(f"{where}: {f'field {key!r}' if key else 'document'} must be an object")
    prefix = f"{key}." if key else ""
    for name in obj:
        if name not in schema:
            raise DataFormatError(f"{where}: unknown field {prefix + name!r}")
    out = {}
    for name, entry in schema.items():
        convert, default = _entry(entry)
        # a null optional section is no section
        if name in obj and not (obj[name] is None and isinstance(convert, dict) and default is None):
            out[name] = obj[name] if convert is None else _convert(obj[name], prefix + name, where, convert)
        elif default is _REQUIRED:
            raise DataFormatError(f"{where}: missing field {prefix + name!r}")
        else:
            out[name] = default
    return out


def _build(cls, values: dict, where: str, key: str = ""):
    """``cls`` built from ``values``, the fields read at the dotted ``key``
    of ``where`` (the whole document when empty). A None value leaves the
    class's default, and a ValueError of the class's own checks is a
    :class:`DataFormatError` naming the field."""
    try:
        return cls(**{k: v for k, v in values.items() if v is not None})
    except ValueError as exc:
        raise DataFormatError(f"{where}: {f'field {key!r}: ' if key else ''}{exc}") from None


def _length(values, n: int, key: str, where: str, what: str = "entries") -> None:
    if len(values) != n:
        raise DataFormatError(f"{where}: field {key!r} must have {n} {what}, got {len(values)}")


def _nominals(values, family: str, key: str, where: str):
    """Nominal-value overrides, one per parameter of ``family``, or None for
    the model's own."""
    if values is not None:
        _length(values, FAMILIES[family].n_theta, key, where)
    return values


def _default_sigma_trunc(family: str) -> float:
    """The population sigma truncation of a config that sets none."""
    return 0.2 if family == "paris" else 0.4


def _json_bool(value) -> bool:
    """A JSON boolean; anything else (a string such as "no", a number,
    null) is rejected rather than cast."""
    if not isinstance(value, bool):
        raise TypeError(f"must be true or false, got {value!r}")
    return value


def _numbers(value) -> tuple[float, ...]:
    """A JSON list of finite numbers (booleans are not numbers here)."""
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise TypeError(f"must be a list of numbers, got {value!r}")
    if not all(math.isfinite(v) for v in value):
        raise ValueError(f"must hold finite numbers, got {value!r}")
    return tuple(float(v) for v in value)


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


def _natural(value) -> int:
    return _integer(value, 0)


def _count(value) -> int:
    return _integer(value, 1)


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


def _optional(convert):
    """``convert`` that also passes JSON null through as None."""
    return lambda value: None if value is None else convert(value)


def _pair(value) -> tuple[float, float]:
    """A ``[lower, upper]`` bound pair."""
    pair = _numbers(value)
    if len(pair) != 2:
        raise ValueError(f"must be a [lower, upper] pair, got {value!r}")
    return pair


def _pairs(value) -> tuple[tuple[float, float], ...]:
    """A list of ``[lower, upper]`` bound pairs."""
    return tuple(_pair(v) for v in _list(value, 0))


#: :class:`~hbprog.models.LoadingSpec`; its checks say which fields each
#: mode needs, and :func:`_crack_sections` names a field of the other mode
LOADING = {
    "mode": _text,
    **dict.fromkeys(("delta_sigma", "delta_sigma1", "n1", "delta_sigma2", "n2"), (_number, None)),
}

#: :class:`~hbprog.models.CrackGeometry`
GEOMETRY = {"a0": _number, "n0": _number, "a_f": _number}


def _crack_sections(section: dict, where: str, prefix: str = "", required: bool = False) -> None:
    """Build the read :data:`GEOMETRY` and :data:`LOADING` entries of
    ``section`` in place; a bad field is named by its dotted key after
    ``prefix``. A loading field that its mode does not take is rejected
    first (an unknown mode is left to :class:`~hbprog.models.LoadingSpec`).
    A missing entry stays None, or is an error when ``required``."""
    loading = section["loading"]
    mode = loading and loading["mode"]
    if mode in LOADING_FIELDS:
        for name, value in loading.items():
            if value is not None and name not in ("mode", *LOADING_FIELDS[mode]):
                key = f"{prefix}loading.{name}"
                raise DataFormatError(f"{where}: field {key!r}: {mode} loading takes no {name}")
    for key, cls in (("geometry", CrackGeometry), ("loading", LoadingSpec)):
        if section[key] is not None:
            section[key] = _build(cls, section[key], where, prefix + key)
        elif required:
            raise DataFormatError(f"{where}: missing field {prefix + key!r}")

#: a dataset's ``<stem>.meta.json``; crack units need ``geometry`` and
#: ``loading``
SIDECAR = {
    "unit_id": _text,
    "family": _family,
    "units": _text,
    "geometry": (GEOMETRY, None),
    "loading": (LOADING, None),
    "threshold": (_optional(_number), None),
    "nominals": (_optional(_numbers), None),
    "note": (_optional(_text), None),
}

#: a sample set's ``<stem>.json``; ``labels``, ``n`` and ``version`` are
#: written for readers of the file, and the CSV header is the labels' source
SAMPLE_SET = {
    **dict.fromkeys(("labels", "n", "version"), (None, None)),
    **dict.fromkeys(("log_evidence", "log_evidence_se"), (_optional(_number), None)),
    "provenance": (_object, {}),
}

#: the population metadata that ``fit-current`` reads back from the
#: provenance of a hyper sample set
HYPER_PROVENANCE = {"n_theta": _count, "correlated": _json_bool, "sigma_trunc": _positive}

#: the current cycle that ``predict`` and ``rul`` read back from the
#: provenance of a posterior, when it records one
POSTERIOR_PROVENANCE = {"t_c": (_number, None)}

#: the fields of a :class:`~hbprog.prognosis.PrognosisConfig` that a run
#: config sets; a prognosis manifest adds ``t_c``
PROGNOSIS = {
    "threshold": _number, "horizon": _number, "quantiles": (quantile_levels, None),
    "include_observation_noise": (_json_bool, None),
}

#: a prognosis's ``<stem>.json``
PROGNOSIS_MANIFEST = {
    "config": {**PROGNOSIS, "t_c": _number}, "version": (None, None),
    **dict.fromkeys(("summary", "provenance"), (_object, {})),
}


def load_dataset(path: Path | str) -> Dataset:
    """Read a ``cycle,value`` CSV and its ``<stem>.meta.json`` sidecar."""
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"{path}: no such dataset file")
    meta_path = _meta_path(path)
    if not meta_path.is_file():
        raise DataFormatError(f"{meta_path}: missing metadata sidecar")
    header, table, lines = _read_table(path, finite=True)
    if header != ["cycle", "value"]:
        raise DataFormatError(f"{path}:1: expected header 'cycle,value'")
    cycles, values = table.T.copy()
    bad = np.flatnonzero((cycles != np.floor(cycles)) | (np.abs(cycles) > 2**53))
    if bad.size:
        i = bad[0]
        raise DataFormatError(f"{path}:{lines[i]}: cycle {cycles[i]:g} is not an integer index")
    bad = np.flatnonzero(np.diff(cycles) <= 0) + 1
    if bad.size:
        i = bad[0]
        kind = "duplicate" if cycles[i] == cycles[i - 1] else "decreasing"
        raise DataFormatError(f"{path}:{lines[i]}: {kind} cycle index {int(cycles[i])}")
    where = str(meta_path)
    meta = _read(_read_json(meta_path), "", where, SIDECAR)
    _crack_sections(meta, where, required=meta["family"] == "paris")
    _nominals(meta["nominals"], meta["family"], "nominals", where)
    return _build(Dataset, {**meta, "cycles": cycles.astype(np.int64), "values": values}, str(path))


def save_dataset(dataset: Dataset, path: Path | str) -> Path:
    """Write the CSV body and the metadata sidecar (:data:`SIDECAR`) of a
    dataset. A section (geometry, loading) the dataset lacks is left out;
    any other field it lacks is written as null."""
    path = Path(path)
    rows = [f"{int(c)},{_fmt(v)}" for c, v in zip(dataset.cycles, dataset.values)]
    atomic_write(path, "\n".join(["cycle,value", *rows]) + "\n")
    meta = {}
    for key, entry in SIDECAR.items():
        value = getattr(dataset, key)
        if not isinstance(_entry(entry)[0], dict):
            meta[key] = _jsonable(value)
        elif value is not None:
            meta[key] = _as_dict(value)
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


def _read_table(path: Path, finite: bool) -> tuple[list[str], np.ndarray, list[int]]:
    """The header, the numeric rows and their 1-based line numbers of a
    comma-separated table. An empty file, or a row that is ragged, not
    numeric or (with ``finite``) not finite, is a :class:`DataFormatError`
    naming the file and line."""
    lines = path.read_text().splitlines()
    if not lines:
        raise DataFormatError(f"{path}:1: missing header")
    header = lines[0].split(",")
    numbers = [ln for ln, line in enumerate(lines[1:], start=2) if line.strip()]
    fields = [lines[ln - 1].split(",") for ln in numbers]
    try:
        if any(len(row) != len(header) for row in fields):
            raise ValueError("ragged table")
        # one call; numpy parses each str with float()'s grammar
        table = np.array(fields, dtype=float).reshape(-1, len(header))
    except ValueError:
        # row by row, to name the first bad line
        rows = []
        for ln, row in zip(numbers, fields):
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{ln}: {exc}") from None
            if len(row) != len(header):
                raise DataFormatError(f"{path}:{ln}: expected {len(header)} values, got {len(row)}")
        table = np.array(rows, dtype=float).reshape(-1, len(header))
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1)) if finite else []
    if len(bad):
        raise DataFormatError(f"{path}:{numbers[bad[0]]}: values must be finite")
    return header, table, numbers


def load_sample_set(stem: Path | str, provenance: dict | None = None) -> SampleSet:
    """Read ``<stem>.csv`` and its ``<stem>.json`` manifest; a malformed
    row or manifest is a :class:`DataFormatError` naming the file. The
    provenance is free-form: ``provenance``, when given, is the schema of
    the fields in it that the caller reads back (such as
    :data:`HYPER_PROVENANCE`), and only those are checked."""
    stem = Path(stem)
    csv_path = stem.with_suffix(".csv")
    json_path = stem.with_suffix(".json")
    if not csv_path.is_file() or not json_path.is_file():
        raise DataFormatError(f"{stem}: missing sample-set artifact pair")
    manifest = _read(_read_json(json_path), "", str(json_path), SAMPLE_SET)
    if provenance is not None:
        known = {k: v for k, v in manifest["provenance"].items() if k in provenance}
        _read(known, "provenance", str(json_path), provenance)
    labels, data, _ = _read_table(csv_path, finite=True)
    try:
        return SampleSet(
            data,
            tuple(labels),
            dict(manifest["provenance"]),
            manifest["log_evidence"],
            manifest["log_evidence_se"],
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
    manifest = _read(_read_json(path), "", str(path), PROGNOSIS_MANIFEST)
    cfg = _build(PrognosisConfig, manifest["config"], str(path), "config")
    grid = bands = t_eol = rul = censored = None
    bands_path = stem.parent / (stem.name + ".bands.csv")
    if bands_path.exists():
        _, table, _ = _read_table(bands_path, finite=False)
        grid, bands = table[:, 0], table[:, 1:].T
    rul_path = stem.parent / (stem.name + ".rul.csv")
    if rul_path.exists():
        _, table, _ = _read_table(rul_path, finite=False)
        t_eol, rul, censored = table[:, 0], table[:, 1], table[:, 2].astype(bool)
    return PrognosisResult(
        config=cfg,
        grid=grid,
        bands=bands,
        t_eol=t_eol,
        rul=rul,
        censored=censored,
        summary=dict(manifest["summary"]),
        provenance=dict(manifest["provenance"]),
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
        datasets.append(replace(probe, cycles=cycles_i, values=values))
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
    """The unit's end of life from cycle 0, or None when it never fails
    within the horizon (or a battery fleet has no threshold)."""
    threshold = spec.threshold
    if spec.family == "paris":
        threshold = threshold if threshold is not None else spec.geometry.a_f
        horizon = MAX_HORIZON
    elif threshold is None:
        return None
    else:
        # first crossing in cycles 1 .. 20 * (last observed cycle) + 99, at most 2^53
        horizon = min(20 * int(spec.cycles[-1]) + 99, MAX_HORIZON)
    t_eol, censored = end_of_life(theta, model, PrognosisConfig(threshold, 0.0, horizon))
    return None if censored else t_eol


#: the ``sampler`` section: ``kind`` and the fields of
#: :class:`~hbprog.samplers.SamplerConfig`
SAMPLER = {
    "kind": (_choice("slice", "tmcmc"), "slice"),
    **dict.fromkeys(("n_samples", "thinning"), (_count, None)),
    **dict.fromkeys(("seed", "tmcmc_moves"), (_natural, None)),
    "tmcmc_target_cov": (_positive, None),
    "burn_in": (_number, None),
    "slice_width": (_optional(_positive), None),
}

#: an evenly spaced grid of cycles, the arguments of :func:`numpy.linspace`
LINSPACE = {"start": _number, "stop": _number, "num": _count}

STAGE1_BOUNDS = {"lower": _numbers, "upper": _numbers}

#: :class:`~hbprog.targets.HyperPriorBounds`; ``rho`` is required when
#: ``case`` is ``corr``
HYPER_BOUNDS = {
    "mu_theta": _pairs, "sd_theta": _pairs, "mu_sigma": _pair, "sd_sigma": _pair,
    "rho": (_optional(_pair), None),
}

#: one entry of ``candidates``; ``sigma_trunc`` defaults to the run's
CANDIDATE = {
    "family": _family,
    "stage1_bounds": STAGE1_BOUNDS,
    "hyper_bounds": HYPER_BOUNDS,
    "nominals": (_optional(_numbers), None),
    "sigma_trunc": (_positive, None),
    "name": (_optional(_text), None),
}

#: :class:`~hbprog.hierarchy.ClassicalPrior`
LITERATURE_PRIOR = {
    "means": _numbers, "sds": _numbers, "sigma_bounds": (_pair, None),
    **dict.fromkeys(("sigma_mu", "sigma_sd"), (_optional(_number), None)),
}

#: :class:`~hbprog.targets.HyperParameters`; ``sigma_trunc`` defaults to
#: the run's
PSI = {
    "mu0": _numbers, "sd0": _numbers, "mu_sigma": _number, "sd_sigma": _number,
    "rho": (_optional(_number), None), "sigma_trunc": (_positive, None),
}

#: the ``synthetic`` section; ``family`` defaults to the run's, and
#: ``cycles`` is a list of cycles or a :data:`LINSPACE` grid
SYNTHETIC = {
    "family": (_family, None),
    "psi": PSI,
    "n_units": _count,
    "cycles": None,
    "noise_scale": (_number, None),
    "loading": (LOADING, None),
    "geometry": (GEOMETRY, None),
    "threshold": (_optional(_number), None),
    "nominals": (_optional(_numbers), None),
    "unit_prefix": (_text, None),
}

#: the ``datasets`` section; a command that reads a dataset needs its field
DATASETS = {"historical": (_paths, None), "current": (_path, None)}

#: the top level of a run config. Each section has its own schema:
#: ``sampler`` and ``datasets`` are read when the config loads, each other
#: section when a command asks for it.
RUN = {
    "family": (_optional(_family), None),
    "seed": (_natural, 0),
    "case": (_choice("diag", "corr"), "diag"),
    "sigma_trunc": (_positive, None),
    "cutoff": (_optional(_number), None),
    "nominals": (_optional(_numbers), None),
    "stage1_thin": (_optional(_count), None),
    "hyper_subsample": (_optional(_count), None),
    **dict.fromkeys(
        ("sampler", "datasets", "stage1_bounds", "hyper_bounds", "candidates", "literature_prior",
         "prognosis", "synthetic"),
        (None, None),
    ),
}


def _stage1_box(bounds: dict, key: str, family: str, sampler: str):
    """The ``(lower, upper)`` arrays of the stage-1 prior box of ``family``
    read at ``key`` for ``sampler``; TMCMC cannot sample an entry with
    lower == upper."""
    lower, upper = np.asarray(bounds["lower"]), np.asarray(bounds["upper"])
    for side, arr in (("lower", lower), ("upper", upper)):
        _length(arr, FAMILIES[family].n_theta + 1, f"{key}.{side}", "config", "entries (theta..., sigma)")
    if np.any(lower > upper):
        raise DataFormatError(f"config: field {key!r}: lower exceeds upper")
    collapsed = np.flatnonzero(lower == upper)
    if sampler == "tmcmc" and collapsed.size:
        raise DataFormatError(
            f"config: field {key!r}: entry {collapsed[0]} has lower == upper, which TMCMC cannot sample"
        )
    return lower, upper


def _hyper_box(bounds: dict, key: str, family: str, case: str) -> HyperPriorBounds:
    """The hyper-prior box of ``family`` read at ``key``; the correlated
    case samples rho, so its box must bound it."""
    _length(bounds["mu_theta"], FAMILIES[family].n_theta, f"{key}.mu_theta", "config", "pairs")
    if case == "corr" and bounds["rho"] is None:
        raise DataFormatError(f"config: missing field '{key}.rho'")
    return _build(HyperPriorBounds, bounds, "config", key)


class RunConfig:
    """Parsed run configuration for the command-line pipeline.

    Each part of the document is read by its schema (:data:`RUN` for the
    top level, which says when each section is read), before any data is
    read or sampled; every violation is a :class:`DataFormatError` naming
    the dotted field. Dataset paths resolve relative to the config file. The
    fingerprint covers the whole document with the command-line flags
    applied, and is embedded in every artifact the run writes.

    The fields that depend on the fitted family (``nominals``,
    ``sigma_trunc``'s default and the sections that hold one entry per
    parameter) are read against ``family``: the config's own, or the one
    :meth:`set_family` fixes when the config names none.
    """

    def __init__(self, raw: dict, base_dir: Path | None = None):
        self.raw = raw
        self.base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
        top = _read(raw, "", "config", RUN)
        self.seed = top["seed"]
        self.case = top["case"]
        self.cutoff = top["cutoff"]
        self._top = top
        self.family = self.nominals = self.sigma_trunc = None
        if top["family"]:
            self.set_family(top["family"])
        self.stage1_thin = top["stage1_thin"]
        self.hyper_subsample = top["hyper_subsample"]
        sampler = raw.get("sampler", {})
        self.sampler_kind = _read(sampler, "sampler", "config", SAMPLER)["kind"]
        # built from the values as written, so that the config hash in each
        # sample set's provenance does not depend on the reader
        settings = {k: v for k, v in sampler.items() if k != "kind"}
        self._sampler = _build(SamplerConfig, {"seed": self.seed, **settings}, "config", "sampler")
        datasets = _read(raw.get("datasets", {}), "datasets", "config", DATASETS)
        self._historical, self._current = datasets["historical"], datasets["current"]

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

    def set_family(self, family: str) -> None:
        """Fix the fitted family: the top-level ``nominals`` must hold one
        number per parameter of it, and ``sigma_trunc`` defaults to
        :func:`_default_sigma_trunc` of it."""
        self.nominals = _nominals(self._top["nominals"], family, "nominals", "config")
        self.sigma_trunc = self._top["sigma_trunc"] or _default_sigma_trunc(family)
        self.family = family

    def _family(self) -> str:
        """The fitted family, which a section with one entry per parameter
        is read against."""
        return self._required(self.family, "family")

    def _lazy(self, key: str, convert):
        """The top-level field ``key`` a command needs, read by ``convert``."""
        if key not in self.raw:
            raise DataFormatError(f"config: missing field {key!r}")
        return _convert(self.raw[key], key, "config", convert)

    def fingerprint(self) -> str:
        return config_fingerprint(self.raw)

    def resolve(self, rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else self.base_dir / p

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

    def stage1_bounds(self):
        """The ``(lower, upper)`` arrays of the stage-1 prior box; each
        holds one entry per parameter of ``family`` plus one for sigma, and
        with ``sampler.kind`` tmcmc no entry is collapsed."""
        bounds = self._lazy("stage1_bounds", STAGE1_BOUNDS)
        return _stage1_box(bounds, "stage1_bounds", self._family(), self.sampler_kind)

    def hyper_bounds(self) -> HyperPriorBounds:
        """The uniform hyper-prior box: one mean and one spread per
        parameter of ``family``."""
        bounds = self._lazy("hyper_bounds", HYPER_BOUNDS)
        return _hyper_box(bounds, "hyper_bounds", self._family(), self.case)

    def candidates(self) -> list[Candidate]:
        """The ``candidates`` section for model selection, one
        :class:`~hbprog.hierarchy.Candidate` per entry (at least two)."""
        out = []
        # model selection ranks at least two candidates
        for i, entry in enumerate(self._lazy("candidates", lambda v: _list(v, 2))):
            key = f"candidates[{i}]"
            cand = _read(entry, key, "config", CANDIDATE)
            family = cand["family"]
            out.append(
                Candidate(
                    family=family,
                    # model selection samples every candidate by TMCMC
                    stage1_bounds=_stage1_box(
                        cand["stage1_bounds"], f"{key}.stage1_bounds", family, "tmcmc"
                    ),
                    hyper_bounds=_hyper_box(cand["hyper_bounds"], f"{key}.hyper_bounds", family, self.case),
                    nominals=_nominals(cand["nominals"], family, f"{key}.nominals", "config"),
                    sigma_trunc=(
                        cand["sigma_trunc"] or self._top["sigma_trunc"] or _default_sigma_trunc(family)
                    ),
                    name=cand["name"],
                )
            )
        return out

    def literature_prior(self) -> ClassicalPrior:
        """The ``literature_prior`` section: Gaussian means and sds of the
        physical parameters (one per parameter of ``family``) and the
        error-scale prior."""
        prior = self._lazy("literature_prior", LITERATURE_PRIOR)
        n_theta = FAMILIES[self._family()].n_theta
        for name in ("means", "sds"):
            _length(prior[name], n_theta, f"literature_prior.{name}", "config")
        return _build(ClassicalPrior, prior, "config", "literature_prior")

    def _prognosis(self) -> dict:
        return self._lazy("prognosis", {**PROGNOSIS, "grid": (LINSPACE, None)})

    def prognosis_grid(self) -> np.ndarray | None:
        """The band grid ``prognosis.grid`` ({start, stop, num}), or None
        when the config does not set one."""
        grid = self._prognosis()["grid"]
        return None if grid is None else np.linspace(**grid)

    def prognosis_config(self, t_c: float) -> PrognosisConfig:
        section = self._prognosis()
        del section["grid"]
        t_c, horizon = float(t_c), section["horizon"]
        if not horizon > t_c:
            raise DataFormatError(
                f"config: field 'prognosis.horizon': {horizon:g} must exceed the current cycle {t_c:g}"
            )
        if not horizon <= MAX_HORIZON:
            raise DataFormatError(
                f"config: field 'prognosis.horizon': {horizon:g} must be at most "
                f"2^53 = {MAX_HORIZON:.0f} cycles"
            )
        return _build(PrognosisConfig, {**section, "t_c": t_c}, "config", "prognosis")

    def synthetic_spec(self) -> SyntheticSpec:
        spec = self._lazy("synthetic", SYNTHETIC)
        family = spec["family"] or self.family
        if family is None:
            raise DataFormatError("config: missing field 'synthetic.family'")
        sigma_trunc = spec["psi"]["sigma_trunc"] or self._top["sigma_trunc"]
        psi = {**spec["psi"], "sigma_trunc": sigma_trunc or _default_sigma_trunc(family)}
        cycles = spec["cycles"]
        if isinstance(cycles, dict):
            cycles = np.linspace(**_read(cycles, "synthetic.cycles", "config", LINSPACE))
        else:
            cycles = _convert(cycles, "synthetic.cycles", "config", _numbers)
        _crack_sections(spec, "config", "synthetic.")
        spec.update(
            family=family,
            psi=_build(HyperParameters, psi, "config", "synthetic.psi"),
            cycles=np.asarray(cycles).astype(np.int64),
            nominals=_nominals(spec["nominals"] or None, family, "synthetic.nominals", "config"),
        )
        return _build(SyntheticSpec, spec, "config", "synthetic")
