"""Command-line surface.

Subcommands: ``synth``, ``fit-historical``, ``fit-current``, ``predict``,
``rul``, ``model-select``, ``compare-prior``. Every run is driven by a JSON
config (see README for the schema) plus a handful of overriding flags, and
writes self-describing text artifacts into the output directory. stdout
carries a one-line summary with artifact paths; sample data never goes to
stdout.

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from hbprog import __version__
from hbprog.hierarchy import (
    build_model,
    classical_update,
    fit_historical,
    model_select,
    update_current,
)
from hbprog.io import (
    HYPER_PROVENANCE,
    POSTERIOR_PROVENANCE,
    DataFormatError,
    RunConfig,
    atomic_write,
    generate_synthetic,
    load_dataset,
    load_sample_set,
    save_dataset,
    save_prognosis,
    save_sample_set,
    _dump_json,
    _meta_path,
)
from hbprog.models import FAMILIES
from hbprog.prognosis import predict_trajectory, rul_distribution
from hbprog.samplers import SamplerError
from hbprog.targets import HyperRowError, _decode_hyper_meta


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hbprog", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hbprog {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--out", required=True, help="output directory for artifacts")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--samples", type=int, default=None, help="override sampler draw count")
        p.add_argument(
            "--model",
            choices=list(FAMILIES),
            default=None,
            help="override the model family",
        )
        p.add_argument("--case", choices=["diag", "corr"], default=None)
        p.add_argument("--sampler", choices=["slice", "tmcmc"], default=None)
        p.add_argument("--cutoff", type=float, default=None, help="current-data cutoff cycle t_c")

    for name, doc in [
        ("synth", "generate a synthetic fleet plus ground truth"),
        ("fit-historical", "stage-1 per-dataset posteriors and the stage-2 hyper-posterior"),
        ("fit-current", "update the current unit under the hyper-sample mixture prior"),
        ("predict", "trajectory quantile bands from a persisted posterior"),
        ("rul", "remaining-useful-life distribution from a persisted posterior"),
        ("model-select", "rank candidate families by hierarchical log-evidence"),
        ("compare-prior", "single-level update under a literature prior"),
    ]:
        p = sub.add_parser(name, help=doc)
        common(p)
        if name == "fit-current":
            p.add_argument("--hyper", default=None, help="hyper sample-set stem (default <out>/hyper)")
        if name in ("predict", "rul"):
            p.add_argument(
                "--posterior", default=None, help="posterior sample-set stem (default <out>/current_posterior)"
            )
    return parser


def _load_current(cfg: RunConfig) -> tuple:
    dataset = load_dataset(cfg.current_path())
    if cfg.cutoff is None:
        if not len(dataset):
            raise DataFormatError(
                f"{cfg.current_path()}: the current unit has no data points; "
                "pass --cutoff to forecast from the prior"
            )
        return dataset, dataset, float(dataset.cycles[-1])
    return dataset, dataset.truncate(cfg.cutoff), cfg.cutoff


def _fit_family(cfg: RunConfig, paths: list[Path]) -> None:
    """Fix the fitted family of a config that names none (see
    :meth:`~hbprog.io.RunConfig.set_family`): the one family that the
    sidecar of every dataset at ``paths`` names. A sidecar naming another
    is a :class:`DataFormatError` naming the first such file."""
    if cfg.family is not None:
        return
    first = load_dataset(paths[0]).family
    for path in paths[1:]:
        family = load_dataset(path).family
        if family != first:
            raise DataFormatError(
                f"{_meta_path(path)}: family {family!r} differs from {first!r} in "
                f"{_meta_path(paths[0])}; the config's 'family' must say which to fit"
            )
    cfg.set_family(first)


def _check_fits(dataset, path: Path, family: str) -> None:
    """Raise a :class:`DataFormatError` naming the file and the family when
    the dataset does not fit the fitted family: its first cycle lies below
    the family's domain (an empty dataset has no first cycle and passes),
    or a crack family's sidecar lacks the geometry or the loading."""
    lowest = FAMILIES[family].min_cycle
    if len(dataset) and dataset.cycles[0] < lowest:
        raise DataFormatError(
            f"{path}: family {family!r} is defined for cycles >= {lowest:g}, "
            f"but the data start at cycle {dataset.cycles[0]}"
        )
    if family == "paris" and (dataset.geometry is None or dataset.loading is None):
        raise DataFormatError(
            f"{_meta_path(path)}: family 'paris' needs the fields 'geometry' and 'loading', "
            f"but the unit is {dataset.family!r}"
        )


def _load_historical(cfg: RunConfig, families) -> list:
    """The historical datasets, each checked to hold data and to fit every
    family in ``families``."""
    paths = cfg.historical_paths()
    datasets = [load_dataset(p) for p in paths]
    for ds, path in zip(datasets, paths):
        if not len(ds):
            raise DataFormatError(f"{path}: a historical dataset needs at least one data point")
        for family in families:
            _check_fits(ds, path, family)
    return datasets


def _stamp(ss, cfg: RunConfig):
    ss.provenance.update(run_fingerprint=cfg.fingerprint(), version=__version__)
    return ss


def cmd_synth(cfg: RunConfig, args, out: Path) -> str:
    datasets, truth = generate_synthetic(cfg.synthetic_spec(), cfg.seed)
    paths = [save_dataset(ds, out / f"{ds.unit_id}.csv") for ds in datasets]
    truth["config_fingerprint"] = cfg.fingerprint()
    truth_path = out / "truth.json"
    atomic_write(truth_path, _dump_json(truth))
    return f"synth: wrote {len(paths)} units -> {out} (truth: {truth_path})"


def cmd_fit_historical(cfg: RunConfig, args, out: Path) -> str:
    _fit_family(cfg, cfg.historical_paths())
    stage1_bounds, hyper_bounds = cfg.stage1_bounds(), cfg.hyper_bounds()
    datasets = _load_historical(cfg, [cfg.family])
    result = fit_historical(
        datasets,
        stage1_bounds,
        hyper_bounds,
        case=cfg.case,
        config=cfg.sampler_config(),
        sampler=cfg.sampler_kind,
        sigma_trunc=cfg.sigma_trunc,
        family=cfg.family,
        nominals=cfg.nominals,
        stage1_thin=cfg.stage1_thin,
    )
    for ds, ss in zip(datasets, result.stage1):
        save_sample_set(_stamp(ss, cfg), out / f"stage1_{ds.unit_id}")
    hyper_path = save_sample_set(_stamp(result.hyper, cfg), out / "hyper")
    ev = "" if result.log_evidence is None else f", log-evidence {result.log_evidence:.3f}"
    return (
        f"fit-historical: {len(datasets)} units, hyper posterior "
        f"({result.hyper.n} draws{ev}) -> {hyper_path}"
    )


def _check_hyper(hyper, stem: Path, model) -> None:
    """Raise a :class:`DataFormatError` naming the hyper manifest when its
    population metadata does not describe the fitted family, or the set
    fails the library's shape check."""
    n_theta = hyper.provenance["n_theta"]
    manifest = stem.with_suffix(".json")
    if n_theta != model.n_theta:
        raise DataFormatError(
            f"{manifest}: field 'provenance.n_theta': {n_theta} parameters, but family "
            f"{model.family!r} has {model.n_theta}"
        )
    try:
        _decode_hyper_meta(hyper)
    except ValueError as exc:
        raise DataFormatError(f"{manifest}: {exc}") from None


def cmd_fit_current(cfg: RunConfig, args, out: Path) -> str:
    hyper_stem = Path(args.hyper) if args.hyper else out / "hyper"
    hyper = load_sample_set(hyper_stem, HYPER_PROVENANCE)
    _fit_family(cfg, [cfg.current_path()])
    dataset, truncated, t_c = _load_current(cfg)
    _check_fits(dataset, cfg.current_path(), cfg.family)
    model = build_model(dataset, cfg.family, cfg.nominals)
    _check_hyper(hyper, hyper_stem, model)
    try:
        posterior = update_current(
            truncated, hyper, model, cfg.sampler_config(), hyper_subsample=cfg.hyper_subsample
        )
    except HyperRowError as exc:
        raise DataFormatError(f"{hyper_stem.with_suffix('.csv')}: {exc}") from None
    posterior.provenance.update(t_c=t_c, n_data=len(truncated))
    path = save_sample_set(_stamp(posterior, cfg), out / "current_posterior")
    return (
        f"fit-current: unit {dataset.unit_id} with {len(truncated)} points "
        f"(t_c={t_c:g}) -> {path}"
    )


def _posterior_and_model(cfg: RunConfig, args, out: Path):
    stem = Path(args.posterior) if args.posterior else out / "current_posterior"
    samples = load_sample_set(stem, POSTERIOR_PROVENANCE)
    _fit_family(cfg, [cfg.current_path()])
    if "t_c" in samples.provenance:
        dataset, t_c = load_dataset(cfg.current_path()), float(samples.provenance["t_c"])
    else:
        dataset, _, t_c = _load_current(cfg)
    _check_fits(dataset, cfg.current_path(), cfg.family)
    return samples, build_model(dataset, cfg.family, cfg.nominals), t_c


def cmd_predict(cfg: RunConfig, args, out: Path) -> str:
    grid = cfg.prognosis_grid()
    samples, model, t_c = _posterior_and_model(cfg, args, out)
    pcfg = cfg.prognosis_config(t_c)
    if grid is None:
        grid = np.unique(np.linspace(t_c, pcfg.horizon, 101).round())
    result = predict_trajectory(samples, model, grid, pcfg, seed=cfg.seed)
    result.provenance.update(run_fingerprint=cfg.fingerprint(), seed=cfg.seed)
    paths = save_prognosis(result, out / "trajectory")
    return f"predict: {samples.n} samples on {grid.size} cycles -> {paths[0]}"


def cmd_rul(cfg: RunConfig, args, out: Path) -> str:
    samples, model, t_c = _posterior_and_model(cfg, args, out)
    pcfg = cfg.prognosis_config(t_c)
    result = rul_distribution(samples, model, pcfg)
    result.provenance.update(run_fingerprint=cfg.fingerprint(), seed=cfg.seed)
    paths = save_prognosis(result, out / "rul")
    s = result.summary
    return (
        f"rul: mean {s['mean']:.1f}, median {s['median']:.1f}, "
        f"{100 * (pcfg.quantiles[-1] - pcfg.quantiles[0]):.0f}% interval "
        f"[{s['interval'][0]:.1f}, {s['interval'][1]:.1f}], censored {s['censored_fraction']:.0%} "
        f"-> {paths[0]}"
    )


def cmd_model_select(cfg: RunConfig, args, out: Path) -> str:
    candidates = cfg.candidates()
    datasets = _load_historical(cfg, [cand.family for cand in candidates])
    records = model_select(
        datasets, candidates, cfg.sampler_config(), case=cfg.case, stage1_thin=cfg.stage1_thin
    )
    cols = (
        "name",
        "family",
        "log_evidence",
        "log_evidence_se",
        "hyper_log_evidence",
        "data_log_evidence",
        "error",
    )
    table = [{k: rec[k] for k in cols} for rec in records]
    path = out / "model_select.json"
    atomic_write(path, _dump_json({"ranking": table, "config_fingerprint": cfg.fingerprint()}))
    lines = [",".join(cols)]
    for rec in table:
        lines.append(",".join("" if rec[k] is None else str(rec[k]) for k in cols))
    atomic_write(out / "model_select.csv", "\n".join(lines) + "\n")
    best = table[0]
    if best["error"] is not None:
        # failed candidates rank last, in input order: here every one failed
        raise RuntimeError(f"{path}: every candidate failed; {best['name']}: {best['error']}")
    return f"model-select: best {best['name']} (log-evidence {best['log_evidence']}) -> {path}"


def cmd_compare_prior(cfg: RunConfig, args, out: Path) -> str:
    _fit_family(cfg, [cfg.current_path()])
    prior = cfg.literature_prior()
    dataset, truncated, t_c = _load_current(cfg)
    _check_fits(dataset, cfg.current_path(), cfg.family)
    model = build_model(dataset, cfg.family, cfg.nominals)
    posterior = classical_update(truncated, prior, model, cfg.sampler_config())
    posterior.provenance.update(t_c=t_c, n_data=len(truncated), prior="literature")
    path = save_sample_set(_stamp(posterior, cfg), out / "classical_posterior")
    return f"compare-prior: unit {dataset.unit_id} ({len(truncated)} points) -> {path}"


_COMMANDS = {
    "synth": cmd_synth,
    "fit-historical": cmd_fit_historical,
    "fit-current": cmd_fit_current,
    "predict": cmd_predict,
    "rul": cmd_rul,
    "model-select": cmd_model_select,
    "compare-prior": cmd_compare_prior,
}


def _error_record(out: Path | None, kind: str, message: str) -> None:
    record = json.dumps({"error": kind, "message": message})
    print(record, file=sys.stderr)
    if out is not None and out.is_dir():
        atomic_write(out / "error.json", record + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    out = None
    try:
        args = parser.parse_args(argv)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        cfg = RunConfig.from_file(
            args.config, seed=args.seed, family=args.model, case=args.case, cutoff=args.cutoff,
            sampler=args.sampler, samples=args.samples,
        )
        print(_COMMANDS[args.command](cfg, args, out))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, FileNotFoundError, KeyError) as exc:
        _error_record(out, type(exc).__name__, str(exc))
        return 2
    except (SamplerError, ArithmeticError, ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        _error_record(out, type(exc).__name__, str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
