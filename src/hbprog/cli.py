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
    ClassicalPrior,
    build_model,
    classical_update,
    fit_historical,
    model_select,
    update_current,
)
from hbprog.io import (
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
)
from hbprog.prognosis import predict_trajectory, rul_distribution
from hbprog.samplers import SamplerError
from hbprog.targets import HyperRowError


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
            choices=["paris", "batt-single", "batt-double"],
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
        ("model-select", "rank candidate families by hyper-level log-evidence"),
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


def _load_current(cfg: RunConfig, args) -> tuple:
    dataset = load_dataset(cfg.current_path())
    cutoff = args.cutoff if args.cutoff is not None else cfg.cutoff
    truncated = dataset.truncate(float(cutoff)) if cutoff is not None else dataset
    t_c = float(cutoff) if cutoff is not None else float(dataset.cycles[-1])
    return dataset, truncated, t_c


def _stamp(ss, cfg: RunConfig):
    ss.provenance.update(run_fingerprint=cfg.fingerprint(), version=__version__)
    return ss


def cmd_synth(cfg: RunConfig, args, out: Path) -> str:
    spec = cfg.synthetic_spec()
    seed = args.seed if args.seed is not None else cfg.seed
    datasets, truth = generate_synthetic(spec, seed)
    paths = [save_dataset(ds, out / f"{ds.unit_id}.csv") for ds in datasets]
    truth["config_fingerprint"] = cfg.fingerprint()
    truth_path = out / "truth.json"
    atomic_write(truth_path, _dump_json(truth))
    return f"synth: wrote {len(paths)} units -> {out} (truth: {truth_path})"


def cmd_fit_historical(cfg: RunConfig, args, out: Path) -> str:
    stage1_bounds, hyper_bounds = cfg.stage1_bounds(), cfg.hyper_bounds()
    datasets = [load_dataset(p) for p in cfg.historical_paths()]
    sampler = args.sampler or cfg.sampler_kind
    family = args.model or cfg.raw.get("family")
    result = fit_historical(
        datasets,
        stage1_bounds,
        hyper_bounds,
        case=args.case or cfg.case,
        config=cfg.sampler_config(seed=args.seed, n_samples=args.samples),
        sampler=sampler,
        sigma_trunc=cfg.sigma_trunc,
        family=family,
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


def cmd_fit_current(cfg: RunConfig, args, out: Path) -> str:
    hyper_stem = Path(args.hyper) if args.hyper else out / "hyper"
    hyper = load_sample_set(hyper_stem)
    dataset, truncated, t_c = _load_current(cfg, args)
    family = args.model or cfg.raw.get("family")
    model = build_model(dataset, family, cfg.nominals)
    sampler_config = cfg.sampler_config(seed=args.seed, n_samples=args.samples)
    try:
        posterior = update_current(
            truncated, hyper, model, sampler_config, hyper_subsample=cfg.hyper_subsample
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
    samples = load_sample_set(stem)
    dataset, _, t_c = _load_current(cfg, args)
    if "t_c" in samples.provenance:
        t_c = float(samples.provenance["t_c"])
    family = args.model or cfg.raw.get("family")
    model = build_model(dataset, family, cfg.nominals)
    return samples, model, dataset, t_c


def cmd_predict(cfg: RunConfig, args, out: Path) -> str:
    samples, model, dataset, t_c = _posterior_and_model(cfg, args, out)
    pcfg = cfg.prognosis_config(t_c)
    grid_sec = cfg.raw.get("prognosis", {}).get("grid")
    if grid_sec is not None:
        grid = np.linspace(grid_sec["start"], grid_sec["stop"], grid_sec["num"])
    else:
        grid = np.unique(np.linspace(t_c, pcfg.horizon, 101).round())
    result = predict_trajectory(samples, model, grid, pcfg, seed=cfg.seed)
    result.provenance.update(run_fingerprint=cfg.fingerprint(), seed=cfg.seed)
    paths = save_prognosis(result, out / "trajectory")
    return f"predict: {samples.n} samples on {grid.size} cycles -> {paths[0]}"


def cmd_rul(cfg: RunConfig, args, out: Path) -> str:
    samples, model, dataset, t_c = _posterior_and_model(cfg, args, out)
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
    datasets = [load_dataset(p) for p in cfg.historical_paths()]
    records = model_select(
        datasets,
        candidates,
        cfg.sampler_config(seed=args.seed, n_samples=args.samples),
        case=args.case or cfg.case,
        stage1_thin=cfg.stage1_thin,
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
    return f"model-select: best {best['name']} (log-evidence {best['log_evidence']}) -> {path}"


def cmd_compare_prior(cfg: RunConfig, args, out: Path) -> str:
    sec = cfg.raw.get("literature_prior")
    if sec is None:
        raise DataFormatError("config: missing field 'literature_prior'")
    prior = ClassicalPrior(
        means=tuple(sec["means"]),
        sds=tuple(sec["sds"]),
        sigma_bounds=tuple(sec.get("sigma_bounds", (0.0, 0.2))),
        sigma_mu=sec.get("sigma_mu"),
        sigma_sd=sec.get("sigma_sd"),
    )
    dataset, truncated, t_c = _load_current(cfg, args)
    family = args.model or cfg.raw.get("family")
    model = build_model(dataset, family, cfg.nominals)
    posterior = classical_update(
        truncated, prior, model, cfg.sampler_config(seed=args.seed, n_samples=args.samples)
    )
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
        cfg = RunConfig.from_file(args.config, seed=args.seed, family=args.model)
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
