"""hbprog benchmark: one client running CLI commands back to back, in process.

    python3 perfbench/run.py --workload crack-pipeline --seed 1 --seconds 30 --trace 0

Run from the repository root. Set-up generates the workload's input sets
from the seed (timed several times; the median is ``setup_s``), then passes
over the sets run round robin until ``--seconds`` have elapsed, every set at
least once. Each pass calls ``hbprog.cli.main`` once per command, and its
outputs are checked before the next pass. ``setup_s`` and ``pass_s`` are
wall times scaled to a reference machine speed by the probe in
``speed.py``, which samples the speed throughout the run. With
``--trace 1`` each pass runs twice, untraced and then traced, and the
per-layer metrics come from the traced copy. The last line of stdout is the
JSON result; a run record with the environment, input and output digests,
call counts and spans is written under ``.perfbench/records/``.
"""

from __future__ import annotations

import os

# one client process; pin the BLAS pool before numpy loads it
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench"
SETUP_REPEATS = 7


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "hbprog" / "__init__.py").is_file():
        _fail(f"no hbprog sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import hbprog

    if Path(hbprog.__file__).resolve().parent != SRC / "hbprog":
        _fail(f"imported hbprog from {hbprog.__file__}, not from {SRC}")


def _digest_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _import_fresh() -> None:
    """A fresh interpreter importing the CLI, the start-up every command pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import hbprog.cli"], env=env, check=True)


def setup(workload, work: Path, seed: int, probe):
    """Set up ``SETUP_REPEATS`` times; returns the last sets, the speed
    window of each set-up and the input digests (which must agree across
    repeats)."""
    windows, digests, sets = [], [], None
    for r in range(SETUP_REPEATS):
        root = work / f"inputs{r}"
        t0 = time.perf_counter()
        _import_fresh()
        sets = workload.prepare(root, seed)
        windows.append(probe.window(t0, time.perf_counter()))
        digests.append(_digest_tree(root))
        if r < SETUP_REPEATS - 1:
            shutil.rmtree(root)
    if any(d != digests[0] for d in digests):
        _fail("input generation is not deterministic for this seed")
    return sets, windows, digests[0]


def run_pass(workload, inp, out: Path, tracer=None) -> dict:
    """One pass of the workload's commands on one input set."""
    from hbprog.cli import main as cli_main

    out.mkdir(parents=True)
    times, codes, logs = {}, {}, {}
    for cmd, argv in workload.argvs(inp, out):
        sink_out, sink_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = cli_main(argv)
                else:
                    code = tracer.call(f"cli.{cmd}", True, cli_main, argv)
            except Exception:  # a crash counts as a failed command; the loop goes on
                traceback.print_exc()
                code = -1
            times[cmd] = time.perf_counter() - t0
        codes[cmd] = code
        logs[cmd] = (sink_out.getvalue() + sink_err.getvalue()).strip()
    return {"times": times, "codes": codes, "logs": logs}


def evaluate_pass(workload, inp, out: Path, result: dict, reference: dict | None) -> dict:
    """Output checks of one pass. A command fails if it exits non-zero, its
    outputs fail their check, or it wrote other bytes than the set's
    first pass."""
    failures = {cmd: [] for cmd in result["codes"]}
    for cmd, code in result["codes"].items():
        if code != 0:
            failures[cmd].append(f"exit code {code}: {result['logs'][cmd]}")
    digests = _digest_tree(out)
    result["artifacts"] = digests
    result["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    if all(c == 0 for c in result["codes"].values()):
        try:
            checks = workload.check(inp, out)
            result["quality"] = workload.quality(inp, out, result["times"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks = {cmd: [f"output check raised {type(exc).__name__}: {exc}"] for cmd in failures}
        for cmd, problems in checks.items():
            failures[cmd].extend(problems)
    if reference is not None and digests != reference:
        changed = sorted(k for k in digests.keys() | reference.keys() if digests.get(k) != reference.get(k))
        for cmd in failures:
            failures[cmd].append(f"outputs differ from the set's first pass: {changed}")
    result["failures"] = {cmd: msgs for cmd, msgs in failures.items() if msgs}
    return result


def _per_set_median(passes: list[dict], key) -> float:
    """Median over each set's passes, then the mean over the sets."""
    by_set: dict[int, list[float]] = {}
    for p in passes:
        by_set.setdefault(p["set"], []).append(key(p))
    return statistics.fmean(statistics.median(v) for v in by_set.values())


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
            )
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for name, digest in _digest_tree(SRC / "hbprog").items():
        if name.endswith(".py"):
            source.update(f"{name}:{digest}\n".encode())
    return {
        "git_sha": sha,
        "source_digest": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import speed
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = OUT_ROOT / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with speed.SpeedProbe() as probe:
            record = measure(workload, args, work, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = OUT_ROOT / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, value in sorted(record["figures"].items()):
        print(f"{name:24s} {value:14.6g} {tracing.unit_of(name)}")
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


def measure(workload, args, work: Path, probe) -> dict:
    import tracing

    sets, setup_windows, input_digests = setup(workload, work, args.seed, probe)
    tracer = tracing.Tracer() if args.trace else None
    passes: list[dict] = []
    first: dict[int, dict] = {}  # each set's first pass, the reference for repeats
    t_start = time.perf_counter()
    n = 0
    # every set runs once; after that a pass starts only if it should end in time
    while n < len(sets) or (time.perf_counter() - t_start) * (n + 1) / n <= args.seconds:
        inp = sets[n % len(sets)]
        out = work / "passes" / f"pass{n}"
        ref = first.get(inp.index)
        t0 = time.perf_counter()
        entry = {"set": inp.index, **run_pass(workload, inp, out / "untraced")}
        entry["speed"] = probe.window(t0, time.perf_counter())
        evaluate_pass(workload, inp, out / "untraced", entry, ref and ref["artifacts"])
        first.setdefault(inp.index, entry)
        if tracer is not None:
            tracer.reset()
            t0 = time.perf_counter()
            with tracing.Instrumentation(tracer):
                traced = run_pass(workload, inp, out / "traced", tracer)
            traced["speed"] = probe.window(t0, time.perf_counter())
            # tracing draws no random numbers: the same bytes as untraced
            evaluate_pass(workload, inp, out / "traced", traced, first[inp.index]["artifacts"])
            traced.update(
                layers=tracing.layer_metrics(tracer, traced["bytes_written"]),
                counts=tracing.call_counts(tracer),
                spans=tracer.spans,
            )
            if ref is not None and traced["counts"] != ref["traced"]["counts"]:
                for cmd in traced["codes"]:
                    traced["failures"].setdefault(cmd, []).append("call counts differ from the set's first pass")
            entry["traced"] = traced
        passes.append(entry)
        shutil.rmtree(out)
        n += 1
    return summarise(workload, args, sets, passes, setup_windows, input_digests)


def summarise(workload, args, sets, passes, setup_windows, input_digests) -> dict:
    import tracing

    runs = [r for p in passes for r in (p, p.get("traced")) if r is not None]
    attempted = sum(len(r["codes"]) for r in runs)
    failed = sum(len(r["failures"]) for r in runs)

    setup_s = statistics.median(w["scaled_s"] for w in setup_windows)
    pass_s = _per_set_median(passes, lambda p: p["speed"]["scaled_s"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = [p for p in passes if "quality" in p]
    quality = {
        k: _per_set_median(checked, lambda p, k=k: p["quality"][k])
        for k in (checked[0]["quality"] if checked else ())
    }
    figures = dict(
        quality,
        setup_s=setup_s,
        pass_s=pass_s,
        wall_setup_s=statistics.median(w["wall_s"] for w in setup_windows),
        wall_pass_s=_per_set_median(passes, lambda p: sum(p["times"].values())),
        probe_kernel_s=statistics.median(p["speed"]["kernel_s"] for p in passes),
        peak_rss_mb=peak_rss_mb,
        failed_frac=failed / attempted,
    )

    if args.trace:
        metrics = {
            name: _per_set_median(passes, lambda p, name=name: p["traced"]["layers"][name])
            for name in passes[0]["traced"]["layers"]
        }
        # sampling quality of the untraced copies (the traced ones write the
        # same draws); zero where the workload runs no such sampler
        for name in tracing.QUALITY_LAYERS:
            metrics[f"samplers.{name}"] = quality.get(name, 0.0)
        traced_s = _per_set_median(passes, lambda p: p["traced"]["speed"]["scaled_s"])
        metrics["trace.overhead_frac"] = traced_s / pass_s - 1.0
    else:
        metrics = {"setup_s": setup_s, "pass_s": pass_s, "peak_rss_mb": peak_rss_mb}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in metrics.items()},
    }
    by_set = {p["set"]: p for p in reversed(passes)}
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "input_digests": input_digests,
        "setup_windows": setup_windows,
        "sets": [
            {
                "index": s.index,
                "seed": s.seed,
                "output_digests": by_set[s.index]["artifacts"],
                "counts": by_set[s.index].get("traced", {}).get("counts"),
            }
            for s in sets
        ],
        "figures": figures,
        "passes": passes,
        "result": result,
    }


if __name__ == "__main__":
    sys.exit(main())
