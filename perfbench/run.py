"""lexpalo benchmark: one workload, one seed, one JSON result.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each exists): protocol, lexicon,
classify, protocol-2w. The package is imported from ``src/`` of the checkout
the script sits in; without it the benchmark exits with code 2.

Standard output ends with two JSON lines. The first, ``{"detail": ...}``,
carries run metadata, the corpus shape, operation counts and every named
workload metric. The last is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. A traced run also
writes its spans to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lexpalo").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():  # do not let git search parent directories
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _quantiles_ms(samples) -> dict:
    """p10, median and p90 of the speed probes (see clock.py), in ms."""
    if len(samples) < 2:
        return {}
    deciles = statistics.quantiles(samples, n=10)
    return {"n": len(samples), "p10": 1e3 * deciles[0],
            "p50": 1e3 * statistics.median(samples), "p90": 1e3 * deciles[-1]}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "lexpalo" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import scipy

    import lexpalo
    import workloads
    from layers import HOOKS, layer_metrics
    from tracer import Tracer

    if Path(lexpalo.__file__).resolve().parent != SRC / "lexpalo":
        print(f"benchmark: imported lexpalo from {lexpalo.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = workloads.Bench(seed=args.seed, seconds=args.seconds, workdir=workdir)
    try:
        if args.trace:
            import lexpalo.cli  # noqa: F401  (every layer loaded before wrapping)

            bench.tracer = Tracer(workdir)
            bench.detail["traced_functions"] = bench.tracer.install(HOOKS)
        workloads.WORKLOADS[args.workload](bench)
        if args.trace:
            spans = bench.tracer.collect()
            out = ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.json"
            bench.tracer.write(spans, out)
            bench.detail["spans"] = len(spans)
            for name, value in layer_metrics(spans, bench.tracer.counts,
                                             bench.pool_rounds).items():
                bench.put(name, value, "")
        else:
            bench.put("peak_rss_mb", _peak_rss_mb(), "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in bench.metrics]
    if missing:
        print(f"benchmark: workload produced no {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": bench.metrics[m["name"]][0], "unit": m["unit"]}
               for m in declared}
    bench.detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        error_rate=bench.failed / bench.attempted,
        failures=bench.failures,
        named_metrics={name: {"value": value, "unit": unit}
                       for name, (value, unit) in bench.metrics.items() if unit},
        speed_probe_ms=_quantiles_ms(bench.probes),
        meta={
            "git_sha": _git_sha(),
            "source_sha256": _source_digest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
        },
    )
    print(json.dumps({"detail": bench.detail}, ensure_ascii=False))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
