"""molcap benchmark: one workload per process, checked and measured.

Run from the root of a molcap checkout:

    python3 perfbench/run.py --workload featurize --seed 1 --seconds 25 --trace 0

The workload builds its inputs from ``--seed``, sets up three times (the
median is ``setup_s``), runs one warm-up round, then repeats identical
rounds until about ``--seconds`` seconds have passed since the warm-up
began (at least two) and reports medians over the measured rounds.
With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced
and traced (layer spans recorded), and the JSON holds the per-layer
metrics of the traced rounds plus the tracing overhead.  Earlier lines
show the workload's own named metrics, artifact digests and machine
details, which also go to ``perfbench/out/``.

Exit codes: 0 correct, 1 an output check failed, 2 no molcap source
tree under ``src/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SETUP_REPEATS = 3
MIN_ROUNDS = 2
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "wall_s": "s", "examples_per_s": "1/s"}

# Convolution shapes of the default model (3 blocks, 16 filters, 60 px):
# input channels, filters, kernel, stride and input side.
DEFAULT_CONV_SHAPES = (
    "c1-f16-k3x3-s1-p60",
    "c16-f16-k1x1-s1-p60",
    "c16-f16-k3x3-s1-p60",
    "c48-f16-k1x1-s1-p60",
    "c16-f16-k3x3-s2-p60",
    "c48-f16-k1x1-s1-p30",
    "c16-f16-k1x7-s1-p30",
    "c32-f48-k1x1-s1-p30",
    "c48-f16-k3x3-s2-p30",
    "c16-f16-k3x3-s2-p30",
    "c80-f16-k1x1-s1-p15",
    "c16-f16-k1x3-s1-p15",
    "c32-f80-k1x1-s1-p15",
)
TIMED_LAYERS = (
    "smiles.parse_smiles",
    "fingerprints.morgan_fingerprint",
    "imaging.rasterize",
    "imaging.layout_2d",
    "maccs.evaluate_keys",
    "substructure.match_subgraph",
    "dataset.featurize_dataset",
    "dataset.augment_image",
    "nn.layers.maxpool_forward",
    "nn.layers.maxpool_backward",
    "nn.layers.dense_forward",
    "nn.layers.dense_backward",
    "nn.layers.global_avg_pool_forward",
    "nn.layers.global_avg_pool_backward",
    "nn.optim.adam_step",
    "metrics.auc_roc",
    "nn.model.save_checkpoint",
)
SELF_TIMED_LAYERS = ("nn.model.forward", "nn.model.backward", "nn.train.train", "cli.main")


def per_layer_metrics(summary: dict, rounds: int, round_ms: float, overhead_ms: float) -> dict:
    """Per-layer metrics per traced round; a layer the workload never
    called (or that is absent) reads 0."""

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def per_second(name: str, key: str, scale: float) -> float:
        ms = get(name, "ms")
        return get(name, key) / scale / (ms / 1e3) if ms else 0.0

    metrics = {f"{name}.ms": (get(name, "ms") / rounds, "ms") for name in TIMED_LAYERS}
    metrics["imaging.layout_2d.failed"] = (get("imaging.layout_2d", "failed") / rounds, "count")
    metrics["imaging.layout_2d.wasted_ms"] = (get("imaging.layout_2d", "wasted_ms") / rounds, "ms")
    metrics["substructure.match_subgraph.calls"] = (
        get("substructure.match_subgraph", "calls") / rounds, "count",
    )
    attempted = get("dataset.featurize_dataset", "attempted")
    metrics["dataset.featurize_dataset.excluded_share"] = (
        get("dataset.featurize_dataset", "excluded") / attempted if attempted else 0.0, "ratio",
    )
    for name in ("dataset.write_cache", "dataset.read_cache"):
        metrics[f"{name}.MBps"] = (per_second(name, "bytes", 1e6), "MB/s")
    for direction in ("forward", "backward"):
        layer = f"nn.layers.conv2d_{direction}"
        total = sum(v.get("ms", 0) for k, v in summary.items() if k.startswith(layer + "."))
        metrics[f"{layer}.ms"] = (total / rounds, "ms")
        for shape in DEFAULT_CONV_SHAPES:
            name = f"{layer}.{shape}"
            metrics[f"{name}.ms"] = (get(name, "ms") / rounds, "ms")
            metrics[f"{name}.flop"] = (get(name, "flop") / rounds, "FLOP")
            metrics[f"{name}.GFLOP_per_s"] = (per_second(name, "flop", 1e9), "GFLOP/s")
    for name in SELF_TIMED_LAYERS:
        metrics[f"{name}.self_ms"] = (get(name, "self_ms") / rounds, "ms")
    metrics["nn.model.forward.retained_bytes_per_example"] = (
        get("nn.model.forward", "retained_bytes_per_example"), "bytes",
    )
    metrics["trace.round_ms"] = (round_ms, "ms")
    metrics["trace.overhead_ms"] = (overhead_ms, "ms")
    return metrics


# --------------------------------------------------------------------------
# Machine details


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, when NumPy bundles OpenBLAS."""
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get_threads = getattr(lib, symbol)
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                return get_threads()
    return None


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in (src / "molcap").rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_details(root: Path) -> dict:
    import numpy as np

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
    }


# --------------------------------------------------------------------------
# Measurement


def _load_program(root: Path):
    """Import molcap from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "molcap" / "__init__.py").is_file():
        raise ImportError(f"no molcap source tree under {src}")
    sys.path.insert(0, str(src))
    import molcap

    if Path(molcap.__file__).resolve().parent != (src / "molcap").resolve():
        raise ImportError(f"molcap imported from {molcap.__file__}, not {src}")


def measure(args: argparse.Namespace, root: Path, work: Path) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale, work)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)

    # A first, unmeasured round fills allocator pools and lazy state that a
    # long run pays once.  With tracing on, measured rounds then alternate
    # traced and untraced, so the difference of their medians is the
    # tracing overhead.  A full collection before each round, outside the
    # timing, keeps one round's garbage out of the next round's time.
    started = time.perf_counter()
    gc.collect()
    warmup = workload.run_round()
    rounds, traced = [], []
    tracer = Tracer() if args.trace else None
    while True:
        gc.collect()
        tracing = tracer is not None and len(rounds) % 2 == 0
        if tracing:
            tracer.install()
        try:
            rounds.append(workload.run_round())
        finally:
            if tracing:
                tracer.uninstall()
        traced.append(tracing)
        elapsed = time.perf_counter() - started
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / (len(rounds) + 1) > args.seconds:
            break

    errors = sorted({e for r in [warmup, *rounds] for e in r.errors})
    digests = warmup.digests
    if any(r.digests != digests for r in rounds):
        errors.append("artifact digests differ between identical rounds")
    named = workload.named_metrics(rounds)
    headline = workload.named[0][0]
    walls = [r.seconds["wall"] for r in rounds]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "rounds": len(rounds),
        "setup_seconds": setup_times,
        "round_seconds": [r.seconds for r in rounds],
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "digests": digests,
        "errors": errors,
        "attempted": sum(r.attempted for r in [warmup, *rounds]),
        "failed": sum(r.failed for r in [warmup, *rounds]) + (1 if errors else 0),
        "machine": machine_details(root),
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "wall_s": statistics.median(walls),
            "examples_per_s": named[headline][0],
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        traced_ms = statistics.median(w for w, t in zip(walls, traced) if t) * 1e3
        untraced_ms = statistics.median(w for w, t in zip(walls, traced) if not t) * 1e3
        summary = tracer.summary()
        layer = per_layer_metrics(summary, sum(traced), traced_ms, traced_ms - untraced_ms)
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        result["layers"] = summary
        result["absent"] = sorted(tracer.absent | tracer.hook_errors)
        spans_path = root / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(root))
    return result


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny inputs for the self-test; benchmark results use full",
    )
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        _load_program(root)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir))
    try:
        result = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {result['rounds']} rounds")
    for key, entry in result["named"].items():
        print(f"# {key} {entry['value']:.6g} {entry['unit']}")
    for key, value in result["digests"].items():
        print(f"# digest {key} {value}")
    for error in result["errors"]:
        print(f"# check failed: {error}")
    if result.get("absent"):
        print(f"# absent: {' '.join(result['absent'])}")
    print(f"# machine {json.dumps(result['machine'], sort_keys=True)}")
    print(f"# details perfbench/out/{name}")
    correct = not result["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
