"""Quick self-test of the benchmark, at tiny input sizes.

Run from the root of a molcap checkout:

    python3 perfbench/selftest.py

For each workload it runs ``run.py`` once untraced and once traced with
the same seed, and checks that:

- the last stdout line is the result object with the expected keys;
- every metric name uses only ``[A-Za-z0-9_.-]`` and carries a unit;
- the untraced metrics are exactly BENCHMARK.json's end-to-end metrics,
  and the traced ones exactly its per-layer metrics, with the same units;
- the traced run measured the layers the workload is meant to exercise,
  and found every wrapped name;
- both runs wrote identical float64 artifact digests.

Finally it checks that the benchmark fails, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark itself.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 7

# Per-layer metrics each workload's traced run must measure as non-zero.
EXERCISED = {
    "featurize": (
        "smiles.parse_smiles.ms", "fingerprints.morgan_fingerprint.ms", "imaging.rasterize.ms",
        "imaging.layout_2d.ms", "imaging.layout_2d.failed", "imaging.layout_2d.wasted_ms",
        "maccs.evaluate_keys.ms", "substructure.match_subgraph.calls",
        "substructure.match_subgraph.ms", "dataset.write_cache.MBps", "dataset.read_cache.MBps",
    ),
    "train-default": (
        "nn.layers.conv2d_forward.ms", "nn.layers.conv2d_backward.ms",
        "nn.layers.maxpool_forward.ms", "nn.layers.maxpool_backward.ms",
        "nn.layers.dense_forward.ms", "nn.layers.dense_backward.ms",
        "nn.layers.global_avg_pool_forward.ms", "nn.layers.global_avg_pool_backward.ms",
        "nn.model.forward.self_ms", "nn.model.backward.self_ms",
        "nn.model.forward.retained_bytes_per_example",
    ),
    "pipeline-desk": (
        "dataset.augment_image.ms", "nn.optim.adam_step.ms", "nn.train.train.self_ms",
        "metrics.auc_roc.ms", "nn.model.save_checkpoint.ms", "cli.main.self_ms",
        "dataset.write_cache.MBps", "dataset.read_cache.MBps",
    ),
}


def run(root: Path, workload: str, trace: int) -> tuple[dict, dict]:
    """(result line, details file) of one tiny run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    details = root / "perfbench" / "out" / f"result-{workload}-seed{SEED}-trace{trace}.json"
    return line, json.loads(details.read_text())


def check_line(line: dict, expected: dict[str, str], label: str) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(line)}"
    assert line["correct"] is True and line["failed"] == 0, f"{label}: not correct"
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1, f"{label}: attempted"
    for name, entry in line["metrics"].items():
        assert NAME.fullmatch(name), f"{label}: bad metric name {name!r}"
        assert UNIT.fullmatch(entry["unit"]), f"{label}: bad unit for {name}"
        assert isinstance(entry["value"], (int, float)), f"{label}: {name} is not a number"
    units = {name: entry["unit"] for name, entry in line["metrics"].items()}
    assert units == expected, f"{label}: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(expected))}"


def check_bare_directory(root: Path) -> None:
    """Without the molcap sources the benchmark must fail and print no result."""
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(root / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        argv = [sys.executable, "perfbench/run.py", "--workload", "featurize", "--seed", "1",
                "--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0, "bare directory: exit code 0"
        assert '"correct"' not in done.stdout, "bare directory: printed a result"
    finally:
        shutil.rmtree(bare)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(EXERCISED)
    for workload, exercised in EXERCISED.items():
        plain, plain_details = run(root, workload, 0)
        check_line(plain, end_to_end, f"{workload} trace 0")
        traced, traced_details = run(root, workload, 1)
        check_line(traced, per_layer, f"{workload} trace 1")
        idle = [n for n in exercised if not traced["metrics"][n]["value"] > 0]
        assert not idle, f"{workload}: traced run did not measure {idle}"
        assert not traced_details["absent"], f"{workload}: absent {traced_details['absent']}"
        assert plain_details["digests"] == traced_details["digests"], f"{workload}: digests differ"
        if workload == "train-default":
            shapes = [n for n in per_layer if n.startswith("nn.layers.conv2d_") and n.count(".") == 4]
            idle = [n for n in shapes if not traced["metrics"][n]["value"] > 0]
            assert not idle, f"train-default: conv shapes not measured: {idle}"
        print(f"ok {workload}")
    check_bare_directory(root)
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
