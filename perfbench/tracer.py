"""Layer spans recorded from outside the program.

The tracer replaces a public function at the module attribute its caller
looks up (for example ``molcap.nn.model.conv2d_forward``) with a wrapper
that records one span per call: name, start, end, parent span and
whether the call raised.  Spans stay in memory and are written out when
the benchmark ends.  A layer's self time is its span minus the time its
child spans cover.  A wrapped name that no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def conv_shape(x_shape, w_shape, stride) -> str:
    """Shape key like ``c16-f16-k3x3-s1-p60`` (p is the input side)."""
    f, c, kh, kw = w_shape
    return f"c{c}-f{f}-k{kh}x{kw}-s{stride}-p{x_shape[2]}"


def _conv_flop(x_shape, w_shape, stride) -> int:
    """Multiply-add FLOPs of the forward GEMM: 2*N*Ho*Wo*F*C*kh*kw."""
    n, _, h, w = x_shape
    f, c, kh, kw = w_shape
    return 2 * n * -(-h // stride) * -(-w // stride) * f * c * kh * kw


def _conv_forward_info(args, kwargs, result):
    x, w = args[0], args[1]
    stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
    return conv_shape(x.shape, w.shape, stride), {"flop": _conv_flop(x.shape, w.shape, stride)}


def _conv_backward_info(args, kwargs, result):
    _, x_shape, _, w, stride, _, _ = args[1]
    # dW and dX are each one GEMM as large as the forward one.
    return conv_shape(x_shape, w.shape, stride), {"flop": 2 * _conv_flop(x_shape, w.shape, stride)}


def _retained_bytes(obj, seen: dict) -> None:
    if isinstance(obj, np.ndarray):
        root = obj
        while isinstance(root.base, np.ndarray):
            root = root.base
        seen[id(root)] = root.nbytes
    elif isinstance(obj, dict):
        for value in obj.values():
            _retained_bytes(value, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _retained_bytes(value, seen)


def _forward_info(args, kwargs, result):
    # Bytes kept alive by the returned cache, counting each buffer once.
    seen: dict = {}
    _retained_bytes(result[1], seen)
    return None, {"retained_bytes": sum(seen.values()), "examples": len(args[1])}


def _cache_bytes_info(args, kwargs, result):
    return None, {"bytes": Path(args[0]).stat().st_size}


def _featurize_info(args, kwargs, result):
    return None, {"attempted": len(args[0]), "excluded": len(result[1])}


# (module, attribute, layer name, info hook).  Several callers import the
# same function; each lookup site is wrapped under the one layer name.
WRAPS = (
    ("molcap.dataset", "parse_smiles", "smiles.parse_smiles", None),
    ("molcap.dataset", "layout_2d", "imaging.layout_2d", None),
    ("molcap.dataset", "rasterize", "imaging.rasterize", None),
    ("molcap.dataset", "morgan_fingerprint", "fingerprints.morgan_fingerprint", None),
    ("molcap.dataset", "evaluate_keys", "maccs.evaluate_keys", None),
    ("molcap.maccs", "match_subgraph", "substructure.match_subgraph", None),
    ("molcap.dataset", "featurize_dataset", "dataset.featurize_dataset", _featurize_info),
    ("molcap.cli", "featurize_dataset", "dataset.featurize_dataset", _featurize_info),
    ("molcap.dataset", "write_cache", "dataset.write_cache", _cache_bytes_info),
    ("molcap.cli", "write_cache", "dataset.write_cache", _cache_bytes_info),
    ("molcap.dataset", "read_cache", "dataset.read_cache", _cache_bytes_info),
    ("molcap.cli", "read_cache", "dataset.read_cache", _cache_bytes_info),
    ("molcap.nn.train", "augment_image", "dataset.augment_image", None),
    ("molcap.nn.model", "conv2d_forward", "nn.layers.conv2d_forward", _conv_forward_info),
    ("molcap.nn.model", "conv2d_backward", "nn.layers.conv2d_backward", _conv_backward_info),
    ("molcap.nn.model", "maxpool_forward", "nn.layers.maxpool_forward", None),
    ("molcap.nn.model", "maxpool_backward", "nn.layers.maxpool_backward", None),
    ("molcap.nn.model", "dense_forward", "nn.layers.dense_forward", None),
    ("molcap.nn.model", "dense_backward", "nn.layers.dense_backward", None),
    ("molcap.nn.model", "global_avg_pool_forward", "nn.layers.global_avg_pool_forward", None),
    ("molcap.nn.model", "global_avg_pool_backward", "nn.layers.global_avg_pool_backward", None),
    ("molcap.nn.model.Model", "forward", "nn.model.forward", _forward_info),
    ("molcap.nn.model.Model", "backward", "nn.model.backward", None),
    ("molcap.nn.model", "save_checkpoint", "nn.model.save_checkpoint", None),
    ("molcap.cli", "save_checkpoint", "nn.model.save_checkpoint", None),
    ("molcap.nn.train", "adam_step", "nn.optim.adam_step", None),
    ("molcap.nn.train", "train", "nn.train.train", None),
    ("molcap.cli", "train", "nn.train.train", None),
    ("molcap.nn.train", "auc_roc", "metrics.auc_roc", None),
    ("molcap.cli", "main", "cli.main", None),
)


def _resolve(path: str):
    """Import ``a.b.C`` as module ``a.b`` attribute ``C`` when needed."""
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ImportError:
        pass
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


class Tracer:
    """Installs the wrappers and keeps every span in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One row per span: [name id, start ns, end ns, parent row, ok].
        self.spans: list[list] = []
        self.info: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.absent: set[str] = set()
        self.hook_errors: set[str] = set()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def install(self) -> None:
        for owner_path, attr, layer, hook in WRAPS:
            owner = _resolve(owner_path)
            target = getattr(owner, attr, None) if owner is not None else None
            if not callable(target):
                self.absent.add(f"{owner_path}.{attr}")
                continue
            self._installed.append((owner, attr, target))
            setattr(owner, attr, self._wrap(target, layer, hook))

    def uninstall(self) -> None:
        for owner, attr, target in reversed(self._installed):
            setattr(owner, attr, target)
        self._installed.clear()

    def _wrap(self, target, layer: str, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        base_id = self._name_id(layer)

        def traced(*args, **kwargs):
            row = [base_id, 0, 0, stack[-1] if stack else -1, True]
            spans.append(row)
            stack.append(len(spans) - 1)
            row[1] = clock()
            try:
                result = target(*args, **kwargs)
            except BaseException:
                row[2] = clock()
                row[4] = False
                raise
            else:
                row[2] = clock()
            finally:
                stack.pop()
            if hook is not None:
                try:
                    suffix, counts = hook(args, kwargs, result)
                except Exception:
                    # The call's signature changed; keep its time only.
                    self.hook_errors.add(layer)
                    return result
                name = layer if suffix is None else f"{layer}.{suffix}"
                row[0] = self._name_id(name)
                bucket = self.info[name]
                for key, value in counts.items():
                    bucket[key] += value
                if "retained_bytes" in counts:
                    per_example = counts["retained_bytes"] / max(counts["examples"], 1)
                    bucket["retained_bytes_per_example"] = max(
                        bucket["retained_bytes_per_example"], int(per_example)
                    )
            return result

        traced.__wrapped__ = target
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms, self ms, failed calls and the
        ms spent in calls that raised, plus any counts its hook kept."""
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent, ok in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for row, (name_id, start, end, parent, ok) in enumerate(self.spans):
            entry = table.setdefault(
                self.names[name_id],
                {"calls": 0, "ms": 0.0, "self_ms": 0.0, "failed": 0, "wasted_ms": 0.0},
            )
            ms = (end - start) / 1e6
            entry["calls"] += 1
            entry["ms"] += ms
            entry["self_ms"] += ms - child_ns[row] / 1e6
            if not ok:
                entry["failed"] += 1
                entry["wasted_ms"] += ms
        for name, counts in self.info.items():
            table.setdefault(name, {}).update(counts)
        return table

    def write(self, path: Path) -> None:
        """Write every span as JSON: a name table plus one row per span."""
        columns = ["name", "start_ns", "end_ns", "parent", "ok"]
        table = {"names": self.names, "columns": columns, "spans": self.spans}
        path.write_text(json.dumps(table, separators=(",", ":")))
