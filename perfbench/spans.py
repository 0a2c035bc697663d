"""Span tracing of gluevol from outside the package.

``Tracer.install`` replaces public functions of the gluevol modules with
wrappers that record one span per call: name, start, end and the index of
the enclosing span. Each wrapper sits on the attribute the caller looks
up: functions that ``training`` imports by name are wrapped there, while
``layers.*`` and ``geom3d.*`` are looked up through their module. Spans
stay in memory until ``write``.

Layer spans inside ``rnet_forward`` / ``rnet_backward`` are tagged with
their block (``b0`` ... ``b4``) from call order, and the wrappers add
computed work from argument shapes: conv FLOPs, and bytes read and written
at the interface of the elementwise layers (inputs, outputs and cached
tensors; temporaries are not counted).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

from gluevol import cloudio, dataset, diagnose, geom3d, pipeline, scansim, voxelizer
from gluevol.neuralvol import layers, network, training, weights_io

N_BLOCKS = 5
BLOCKS = tuple(f"b{i}" for i in range(N_BLOCKS))
ELEMENTWISE = ("leaky_relu", "batchnorm3d", "maxpool3d")
PREP_STAGES = ("stage_simulate", "stage_annotate", "stage_augment", "stage_voxelize")
_BLOCK_LAYERS = tuple(
    f"{op}_{d}" for op in ("conv3d",) + ELEMENTWISE for d in ("forward", "backward")
)

# (module, attribute, span name): every traced entry point.
WRAPS = (
    [(pipeline, s, f"pipeline.{s}") for s in PREP_STAGES + ("stage_train",)]
    + [(scansim, "raster_scan", "scansim.raster_scan")]
    + [(cloudio, f, f"cloudio.{f}") for f in ("write_xyz", "read_xyz", "write_ggpc", "read_ggpc")]
    + [
        (geom3d, f, f"geom3d.{f}")
        for f in ("fit_plane_ransac", "to_plane_frame", "triangulate_lattice", "mesh_volume_over_plane")
    ]
    + [(dataset, f, f"dataset.{f}") for f in ("annotate", "augment", "build_manifest")]
    + [(voxelizer, f, f"voxelizer.{f}") for f in ("build_grid", "write_ggvg", "read_ggvg")]
    + [(layers, f, f"layers.{f}") for f in _BLOCK_LAYERS]
    + [(layers, f, f"layers.{f}") for f in ("dense_forward", "dense_backward", "loss_mse")]
    + [
        (network, "rnet_forward", "network.rnet_forward"),
        (network, "predict", "network.predict"),
        (training, "rnet_forward", "network.rnet_forward"),
        (training, "rnet_backward", "network.rnet_backward"),
        (training, "predict", "network.predict"),
        (training, "adam_step", "optim.adam_step"),
        (training, "train", "training.train"),
        (training, "evaluate", "training.evaluate"),
        (weights_io, "write_weights", "weights_io.write_weights"),
        (diagnose, "classify", "diagnose.classify"),
    ]
)

# workload -> (modules whose wrapped functions it must call, names it skips)
_REQUIRED = {
    "prep-20um": (
        (pipeline, scansim, cloudio, geom3d, dataset, voxelizer),
        {"pipeline.stage_train", "voxelizer.read_ggvg"},
    ),
    "train-tiny": (
        (pipeline, voxelizer, layers, training, weights_io),
        {f"pipeline.{s}" for s in PREP_STAGES} | {"voxelizer.build_grid", "voxelizer.write_ggvg"},
    ),
    "inspect-tiny": (
        (voxelizer, layers, network, diagnose),
        {"voxelizer.write_ggvg", "voxelizer.read_ggvg", "layers.dense_backward", "layers.loss_mse"}
        | {f"layers.{op}_backward" for op in ("conv3d",) + ELEMENTWISE},
    ),
}

_SPAN_METRIC = {
    "training.train": "training.train.self_ms",
    **{f"pipeline.{s}": f"pipeline.{s}.self_ms" for s in PREP_STAGES + ("stage_train",)},
}


def span_names() -> list[str]:
    """Every span name a trace can record, block-tagged layers expanded."""
    names = []
    for _, _, name in WRAPS:
        if name[len("layers."):] in _BLOCK_LAYERS:
            names += [f"{name}.{b}" for b in BLOCKS]
        elif name not in names:
            names.append(name)
    return names


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(_SPAN_METRIC.get(n, f"{n}.ms"), "ms", "lower") for n in span_names()]
    out += [
        ("scansim.points", "count", "higher"),
        ("cloudio.bytes_written", "bytes", "lower"),
        ("voxelizer.bytes_written", "bytes", "lower"),
        ("geom3d.ransac_inlier_frac", "frac", "higher"),
        ("dataset.augment.clouds", "count", "higher"),
        ("voxelizer.fill_pct", "%", "lower"),
    ]
    for b in BLOCKS:
        out += [
            (f"layers.conv3d_forward.{b}.gflop", "GFLOP", "lower"),
            (f"layers.conv3d_forward.{b}.gflop_per_s", "GFLOP/s", "higher"),
        ]
        for op in ELEMENTWISE:
            out += [
                (f"layers.{op}.{b}.gbytes", "GB", "lower"),
                (f"layers.{op}.{b}.gbytes_per_s", "GB/s", "higher"),
            ]
    return out


def required_spans(workload: str, n_blocks: int) -> list[str]:
    """Spans that must record calls on a workload (the coverage check).

    Every function wrapped on the listed modules is required, minus the
    names the workload's timed code never calls, so a function added to
    ``WRAPS`` is covered without editing this list.
    """
    modules, skipped = _REQUIRED[workload]
    names = []
    for module, _, name in WRAPS:
        if module not in modules or name in skipped:
            continue
        if name[len("layers."):] in _BLOCK_LAYERS:
            names += [f"{name}.{b}" for b in BLOCKS[:n_blocks]]
        else:
            names.append(name)
    return names


class CoverageError(RuntimeError):
    """A span the workload must exercise recorded no calls."""


def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self._blocks: dict[int, list[int]] = {}  # net span -> [calls seen, n_blocks]
        self._installed: list[tuple[object, str, object]] = []
        self.work = defaultdict(float)  # computed counts, keyed by metric stem

    # -- installation -------------------------------------------------------
    def install(self) -> "Tracer":
        for module, attr, name in WRAPS:
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- recording ----------------------------------------------------------
    def _block_tag(self, op: str) -> str:
        """Block index of a layer call from its order inside the network span."""
        parent = self._stack[-1] if self._stack else None
        state = self._blocks.get(parent)
        if state is None:
            return "bx"
        if op == "conv3d_forward" or op == "maxpool3d_backward":
            state[0] += 1
        if op.endswith("_forward"):
            return f"b{state[0] - 1}"
        return f"b{state[1] - state[0]}"

    def _wrap(self, fn, name):
        op = name[len("layers."):] if name.startswith("layers.") else None
        tagged = op in _BLOCK_LAYERS
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = f"{name}.{self._block_tag(op)}" if tagged else name
            index = len(self.spans)
            self.spans.append([label, 0.0, 0.0, self._stack[-1] if self._stack else None])
            if name == "network.rnet_forward":
                self._blocks[index] = [0, 0]
            elif name == "network.rnet_backward":
                self._blocks[index] = [0, len(args[1]) - 1]
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._blocks.pop(index, None)
                self.spans[index][1] = start
                self.spans[index][2] = end
            if after is not None:
                after(self.work, label, args, result)
            return result

        return traced

    # -- summaries ----------------------------------------------------------
    def totals(self):
        """(calls, self seconds) per span name."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent is not None:
                self_s[self.spans[parent][0]] -= end - start
        return calls, self_s

    def check_coverage(self, workload: str, n_blocks: int) -> None:
        calls, _ = self.totals()
        missing = [n for n in required_spans(workload, n_blocks) if calls[n] == 0]
        if missing:
            raise CoverageError(
                f"{workload}: traced spans recorded no calls: {', '.join(missing)} "
                "(a caller no longer looks up the wrapped attribute)"
            )

    def metrics(self, units: int) -> dict[str, float]:
        """Per-layer metric values; times and per-pass counts per unit of work."""
        calls, self_s = self.totals()
        units = max(units, 1)
        w = self.work
        values = {metric: 0.0 for metric, _, _ in per_layer_metrics()}
        for name in span_names():
            values[_SPAN_METRIC.get(name, f"{name}.ms")] = 1e3 * self_s[name] / units

        def ratio(num, den):
            return w[num] / w[den] if w[den] else 0.0

        values["scansim.points"] = ratio("scansim.points", "scansim.calls")
        passes = calls["pipeline.stage_simulate"]
        if passes:
            values["cloudio.bytes_written"] = w["cloudio.bytes_written"] / passes
            values["voxelizer.bytes_written"] = w["voxelizer.bytes_written"] / passes
        values["geom3d.ransac_inlier_frac"] = ratio("ransac.inliers", "ransac.points")
        values["dataset.augment.clouds"] = ratio("augment.clouds", "augment.calls")
        values["voxelizer.fill_pct"] = 100.0 * ratio("grid.fill", "grid.count")
        for b in BLOCKS:
            conv = f"layers.conv3d_forward.{b}"
            values[f"{conv}.gflop"] = ratio(f"{conv}.flop", f"{conv}.samples") / 1e9
            if self_s[conv] > 0:
                values[f"{conv}.gflop_per_s"] = w[f"{conv}.flop"] / self_s[conv] / 1e9
            for op in ELEMENTWISE:
                stem = f"layers.{op}.{b}"
                values[f"{stem}.gbytes"] = ratio(f"{stem}.bytes", f"{stem}.samples") / 1e9
                busy = self_s[f"layers.{op}_forward.{b}"] + self_s[f"layers.{op}_backward.{b}"]
                if busy > 0:
                    values[f"{stem}.gbytes_per_s"] = w[f"{stem}.bytes"] / busy / 1e9
        return values

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of call counts per span name."""
        calls, self_s = self.totals()
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
            fh.write(json.dumps({"calls": dict(sorted(calls.items())),
                                 "self_s": dict(sorted(self_s.items()))}) + "\n")


# -- computed work per call ---------------------------------------------------

def _after_raster_scan(work, label, args, cloud):
    work["scansim.calls"] += 1
    work["scansim.points"] += len(cloud)


def _after_write_file(key):
    def after(work, label, args, result):
        work[key] += os.path.getsize(args[1])
    return after


def _after_ransac(work, label, args, result):
    work["ransac.inliers"] += len(result[1])
    work["ransac.points"] += len(args[0])


def _after_augment(work, label, args, clouds):
    work["augment.calls"] += 1
    work["augment.clouds"] += len(clouds)


def _after_grid(work, label, args, grid):
    work["grid.count"] += 1
    work["grid.fill"] += voxelizer.grid_stats(grid).fill_fraction


def _after_conv_forward(work, label, args, result):
    y, (x, w, _, _) = result
    batch, c_out = y.shape[:2]
    positions = y[0, 0].size
    work[f"{label}.flop"] += 2.0 * batch * c_out * w[0].size * positions
    work[f"{label}.samples"] += batch


def _elementwise(op, forward):
    def after(work, label, args, result):
        # Interface bytes: the input, the output and the cached tensor.
        stem = f"layers.{op}.{label.rsplit('.', 1)[1]}"
        if forward:
            out, cache = result[0], result[1]
            work[f"{stem}.samples"] += args[0].shape[0]
        else:
            out, cache = (result[0] if op == "batchnorm3d" else result), args[1]
        work[f"{stem}.bytes"] += _nbytes(args[0], out, cache[0])
    return after


_AFTER = {
    "scansim.raster_scan": _after_raster_scan,
    "cloudio.write_xyz": _after_write_file("cloudio.bytes_written"),
    "cloudio.write_ggpc": _after_write_file("cloudio.bytes_written"),
    "voxelizer.write_ggvg": _after_write_file("voxelizer.bytes_written"),
    "geom3d.fit_plane_ransac": _after_ransac,
    "dataset.augment": _after_augment,
    "voxelizer.build_grid": _after_grid,
    "voxelizer.read_ggvg": _after_grid,
    "layers.conv3d_forward": _after_conv_forward,
    **{f"layers.{op}_forward": _elementwise(op, True) for op in ELEMENTWISE},
    **{f"layers.{op}_backward": _elementwise(op, False) for op in ELEMENTWISE},
}
