"""The benchmark's span tracer covers every layer of every block when the
first block trains on its active pool windows.

``perfbench/spans.py`` tags each layer call with its block from the call
order inside ``rnet_forward`` / ``rnet_backward``, and its coverage check
requires a span per layer function and block. The perfbench self-tests run
8x8x16 grids; this runs the tiny net on voxelized tiny-profile scans,
which take the windowed path.
"""

import sys
from pathlib import Path

import numpy as np

from gluevol import config, scansim, voxelizer
from gluevol.neuralvol import layers, network, training

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def test_every_block_layer_records_its_calls():
    cfg = config.tiny_profile_config(0).resolved()
    pcb = cfg.pcbs()[0]
    grids = [
        voxelizer.build_grid(scansim.raster_scan(pcb, region, cfg.scan), cfg.grid).occupancy
        for region in list(pcb.regions())[:4]
    ]
    x = np.stack(grids)[:, None].astype(np.float32)
    weights = network.init_weights(cfg.net, seed=0)
    work = weights.cast(np.float32)
    tracer = spans.Tracer().install()
    try:
        tracer.active = True
        pred, caches = training.rnet_forward(x, work, cfg.net, training=True)
        training.rnet_backward(np.ones_like(pred), caches)
        training.predict(x[:1], weights, cfg.net)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert isinstance(caches[0][1][0], layers.Windowed)  # the first block's ReLU mask
    calls, _ = tracer.totals()
    for op in ("conv3d",) + spans.ELEMENTWISE:
        for block in spans.BLOCKS:
            # one training and one eval forward, one backward
            assert calls[f"layers.{op}_forward.{block}"] == 2, (op, block)
            assert calls[f"layers.{op}_backward.{block}"] == 1, (op, block)
    assert not [name for name in calls if name.endswith(".bx")]
