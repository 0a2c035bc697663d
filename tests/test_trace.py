"""The benchmark's span tracer covers every layer of every block when the
first two blocks train on their active pool windows.

``perfbench/spans.py`` tags each layer call with its block from the call
order inside ``rnet_forward`` / ``rnet_backward``, and its coverage check
requires a span per layer function and block; it counts bytes from each
elementwise cache's first entry and conv FLOPs from the output's shape. The
perfbench self-tests run 8x8x16 grids, which never take the windowed form;
this runs the tiny net on voxelized tiny-profile scans, whose first two
blocks take it.
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
    for block in (0, 1):  # the ReLU masks of the first two blocks
        assert isinstance(caches[block][1][0], layers.Windowed)
    calls, _ = tracer.totals()
    for op in ("conv3d",) + spans.ELEMENTWISE:
        for block in spans.BLOCKS:
            # one training and one eval forward, one backward
            assert calls[f"layers.{op}_forward.{block}"] == 2, (op, block)
            assert calls[f"layers.{op}_backward.{block}"] == 1, (op, block)
    assert not [name for name in calls if name.endswith(".bx")]
    # block 1's FLOPs count its carried positions, fewer than the dense
    # output's in the training forward (batch 4) and the eval one (batch 1)
    c_out, c_in = work.blocks[1].conv_w.shape[:2]
    dense = 2.0 * (len(x) + 1) * c_out * c_in * 27 * np.prod(x.shape[2:]) / 8
    assert 0 < tracer.work["layers.conv3d_forward.b1.flop"] < dense
