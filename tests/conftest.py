"""Tier-1 runs with one OpenBLAS thread, as CI does.

The conv forward's bit-identity tests, which compare it against the
test-local im2col oracle ``dense_conv`` in ``test_layers.py``
(``TestDenseConvBits``, ``TestBackgroundConv`` with block 1's inputs from
their bits and from block 0's windows, ``TestBinaryConv`` and
``TestBinaryInputs``) or across batch sizes in ``test_network.py``
(``TestBackgroundPath::test_dense_layer_input_is_the_same_at_every_batch_size``
and ``test_predictions_are_the_same_bytes_at_every_batch_size``), and
``TestCarriedBackward::test_weight_gradient_partials_share_one_buffer``,
which compares the weight gradient's bytes with a fresh array per tile,
and ``test_training.py``'s ``TestTrain::test_running_stats_keep_their_recorded_bytes``,
which compares two epochs' batchnorm running statistics with recorded
hashes (the height fields' net trains blocks 0 and 1 windowed), and
``test_cli.py``'s ``TestWindowedPipeline::test_rerun_is_byte_identical``,
which compares a pipeline run in this process with a ``--threads 1`` CLI
run, assume the summation order of a single-thread GEMM. OpenBLAS reads the
thread count when numpy loads, so it is set here, before any test module
imports numpy. The fixtures that several test files share follow.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import pytest  # noqa: E402


@pytest.fixture
def noiseless(monkeypatch):
    """Scans without height noise or stage jitter."""
    from gluevol import scansim

    monkeypatch.setattr(scansim, "NOISE_SIGMA_Z_MM", 0.0)
    monkeypatch.setattr(scansim, "XY_JITTER_MM", 0.0)
