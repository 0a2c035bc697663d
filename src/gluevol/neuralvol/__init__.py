"""From-scratch 3D convolutional regression: layers, network, training."""
