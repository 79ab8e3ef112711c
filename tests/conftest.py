"""Fixtures shared by several test modules, and the run's peak-memory line."""

import resource

import numpy as np
import pytest

from attnmine.autodiff import Tensor
from attnmine.model import BackboneConfig, Network


def _small_net_and_input(seed, rng):
    """A tiny network plus input kept away from ReLU kinks for stable
    finite differences."""
    cfg = BackboneConfig(
        stage_channels=[2, 3],
        stage_strides=[1, 2],
        msa_reduced_channels=(2, 2),
        num_classes=2,
    )
    for attempt in range(30):
        net = Network(cfg, seed=seed + 1000 * attempt)
        for k, p in net.params.items():
            if k.endswith("_b"):
                p.data += 0.3
        for c in range(2):
            net.params[f"branch{c}_w"].data = rng.normal(0, 0.5, 4)
        x = rng.uniform(0.1, 1.0, (2, 8, 8, 1))
        # the smallest |preactivation| over every ReLU input
        capture = {}
        net.forward_stages(Tensor(x), capture)
        if min(float(np.min(np.abs(t.data))) for t in capture.values()) > 1e-3:
            return net, x
    raise AssertionError("could not find a kink-free configuration")


@pytest.fixture
def small_net_and_input():
    """The function (seed, rng) -> (net, x) of a tiny network and a
    (2, 8, 8, 1) input at least 1e-3 away from every ReLU kink."""
    return _small_net_and_input


def pytest_terminal_summary(terminalreporter):
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    terminalreporter.write_line(f"peak RSS of the test process: {peak_mb:.0f} MB")
