import numpy as np
import pytest

from spinboson.kernel import KernelSpec, build_kernel


@pytest.fixture(scope="session")
def indicator_kernel():
    return build_kernel(KernelSpec.indicator(1.0))


@pytest.fixture(scope="session")
def zero_kernel():
    return build_kernel(KernelSpec.h_table([[0.0, 0.0], [1.0, 0.0]]))


@pytest.fixture(scope="session")
def table_kernel(indicator_kernel):
    """h_table kernel sampled from the cutoff-1 indicator kernel."""
    ss = np.concatenate([[0.0], np.geomspace(1e-3, 60.0, 600)])
    return build_kernel(KernelSpec.h_table(np.column_stack([ss, indicator_kernel.h(ss)])))


@pytest.fixture(scope="session")
def draw_displacement():
    """Signed displacement with density h(|s|)/||h||_1: magnitude, then sign."""

    def draw(kernel, rng, size=None):
        mag = kernel.quantile(rng.random(size))
        return (rng.integers(0, 2, size=size) * 2 - 1) * mag

    return draw


@pytest.fixture(scope="session")
def random_matching():
    """Uniform perfect matching of 0..2p-1: shuffle and pair consecutive entries."""

    def draw(p, rng):
        perm = [int(x) for x in rng.permutation(2 * p)]
        return tuple(sorted((min(a, b), max(a, b)) for a, b in zip(perm[0::2], perm[1::2])))

    return draw
