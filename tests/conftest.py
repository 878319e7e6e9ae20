import numpy as np
import pytest

from meanfield_annealer import MagPair, ModelSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def dense_spec():
    return ModelSpec.dense()


@pytest.fixture
def sparse_spec():
    return ModelSpec.sparse()


def assert_same_verdict(coarse, fine):
    """Two transition reports agree on found and, to 1e-5, on s*."""
    assert coarse.found == fine.found
    if fine.found:
        assert abs(coarse.s_star - fine.s_star) < 1e-5
    else:
        assert np.isnan(coarse.s_star) and np.isnan(fine.s_star)


def assert_width_within_two_steps(coarse, fine, coarse_steps):
    """Two reports on [0, 1] agree on the hysteresis width within two steps
    of the coarse grid of ``coarse_steps`` points."""
    step = 1.0 / (coarse_steps - 1)
    assert abs(coarse.hysteresis_width - fine.hysteresis_width) <= 2.0 * step + 1e-12


def count_calls(monkeypatch, name, *modules):
    """Record the arguments of every call made through ``name`` in ``modules``."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_pair(rng):
    return MagPair(random_unit(rng), random_unit(rng))


def central_diff(f, m1, m2, step=1e-6):
    """Finite-difference gradient of f(m1, m2) in all six components."""
    g = np.zeros(6)
    base = np.concatenate([m1, m2])
    for i in range(6):
        up = base.copy()
        dn = base.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (f(up[:3], up[3:]) - f(dn[:3], dn[3:])) / (2 * step)
    return g[:3], g[3:]
