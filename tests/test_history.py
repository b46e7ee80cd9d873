"""The coefficient and scale/speed layers and the moment tables built on them
give bitwise-equal results whatever calls the same model answered before."""

import gc
import weakref

import numpy as np
import pytest

from ergodiff.diffusion import DiffusionModel, bounded_drift, ou
from ergodiff.kac import exit_moment_table, hitting_moment_table, mean_exit_time
from ergodiff.quadrature import QuadratureConfig
from ergodiff.simulator import (SimConfig, estimate_hitting_moments,
                                simulate_paths)

OU_PROBES = np.array([-3.7, -1.0, -0.03, 0.0, 0.4, 1.0, 2.5, 3.1, 4.2])
OU_GRID = [0.5, 1.0, 1.5, 2.0]
BD_PROBES = np.array([-250.0, -3.3, 0.0, 0.7, 12.0, 99.5, 1234.5])
BD_GRID = np.linspace(25.0, 100.0, 7)


def _snapshot(model, probes, table):
    return (model.scale_function(probes), model.speed_density(probes),
            model.log_scale_exponent(probes), table(model).values)


def _ou_table(model):
    return hitting_moment_table(model, 0.0, "from_above", OU_GRID, 2)


def _bd_table(model):
    return hitting_moment_table(model, 12.0, "from_above", BD_GRID, 1)


def _reversed_probes(model):
    model.scale_function(OU_PROBES[::-1])
    model.speed_density(OU_PROBES[::-1])
    model.log_scale_exponent(OU_PROBES[::-1])


OU_PREFIXES = {
    "warm_table_shifted_grid": lambda m: hitting_moment_table(
        m, 0.0, "from_above", [0.6, 1.1, 1.6, 2.1], 2),
    "classify_recurrence": lambda m: m.classify_recurrence(),
    "scale_function_linspace": lambda m: m.scale_function(
        np.linspace(-4.0, 4.0, 201)),
    "reversed_probes": _reversed_probes,
}


@pytest.fixture(scope="module")
def ou_fresh():
    return _snapshot(ou(1.0), OU_PROBES, _ou_table)


@pytest.mark.parametrize("prefix", sorted(OU_PREFIXES))
def test_ou_results_independent_of_call_history(ou_fresh, prefix):
    model = ou(1.0)
    OU_PREFIXES[prefix](model)
    for fresh, after in zip(ou_fresh, _snapshot(model, OU_PROBES, _ou_table)):
        assert np.array_equal(fresh, after)


def test_bounded_drift_results_independent_of_call_history():
    fresh = _snapshot(bounded_drift(1.0), BD_PROBES, _bd_table)
    model = bounded_drift(1.0)
    model.scale_function(np.geomspace(1.0, 1e4, 50))
    for a, b in zip(fresh, _snapshot(model, BD_PROBES, _bd_table)):
        assert np.array_equal(a, b)


def test_model_hash_covers_quadrature_config():
    base = ou(1.0).model_hash()
    assert ou(1.0, quad=QuadratureConfig()).model_hash() == base
    assert ou(1.0, quad=QuadratureConfig(rel_tol=1e-8)).model_hash() != base
    assert ou(1.0, quad=QuadratureConfig(abs_tol=1e-11)).model_hash() != base
    assert ou(1.0, anchor=0.5).model_hash() != base


def test_a_failed_call_leaves_the_drift_an_array_call():
    # a tabulated drift raises IndexError outside its table; that must not
    # turn later calls on arrays into one call per point
    table = -np.linspace(0.0, 1.0, 21)
    calls = []

    def drift(x):
        calls.append(np.shape(x))
        return table[np.round(x * 20.0).astype(int)]

    model = DiffusionModel(drift, 1.0, label="tabulated")
    probes = np.linspace(0.0, 1.0, 9)
    fresh = model.drift(probes)
    with pytest.raises(IndexError):
        model.drift(np.array([5.0]))
    calls.clear()
    assert np.array_equal(model.drift(probes), fresh)
    assert calls == [(9,)]


LIFETIME_MODELS = {
    "ou": lambda: ou(1.0),
    "bounded_drift": lambda: bounded_drift(2.2),
    "gamma_family": lambda: DiffusionModel(
        lambda x: -2 * x * (1 + x * x) ** -0.75,
        lambda x: (1 + x * x) ** 0.125),
}


@pytest.mark.parametrize("name", sorted(LIFETIME_MODELS))
def test_a_model_is_freed_without_the_cyclic_collector(name):
    # a model, its scale/speed panel sums and the from_below mirror must go
    # when their last reference does, not wait for a cyclic-GC pass
    enabled = gc.isenabled()
    gc.disable()
    try:
        model = LIFETIME_MODELS[name]()
        model.classify_recurrence()
        hitting_moment_table(model, 0.0, "from_above", [0.5, 1.0], 2)
        hitting_moment_table(model, 0.0, "from_below", [-1.0, -0.5], 2)
        exit_moment_table(model, -1.0, 1.0, [-0.5, 0.0, 0.5], 2)
        mean_exit_time(model, -1.0, 1.0, 0.25)
        cfg = SimConfig(step=0.01, horizon=4.0, replicas=16, seed=1,
                        a=-0.5, b=0.5, initial=0.0)
        simulate_paths(model, cfg, np.abs, checkpoints=[2.0])
        estimate_hitting_moments(model, cfg, 0.5, 0.0, (1,))
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
