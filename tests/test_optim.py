"""Parameter store, RMSprop update rule, and the gradient-check harness."""
from __future__ import annotations

import numpy as np
import pytest

from tkgalign import autodiff as ad
from tkgalign.errors import NonFiniteError
from tkgalign.optim import ParameterStore, RmsPropState, gradient_check

from test_autodiff import mul, sum_all


def store_with(**arrays) -> ParameterStore:
    store = ParameterStore()
    for name, arr in arrays.items():
        store.add(name, np.asarray(arr, dtype=np.float64))
    return store


class TestParameterStore:
    def test_insertion_order_is_stable(self):
        store = store_with(b=[1.0], a=[2.0], c=[3.0])
        assert [name for name, _ in store.items()] == ["b", "a", "c"]

    def test_duplicate_name_rejected(self):
        store = store_with(w=[1.0])
        with pytest.raises(ValueError):
            store.add("w", np.ones(2))

    def test_num_scalars(self):
        store = store_with(w=np.ones((3, 4)), v=np.ones(5))
        assert store.num_scalars() == 17


class TestRmsProp:
    def test_zero_gradient_leaves_params_unchanged(self):
        store = store_with(w=np.arange(4.0))
        store["w"].grad = np.zeros(4)
        before = store["w"].data.copy()
        RmsPropState().step(store, lr=0.1)
        assert np.allclose(store["w"].data, before)

    def test_missing_gradient_skipped(self):
        store = store_with(w=np.arange(4.0))
        before = store["w"].data.copy()
        RmsPropState().step(store, lr=0.1)
        assert np.array_equal(store["w"].data, before)

    def test_one_step_hand_computation(self):
        # theta=1, g=1, v0=0, decay 0.9, lr 0.005:
        # v = 0.1, theta' = 1 - 0.005/(sqrt(0.1)+1e-8)
        store = store_with(w=[1.0])
        store["w"].grad = np.array([1.0])
        opt = RmsPropState()
        opt.step(store, lr=0.005)
        assert np.allclose(opt.cache["w"], [0.1])
        expected = 1.0 - 0.005 / (np.sqrt(0.1) + 1e-8)
        assert abs(store["w"].data[0] - expected) < 1e-12
        assert abs(store["w"].data[0] - 0.98419) < 1e-5

    def test_identical_params_with_identical_grads_stay_identical(self):
        store = store_with(a=np.full(3, 0.7), b=np.full(3, 0.7))
        opt = RmsPropState()
        gen = np.random.default_rng(3)
        for _ in range(25):
            g = gen.normal(size=3)
            store["a"].grad = g.copy()
            store["b"].grad = g.copy()
            opt.step(store, lr=0.01)
            store.zero_grads()
        assert np.array_equal(store["a"].data, store["b"].data)

    def test_bit_identical_across_runs(self):
        def run():
            store = store_with(w=np.linspace(-1, 1, 6))
            opt = RmsPropState()
            gen = np.random.default_rng(9)
            for _ in range(10):
                store["w"].grad = gen.normal(size=6)
                opt.step(store, lr=0.02)
                store.zero_grads()
            return store["w"].data.tobytes()

        assert run() == run()

    def test_running_average_stays_nonnegative(self):
        store = store_with(w=np.zeros(5))
        opt = RmsPropState()
        gen = np.random.default_rng(1)
        for _ in range(20):
            store["w"].grad = gen.normal(size=5) * 10
            opt.step(store, lr=0.001)
        assert np.all(opt.cache["w"] >= 0)

    def test_non_finite_gradient_names_parameter(self):
        store = store_with(good=np.ones(2), bad=np.ones(2))
        store["good"].grad = np.ones(2)
        store["bad"].grad = np.array([1.0, np.inf])
        with pytest.raises(NonFiniteError, match="bad"):
            RmsPropState().step(store, lr=0.01)


class TestGradientCheck:
    def test_quadratic_loss_near_machine_precision(self):
        store = store_with(theta=np.array([0.3, -1.2, 2.0]))

        def loss():
            t = store["theta"]
            return sum_all(mul(t, t))

        worst = gradient_check(loss, store)
        assert worst["theta"] < 1e-9

    def test_detects_a_wrong_gradient(self):
        store = store_with(theta=np.array([0.5, 1.5]))

        def loss():
            t = store["theta"]
            out = sum_all(mul(t, t))
            # sabotage: double the backward contribution
            inner = out.backward_fn

            def bad(g):
                inner(g * 2.0)

            out.backward_fn = bad
            return out

        worst = gradient_check(loss, store)
        assert worst["theta"] > 0.3

    def test_sampled_coordinate_subset(self):
        store = store_with(theta=np.arange(1.0, 101.0))

        def loss():
            t = store["theta"]
            return sum_all(mul(t, t))

        worst = gradient_check(
            loss, store, coords_per_param=7, rng=np.random.default_rng(2)
        )
        # the loss is ~3e5 here, so fd cancellation noise dominates well
        # before 1e-8; the analytic gradient is exact
        assert worst["theta"] < 1e-6

    def test_restores_parameter_values(self):
        data = np.array([1.0, 2.0, 3.0])
        store = store_with(theta=data.copy())

        def loss():
            t = store["theta"]
            return sum_all(mul(t, t))

        gradient_check(loss, store)
        assert np.array_equal(store["theta"].data, data)
