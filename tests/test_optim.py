"""Adam updates and global-norm gradient clipping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from snakedqn.optim import AdamState, adam_step, clip_global_norm, global_norm

from update_oracle import oracle_adam_step


def param_dict(**arrays):
    return {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}


class TestClip:
    def test_below_threshold_unchanged(self):
        grads = param_dict(a=[0.3, 0.4])  # norm 0.5
        out = clip_global_norm(grads, 1.0)
        assert out is grads

    def test_scaling(self):
        grads = param_dict(a=[4.0, 0.0], b=[[0.0], [0.0]])  # norm 4
        out = clip_global_norm(grads, 1.0)
        assert np.allclose(out["a"], [1.0, 0.0])
        assert np.isclose(global_norm(out), 1.0)

    def test_all_zero(self):
        grads = param_dict(a=[0.0, 0.0])
        out = clip_global_norm(grads, 1.0)
        assert not out["a"].any()

    def test_bad_max_norm(self):
        with pytest.raises(ValueError):
            clip_global_norm(param_dict(a=[1.0]), 0.0)

    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 8),
                      elements=st.floats(-1e3, 1e3, allow_nan=False)),
           st.floats(0.01, 10.0))
    def test_norm_never_exceeds_bound(self, arr, max_norm):
        out = clip_global_norm({"g": arr}, max_norm)
        assert global_norm(out) <= max_norm * (1 + 1e-12)

    def test_preserves_dtype(self):
        grads = {"g": np.full(3, 4.0, dtype=np.float32)}
        out = clip_global_norm(grads, 1.0)
        assert out["g"].dtype == np.float32


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = param_dict(w=[1.0, -2.0])
        state = AdamState()
        adam_step(params, param_dict(w=[0.0, 0.0]), state)
        assert np.array_equal(params["w"], [1.0, -2.0])
        assert state.t == 1

    def test_first_step_magnitude(self):
        params = param_dict(w=[0.0])
        state = AdamState()
        adam_step(params, param_dict(w=[1.0]), state, lr=0.0025)
        # bias-corrected m/sqrt(v) is exactly 1, so the step is lr/(1 + eps)
        assert np.isclose(params["w"][0], -0.0025, rtol=1e-6)
        assert params["w"][0] > -0.0025

    def test_moments_update(self):
        params = param_dict(w=[0.0])
        state = AdamState()
        assert state.m == {} and state.v == {}  # allocated by the first step
        adam_step(params, param_dict(w=[2.0]), state)
        assert state.m["w"].dtype == state.v["w"].dtype == params["w"].dtype
        assert np.isclose(state.m["w"][0], 0.1 * 2.0)
        assert np.isclose(state.v["w"][0], 0.001 * 4.0)
        assert state.t == 1

    def test_deterministic(self):
        results = []
        for _ in range(2):
            params = param_dict(w=np.linspace(-1, 1, 7))
            state = AdamState()
            g = param_dict(w=np.sin(np.arange(7.0)))
            for _ in range(25):
                adam_step(params, g, state, lr=0.01)
            results.append(params["w"].copy())
        assert np.array_equal(results[0], results[1])

    def test_descends_a_quadratic(self):
        params = param_dict(w=[5.0])
        state = AdamState()
        for _ in range(2000):
            g = param_dict(w=[2.0 * params["w"][0]])
            adam_step(params, g, state, lr=0.01)
        assert abs(params["w"][0]) < 0.05


class TestAdamOracle:
    """In place, two scratch arrays per parameter: bit for bit the fresh-array step."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_oracle_for_200_steps(self, dtype):
        rng = np.random.default_rng(12)
        shapes = {"conv.w": (4, 4, 3, 5), "conv.b": (5,), "dense.w": (7, 3), "bn.gamma": (1,)}
        init = {k: rng.normal(size=shape).astype(dtype) for k, shape in shapes.items()}
        params = {k: p.copy() for k, p in init.items()}
        want = {k: p.copy() for k, p in init.items()}
        state, oracle_state = AdamState(), AdamState()
        for step in range(200):
            scale = 10.0 ** rng.integers(-6, 2)
            grads = {k: (scale * rng.normal(size=shape)).astype(dtype)
                     for k, shape in shapes.items()}
            grads["conv.b"][step % 5] = 0.0
            before = {k: g.tobytes() for k, g in grads.items()}
            lr = 0.0025 if step % 2 else 0.01
            adam_step(params, grads, state, lr=lr)
            oracle_adam_step(want, grads, oracle_state, lr=lr)
            assert {k: g.tobytes() for k, g in grads.items()} == before
            assert state.t == oracle_state.t == step + 1
            for k in shapes:
                assert params[k].dtype == dtype
                assert params[k].tobytes() == want[k].tobytes()
                assert state.m[k].tobytes() == oracle_state.m[k].tobytes()
                assert state.v[k].tobytes() == oracle_state.v[k].tobytes()
