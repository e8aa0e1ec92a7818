"""Agent behavior: exploration schedule, action choice, targets, learning."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from snakedqn import agent as agent_module
from snakedqn import harness, nn
from snakedqn.agent import (
    Hyperparams,
    compute_targets,
    epsilon_at,
    greedy_action,
    learn_step,
    maybe_sync_target,
    new_agent,
    save_agent,
    select_action,
    td_loss_and_gradient,
)
from snakedqn.checkpoint import read_records
from snakedqn.nn import Dense, Flatten, QNetwork
from snakedqn.preprocess import FrameStack
from snakedqn.replay import Experience, ReplayBuffer

from dense_conv import DenseConv2D
from preprocess_oracle import pack_frame
from replay_oracle import _batch_inputs, episodes, oracle_batch
from update_oracle import OracleMaxPool2D, oracle_adam_step

HP = Hyperparams()


def make_stack(seed=0):
    bits = (np.random.default_rng(seed).random((84, 84)) > 0.9).astype(np.uint8)
    frame = pack_frame(bits)
    return FrameStack((frame,) * 4)


def make_experience(action=0, reward=-0.1, terminal=False, seed=0):
    return Experience(make_stack(seed), action, reward, make_stack(seed + 1),
                      terminal)


class FixedNet:
    """Stand-in network returning one fixed Q row per input."""

    dtype = np.float32

    def __init__(self, q_row):
        self.q_row = np.asarray(q_row, dtype=np.float32)
        self.n_outputs = len(self.q_row)

    def forward(self, x, train=False):
        return np.tile(self.q_row, (len(x), 1))


def linear_head_net():
    """Flatten + zero linear layer: Q == bias, convenient for exact sums."""
    net = QNetwork([Flatten(), Dense(84 * 84 * 4, 4, relu=False)],
                   input_shape=(84, 84, 4))
    return net


class TestEpsilonSchedule:
    def test_endpoints(self):
        assert epsilon_at(0, HP) == 1.0
        assert epsilon_at(49_999, HP) == 1.0
        assert epsilon_at(50_000, HP) == 1.0
        assert epsilon_at(550_000, HP) == 0.01
        assert epsilon_at(10_000_000, HP) == 0.01

    def test_midpoint_exact(self):
        assert epsilon_at(300_000, HP) == 0.505

    def test_negative_frame(self):
        with pytest.raises(ValueError):
            epsilon_at(-1, HP)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 700_000), st.integers(0, 700_000))
    def test_monotone_and_bounded(self, a, b):
        lo, hi = sorted((a, b))
        assert epsilon_at(lo, HP) >= epsilon_at(hi, HP)
        for f in (lo, hi):
            assert HP.eps_final <= epsilon_at(f, HP) <= HP.eps_initial

    def test_decay_starts_after_warmup(self):
        hp = Hyperparams(random_frames=100, eps_greedy_frames=1000)
        assert epsilon_at(99, hp) == 1.0
        assert epsilon_at(100, hp) == 1.0
        assert epsilon_at(600, hp) == 0.505
        assert epsilon_at(1100, hp) == 0.01


class TestActionSelection:
    def test_greedy_argmax(self):
        net = FixedNet([0.1, 0.9, -0.3, 0.2])
        rng = np.random.default_rng(0)
        assert greedy_action(make_stack(), net, rng, epsilon=0.0) == 1

    def test_tie_breaks_to_lowest_index(self):
        net = FixedNet([0.5, 0.5, 0.1, 0.1])
        rng = np.random.default_rng(0)
        assert greedy_action(make_stack(), net, rng, epsilon=0.0) == 0

    def test_uniform_when_fully_random(self):
        rng = np.random.default_rng(42)
        counts = np.zeros(4)
        for _ in range(10_000):
            counts[greedy_action(make_stack(), None, rng, epsilon=1.0)] += 1
        freqs = counts / 10_000
        assert np.abs(freqs - 0.25).max() < 0.02

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4),
           st.floats(0.1, 50.0), st.floats(-20, 20))
    def test_argmax_affine_invariant(self, q, a, b):
        # Q-values are float32, where a * q + b can round two entries of q
        # into a tie that argmax breaks by index. Rounding is monotone, so
        # the argmax is invariant whenever the scaled row's maximum is unique.
        q32 = np.asarray(q, dtype=np.float32)
        scaled32 = np.float32(a) * q32 + np.float32(b)
        assume(np.count_nonzero(scaled32 == scaled32.max()) == 1)
        rng = np.random.default_rng(0)
        stack = make_stack()
        base = greedy_action(stack, FixedNet(q32), rng, epsilon=0.0)
        scaled = greedy_action(stack, FixedNet(scaled32), rng, epsilon=0.0)
        assert base == scaled

    def test_select_action_uses_schedule(self):
        hp = Hyperparams(random_frames=10)
        agent = new_agent(hp, seed=0)
        agent.frame_count = 0  # still in pure-random phase
        actions = {select_action(make_stack(i), agent, hp) for i in range(20)}
        assert actions <= {0, 1, 2, 3}


class TestBatchInputs:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_stacked_to_input(self, dtype):
        rng = np.random.default_rng(4)
        frames = [pack_frame(rng.random((84, 84)) < p)
                  for p in (0.0, 0.03, 0.5, 1.0, 0.1)]
        stacks = [FrameStack(tuple(frames[(i + j) % 5] for j in range(4)))
                  for i in range(7)]
        got = _batch_inputs(stacks, dtype)
        want = np.stack([s.to_input() for s in stacks]).astype(dtype)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


class TestComputeTargets:
    def test_terminal_drops_bootstrap(self):
        batch = oracle_batch([make_experience(reward=1.0, terminal=True),
                              make_experience(reward=-1.0, terminal=True)])
        y = compute_targets(batch, None, gamma=0.99)
        assert y.tolist() == [1.0, -1.0]

    def test_bellman_value(self):
        batch = oracle_batch([make_experience(reward=-0.1, terminal=False)])
        y = compute_targets(batch, FixedNet([2.0, 0.5, -1.0, 0.0]), gamma=0.99)
        assert np.isclose(y[0], -0.1 + 0.99 * 2.0)
        assert np.isclose(y[0], 1.88)

    def test_gamma_zero_returns_rewards(self):
        batch = oracle_batch([make_experience(reward=r, terminal=False)
                              for r in (1.0, -0.1, -1.0)])
        y = compute_targets(batch, FixedNet([5.0, 5.0, 5.0, 5.0]), gamma=1e-12)
        assert np.allclose(y, [1.0, -0.1, -1.0], atol=1e-9)

    def test_mixed_batch(self):
        batch = oracle_batch([make_experience(reward=-0.1, terminal=False, seed=1),
                              make_experience(reward=-1.0, terminal=True, seed=2)])
        y = compute_targets(batch, FixedNet([0.0, 3.0, 0.0, 0.0]), gamma=0.5)
        assert np.allclose(y, [-0.1 + 1.5, -1.0])


class TestTdLoss:
    def test_zero_error_zero_gradients(self):
        net = linear_head_net()
        exp = make_experience(action=2, seed=3)
        batch = oracle_batch([exp])
        q = net.forward(exp.state.to_input()[None])[0]
        loss, grads = td_loss_and_gradient(batch, np.array([q[2]]), net)
        assert loss == 0.0
        assert all(not g.any() for g in grads.values())

    def test_single_sample_upstream(self):
        net = linear_head_net()  # zero weights: Q == 0 everywhere
        batch = oracle_batch([make_experience(action=1)])
        loss, grads = td_loss_and_gradient(batch, np.array([1.0]), net)
        assert loss == 1.0
        # d(loss)/d(bias) equals the upstream on the Q outputs
        assert np.allclose(grads["dense1.b"], [0.0, -2.0, 0.0, 0.0])

    def test_batch_mean(self):
        net = linear_head_net()
        batch = oracle_batch([make_experience(action=0, seed=1),
                              make_experience(action=3, seed=2)])
        loss, grads = td_loss_and_gradient(batch, np.array([1.0, 3.0]), net)
        assert loss == pytest.approx(5.0)
        assert np.allclose(grads["dense1.b"], [-1.0, 0.0, 0.0, -3.0])

    def test_gradient_only_through_taken_action(self):
        net = linear_head_net()
        batch = oracle_batch([make_experience(action=2)])
        _, grads = td_loss_and_gradient(batch, np.array([0.5]), net)
        db = grads["dense1.b"]
        assert db[2] != 0.0
        assert db[0] == db[1] == db[3] == 0.0

    def test_length_mismatch(self):
        net = linear_head_net()
        with pytest.raises(ValueError):
            td_loss_and_gradient(oracle_batch([make_experience()]), np.array([1.0, 2.0]), net)


class TestLearnSchedule:
    def _filled_buffer(self, n=32):
        buf = ReplayBuffer(64)
        for exp in episodes([8] * -(-n // 8))[:n]:
            buf.push(exp)
        return buf

    def test_noop_during_warmup(self):
        agent = new_agent(HP, seed=0)
        buf = self._filled_buffer()
        agent.frame_count = 49_999
        assert learn_step(agent, buf, HP) is None

    def test_update_fires_on_schedule(self):
        agent = new_agent(HP, seed=0)
        buf = self._filled_buffer()
        agent.frame_count = 50_000
        before = agent.online.params()["dense3.w"].copy()
        loss = learn_step(agent, buf, HP)
        assert loss is not None and loss >= 0.0
        assert not np.array_equal(before, agent.online.params()["dense3.w"])
        assert agent.adam.t == 1

    def test_noop_off_cycle(self):
        agent = new_agent(HP, seed=0)
        buf = self._filled_buffer()
        agent.frame_count = 50_002
        assert learn_step(agent, buf, HP) is None

    def test_noop_with_small_buffer(self):
        agent = new_agent(HP, seed=0)
        buf = self._filled_buffer(n=10)
        agent.frame_count = 50_000
        assert learn_step(agent, buf, HP) is None

    def test_gradients_stay_the_arrays_built_at_construction(self):
        """Updates fill and clip the layers' own gradient arrays; none is rebound."""
        agent = new_agent(HP, seed=0)
        buf = self._filled_buffer()
        built = {f"{layer.name}.{attr}": getattr(layer, f"d{attr}")
                 for layer in agent.online.layers for attr in layer.trainable}
        assert len(built) == 16
        for frame in range(50_000, 50_016, 4):
            agent.frame_count = frame
            assert learn_step(agent, buf, HP) is not None
            grads = agent.online.gradients()
            assert list(grads) == list(built)
            assert all(grads[k] is g for k, g in built.items())
        assert agent.adam.t == 4
        assert all(g.any() for g in built.values())

    def test_target_untouched_by_learning(self):
        agent = new_agent(HP, seed=0)
        buf = self._filled_buffer()
        agent.frame_count = 50_000
        target_before = {k: v.copy() for k, v in agent.target.state_arrays().items()}
        learn_step(agent, buf, HP)
        assert all(np.array_equal(target_before[k], v)
                   for k, v in agent.target.state_arrays().items())


class TestTargetSync:
    def test_sync_on_multiple(self):
        agent = new_agent(HP, seed=0)
        agent.online.params()["conv1.w"][...] += 0.5
        agent.frame_count = 10_000
        maybe_sync_target(agent, HP)
        x = np.random.default_rng(0).random((3, 84, 84, 4)).astype(np.float32)
        assert np.array_equal(agent.online.forward(x), agent.target.forward(x))

    def test_no_sync_off_multiple(self):
        agent = new_agent(HP, seed=0)
        agent.online.params()["conv1.w"][...] += 0.5
        agent.frame_count = 10_001
        maybe_sync_target(agent, HP)
        assert not np.array_equal(agent.online.params()["conv1.w"],
                                  agent.target.params()["conv1.w"])


class TestHyperparams:
    def test_defaults_match_training_setup(self):
        hp = Hyperparams()
        assert hp.gamma == 0.99
        assert hp.eps_initial == 1.0
        assert hp.eps_final == 0.01
        assert hp.batch_size == 32
        assert hp.max_step == 10_000
        assert hp.learning_rate == 0.0025
        assert hp.clip_norm == 1.0
        assert hp.random_frames == 50_000
        assert hp.eps_greedy_frames == 500_000
        assert hp.replay_capacity == 50_000
        assert hp.update_every == 4
        assert hp.target_sync_every == 10_000

    @pytest.mark.parametrize("kw", [
        dict(gamma=0.0),
        dict(gamma=1.5),
        dict(eps_final=0.5, eps_initial=0.1),
        dict(batch_size=0),
        dict(learning_rate=-1.0),
        dict(learning_rate=float("nan")),
        dict(clip_norm=float("inf")),
        dict(batch_size=64, replay_capacity=16),  # learn_step could never sample
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            Hyperparams(**kw)


class TestEndToEnd:
    @staticmethod
    def seeded_run(tmp_path, tag):
        """CSV and checkpoint bytes of a seeded 320-frame learning run."""
        hp = Hyperparams(random_frames=128, eps_greedy_frames=192, target_sync_every=64)
        config = harness.TrainConfig(
            hp=hp, episodes=1_000, seed=11, max_frames=320, checkpoint_every=4,
            metrics_path=str(tmp_path / f"{tag}.csv"),
            checkpoint_path=str(tmp_path / f"{tag}.bin"))
        rows = harness.train(config)
        assert sum(not np.isnan(r.mean_loss) for r in rows) >= 2
        return (tmp_path / f"{tag}.csv").read_bytes(), (tmp_path / f"{tag}.bin").read_bytes()

    def test_train_matches_update_oracle(self, tmp_path, monkeypatch):
        """A seeded learning run gives the same bytes with the oracle update step:
        the reference max-pool and Adam, and batches cast to float before the
        network sees them."""
        lean = self.seeded_run(tmp_path, "lean")
        forward = nn.QNetwork.forward
        monkeypatch.setattr(nn, "MaxPool2D", OracleMaxPool2D)
        monkeypatch.setattr(agent_module, "adam_step", oracle_adam_step)
        monkeypatch.setattr(nn.QNetwork, "forward", lambda net, x, train=False:
                            forward(net, np.asarray(x, dtype=net.dtype), train))
        oracle = self.seeded_run(tmp_path, "oracle")
        # The oracle pool ran as conv1's pool and as both later pool layers.
        net = nn.build_q_network(4)
        assert isinstance(net.layers[0].pool, OracleMaxPool2D)
        assert [type(layer) for layer in net.layers if layer.kind == "maxpool"] == [OracleMaxPool2D] * 2
        assert lean == oracle

    def test_train_matches_dense_oracle(self, tmp_path, monkeypatch):
        """A seeded learning run gives the same bytes with the dense im2col
        oracle in place of every conv layer after the first stage."""
        build = agent_module.build_q_network

        def dense_after_stage(n_actions=4, dtype=np.float32):
            net = build(n_actions, dtype=dtype)
            for i, layer in enumerate(net.layers):
                if isinstance(layer, nn.Conv2D) and layer.pool is None:
                    dense = DenseConv2D(layer.in_channels, layer.out_channels, layer.kernel,
                                        layer.stride, relu=layer.relu, dtype=dtype)
                    dense.name = layer.name
                    net.layers[i] = dense
            return net

        lean = self.seeded_run(tmp_path, "lean")
        monkeypatch.setattr(agent_module, "build_q_network", dense_after_stage)
        oracle = self.seeded_run(tmp_path, "oracle")
        net = dense_after_stage()
        assert [type(layer) for layer in net.layers if layer.kind == "conv"] == [
            nn.Conv2D, DenseConv2D, DenseConv2D]
        assert lean == oracle

    def test_non_finite_loss_stops_train_before_the_step(self, tmp_path, monkeypatch):
        """A NaN loss raises before Adam steps, so the checkpoint saved after
        the last finished episode stays on disk and the CSV keeps its rows."""
        td_loss = agent_module.td_loss_and_gradient
        calls = []

        def nan_from_the_20th_update(batch, targets, online):
            loss, grads = td_loss(batch, targets, online)
            calls.append(loss)
            if len(calls) < 20:
                return loss, grads
            return float("nan"), {k: np.full_like(g, np.nan) for k, g in grads.items()}

        monkeypatch.setattr(agent_module, "td_loss_and_gradient", nan_from_the_20th_update)
        hp = Hyperparams(random_frames=128, eps_greedy_frames=192, target_sync_every=64)
        config = harness.TrainConfig(
            hp=hp, episodes=1_000, seed=11, max_frames=320, checkpoint_every=1,
            metrics_path=str(tmp_path / "run.csv"), checkpoint_path=str(tmp_path / "run.bin"))
        # Updates run at frames 128, 132, ...: the 20th is at frame 204.
        with pytest.raises(FloatingPointError, match="at frame 204"):
            harness.train(config)
        header, *rows = (tmp_path / "run.csv").read_text().splitlines()
        assert header == harness.CSV_HEADER
        frames_total = [int(row.rsplit(",", 1)[1]) for row in rows]
        assert frames_total and frames_total[-1] < 204
        assert any(128 <= n for n in frames_total)  # some rows saw updates
        records = read_records(tmp_path / "run.bin")
        assert int(records["frame_count"]) == frames_total[-1]
        floats = [a for a in records.values() if a.dtype.kind == "f"]
        assert len(floats) > 70 and all(np.isfinite(a).all() for a in floats)

    def test_resume_from_continues_the_counters(self, tmp_path):
        """A resumed run starts from the checkpoint's frame count, epsilon and
        Adam step count. Its replay starts empty, so its updates wait for a
        batch."""
        hp = Hyperparams(random_frames=64, eps_greedy_frames=192, target_sync_every=64)

        def run(tag, max_frames, resume_from=None):
            config = harness.TrainConfig(
                hp=hp, episodes=1_000, seed=11, max_frames=max_frames,
                metrics_path=str(tmp_path / f"{tag}.csv"),
                checkpoint_path=str(tmp_path / f"{tag}.bin"), resume_from=resume_from)
            return harness.train(config), read_records(tmp_path / f"{tag}.bin")

        _, first = run("first", 200)
        # Updates at frames 64, 68, ..., 200.
        assert int(first["frame_count"]) == 200 and int(first["adam/t"]) == 35
        rows, resumed = run("resumed", 400, resume_from=str(tmp_path / "first.bin"))
        # Frame 200 plus the first resumed episode's 10 frames (seed 11).
        assert rows[0].frames_total == 210
        assert rows[0].epsilon == epsilon_at(210, hp)
        # The empty replay holds a batch from frame 232 on: updates at 232, ..., 400.
        assert int(resumed["frame_count"]) == 400 and int(resumed["adam/t"]) == 35 + 43


class TestEvaluate:
    # Greedy play of an untrained net may circle: cap each episode's steps.
    CAPPED = dataclasses.replace(HP, max_step=200)

    def test_agent_and_its_checkpoint_score_alike(self, tmp_path):
        agent = new_agent(HP, seed=4)
        path = tmp_path / "agent.bin"
        save_agent(path, agent, HP)
        for seed in (0, 5):
            live = harness.evaluate(agent.online, episodes=3, seed=seed, hp=self.CAPPED)
            loaded = harness.evaluate(path, episodes=3, seed=seed, hp=self.CAPPED)
            assert live == loaded
            assert len(live.scores) == 3 and live.best == max(live.scores)

    def test_random_policy_repeats_under_a_seed(self):
        runs = [harness.evaluate(None, episodes=4, epsilon=1.0, seed=seed, hp=self.CAPPED)
                for seed in (2, 2, 3)]
        assert runs[0] == runs[1]
        assert runs[0].mean == np.mean(runs[0].scores)
