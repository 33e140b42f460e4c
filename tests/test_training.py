import gc
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest

from gfclust import (
    EncoderConfig,
    FilterConfig,
    SyntheticSpec,
    TrainConfig,
    generate_synthetic,
    one_hot,
    train,
    training,
    true_homophily_report,
    update_hr,
)
from gfclust.autograd import Tensor, zero_grads
from gfclust.errors import ConfigError, DivergenceError
from gfclust.training import TrainingPipeline

from helpers import tiny_two_view

FAST_ENCODER = EncoderConfig(latent_dim=4, hidden_dim=8, epochs=10)


def fast_config(**kwargs):
    defaults = dict(
        epochs=4,
        hr_refresh_interval=2,
        encoder=FAST_ENCODER,
        filter=FilterConfig(order=2),
        seed=3,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_negative_gamma_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(gamma_rec=-0.1)

    def test_zero_interval_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(hr_refresh_interval=0)

    def test_detach_s_is_an_explicit_bool(self):
        assert TrainConfig().detach_s is False
        with pytest.raises(ConfigError):
            TrainConfig(detach_s=None)


class TestTrainReportShape:
    def test_epoch_records_and_final(self):
        g = tiny_two_view()
        report = train(g, fast_config())
        assert len(report.epochs) == 4
        for rec in report.epochs:
            assert set(rec) == {"epoch", "l_rec", "l_kl", "l_total", "hr", "weights"}
            assert len(rec["hr"]) == 2
            assert all(0.0 <= h <= 1.0 for h in rec["hr"])
            assert sum(rec["weights"]) == pytest.approx(1.0, abs=1e-9)
        assert set(report.final) == {"nmi", "ari", "acc", "f1", "hr"}
        assert report.state is not None
        assert report.state.consensus.shape == (g.n_nodes, g.n_features)
        payload = report.to_dict()
        assert set(payload) == {"epochs", "final", "pretrain"}

    def test_zero_epochs_keeps_pretraining_and_metrics(self):
        g = tiny_two_view()
        report = train(g, fast_config(epochs=0))
        assert report.epochs == []
        assert len(report.pretrain) == 2
        assert len(report.pretrain[0]["l_rec"]) == FAST_ENCODER.epochs
        assert report.final["acc"] is not None

    def test_unlabeled_graph_null_metrics(self):
        from gfclust import MultiViewGraph

        g = tiny_two_view()
        unlabeled = MultiViewGraph(
            features=g.features, adjacencies=g.adjacencies, n_clusters=g.n_clusters
        )
        report = train(unlabeled, fast_config(epochs=1))
        assert report.final["nmi"] is None
        assert report.final["hr"] is not None

    def test_determinism_same_seed(self):
        g = tiny_two_view()
        first = train(g, fast_config()).to_dict()
        second = train(g, fast_config()).to_dict()
        assert first == second

    def test_bce_adjacency_loss_same_seed_identical(self):
        g = tiny_two_view()
        cfg = fast_config(encoder=replace(FAST_ENCODER, adjacency_loss="bce"))
        first = train(g, cfg).to_dict()
        assert first == train(g, cfg).to_dict()
        assert first != train(g, fast_config()).to_dict()
        assert all(np.isfinite(rec["l_total"]) for rec in first["epochs"])

    def test_different_seeds_differ(self):
        g = tiny_two_view()
        a = train(g, fast_config(seed=1)).to_dict()
        b = train(g, fast_config(seed=2)).to_dict()
        assert a != b


class TestHrDynamics:
    def test_ground_truth_pseudo_matches_true_report(self):
        g = tiny_two_view()
        assert update_hr(g, one_hot(g.labels, g.n_clusters)) == true_homophily_report(g)

    def test_easy_homophilous_instance_recovers_hr(self):
        g = tiny_two_view(seed=12, n=45, c=3, d=10, p_in=0.55, p_out=0.03)
        cfg = fast_config(
            epochs=6,
            encoder=EncoderConfig(latent_dim=5, hidden_dim=32, epochs=100),
        )
        report = train(g, cfg)
        truth = true_homophily_report(g)
        for est, ref in zip(report.final["hr"], truth):
            assert abs(est - ref) <= 0.1

    def test_bootstrap_hr_is_half_before_first_pseudo(self):
        g = tiny_two_view()
        pipeline = TrainingPipeline(g, fast_config(epochs=0))
        # after bootstrap the stored hr comes from the first pseudo-labels
        assert pipeline.hr == update_hr(g, one_hot(pipeline.pseudo, g.n_clusters))
        assert all(0.0 <= h <= 1.0 for h in pipeline.hr)

    def test_bootstrap_filters_with_the_configured_hr(self):
        g = tiny_two_view()
        consensus = [
            TrainingPipeline(g, fast_config(epochs=0, filter=FilterConfig(hr=hr)))._consensus
            for hr in (0.0, 1.0)
        ]
        assert np.abs(consensus[0] - consensus[1]).max() > 1e-3


class TestGradientsEndToEnd:
    def test_epoch_loss_matches_central_differences(self):
        g = tiny_two_view(seed=8, n=20, c=2, d=4, p_in=0.5, p_out=0.1)
        cfg = TrainConfig(
            epochs=1,
            encoder=EncoderConfig(latent_dim=3, hidden_dim=5, epochs=4),
            filter=FilterConfig(order=2),
            gamma_rec=1.0,
            gamma_kl=0.1,
            detach_s=False,
            seed=5,
        )
        pipeline = TrainingPipeline(g, cfg)
        params = pipeline.parameters()
        zero_grads(params)
        fwd = pipeline.epoch_forward()
        fwd.loss.backward()
        frozen = fwd.targets

        rng = np.random.default_rng(0)
        h = 1e-5
        worst = 0.0
        for _ in range(10):
            p = params[int(rng.integers(len(params)))]
            idx = tuple(rng.integers(s) for s in p.data.shape)
            grad = p.grad[idx] if p.grad is not None else 0.0
            orig = p.data[idx]
            p.data[idx] = orig + h
            up = float(pipeline.epoch_forward(targets=frozen).loss.data)
            p.data[idx] = orig - h
            down = float(pipeline.epoch_forward(targets=frozen).loss.data)
            p.data[idx] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - grad) / max(abs(fd), 1e-6))
        assert worst < 1e-3

    def test_detach_s_blocks_kl_gradient(self):
        g = tiny_two_view(seed=8, n=18, c=2, d=4)
        cfg = TrainConfig(
            epochs=1,
            encoder=EncoderConfig(latent_dim=3, hidden_dim=5, epochs=3),
            gamma_rec=0.0,
            gamma_kl=1.0,
            detach_s=True,
            seed=5,
        )
        pipeline = TrainingPipeline(g, cfg)
        params = pipeline.parameters()
        zero_grads(params)
        fwd = pipeline.epoch_forward()
        fwd.loss.backward()
        # with the kernel detached and no reconstruction term, nothing upstream
        # of the filter output carries gradient
        assert all(p.grad is None or np.allclose(p.grad, 0.0) for p in params)


    def test_default_keeps_kernel_gradients(self):
        g = tiny_two_view(seed=8, n=18, c=2, d=4)
        cfg = TrainConfig(
            epochs=1,
            encoder=EncoderConfig(latent_dim=3, hidden_dim=5, epochs=3),
            gamma_rec=0.0,
            gamma_kl=1.0,
            seed=5,
        )
        pipeline = TrainingPipeline(g, cfg)
        assert pipeline.detach_s is False
        params = pipeline.parameters()
        zero_grads(params)
        pipeline.epoch_forward().loss.backward()
        # the KL term reaches the encoders only through the kernel
        assert any(p.grad is not None and not np.allclose(p.grad, 0.0) for p in params)


class TestDivergence:
    def test_nonfinite_loss_raises_with_last_epoch(self):
        g = tiny_two_view(n=15, c=3)
        bad = tiny_two_view(n=15, c=3)
        bad.features[:] = 1e200
        cfg = fast_config(epochs=2, encoder=EncoderConfig(
            latent_dim=2, hidden_dim=3, epochs=0, activation="linear"
        ))
        with pytest.raises(DivergenceError) as err:
            train(bad, cfg)
        # the bootstrap clustering fails; the partial report keeps pretraining
        assert err.value.report.to_dict() == {
            "epochs": [],
            "final": None,
            "pretrain": [{"view": 0, "l_rec": []}, {"view": 1, "l_rec": []}],
        }

    def test_divergence_in_pretraining_keeps_the_views_done(self, monkeypatch):
        g = tiny_two_view()
        done = train(g, fast_config(epochs=0)).pretrain
        real, calls = training.pretrain_view, []

        def second_view_diverges(*args):
            calls.append(args)
            if len(calls) == 2:
                raise DivergenceError("autoencoder loss diverged at epoch 0")
            return real(*args)

        monkeypatch.setattr(training, "pretrain_view", second_view_diverges)
        with pytest.raises(DivergenceError, match="epoch 0") as err:
            train(g, fast_config())
        assert err.value.report.to_dict() == {"epochs": [], "final": None, "pretrain": done[:1]}

    def test_partial_report_keeps_the_epochs_so_far(self):
        g = tiny_two_view()
        # one Adam step of this size sends the parameters past the float range
        cfg = fast_config(learning_rate=1e100)
        with pytest.raises(DivergenceError, match="epoch 1") as err:
            train(g, cfg)
        assert err.value.last_epoch == 0
        partial = err.value.report.to_dict()
        assert partial["final"] is None
        assert [rec["epoch"] for rec in partial["epochs"]] == [0]
        assert np.isfinite(partial["epochs"][0]["l_total"])
        assert partial["pretrain"] == train(g, fast_config(epochs=0)).pretrain

    def test_divergence_in_the_final_clustering_names_the_last_epoch(self):
        # epoch 0 stays finite; the final forward pass meets the overflowing
        # kernel, after the one recorded epoch
        g = tiny_two_view()
        with pytest.raises(DivergenceError, match="after epoch 0") as err:
            train(g, fast_config(epochs=1, learning_rate=1e100))
        assert err.value.last_epoch == 0
        assert [rec["epoch"] for rec in err.value.report.to_dict()["epochs"]] == [0]


def traced(fn):
    """``fn()`` under tracemalloc: its result, the memory it leaves allocated
    and its peak, both above the memory in use when it started, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - start, peak - start


def taped_tensors(root):
    """Every Tensor reachable from ``root`` that still has a tape behind it."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, np.ndarray)
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor) and obj._parents:
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestOneTapeAlive:
    """The joint epochs keep one lean tape: none from an earlier epoch, the
    bootstrap or a refresh outlives its step (AC1, n=1200, two views)."""

    N = 1200

    @pytest.fixture(scope="class")
    def graph(self):
        spec = SyntheticSpec(n_nodes=self.N, n_clusters=4, n_views=2, n_features=32,
                             mean_separation=6.0, p_in=0.1, p_out=0.005, noise_scale=1.0, seed=0)
        return generate_synthetic(spec)

    def pipeline(self, graph, epochs=3):
        cfg = TrainConfig(
            epochs=epochs,
            encoder=EncoderConfig(latent_dim=16, hidden_dim=64, epochs=1),
            filter=FilterConfig(order=2),
            seed=0,
        )
        return TrainingPipeline(graph, cfg)

    def test_fit_peak_stays_under_three_and_a_half_nn(self, graph):
        pipeline = self.pipeline(graph)
        _, _, peak = traced(pipeline.fit)
        assert peak / (8.0 * self.N**2) < 3.5

    def test_one_forward_leaves_a_tape_under_two_nn(self, graph):
        pipeline = self.pipeline(graph)
        fwd, left, _ = traced(pipeline.epoch_forward)
        assert fwd.loss._parents
        assert left / (8.0 * self.N**2) < 2.0

    def test_no_tape_survives_the_bootstrap_a_refresh_or_fit(self, graph):
        pipeline = self.pipeline(graph, epochs=1)
        assert taped_tensors(pipeline) == []
        pipeline.refresh()
        assert taped_tensors(pipeline) == []
        pipeline.fit()
        assert taped_tensors(pipeline) == []
