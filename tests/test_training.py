import json
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from gfclust import (
    EncoderConfig,
    FilterConfig,
    MultiViewGraph,
    SyntheticSpec,
    TrainConfig,
    filters,
    generate_synthetic,
    one_hot,
    train,
    training,
    true_homophily_report,
    update_hr,
)
from gfclust.autograd import Tensor, no_grad, zero_grads
from gfclust.errors import ConfigError, DivergenceError
from gfclust.training import TrainingPipeline

from helpers import reachable, taped_tensors, tiny_two_view

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

    @pytest.mark.parametrize("value", [1.5, True])
    @pytest.mark.parametrize("make, name", [
        (TrainConfig, "epochs"),
        (TrainConfig, "hr_refresh_interval"),
        (TrainConfig, "kmeans_restarts"),
        (TrainConfig, "seed"),
        (EncoderConfig, "latent_dim"),
        (EncoderConfig, "hidden_dim"),
        (EncoderConfig, "epochs"),
        (FilterConfig, "order"),
        *((lambda **kw: SyntheticSpec(**{"n_nodes": 8, "n_clusters": 2, "n_views": 1, **kw}),
           name) for name in ("n_nodes", "n_clusters", "n_views", "n_features", "seed")),
    ])
    def test_count_fields_refuse_non_integers(self, make, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            make(**{name: value})

    def test_count_fields_take_any_integral_type(self):
        cfg = TrainConfig(epochs=np.int64(3), seed=np.uint32(7),
                          encoder=EncoderConfig(hidden_dim=np.int32(8)))
        assert cfg.epochs == 3 and cfg.seed == 7 and cfg.encoder.hidden_dim == 8


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

    def test_the_final_forward_is_untaped(self):
        final, _, _ = TrainingPipeline(tiny_two_view(), fast_config(epochs=1)).fit()
        assert final.h_bar.data.shape == (24, 5)
        assert taped_tensors(final) == []

    def test_without_kl_only_the_reconstruction_terms_are_taped(self):
        pipeline = TrainingPipeline(tiny_two_view(), fast_config(gamma_kl=0.0))
        fwd = pipeline.epoch_forward()
        assert taped_tensors((fwd.h_views, fwd.h_bar)) == []
        rec_terms = [term for *rec, _ in fwd.branches for term in rec]
        assert len(rec_terms) == 4 and all(term._parents for term in rec_terms)


RAW = FilterConfig(matrix_source="raw_adjacency")


def counting(calls, fn):
    """``fn`` that appends its first argument to ``calls`` on every call."""
    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)
    return counted


def test_a_view_without_edges_is_refused_before_pretraining(monkeypatch):
    g = tiny_two_view()
    g = MultiViewGraph(g.features, [g.adjacencies[0], np.zeros((g.n_nodes, g.n_nodes))],
                       g.n_clusters, g.labels)
    pretrained = []
    monkeypatch.setattr(training, "pretrain_view", counting(pretrained, training.pretrain_view))
    with pytest.raises(ValueError, match="homophily ratio is undefined on view 1"):
        TrainingPipeline(g, fast_config())
    assert len(pretrained) == 0
    # pretraining alone, all that the spectrum needs, still runs on it
    models, _ = training.pretrain(g, fast_config())
    assert len(models) == 2 and len(pretrained) == 2


class TestRawAdjacencyBasis:
    def test_each_walk_matrix_is_built_once_and_dropped(self, monkeypatch):
        normalized = []
        monkeypatch.setattr(training, "random_walk_normalize",
                            counting(normalized, training.random_walk_normalize))
        g = tiny_two_view()
        pipeline = TrainingPipeline(g, fast_config(filter=RAW))
        assert [a is adj for a, adj in zip(normalized, g.adjacencies)] == [True, True]
        held = reachable(pipeline, sparse.issparse)
        assert held and all(any(a is adj for adj in g.adjacencies) for a in held)
        pipeline.fit()
        assert len(normalized) == 2

    def test_fit_filters_with_the_bases_and_runs_no_walk_product(self, monkeypatch):
        pipeline = TrainingPipeline(tiny_two_view(), fast_config(filter=RAW))
        kernels, built = [], []
        monkeypatch.setattr(training, "apply_filter_t",
                            counting(kernels, training.apply_filter_t))
        monkeypatch.setattr(filters, "krylov_basis", counting(built, filters.krylov_basis))
        monkeypatch.setattr(training, "krylov_basis", counting(built, training.krylov_basis))
        pipeline.fit()
        assert built == []
        assert len(kernels) == 2 * (fast_config().epochs + 1)
        assert all(any(k is basis for basis in pipeline.raw_bases) for k in kernels)

    @pytest.mark.parametrize("filter_cfg", [RAW, FilterConfig()], ids=["raw", "joint"])
    def test_only_the_kernel_path_encodes_in_an_untaped_forward(self, monkeypatch, filter_cfg):
        pipeline = TrainingPipeline(tiny_two_view(), fast_config(filter=filter_cfg))
        taped = pipeline.epoch_forward()
        encoded = []
        monkeypatch.setattr(training, "encode_t", counting(encoded, training.encode_t))
        with no_grad():
            untaped = pipeline.epoch_forward(with_losses=False)
        assert len(encoded) == (0 if filter_cfg is RAW else 4)
        assert np.array_equal(untaped.h_bar.data, taped.h_bar.data)


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
        real = training.pretrain_view

        def second_view_diverges(*args):
            if args[1] is g.adjacencies[1]:
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


needs_two_cpus = pytest.mark.skipif(
    training._usable_cpus() < 2, reason="views run concurrently only with two usable CPUs"
)


def three_view_graph():
    g = tiny_two_view()
    extra = tiny_two_view(seed=1).adjacencies[0]
    return MultiViewGraph(features=g.features, adjacencies=[*g.adjacencies, extra],
                          n_clusters=g.n_clusters, labels=g.labels)


class TestConcurrentViews:
    def test_more_views_than_cpus_give_the_one_cpu_report(self, monkeypatch):
        g = three_view_graph()
        concurrent = json.dumps(train(g, fast_config()).to_dict())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert training._usable_cpus() == 1
        assert json.dumps(train(g, fast_config()).to_dict()) == concurrent

    @needs_two_cpus
    def test_two_views_are_in_flight_at_once(self, monkeypatch):
        g = tiny_two_view()
        expected = train(g, fast_config()).to_dict()
        barrier = threading.Barrier(2, timeout=10)

        def met(real):
            def both_views_arrive(*args):
                barrier.wait()
                return real(*args)
            return both_views_arrive

        monkeypatch.setattr(training, "pretrain_view", met(training.pretrain_view))
        monkeypatch.setattr(training, "apply_filter_t", met(training.apply_filter_t))
        assert train(g, fast_config()).to_dict() == expected

    @needs_two_cpus
    def test_workers_run_under_the_callers_errstate(self):
        caller = threading.current_thread()
        with np.errstate(over="raise"):
            seen = training._for_each_view(
                lambda view: (threading.current_thread(), np.geterr()["over"]), 2
            )
        assert seen[0][0] is caller and seen[1][0] is not caller
        assert [over for _, over in seen] == ["raise", "raise"]

    @needs_two_cpus
    def test_workers_run_under_the_callers_grad_mode(self):
        caller = threading.current_thread()
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            seen = training._for_each_view(lambda view: (threading.current_thread(), 2.0 * t), 2)
        assert seen[0][0] is caller and seen[1][0] is not caller
        assert [out.requires_grad or bool(out._parents) for _, out in seen] == [False, False]
        assert (2.0 * t)._parents

        def fails(view):
            raise RuntimeError(f"view {view} failed")

        with pytest.raises(RuntimeError, match="view 0 failed"), no_grad():
            training._for_each_view(fails, 2)
        assert (2.0 * t)._parents

    @needs_two_cpus
    def test_divergence_on_the_calling_thread_keeps_no_view(self, monkeypatch):
        g = tiny_two_view()
        real, caller = training.pretrain_view, threading.current_thread()
        started = threading.Event()

        def first_view_diverges(*args):
            if args[1] is g.adjacencies[0]:
                assert threading.current_thread() is caller
                assert started.wait(10)
                raise DivergenceError("autoencoder loss diverged at epoch 0")
            assert threading.current_thread() is not caller
            started.set()
            return real(*args)

        monkeypatch.setattr(training, "pretrain_view", first_view_diverges)
        with pytest.raises(DivergenceError, match="epoch 0") as err:
            train(g, fast_config())
        assert err.value.report.to_dict() == {"epochs": [], "final": None, "pretrain": []}

    @needs_two_cpus
    def test_kernel_divergence_in_a_worker_names_its_epoch(self, monkeypatch):
        g = tiny_two_view()
        real, caller, worker_calls = training.joint_aggregation_t, threading.current_thread(), []

        def overflows_in_the_worker(z_a, z_x):
            if threading.current_thread() is not caller:
                worker_calls.append(threading.current_thread().name)
                if len(worker_calls) == 3:  # the bootstrap, epoch 0, then epoch 1
                    z_a = Tensor(z_a.data * 1e300)
            return real(z_a, z_x)

        monkeypatch.setattr(training, "joint_aggregation_t", overflows_in_the_worker)
        with pytest.raises(DivergenceError, match="kernel became non-finite at epoch 1") as err:
            train(g, fast_config())
        assert err.value.last_epoch == 0
        assert [rec["epoch"] for rec in err.value.report.to_dict()["epochs"]] == [0]

    @needs_two_cpus
    def test_two_views_walk_their_backward_branches_at_once(self, monkeypatch):
        # n < 128, so each view's kernel backward forms one row block per step
        g = tiny_two_view()
        expected = train(g, fast_config()).to_dict()
        barrier = threading.Barrier(2, timeout=10)
        real = filters._gram_rows

        def both_branches_arrive(*args):
            barrier.wait()
            return real(*args)

        monkeypatch.setattr(filters, "_gram_rows", both_branches_arrive)
        assert train(g, fast_config()).to_dict() == expected

    @pytest.mark.parametrize("case", ["three-views", "default", "detach_s", "raw_adjacency",
                                      "no-kl"])
    def test_branched_step_gives_the_bits_of_the_whole_walk(self, case):
        g = three_view_graph() if case == "three-views" else tiny_two_view()
        cfg = {
            "detach_s": fast_config(detach_s=True),
            "raw_adjacency": fast_config(filter=FilterConfig(matrix_source="raw_adjacency")),
            "no-kl": fast_config(gamma_kl=0.0),
        }.get(case, fast_config())
        pipeline = TrainingPipeline(g, cfg)
        params = pipeline.parameters()
        stepped = []
        pipeline.optimizer.step = lambda: stepped.append([p.grad for p in params])
        pipeline._step(0)
        pipeline.optimizer.zero_grad()
        pipeline.epoch_forward().loss.backward()
        assert len(stepped) == 1
        for branched, p in zip(stepped[0], params):
            assert (branched is None) == (p.grad is None)
            if branched is not None:
                assert np.array_equal(branched, p.grad)
        assert any(grad is not None for grad in stepped[0])

    @pytest.mark.parametrize("case", ["default", "detach_s", "raw_adjacency"])
    def test_a_branched_backward_consumes_the_whole_forward(self, case):
        cfg = {
            "detach_s": fast_config(detach_s=True),
            "raw_adjacency": fast_config(filter=FilterConfig(matrix_source="raw_adjacency")),
        }.get(case, fast_config())
        pipeline = TrainingPipeline(tiny_two_view(), cfg)
        fwd = pipeline.epoch_forward()
        fwd.loss.backward(branches=fwd.branches, for_each=training._for_each_view)
        assert taped_tensors(fwd) == []
        with pytest.raises(ValueError, match="walked already"):
            fwd.loss.backward(branches=fwd.branches, for_each=training._for_each_view)

    @needs_two_cpus
    @pytest.mark.parametrize("failing", [(1,), (0, 1)], ids=["view-1", "views-0-and-1"])
    def test_a_failing_branch_is_raised_before_adam_steps(self, monkeypatch, failing):
        pipeline = TrainingPipeline(tiny_two_view(), fast_config())
        before = [p.data.copy() for p in pipeline.parameters()]
        real, caller = filters._gram_rows, threading.current_thread()
        view_one_failed = threading.Event()

        def fails(*args):
            view = 0 if threading.current_thread() is caller else 1
            if view not in failing:
                return real(*args)
            if view == 0:
                assert view_one_failed.wait(10)
            else:
                view_one_failed.set()
            raise RuntimeError(f"view {view} failed")

        monkeypatch.setattr(filters, "_gram_rows", fails)
        with pytest.raises(RuntimeError, match=f"view {failing[0]} failed"):
            pipeline._step(0)
        assert pipeline.optimizer.t == 0 and pipeline.epoch_records == []
        for p, data in zip(pipeline.parameters(), before):
            assert np.array_equal(p.data, data)


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

    def test_a_step_leaves_no_gradient_behind(self, graph):
        pipeline = self.pipeline(graph)
        pipeline._step(0)
        assert pipeline.optimizer.t == 1
        assert all(p.grad is None for p in pipeline.parameters())

    def test_no_tape_survives_the_bootstrap_a_refresh_or_fit(self, graph):
        pipeline = self.pipeline(graph, epochs=1)
        assert taped_tensors(pipeline) == []
        pipeline.refresh()
        assert taped_tensors(pipeline) == []
        pipeline.fit()
        assert taped_tensors(pipeline) == []
