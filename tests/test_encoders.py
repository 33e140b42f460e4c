import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from gfclust import EncoderConfig, SyntheticSpec, filters, generate_synthetic, graphs
from gfclust.autograd import Adam, Tensor, zero_grads
from gfclust.encoders import (
    AutoEncoderParams,
    _factored_mse,
    _layer,
    _train_step,
    adjacency_input,
    adjacency_loss_t,
    decode_t,
    encode_t,
    init_autoencoder,
    mse_t,
    pretrain_view,
    reconstruction_loss_t,
    train_autoencoder,
)
from gfclust.errors import ConfigError, DivergenceError

from helpers import reconstruction_grads, tiny_two_view
from oracles import (
    OracleTensor,
    oracle_adjacency_mse_t,
    oracle_bce_t,
    oracle_factored_mse,
    oracle_layer,
    oracle_mse_t,
)

RNG = np.random.default_rng(7)


def layer(w, b=None):
    w = np.asarray(w, dtype=float)
    b = np.zeros(w.shape[1]) if b is None else np.asarray(b, dtype=float)
    return (Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))


def identity_ae(d, activation="linear"):
    return AutoEncoderParams(
        encoder_layers=[layer(np.eye(d)), layer(np.eye(d))],
        decoder_layers=[layer(np.eye(d)), layer(np.eye(d))],
        activation=activation,
    )


def matmul_oracle(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestEncode:
    def test_zero_params_give_zero_output(self):
        params = AutoEncoderParams(
            encoder_layers=[layer(np.zeros((4, 3))), layer(np.zeros((3, 2)))],
            decoder_layers=[layer(np.zeros((2, 3))), layer(np.zeros((3, 4)))],
            activation="tanh",
        )
        out = encode_t(params, RNG.normal(size=(5, 4))).data
        assert np.array_equal(out, np.zeros((5, 2)))

    def test_identity_square_linear_passthrough(self):
        x = RNG.normal(size=(6, 3))
        assert np.allclose(encode_t(identity_ae(3), x).data, x)

    def test_matches_independent_matrix_product_oracle(self):
        rng = np.random.default_rng(0)
        params = init_autoencoder(5, 2, 4, rng, activation="tanh")
        x = rng.normal(size=(7, 5))
        (w1, b1), (w2, b2) = params.encoder_layers
        expected = matmul_oracle(np.tanh(matmul_oracle(x, w1.data) + b1.data), w2.data) + b2.data
        assert np.abs(encode_t(params, x).data - expected).max() < 1e-10

    def test_dimension_mismatch(self):
        params = init_autoencoder(5, 2, 4, RNG)
        with pytest.raises(ValueError):
            encode_t(params, np.zeros((3, 4)))

    def test_zero_input_equals_bias_only_forward(self):
        params = init_autoencoder(4, 2, 6, np.random.default_rng(2))
        for _, b in params.encoder_layers:
            b.data[:] = RNG.normal(size=b.data.shape)
        zero_out = encode_t(params, np.zeros((3, 4))).data
        (w1, b1), (w2, b2) = params.encoder_layers
        bias_only = np.tanh(b1.data) @ w2.data + b2.data
        assert np.allclose(zero_out, np.tile(bias_only, (3, 1)))

    def test_array_tensor_and_csr_inputs_agree(self):
        # the spectrum command encodes the features as an array and the
        # adjacency in the form its autoencoder trained on, CSR under MSE
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 6))
        x[x < 0.3] = 0.0
        params = with_random_biases(init_autoencoder(6, 2, 4, rng), rng)
        plain = encode_t(params, x).data
        assert np.array_equal(plain, encode_t(params, Tensor(x)).data)
        assert np.abs(encode_t(params, sparse.csr_array(x)).data - plain).max() <= 1e-12


def view_loss(params_x, params_a, x, a):
    """Both autoencoders' reconstruction losses, summed, on the inputs
    pretraining scores them on: the features, and the adjacency as CSR."""
    return float(reconstruction_loss_t(params_x, x).data
                 + reconstruction_loss_t(params_a, adjacency_input(a)).data)


class TestReconstructionLoss:
    def test_perfect_autoencoder_is_zero(self):
        x = RNG.normal(size=(5, 3))
        a = (RNG.random((5, 5)) < 0.4).astype(float)
        params = identity_ae(3), identity_ae(5)
        assert view_loss(params[0], params[1], x, a) == 0.0

    def test_zero_decoder_gives_mean_square(self):
        x = RNG.normal(size=(4, 3))
        zero_x = AutoEncoderParams(
            encoder_layers=[layer(np.zeros((3, 3))), layer(np.zeros((3, 3)))],
            decoder_layers=[layer(np.zeros((3, 3))), layer(np.zeros((3, 3)))],
            activation="linear",
        )
        zero_a = AutoEncoderParams(
            encoder_layers=[layer(np.zeros((4, 3))), layer(np.zeros((3, 3)))],
            decoder_layers=[layer(np.zeros((3, 3))), layer(np.zeros((3, 4)))],
            activation="linear",
        )
        a = np.zeros((4, 4))
        assert view_loss(zero_x, zero_a, x, a) == pytest.approx((x**2).mean())

    def test_permutation_invariance(self):
        x = RNG.normal(size=(6, 4))
        shuffled = RNG.permutation(x.ravel()).reshape(x.shape)
        a = np.zeros((4, 4))

        def zero_ae():
            return AutoEncoderParams(
                encoder_layers=[layer(np.zeros((4, 2))), layer(np.zeros((2, 2)))],
                decoder_layers=[layer(np.zeros((2, 2))), layer(np.zeros((2, 4)))],
                activation="linear",
            )

        assert view_loss(zero_ae(), zero_ae(), x, a) == pytest.approx(
            view_loss(zero_ae(), zero_ae(), shuffled, a)
        )


class TestGradient:
    def test_constant_loss_zero_gradients(self):
        # zero-weight decoder on zero input: loss identically 0 around the point
        params = AutoEncoderParams(
            encoder_layers=[layer(RNG.normal(size=(3, 2))), layer(RNG.normal(size=(2, 2)))],
            decoder_layers=[layer(np.zeros((2, 2))), layer(np.zeros((2, 3)))],
            activation="linear",
        )
        grads = reconstruction_grads(params, np.zeros((4, 3)))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)

    def test_scalar_linear_ae_matches_hand_derivative(self):
        w = 0.7
        x = np.array([[1.3]])
        params = AutoEncoderParams(
            encoder_layers=[layer([[w]])],
            decoder_layers=[layer([[w]])],
            activation="linear",
        )
        grads = reconstruction_grads(params, x)
        # x_hat = w^2 x, loss = (w^2 x - x)^2, dL/dw = 2 (w^2 x - x) * 2 w x
        expected = 2 * (w * w * 1.3 - 1.3) * (2 * w * 1.3)
        total = grads[0][0, 0] + grads[2][0, 0]  # same w appears in both stacks
        assert total == pytest.approx(expected, rel=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        params = init_autoencoder(4, 2, 3, rng, activation="tanh")  # < 200 parameters
        x = rng.normal(size=(6, 4))
        grads = reconstruction_grads(params, x)
        h = 1e-5
        worst = 0.0
        for p, g in zip(params.parameters(), grads):
            it = np.nditer(p.data, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p.data[idx]
                p.data[idx] = orig + h
                up = reconstruction_loss_value(params, x)
                p.data[idx] = orig - h
                down = reconstruction_loss_value(params, x)
                p.data[idx] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), 1e-8)
                worst = max(worst, abs(fd - g[idx]) / denom)
                it.iternext()
        assert worst < 1e-4

    def test_nonfinite_parameters_raise(self):
        # a NaN weight makes the first training step's loss NaN
        params = init_autoencoder(3, 2, 3, RNG)
        params.encoder_layers[0][0].data[0, 0] = np.nan
        with pytest.raises(DivergenceError, match="epoch 0"):
            train_autoencoder(params, np.ones((2, 3)), epochs=1, learning_rate=1e-3)


def reconstruction_loss_value(params, x):
    return float(reconstruction_loss_t(params, x).data)


class TestTrainAutoencoders:
    def test_rank_one_data_latent_one_reaches_tiny_loss(self):
        rng = np.random.default_rng(1)
        x = np.outer(rng.normal(size=12), rng.normal(size=6))
        cfg = EncoderConfig(
            latent_dim=1, hidden_dim=4, activation="linear", epochs=1500,
            learning_rate=2e-2,
        )
        params_x, _, _ = pretrain_view(x, np.zeros((12, 12)), cfg, seed=4)
        final = reconstruction_loss_value(params_x, x)
        assert final < 1e-3
        assert encode_t(params_x, x).data.shape == (12, 1)

    def test_zero_epochs_returns_initial_params(self):
        x = RNG.normal(size=(8, 5))
        a = np.zeros((8, 8))
        cfg = EncoderConfig(latent_dim=2, hidden_dim=4, epochs=0)
        params_x, params_a, history = pretrain_view(x, a, cfg, seed=9)
        rng_x = np.random.default_rng(np.random.SeedSequence(9).spawn(2)[0])
        fresh = init_autoencoder(5, 2, 4, rng_x)
        assert history == []
        assert np.array_equal(params_x.encoder_layers[0][0].data, fresh.encoder_layers[0][0].data)
        assert np.array_equal(encode_t(params_x, x).data, encode_t(fresh, x).data)

    def test_same_seed_bit_identical(self):
        x = RNG.normal(size=(10, 4))
        a = (RNG.random((10, 10)) < 0.3).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        cfg = EncoderConfig(latent_dim=3, hidden_dim=6, epochs=25)
        first = pretrain_view(x, a, cfg, seed=11)
        second = pretrain_view(x, a, cfg, seed=11)
        for p1, p2 in zip(first[0].parameters(), second[0].parameters()):
            assert np.array_equal(p1.data, p2.data)
        a_in = adjacency_input(a)
        assert np.array_equal(encode_t(first[1], a_in).data, encode_t(second[1], a_in).data)

    def test_pretraining_leaves_no_gradient_behind(self):
        x = RNG.normal(size=(10, 4))
        a = np.triu((RNG.random((10, 10)) < 0.3).astype(float), 1)
        cfg = EncoderConfig(latent_dim=3, hidden_dim=6, epochs=3)
        params_x, params_a, _ = pretrain_view(x, a + a.T, cfg, seed=2)
        assert all(p.grad is None for p in params_x.parameters() + params_a.parameters())

    def test_moving_average_loss_monotone(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 6))
        params = init_autoencoder(6, 3, 8, rng)
        history = np.array(train_autoencoder(params, x, epochs=80, learning_rate=1e-3))
        ma = np.convolve(history, np.ones(10) / 10.0, mode="valid")
        assert (np.diff(ma) <= 1e-6).all()

    def test_divergent_input_raises_with_epoch(self):
        params = init_autoencoder(2, 1, 2, np.random.default_rng(0), activation="linear")
        with pytest.raises(DivergenceError) as err:
            train_autoencoder(params, np.full((3, 2), 1e200), epochs=5, learning_rate=1e-3)
        assert err.value.last_epoch == -1

    def test_latent_larger_than_input_rejected(self):
        with pytest.raises(ConfigError):
            init_autoencoder(3, 5, 4, RNG)


def random_graph(rng, n_linked, n_isolated, p):
    """Symmetric 0/1 adjacency without self-loops; the last ``n_isolated`` nodes
    have no edges."""
    n = n_linked + n_isolated
    upper = np.triu(rng.random((n, n)) < p, k=1)
    upper[n_linked:] = False
    upper[:, n_linked:] = False
    return (upper | upper.T).astype(float)


def with_random_biases(params, rng):
    # Glorot init leaves the biases at 0, which would hide the bias terms
    for _, b in params.encoder_layers + params.decoder_layers:
        b.data[:] = rng.normal(size=b.data.shape)
    return params


def loss_and_grads(params, loss_fn):
    zero_grads(params.parameters())
    value = loss_fn()
    value.backward()
    return float(value.data), [
        np.zeros_like(p.data) if p.grad is None else np.array(p.grad) for p in params.parameters()
    ]


def assert_matches_dense_oracle(params, a, tol=1e-10):
    """Factored loss on CSR vs the dense decode, and the gradients of every
    encoder and decoder parameter, each to ``tol`` relative."""
    csr = sparse.csr_array(a)
    factored, f_grads = loss_and_grads(
        params, lambda: adjacency_loss_t(params, encode_t(params, csr), csr, "mse")
    )
    dense, d_grads = loss_and_grads(
        params, lambda: oracle_adjacency_mse_t(params, encode_t(params, Tensor(a)), a)
    )
    assert abs(factored - dense) <= tol * abs(dense)
    for f, d in zip(f_grads, d_grads):
        # relative to the array's own scale; an identically zero oracle gradient
        # (a dead relu layer) is measured against the loss instead
        scale = np.abs(d).max() if np.abs(d).max() > 0 else abs(dense)
        assert np.abs(f - d).max() <= tol * scale


def assert_bce_matches_taped_oracle(params, a, tol=1e-10):
    """Row-blocked BCE on CSR vs the taped dense decode and target, and the
    gradients of every encoder and decoder parameter, each to ``tol`` relative."""
    csr = sparse.csr_array(a)
    blocked, b_grads = loss_and_grads(
        params, lambda: adjacency_loss_t(params, encode_t(params, csr), csr, "bce")
    )
    dense, d_grads = loss_and_grads(
        params, lambda: oracle_bce_t(decode_t(params, encode_t(params, Tensor(a))), a)
    )
    assert abs(blocked - dense) <= tol * abs(dense)
    for f, d in zip(b_grads, d_grads):
        scale = np.abs(d).max() if np.abs(d).max() > 0 else abs(dense)
        assert np.abs(f - d).max() <= tol * scale
        # exact zeros, such as a bias whose column is clipped in every row, stay exact
        assert (f[d == 0] == 0).all()


class TestFactoredAdjacencyMse:
    @pytest.mark.parametrize("activation", ["tanh", "relu", "linear"])
    def test_loss_and_gradients_match_dense_oracle(self, activation):
        rng = np.random.default_rng(21)
        a = random_graph(rng, 27, 3, 0.2)
        params = with_random_biases(init_autoencoder(30, 4, 9, rng, activation), rng)
        assert_matches_dense_oracle(params, a)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([0.0, 0.15, 0.5, 1.0]),
        st.sampled_from(["tanh", "relu", "linear"]),
        st.integers(min_value=0, max_value=2**31),
    )
    # an edgeless n=1 graph on which the uncentered expansion cancelled O(1)
    # terms to a loss of 1.26e-7
    @example(0, 0, 0.0, "tanh", 363099854)
    def test_property_random_symmetric_graphs(self, n_linked, n_isolated, p, activation, seed):
        # p = 0 and n_linked <= 1 give the edgeless graph
        if n_linked + n_isolated == 0:
            n_isolated = 1
        rng = np.random.default_rng(seed)
        a = random_graph(rng, n_linked, n_isolated, p)
        n = a.shape[0]
        params = with_random_biases(init_autoencoder(n, 1, 3, rng, activation), rng)
        assert_matches_dense_oracle(params, a)

    def test_reconstruction_loss_takes_the_factored_path_on_csr(self):
        rng = np.random.default_rng(4)
        a = random_graph(rng, 12, 2, 0.3)
        params = with_random_biases(init_autoencoder(14, 2, 5, rng), rng)
        dense = float(reconstruction_loss_t(params, a).data)
        factored = float(reconstruction_loss_t(params, sparse.csr_array(a)).data)
        assert factored == pytest.approx(dense, rel=1e-12)
        for g_csr, g_dense in zip(reconstruction_grads(params, sparse.csr_array(a)),
                                  reconstruction_grads(params, a)):
            assert np.allclose(g_csr, g_dense, rtol=1e-10, atol=1e-14)

    def test_repeated_entries_are_summed_before_scoring(self):
        # |A|^2 is read from the stored entries, so adjacency_input sums the
        # repeats of a non-canonical CSR first, on a copy
        rng = np.random.default_rng(8)
        a = random_graph(rng, 10, 1, 0.4)
        rows, cols = np.nonzero(a)
        # each row lists its columns twice, at half weight
        order = np.argsort(np.r_[rows, rows], kind="stable")
        indptr = np.r_[0, np.cumsum(2 * np.bincount(rows, minlength=a.shape[0]))]
        repeated = sparse.csr_array(
            (np.full(2 * rows.size, 0.5), np.r_[cols, cols][order], indptr), shape=a.shape
        )
        assert not repeated.has_canonical_format
        before = repeated.indices.copy()
        target = adjacency_input(repeated)
        assert np.array_equal(repeated.indices, before)
        assert target.has_canonical_format and np.array_equal(target.toarray(), a)
        params = with_random_biases(init_autoencoder(a.shape[0], 2, 5, rng), rng)
        factored = adjacency_loss_t(params, encode_t(params, target), target, "mse")
        oracle = oracle_adjacency_mse_t(params, encode_t(params, Tensor(a)), a)
        assert float(factored.data) == pytest.approx(float(oracle.data), rel=1e-12)

    def test_pretraining_forms_no_dense_decode(self):
        # an AC2 graph as in the benchmark's heterophilous workload; the dense
        # decode peaked at 9 n x n arrays here, the factored loss at about 1.6
        spec = SyntheticSpec(
            n_nodes=1200, n_clusters=4, n_views=1, n_features=32, mean_separation=6.0,
            p_in=0.005, p_out=0.1, noise_scale=0.5, mean_layout="paired",
            pair_separation=0.15, seed=0,
        )
        g = generate_synthetic(spec)
        cfg = EncoderConfig(latent_dim=16, hidden_dim=64, epochs=3)
        n = g.n_nodes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            pretrain_view(g.features, g.adjacencies[0], cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n * n

    def test_an_adjacency_step_frees_its_tape_and_its_gradients(self):
        # an AC2 view as in the benchmark's heterophilous workload, h = 64;
        # holding its whole tape until it returned, the step peaked at 7.4
        # n x h and left its 2 n x h weight gradients behind; consuming the
        # tape, it peaks at 6.6 n x h and leaves none
        spec = SyntheticSpec(
            n_nodes=1200, n_clusters=4, n_views=1, n_features=32, mean_separation=6.0,
            p_in=0.005, p_out=0.1, noise_scale=0.5, mean_layout="paired",
            pair_separation=0.15, seed=0,
        )
        a = adjacency_input(generate_synthetic(spec).adjacencies[0])
        n, h = a.shape[0], 64
        params = init_autoencoder(n, 16, h, np.random.default_rng(0))
        opt = Adam(params.parameters(), lr=1e-3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _train_step(params, opt, a, "mse", 0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 7.0 * 8 * n * h
        assert opt.t == 1
        assert all(p.grad is None for p in params.parameters())


class TestLayerOp:
    """The one-op dense layer against the taped ``act((x @ w) + b)`` it replaces."""

    @pytest.mark.parametrize("activation", ["tanh", "relu", "linear"])
    @pytest.mark.parametrize("form", ["dense-constant", "dense-taped", "csr"])
    def test_output_and_every_gradient_equal_the_taped_composition(self, activation, form):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(13, 6))
        x[x < 0.4] = 0.0
        x[2] = 0.0  # with b[0] = 0 this row's first pre-activation is exactly 0
        w0, b0 = rng.normal(size=(6, 4)), rng.normal(size=4)
        b0[0] = 0.0
        upstream = OracleTensor(rng.normal(size=(13, 4)))
        results = []
        for fn in (_layer, oracle_layer):
            w, b = Tensor(w0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
            if form == "csr":
                x_in = sparse.csr_array(x)
            else:
                x_in = Tensor(x.copy(), requires_grad=form == "dense-taped")
            out = fn(x_in, w, b, activation)
            (upstream * out).sum().backward()
            x_grad = x_in.grad if form == "dense-taped" else None
            results.append((out.data, w.grad, b.grad, x_grad))
        for ours, ref in zip(*results):
            assert (ours is None and ref is None) or np.array_equal(ours, ref)

    def test_a_layer_keeps_only_its_output(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(500, 8)))
        w = Tensor(rng.normal(size=(8, 64)), requires_grad=True)
        b = Tensor(np.zeros(64), requires_grad=True)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = _layer(x, w, b, "relu")
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # the taped composition keeps the product, the pre-activation and a mask as well
        assert kept < 1.5 * out.data.nbytes


def ac1_view(n):
    """View 0 of the seed-0 AC1 graph of the benchmark's homophilous workload."""
    spec = SyntheticSpec(
        n_nodes=n, n_clusters=4, n_views=1, n_features=32, mean_separation=6.0,
        p_in=0.1, p_out=0.005, noise_scale=1.0, seed=0,
    )
    return generate_synthetic(spec)


class TestBlockedBce:
    """The row-blocked BCE against the taped dense composition it replaced."""

    # n = 30: one row per block, a ragged last block, one block of all rows,
    # and a block larger than n
    @pytest.mark.parametrize("block", [1, 7, 30, 128])
    @pytest.mark.parametrize("activation", ["tanh", "relu", "linear"])
    def test_loss_and_gradients_match_taped_oracle(self, monkeypatch, activation, block):
        monkeypatch.setattr(filters, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(31)
        a = random_graph(rng, 27, 3, 0.2)
        params = with_random_biases(init_autoencoder(30, 4, 9, rng, activation), rng)
        assert_bce_matches_taped_oracle(params, a)

    def test_clipped_and_floored_logits_match_taped_oracle(self, monkeypatch):
        monkeypatch.setattr(filters, "_BLOCK_ROWS", 7)
        rng = np.random.default_rng(32)
        a = random_graph(rng, 20, 2, 0.3)
        params = with_random_biases(init_autoencoder(22, 3, 6, rng, "tanh"), rng)
        # spread the output biases over +-90: some logits are clipped (|c| > 60),
        # more have a probability floored at 1e-12 (|c| > 27.6)
        params.decoder_layers[-1][1].data[:] = np.linspace(-90.0, 90.0, 22)
        logits = decode_t(params, encode_t(params, a)).data
        assert (logits > 60).any() and (logits < -60).any()
        assert ((np.abs(logits) > 27.7) & (np.abs(logits) < 60)).any()
        assert_bce_matches_taped_oracle(params, a)

    def test_dense_data_is_rejected(self):
        params = init_autoencoder(4, 2, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="sparse adjacency"):
            reconstruction_loss_t(params, np.eye(4), loss="bce")

    def test_adjacency_input_keeps_a_canonical_view(self):
        # the adjacency autoencoders and update_hr share the graph's CSR views
        for view in tiny_two_view().adjacencies:
            a = adjacency_input(view)
            assert np.shares_memory(a.data, view.data)
            assert np.shares_memory(a.indices, view.indices)

    def test_pretraining_runs_under_a_one_megabyte_budget(self, monkeypatch):
        # one dense 300 x 300 array is 0.72 MB
        monkeypatch.setattr(graphs, "_available_bytes", lambda: 10**6)
        g = ac1_view(300)
        cfg = EncoderConfig(latent_dim=4, hidden_dim=8, epochs=2, adjacency_loss="bce")
        *_, history = pretrain_view(g.features, g.adjacencies[0], cfg, seed=0)
        assert np.isfinite(history).all()

    def test_pretraining_forms_no_dense_decode(self):
        # the dense decode and target peaked at 21 n x n arrays here
        g = ac1_view(1200)
        cfg = EncoderConfig(latent_dim=16, hidden_dim=64, epochs=4, adjacency_loss="bce")
        n = g.n_nodes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            pretrain_view(g.features, g.adjacencies[0], cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n * n


class TestLossOps:
    """The one-op losses against the taped compositions they replace."""

    def run(self, fn, inputs, upstream):
        tensors = [Tensor(x.copy(), requires_grad=True) for x in inputs]
        out = fn(*tensors)
        (upstream * out).backward()
        return [out.data] + [t.grad for t in tensors]

    def test_mse_equals_the_taped_composition_exactly(self):
        rng = np.random.default_rng(2)
        pred, target = rng.normal(size=(17, 5)), rng.normal(size=(17, 5))
        ours = self.run(lambda p: mse_t(p, target), [pred], 3.7)
        ref = self.run(lambda p: oracle_mse_t(p, target), [pred], 3.7)
        assert all(np.array_equal(a, b) for a, b in zip(ours, ref))

    def test_factored_mse_matches_the_taped_composition(self):
        rng = np.random.default_rng(3)
        a = sparse.csr_array(random_graph(rng, 15, 2, 0.3))
        h, w, b = rng.normal(size=(17, 4)), rng.normal(size=(4, 17)), rng.normal(size=17)
        ours = self.run(lambda *t: _factored_mse(*t, a), [h, w, b], -1.3)
        ref = self.run(lambda *t: oracle_factored_mse(*t, a), [h, w, b], -1.3)
        for x, y in zip(ours, ref):
            assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()

    def test_each_keeps_one_operand_sized_array(self):
        rng = np.random.default_rng(4)
        pred = Tensor(rng.normal(size=(400, 32)), requires_grad=True)
        target = rng.normal(size=(400, 32))
        a = sparse.csr_array(random_graph(rng, 400, 0, 0.02))
        h = Tensor(rng.normal(size=(400, 64)), requires_grad=True)
        w = Tensor(rng.normal(size=(64, 400)), requires_grad=True)
        b = Tensor(rng.normal(size=400), requires_grad=True)
        for make, size in ((lambda: mse_t(pred, target), pred.data.nbytes),
                           (lambda: _factored_mse(h, w, b, a), h.data.nbytes)):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                out = make()
                kept = tracemalloc.get_traced_memory()[0] - start
            finally:
                tracemalloc.stop()
            # the taped compositions keep a second array of this size
            assert out.requires_grad and kept < 1.5 * size
