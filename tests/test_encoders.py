import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from gfclust import (
    EncoderConfig,
    SyntheticSpec,
    encode,
    generate_synthetic,
    gradient,
    reconstruction_loss,
    train_autoencoders,
)
from gfclust.autograd import Tensor, zero_grads
from gfclust.encoders import (
    AutoEncoderParams,
    adjacency_mse_t,
    decode,
    encode_t,
    init_autoencoder,
    pretrain_view,
    reconstruction_loss_t,
    train_autoencoder,
)
from gfclust.errors import ConfigError, DivergenceError

from oracles import oracle_adjacency_mse_t

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
        out = encode(params, RNG.normal(size=(5, 4)))
        assert np.array_equal(out, np.zeros((5, 2)))

    def test_identity_square_linear_passthrough(self):
        x = RNG.normal(size=(6, 3))
        assert np.allclose(encode(identity_ae(3), x), x)

    def test_matches_independent_matrix_product_oracle(self):
        rng = np.random.default_rng(0)
        params = init_autoencoder(5, 2, 4, rng, activation="tanh")
        x = rng.normal(size=(7, 5))
        (w1, b1), (w2, b2) = params.encoder_layers
        expected = matmul_oracle(np.tanh(matmul_oracle(x, w1.data) + b1.data), w2.data) + b2.data
        assert np.abs(encode(params, x) - expected).max() < 1e-10

    def test_dimension_mismatch(self):
        params = init_autoencoder(5, 2, 4, RNG)
        with pytest.raises(ValueError):
            encode(params, np.zeros((3, 4)))

    def test_zero_input_equals_bias_only_forward(self):
        params = init_autoencoder(4, 2, 6, np.random.default_rng(2))
        for _, b in params.encoder_layers:
            b.data[:] = RNG.normal(size=b.data.shape)
        zero_out = encode(params, np.zeros((3, 4)))
        (w1, b1), (w2, b2) = params.encoder_layers
        bias_only = np.tanh(b1.data) @ w2.data + b2.data
        assert np.allclose(zero_out, np.tile(bias_only, (3, 1)))


class TestReconstructionLoss:
    def test_perfect_autoencoder_is_zero(self):
        x = RNG.normal(size=(5, 3))
        a = (RNG.random((5, 5)) < 0.4).astype(float)
        params = identity_ae(3), identity_ae(5)
        assert reconstruction_loss(params[0], params[1], x, a) == 0.0

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
        assert reconstruction_loss(zero_x, zero_a, x, a) == pytest.approx((x**2).mean())

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

        assert reconstruction_loss(zero_ae(), zero_ae(), x, a) == pytest.approx(
            reconstruction_loss(zero_ae(), zero_ae(), shuffled, a)
        )


class TestGradient:
    def test_constant_loss_zero_gradients(self):
        # zero-weight decoder on zero input: loss identically 0 around the point
        params = AutoEncoderParams(
            encoder_layers=[layer(RNG.normal(size=(3, 2))), layer(RNG.normal(size=(2, 2)))],
            decoder_layers=[layer(np.zeros((2, 2))), layer(np.zeros((2, 3)))],
            activation="linear",
        )
        grads = gradient(params, np.zeros((4, 3)))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)

    def test_scalar_linear_ae_matches_hand_derivative(self):
        w = 0.7
        x = np.array([[1.3]])
        params = AutoEncoderParams(
            encoder_layers=[layer([[w]])],
            decoder_layers=[layer([[w]])],
            activation="linear",
        )
        grads = gradient(params, x)
        # x_hat = w^2 x, loss = (w^2 x - x)^2, dL/dw = 2 (w^2 x - x) * 2 w x
        expected = 2 * (w * w * 1.3 - 1.3) * (2 * w * 1.3)
        total = grads[0][0, 0] + grads[2][0, 0]  # same w appears in both stacks
        assert total == pytest.approx(expected, rel=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        params = init_autoencoder(4, 2, 3, rng, activation="tanh")  # < 200 parameters
        x = rng.normal(size=(6, 4))
        grads = gradient(params, x)
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
        params = init_autoencoder(3, 2, 3, RNG)
        params.encoder_layers[0][0].data[0, 0] = np.nan
        with pytest.raises(DivergenceError):
            gradient(params, np.ones((2, 3)))


def reconstruction_loss_value(params, x):
    from gfclust.encoders import reconstruction_loss_t

    return float(reconstruction_loss_t(params, x).data)


class TestTrainAutoencoders:
    def test_rank_one_data_latent_one_reaches_tiny_loss(self):
        rng = np.random.default_rng(1)
        x = np.outer(rng.normal(size=12), rng.normal(size=6))
        cfg = EncoderConfig(
            latent_dim=1, hidden_dim=4, activation="linear", epochs=1500,
            learning_rate=2e-2, seed=4,
        )
        params_x, _, pair = train_autoencoders(x, np.zeros((12, 12)), cfg)
        final = reconstruction_loss_value(params_x, x)
        assert final < 1e-3
        assert pair.z_x.shape == (12, 1)

    def test_zero_epochs_returns_initial_params(self):
        x = RNG.normal(size=(8, 5))
        a = np.zeros((8, 8))
        cfg = EncoderConfig(latent_dim=2, hidden_dim=4, epochs=0, seed=9)
        params_x, params_a, pair = train_autoencoders(x, a, cfg)
        rng_x = np.random.default_rng(np.random.SeedSequence(9).spawn(2)[0])
        fresh = init_autoencoder(5, 2, 4, rng_x)
        assert np.array_equal(params_x.encoder_layers[0][0].data, fresh.encoder_layers[0][0].data)
        assert np.array_equal(pair.z_x, encode(params_x, x))

    def test_same_seed_bit_identical(self):
        x = RNG.normal(size=(10, 4))
        a = (RNG.random((10, 10)) < 0.3).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        cfg = EncoderConfig(latent_dim=3, hidden_dim=6, epochs=25, seed=11)
        first = train_autoencoders(x, a, cfg)
        second = train_autoencoders(x, a, cfg)
        for p1, p2 in zip(first[0].parameters(), second[0].parameters()):
            assert np.array_equal(p1.data, p2.data)
        assert np.array_equal(first[2].z_a, second[2].z_a)

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
        params, lambda: adjacency_mse_t(params, encode_t(params, csr), csr)
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
        for g_csr, g_dense in zip(gradient(params, sparse.csr_array(a)), gradient(params, a)):
            assert np.allclose(g_csr, g_dense, rtol=1e-10, atol=1e-14)

    def test_pretraining_forms_no_dense_decode(self):
        # an AC2 graph as in the benchmark's heterophilous workload; the dense
        # decode peaked at 9 n x n arrays here, the factored loss at about 1.6
        spec = SyntheticSpec(
            n_nodes=1200, n_clusters=4, n_views=1, n_features=32, mean_separation=6.0,
            p_in=0.005, p_out=0.1, noise_scale=0.5, mean_layout="paired",
            pair_separation=0.15, seed=0,
        )
        g = generate_synthetic(spec)
        cfg = EncoderConfig(latent_dim=16, hidden_dim=64, epochs=3, seed=0)
        n = g.n_nodes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            pretrain_view(g.features, g.adjacencies[0], cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n * n
