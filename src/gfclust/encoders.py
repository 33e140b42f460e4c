"""Per-view feature/adjacency autoencoders with full-batch Adam training.

An autoencoder's input is a dense array or a scipy sparse matrix; a sparse
input enters the first layer through ``sparse_matmul``. The adjacency
autoencoder takes its graph as CSR (``adjacency_input``) and, under the
default MSE loss, is scored by ``adjacency_mse_t``: an exact expansion of
``mean((H W + 1 b^T - A)^2)`` over the decoder's last hidden layer ``H`` that
costs O(n h^2 + |E| h) and never forms the n x n decode. Binary
cross-entropy (``adjacency_loss="bce"``) is the dense path: a dense input, a
dense decode and a dense target. The feature autoencoder stays dense, since
its d columns make the decode the cheaper form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .autograd import Adam, Tensor, as_tensor, sparse_matmul, zero_grads
from .errors import ConfigError, DivergenceError

__all__ = [
    "EncoderConfig",
    "AutoEncoderParams",
    "EmbeddingPair",
    "init_autoencoder",
    "encode",
    "decode",
    "adjacency_input",
    "adjacency_mse_t",
    "reconstruction_loss",
    "gradient",
    "train_autoencoder",
    "pretrain_view",
    "train_autoencoders",
]

_ACTIVATIONS = ("tanh", "relu", "linear")


@dataclass
class EncoderConfig:
    """Hyperparameters shared by the feature and adjacency autoencoders."""

    latent_dim: int = 64
    hidden_dim: int | None = None  # None -> max(256, 4 * latent_dim)
    activation: str = "tanh"
    adjacency_loss: str = "mse"  # "mse" or "bce"
    epochs: int = 100
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be >= 1")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"activation must be one of {_ACTIVATIONS}")
        if self.adjacency_loss not in ("mse", "bce"):
            raise ConfigError("adjacency_loss must be 'mse' or 'bce'")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")

    def resolved_hidden_dim(self) -> int:
        return self.hidden_dim if self.hidden_dim is not None else max(256, 4 * self.latent_dim)


@dataclass
class AutoEncoderParams:
    """Weights of one encoder stack and its mirrored decoder.

    Each stack is a list of ``(W, b)`` tensor pairs applied as ``h @ W + b``
    with the configured activation between layers and a linear last layer.
    """

    encoder_layers: list
    decoder_layers: list
    activation: str = "tanh"

    @property
    def input_dim(self) -> int:
        return self.encoder_layers[0][0].shape[0]

    @property
    def latent_dim(self) -> int:
        return self.encoder_layers[-1][0].shape[1]

    def parameters(self) -> list:
        out = []
        for w, b in self.encoder_layers + self.decoder_layers:
            out.extend((w, b))
        return out


@dataclass(frozen=True)
class EmbeddingPair:
    """Encoded features ``z_x`` and encoded adjacency ``z_a`` of one view."""

    z_x: np.ndarray
    z_a: np.ndarray

    def __post_init__(self):
        z_x = np.asarray(self.z_x, dtype=np.float64)
        z_a = np.asarray(self.z_a, dtype=np.float64)
        if z_x.shape != z_a.shape or z_x.ndim != 2:
            raise ValueError(f"z_x {z_x.shape} and z_a {z_a.shape} must be equal 2-d shapes")
        if not (np.isfinite(z_x).all() and np.isfinite(z_a).all()):
            raise ValueError("embeddings contain non-finite entries")
        object.__setattr__(self, "z_x", z_x)
        object.__setattr__(self, "z_a", z_a)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_autoencoder(
    input_dim: int,
    latent_dim: int,
    hidden_dim: int,
    rng: np.random.Generator,
    activation: str = "tanh",
) -> AutoEncoderParams:
    """Seeded Glorot-uniform init of an input->hidden->latent stack and its mirror."""
    if latent_dim > input_dim:
        raise ConfigError(f"latent_dim {latent_dim} exceeds input_dim {input_dim}")
    if activation not in _ACTIVATIONS:
        raise ConfigError(f"activation must be one of {_ACTIVATIONS}")

    def layer(fan_in, fan_out):
        w = Tensor(_glorot(rng, fan_in, fan_out), requires_grad=True)
        b = Tensor(np.zeros(fan_out), requires_grad=True)
        return (w, b)

    encoder = [layer(input_dim, hidden_dim), layer(hidden_dim, latent_dim)]
    decoder = [layer(latent_dim, hidden_dim), layer(hidden_dim, input_dim)]
    return AutoEncoderParams(encoder_layers=encoder, decoder_layers=decoder, activation=activation)


def _activate(h: Tensor, activation: str) -> Tensor:
    if activation == "tanh":
        return h.tanh()
    if activation == "relu":
        return h.relu()
    return h


def _linear(h, w: Tensor, b: Tensor) -> Tensor:
    return (sparse_matmul(h, w) if sparse.issparse(h) else as_tensor(h) @ w) + b


def _hidden_forward(layers, activation: str, x) -> Tensor:
    """Every layer of ``layers`` with its activation; ``x`` may be sparse."""
    h = x
    for w, b in layers:
        h = _activate(_linear(h, w, b), activation)
    return h


def _stack_forward(layers, activation: str, x) -> Tensor:
    *hidden, (w, b) = layers
    return _linear(_hidden_forward(hidden, activation, x), w, b)


def encode_t(params: AutoEncoderParams, x) -> Tensor:
    """Encoder forward of a ``Tensor``, an array or a scipy sparse matrix."""
    if x.shape[1] != params.input_dim:
        raise ValueError(f"input has {x.shape[1]} columns, encoder expects {params.input_dim}")
    return _stack_forward(params.encoder_layers, params.activation, x)


def decode_t(params: AutoEncoderParams, z: Tensor) -> Tensor:
    return _stack_forward(params.decoder_layers, params.activation, z)


def encode(params: AutoEncoderParams, x) -> np.ndarray:
    """Deterministic forward pass through the encoder stack (``x`` dense or sparse)."""
    return encode_t(params, x if sparse.issparse(x) else Tensor(x)).data


def decode(params: AutoEncoderParams, z: np.ndarray) -> np.ndarray:
    return decode_t(params, Tensor(z)).data


def mse_t(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = pred - Tensor(target)
    return (diff * diff).mean()


def bce_t(logits: Tensor, target: np.ndarray) -> Tensor:
    q = 1.0 / (1.0 + (-logits.clip(-60.0, 60.0)).exp())
    t = Tensor(target)
    return -(t * q.maximum(1e-12).log() + (1.0 - t) * (1.0 - q).maximum(1e-12).log()).mean()


def adjacency_input(a, loss: str = "mse"):
    """The adjacency in the form its autoencoder takes.

    CSR for the factored MSE (no copy when ``a`` is CSR already); a dense
    float64 array for BCE, the dense path.
    """
    if loss == "bce":
        return a.toarray() if sparse.issparse(a) else np.asarray(a, dtype=np.float64)
    return sparse.csr_array(a, dtype=np.float64)


def adjacency_mse_t(params: AutoEncoderParams, z: Tensor, a) -> Tensor:
    """``mse_t(decode_t(params, z), a)`` for a sparse ``a``, without the dense decode.

    With ``H`` the decoder's last hidden layer and ``(W, b)`` its output
    layer, the decode is ``H W + 1 b^T`` and, for ``a`` of shape ``(n, m)``,

        n m * mse = sum((H^T H) * (W W^T)) + 2 (1^T H) W b + n |b|^2
                    - 2 sum(H * (A W^T)) - 2 b^T (A^T 1) + |A|^2,

    composed from taped ops: O(n h^2 + |E| h) time, O(n h) memory.
    """
    *hidden, (w, b) = params.decoder_layers
    h = _hidden_forward(hidden, params.activation, z)
    n, m = a.shape
    quadratic = ((h.T @ h) * (w @ w.T)).sum()
    cross = ((h.sum(axis=0, keepdims=True) @ w) * b).sum()
    edges = (h * sparse_matmul(a, w.T)).sum()
    col_sums = np.asarray(a.sum(axis=0)).ravel()
    a_sq = float(a.multiply(a).sum())
    total = quadratic + 2.0 * cross + float(n) * (b * b).sum() - 2.0 * edges
    total = total - 2.0 * (b * col_sums).sum() + a_sq
    return total * (1.0 / (n * m))


def reconstruction_loss_t(params: AutoEncoderParams, data, loss: str = "mse") -> Tensor:
    """Reconstruction loss of ``data``: factored when ``data`` is sparse (MSE
    only); BCE takes a dense ``data``."""
    z = encode_t(params, data)
    if sparse.issparse(data) and loss == "mse":
        return adjacency_mse_t(params, z, data)
    out = decode_t(params, z)
    if loss == "bce":
        return bce_t(out, data)
    return mse_t(out, data)


def reconstruction_loss(
    params_x: AutoEncoderParams,
    params_a: AutoEncoderParams,
    x: np.ndarray,
    a: np.ndarray,
    adjacency_loss: str = "mse",
) -> float:
    """Mean-entry reconstruction error of both autoencoders, summed.

    The feature term is always MSE; the adjacency term is MSE by default
    (factored, on CSR) or binary cross-entropy when ``adjacency_loss="bce"``.
    """
    value = (
        reconstruction_loss_t(params_x, x).data
        + reconstruction_loss_t(params_a, adjacency_input(a, adjacency_loss),
                                loss=adjacency_loss).data
    )
    value = float(value)
    if not np.isfinite(value):
        raise DivergenceError("reconstruction loss is non-finite")
    return value


def gradient(params: AutoEncoderParams, batch: np.ndarray, loss: str = "mse") -> list:
    """Reverse-mode gradients of the reconstruction loss on ``batch``.

    Returns one array per parameter, in ``params.parameters()`` order.
    """
    tensors = params.parameters()
    zero_grads(tensors)
    value = reconstruction_loss_t(params, batch, loss=loss)
    if not np.isfinite(value.data):
        raise DivergenceError("loss is non-finite at the current parameters")
    value.backward()
    grads = []
    for p in tensors:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise DivergenceError("gradient is non-finite")
        grads.append(np.array(g))
    return grads


def train_autoencoder(
    params: AutoEncoderParams,
    data: np.ndarray,
    epochs: int,
    learning_rate: float,
    loss: str = "mse",
) -> list:
    """Full-batch Adam on one autoencoder, in place. Returns the loss history."""
    opt = Adam(params.parameters(), lr=learning_rate)
    history = []
    for epoch in range(epochs):
        opt.zero_grad()
        value = reconstruction_loss_t(params, data, loss=loss)
        if not np.isfinite(value.data):
            raise DivergenceError(
                f"autoencoder loss diverged at epoch {epoch}", last_epoch=epoch - 1
            )
        value.backward()
        opt.step()
        history.append(float(value.data))
    return history


def pretrain_view(x: np.ndarray, a: np.ndarray, config: EncoderConfig):
    """Init and train one view's two autoencoders; returns the combined history.

    ``a`` is dense or sparse; it is trained on as ``adjacency_input`` gives
    it, so under MSE no n x n array is formed. The two stacks are
    independent, so the returned per-epoch history is the elementwise sum of
    their reconstruction losses.
    """
    x = np.asarray(x, dtype=np.float64)
    a = adjacency_input(a, config.adjacency_loss)
    hidden = config.resolved_hidden_dim()
    seed_x, seed_a = np.random.SeedSequence(config.seed).spawn(2)
    params_x = init_autoencoder(
        x.shape[1], config.latent_dim, hidden, np.random.default_rng(seed_x), config.activation
    )
    params_a = init_autoencoder(
        a.shape[1], config.latent_dim, hidden, np.random.default_rng(seed_a), config.activation
    )
    hist_x = train_autoencoder(params_x, x, config.epochs, config.learning_rate)
    hist_a = train_autoencoder(
        params_a, a, config.epochs, config.learning_rate, loss=config.adjacency_loss
    )
    return params_x, params_a, [hx + ha for hx, ha in zip(hist_x, hist_a)]


def train_autoencoders(x: np.ndarray, a: np.ndarray, config: EncoderConfig):
    """Train one view's feature and adjacency autoencoders from scratch.

    Returns ``(params_x, params_a, EmbeddingPair)``; with ``config.epochs == 0``
    the freshly initialized parameters and their embeddings come back as-is.
    """
    a = adjacency_input(a, config.adjacency_loss)
    params_x, params_a, _ = pretrain_view(x, a, config)
    pair = EmbeddingPair(z_x=encode(params_x, np.asarray(x, dtype=np.float64)),
                         z_a=encode(params_a, a))
    return params_x, params_a, pair
