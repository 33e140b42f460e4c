"""Per-view feature/adjacency autoencoders and their reconstruction losses.

Each layer ``act(x @ W + b)`` is one autograd op that keeps only its output:
the bias and the activation are applied in place, and the backward takes the
activation's slope from that output. An autoencoder's input is a dense array
or a scipy sparse matrix, which the first layer multiplies directly. The
models are trained in ``training`` (``pretrain_view`` and the joint epochs).
The adjacency autoencoder takes its graph as CSR (``adjacency_input``) and is
scored by ``_factored_mse``: an exact expansion of ``mean((H W + 1 b^T - A)^2)``
over the decoder's last hidden layer ``H`` that costs O(n h^2 + |E| h) and
never forms the n x n decode. The feature autoencoder stays dense, since its
d columns make the decode the cheaper form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .autograd import Tensor, as_tensor
from .errors import ConfigError, check_integers, check_reals
from .filters import _row_blocks

__all__ = [
    "EncoderConfig",
    "AutoEncoderParams",
    "init_autoencoder",
    "encode_t",
    "adjacency_input",
    "adjacency_constants",
    "adjacency_loss_t",
]

_ACTIVATIONS = ("tanh", "relu", "linear")


@dataclass
class EncoderConfig:
    """Hyperparameters shared by the feature and adjacency autoencoders."""

    latent_dim: int = 64
    hidden_dim: int | None = None  # None -> max(256, 4 * latent_dim)
    activation: str = "tanh"
    epochs: int = 100
    learning_rate: float = 1e-3

    def __post_init__(self):
        check_integers(self, "latent_dim", low=1)
        if self.hidden_dim is not None:
            check_integers(self, "hidden_dim", low=1)
        check_integers(self, "epochs", low=0)
        check_reals(self, "learning_rate", low=0.0, open_low=True)
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"activation must be one of {_ACTIVATIONS}")

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


def _layer(x, w: Tensor, b: Tensor, activation: str) -> Tensor:
    """``act(x @ w + b)`` as one op that keeps only its output; ``x`` may be sparse.

    The bias and the activation are applied in place on the product, and the
    backward takes the activation's slope from the output: ``1 - out^2`` for
    tanh, built and scaled in one buffer, ``out > 0`` for relu. The values
    and gradients are those of the taped ``act((x @ w) + b)``.
    """
    if sparse.issparse(x):
        x_data, parents = x, (w, b)
    else:
        x = as_tensor(x)
        x_data, parents = x.data, (x, w, b)
    out = np.asarray(x_data @ w.data)
    out += b.data
    if activation == "tanh":
        np.tanh(out, out=out)
    elif activation == "relu":
        np.multiply(out, out > 0.0, out=out)

    def backward(grad):
        if activation == "tanh":
            slope = np.multiply(out, out)
            np.subtract(1.0, slope, out=slope)
            slope *= grad
            grad = slope
        elif activation == "relu":
            grad = grad * (out > 0.0)
        grads = (np.asarray(x_data.T @ grad), grad.sum(axis=0))
        if len(parents) == 2:
            return grads
        return (grad @ w.data.T if x.requires_grad else None, *grads)

    return Tensor._from_op(out, parents, backward)


def _hidden_forward(layers, activation: str, x) -> Tensor:
    """Every layer of ``layers`` with its activation; ``x`` may be sparse."""
    h = x
    for w, b in layers:
        h = _layer(h, w, b, activation)
    return h


def _stack_forward(layers, activation: str, x) -> Tensor:
    *hidden, (w, b) = layers
    return _layer(_hidden_forward(hidden, activation, x), w, b, "linear")


def encode_t(params: AutoEncoderParams, x) -> Tensor:
    """Encoder forward of a ``Tensor``, an array or a scipy sparse matrix."""
    if x.shape[1] != params.input_dim:
        raise ValueError(f"input has {x.shape[1]} columns, encoder expects {params.input_dim}")
    return _stack_forward(params.encoder_layers, params.activation, x)


def decode_t(params: AutoEncoderParams, z: Tensor) -> Tensor:
    return _stack_forward(params.decoder_layers, params.activation, z)


def mse_t(pred: Tensor, target: np.ndarray) -> Tensor:
    """``mean((pred - target)^2)`` as one op that keeps only ``pred - target``.

    The values and the gradient ``2 g diff / count`` are those of the taped
    ``((pred - target) * (pred - target)).mean()``, rounded alike.
    """
    diff = pred.data - np.asarray(target, dtype=np.float64)
    scale = 1.0 / diff.size

    def backward(g):
        grad = (g * scale) * diff
        return (grad + grad,)

    return Tensor._from_op((diff * diff).sum() * scale, (pred,), backward)


def adjacency_input(a):
    """The adjacency in the form its autoencoder takes: CSR without repeated
    entries, with no copy when ``a`` is such a CSR already."""
    a = sparse.csr_array(a, dtype=np.float64)
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    return a


def adjacency_constants(a) -> tuple:
    """``(A^T 1, |A|^2)``, the graph constants of ``_factored_mse``, read from
    the stored entries of ``a`` as ``adjacency_input`` gives it (a matvec on
    the transposed view and the data's dot with itself); on a 0/1 view both
    are exact integer sums. A view's constants are computed once and passed
    to each of its losses."""
    return np.asarray(a.sum(axis=0)).ravel(), float(a.data @ a.data)


def _factored_mse(h: Tensor, w: Tensor, b: Tensor, a, constants: tuple | None = None) -> Tensor:
    """``mse_t(H W + 1 b^T, a)`` for a sparse ``a`` of shape ``(n, m)``, with
    ``H`` the decoder's last hidden layer and ``(W, b)`` its output layer,
    without the dense decode:

        n m * mse = sum((H_c^T H_c) * (W W^T)) + n |mu W + b|^2
                    - 2 sum(H * (A W^T)) - 2 b^T (A^T 1) + |A|^2,

    with ``mu`` the column mean of ``H`` and ``H_c = H - 1 mu``, so no O(1)
    terms cancel (Chan, Golub & LeVeque 1983). One op of O(n h^2 + |E| h)
    time and O(n h) memory keeps ``A W^T`` and the Gram ``H_c^T H_c``, summed
    over row blocks. The graph constants ``A^T 1`` and ``|A|^2`` are
    ``constants``, or when it is None ``adjacency_constants(a)``; both are
    read from ``a``'s stored entries, so ``a`` holds no repeated entries, as
    ``adjacency_input`` makes it.
    With ``s = mu W + b`` and ``G = 2 g / (n m)``:
    ``dW = G (H_c^T H_c W + n mu^T s - H^T A)``, ``db = G (n s - A^T 1)``
    and ``dH = G (H_c W W^T + 1 s W^T - A W^T)``, to which centering adds
    no term, since the columns of ``H_c`` sum to zero.
    """
    hd, wd = h.data, w.data
    n, m = a.shape
    mu = hd.mean(axis=0)
    shift = mu @ wd + b.data
    blocks = (hd[rows] - mu for rows in _row_blocks(n))
    gram, ww = sum(c.T @ c for c in blocks), wd @ wd.T
    aw = np.asarray(a @ wd.T)
    col_sums, sq_norm = adjacency_constants(a) if constants is None else constants
    total = (gram * ww).sum() + n * (shift @ shift) - 2.0 * (hd * aw).sum()
    total += sq_norm - 2.0 * (b.data @ col_sums)
    scale = 1.0 / (n * m)

    def backward(g):
        dh = (hd - mu) @ ww
        dh += shift @ wd.T
        dh -= aw
        dw = gram @ wd
        dw += n * np.outer(mu, shift)
        dw -= np.asarray(a.T @ hd).T
        g = 2.0 * scale * g
        dh *= g
        dw *= g
        return dh, dw, g * (n * shift - col_sums)

    return Tensor._from_op(total * scale, (h, w, b), backward)


def adjacency_loss_t(
    params: AutoEncoderParams, z: Tensor, a, constants: tuple | None = None
) -> Tensor:
    """The adjacency autoencoder's reconstruction loss of the sparse ``a`` from
    its latent ``z``, the factored MSE (``_factored_mse``). It reads ``a``'s
    ``adjacency_constants`` from ``constants`` when it is given.

    Raises:
        ValueError: ``a`` is dense.
    """
    if not sparse.issparse(a):
        raise ValueError("the adjacency loss scores a sparse adjacency, as adjacency_input gives it")
    *hidden, (w, b) = params.decoder_layers
    return _factored_mse(_hidden_forward(hidden, params.activation, z), w, b, a, constants)
