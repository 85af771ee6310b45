"""Fused functional operations for the autograd engine.

These composite operations (softmax, layer normalization, GELU, embedding
lookup, dropout) get hand-written backward rules rather than being composed
from :class:`~repro.nn.tensor.Tensor` primitives; this keeps the graphs built
for Transformer encoders small and fast, which matters on CPU.

Each op's forward arithmetic is stated once, in a raw-ndarray kernel
(``softmax_``, ``layer_norm_``, ``gelu_``, ``relu_``) with optional
``out=``/``scratch=`` buffers. The autograd op computes its forward by
calling the kernel with fresh buffers, in and out of ``no_grad`` alike
(:meth:`Tensor._make <repro.nn.tensor.Tensor._make>` records no graph
node when grad mode is off), and its backward recomputes from the input
whatever intermediates it needs. The compiled replays
(:mod:`repro.nn.compile`) call the *same* kernels in place in the buffers
a replay allocates, so the autograd, eager no-grad and compiled forwards
are bitwise identical by construction. ``scratch`` must never alias ``x``
or ``out``; ``out`` may alias ``x`` (every kernel reads ``x`` before, or
in the same ufunc call as, the write).
"""

from __future__ import annotations

import numpy as np

from . import tensor as _tensor
from .tensor import Tensor

__all__ = [
    "softmax",
    "softmax_",
    "log_softmax",
    "layer_norm",
    "layer_norm_",
    "gelu",
    "gelu_",
    "relu_",
    "embedding_lookup",
    "dropout",
    "additive_attention_mask",
    "column_pooling_matrix",
    "stable_sigmoid",
]


def softmax_(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """In-place-capable softmax kernel on a raw ndarray.

    Shift by max, exp, normalize. ``out=x`` is the fully in-place form
    used by compiled replays to reuse the attention-score buffer.
    """
    shifted = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    out_data = softmax_(x.data, axis=axis)

    def backward(grad: np.ndarray) -> None:
        # d softmax = s * (grad - sum(grad * s))
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - inner), own=True)

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    out_data = x.data - x.data.max(axis=axis, keepdims=True)
    out_data -= np.log(np.exp(out_data).sum(axis=axis, keepdims=True))

    def backward(grad: np.ndarray) -> None:
        soft = np.exp(out_data)
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True), own=True)

    return Tensor._make(out_data, (x,), backward)


def layer_norm_(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    eps: float = 1e-5,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """In-place-capable layer-norm kernel on a raw ndarray.

    The variance squares with ``np.square`` (what ``x**2`` dispatches
    to). ``scratch`` (same shape as ``x``) holds the squared deviations;
    it must not alias ``x``/``out``.
    """
    mean = x.mean(axis=-1, keepdims=True)
    centered = np.subtract(x, mean, out=out)
    squared = np.square(centered, out=scratch)
    var = squared.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    centered *= inv_std
    centered *= weight
    centered += bias
    return centered


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine transform."""
    out_data = layer_norm_(x.data, weight.data, bias.data, eps=eps)

    def backward(grad: np.ndarray) -> None:
        centered = x.data - x.data.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(np.square(centered).mean(axis=-1, keepdims=True) + eps)
        normalized = centered * inv_std
        if weight.requires_grad:
            weight._accumulate((grad * normalized).reshape(-1, x.data.shape[-1]).sum(axis=0), own=True)
        if bias.requires_grad:
            bias._accumulate(grad.reshape(-1, x.data.shape[-1]).sum(axis=0), own=True)
        if x.requires_grad:
            n = x.data.shape[-1]
            grad_norm = grad * weight.data
            grad_var = (grad_norm * centered).sum(axis=-1, keepdims=True) * (-0.5) * inv_std**3
            grad_mean = (-grad_norm * inv_std).sum(axis=-1, keepdims=True) + grad_var * (
                -2.0 * centered.mean(axis=-1, keepdims=True)
            )
            x._accumulate(grad_norm * inv_std + grad_var * 2.0 * centered / n + grad_mean / n, own=True)

    return Tensor._make(out_data, (x, weight, bias), backward)


_GELU_COEFF = np.sqrt(2.0 / np.pi).astype(np.float32)


def gelu_(
    x: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """In-place-capable tanh-GELU kernel on a raw ndarray.

    The cubic is ``square(x) * x`` — NOT ``np.power(x, 3)``, whose
    generic pow loop is ~70x slower than two multiplies and rounds the
    last bit differently. ``scratch`` holds the cubic polynomial and must
    not alias ``x``/``out``; ``out=x`` is safe (``x`` is last read in the
    ``0.5 * x`` multiply that writes ``out``).
    """
    cubed = np.square(x, out=scratch)
    cubed *= x
    cubed *= 0.044715
    cubed += x
    cubed *= _GELU_COEFF
    np.tanh(cubed, out=cubed)
    cubed += 1.0
    half_x = np.multiply(0.5, x, out=out)
    half_x *= cubed
    return half_x


def relu_(
    x: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """In-place-capable ReLU kernel mirroring :meth:`Tensor.relu`.

    The autograd path computes ``x * (x > 0)`` — a mask *multiply*, not
    ``np.maximum`` (which differs on ``-0.0``) — so the kernel does too.
    ``scratch`` is the boolean mask buffer; it must not alias ``x``/``out``.
    """
    mask = np.greater(x, 0, out=scratch)
    return np.multiply(x, mask, out=out)


def gelu(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit, tanh approximation (as in BERT)."""
    out_data = gelu_(x.data)

    def backward(grad: np.ndarray) -> None:
        tanh_inner = np.tanh(_GELU_COEFF * (x.data + 0.044715 * (np.square(x.data) * x.data)))
        sech2 = 1.0 - tanh_inner**2
        d_inner = _GELU_COEFF * (1.0 + 3 * 0.044715 * x.data**2)
        x._accumulate(grad * (0.5 * (1.0 + tanh_inner) + 0.5 * x.data * sech2 * d_inner), own=True)

    return Tensor._make(out_data, (x,), backward)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` by integer ``indices``.

    Backward scatters gradients back into the embedding matrix with
    ``np.add.at`` so repeated indices accumulate correctly.
    """
    indices = np.asarray(indices)
    out_data = weight.data[indices]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(weight.data)
        np.add.at(full, indices.reshape(-1), grad.reshape(-1, weight.data.shape[-1]))
        weight._accumulate(full, own=True)

    return Tensor._make(out_data, (weight,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: active only in training mode."""
    if not training or p <= 0.0 or not _tensor.is_grad_enabled():
        return x
    keep = 1.0 - p
    mask = (rng.random(x.data.shape) < keep).astype(x.data.dtype) / keep
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask, own=True)

    return Tensor._make(out_data, (x,), backward)


def additive_attention_mask(key_padding: np.ndarray) -> np.ndarray:
    """Build an additive attention mask from a boolean padding matrix.

    Parameters
    ----------
    key_padding:
        Boolean array of shape ``(batch, seq)`` where ``True`` marks *real*
        tokens and ``False`` marks padding.

    Returns
    -------
    numpy.ndarray
        Float array of shape ``(batch, 1, 1, seq)`` with ``0`` for real
        tokens and a large negative value for padding, ready to be added to
        raw attention scores before softmax. A forward builds it once per
        tower and every encoder layer reads it.
    """
    mask = np.where(key_padding, 0.0, -1e9).astype(np.float32)
    return mask[:, None, None, :]


def column_pooling_matrix(
    column_ids: np.ndarray, padding_mask: np.ndarray, num_columns: int
) -> np.ndarray:
    """Build the ``(B, C, T)`` mean-pooling matrix over column spans.

    Row ``(b, c)`` holds ``1/k`` at the ``k`` token positions belonging to
    column ``c`` (1-based ids in ``column_ids``), zero elsewhere. Columns
    with no tokens (e.g. content never fetched) get an all-zero row.
    """
    targets = np.arange(1, num_columns + 1)[None, :, None]
    member = (column_ids[:, None, :] == targets) & padding_mask[:, None, :]
    member = member.astype(np.float32)
    counts = member.sum(axis=-1, keepdims=True)
    return member / np.maximum(counts, 1.0)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable elementwise sigmoid on a plain ndarray.

    The naive ``1/(1+exp(-x))`` overflows ``exp`` for large negative
    logits (``exp(709.)`` is already ``inf`` in float64, and float32
    saturates near 88). The two-branch formulation evaluates ``exp`` only
    on non-positive arguments, so it never overflows:

    * ``x >= 0``: ``1 / (1 + exp(-x))``
    * ``x <  0``: ``exp(x) / (1 + exp(x))``
    """
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    positive = x >= 0
    negative = ~positive
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[negative])
    out[negative] = exp_x / (1.0 + exp_x)
    return out
