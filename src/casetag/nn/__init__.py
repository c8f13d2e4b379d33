from casetag.nn.tensor import (
    DTYPE,
    Tensor,
    concat,
    cross_entropy,
    log_softmax,
    no_grad,
    sigmoid_np,
    softmax_np,
    stack,
    zeros,
)
from casetag.nn.layers import BiLSTM, CharCNN, Embedding, Linear, LSTMCell, dropout, glorot, prefixed
from casetag.nn.optim import Adam, clip_global_norm
from casetag.nn.gradcheck import GradCheckReport, gradient_check
from casetag.nn.serialize import Container, restore_params, store_params

__all__ = [
    "DTYPE", "Tensor", "concat", "cross_entropy", "log_softmax", "no_grad",
    "sigmoid_np", "softmax_np", "stack", "zeros",
    "BiLSTM", "CharCNN", "Embedding", "Linear", "LSTMCell", "dropout", "glorot", "prefixed",
    "Adam", "clip_global_norm", "GradCheckReport", "gradient_check",
    "Container", "restore_params", "store_params",
]
