"""The per-token tape char CNN: the reference that tests hold CharCNN's
sentence-wide node against, forward and backward.

Each token is its own (len, in_dim) matrix, zero-padded at both ends and
convolved with one tape node per operation; the encodings are stacked.
"""

from casetag.nn import CharCNN, Tensor, concat, zeros

from tape_oracles import max_over, stack, tanh


def token_cnn(cnn: CharCNN, chars: Tensor) -> Tensor:
    """(filters,) encoding of one token's (n, in_dim) character rows."""
    n = chars.shape[0]
    left = (cnn.width - 1) // 2
    right = cnn.width - 1 - left
    parts = []
    if left:
        parts.append(zeros((left, cnn.in_dim)))
    parts.append(chars)
    if right:
        parts.append(zeros((right, cnn.in_dim)))
    padded = concat(parts, axis=0) if len(parts) > 1 else chars
    windows = concat([padded[i:i + n] for i in range(cnn.width)], axis=1)  # (n, w*in_dim)
    acts = tanh(windows @ cnn.W.T + cnn.b)  # (n, filters)
    return max_over(acts, axis=0)


def per_token_cnn(cnn: CharCNN, chars: Tensor, spans) -> Tensor:
    """(L, filters): token_cnn over each (start, end) span of chars."""
    return stack([token_cnn(cnn, chars[start:end]) for start, end in spans], axis=0)
