"""Adam: hand-computed single-step oracle, a two-step scalar trace, the
per-parameter reference (adam_oracle.py) that the arena update must equal
bit for bit, and the clipping helper."""

import numpy as np
import pytest

from casetag.errors import InputError, NumericError
from casetag.nn import Adam, Tensor, clip_global_norm
from casetag.nn.optim import BLOCK

from adam_oracle import ReferenceAdam


def adam_trace_ref(theta0, grads, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Scalar reference: replays the update rule with plain floats."""
    theta, m, v = theta0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (v_hat ** 0.5 + eps)
        out.append(theta)
    return out


def test_zero_gradient_leaves_parameter_unchanged():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p])
    p.grad = np.zeros_like(p.data)
    opt.step()
    assert np.all(p.data == [1.0, -2.0])
    assert np.all(opt.m[0] == 0.0) and np.all(opt.v[0] == 0.0)


def test_single_step_matches_bias_corrected_formula():
    p = Tensor(np.full(4, 10.0), requires_grad=True)
    opt = Adam([p], lr=0.001)
    p.grad = np.ones(4)
    opt.step()
    # m_hat = 1, v_hat = 1 after bias correction: update = -lr / (1 + eps)
    expected = 10.0 - 0.001 * 1.0 / (1.0 + 1e-8)
    assert np.allclose(p.data, expected, atol=0, rtol=0)
    assert p.grad is None  # grads cleared by the step


def test_two_steps_match_scalar_reference_trace():
    p = Tensor(np.array([0.5]), requires_grad=True)
    opt = Adam([p], lr=0.01)
    trace = []
    for g in (0.3, 0.3):
        p.grad = np.array([g])
        opt.step()
        trace.append(float(p.data[0]))
    want = adam_trace_ref(0.5, [0.3, 0.3], lr=0.01)
    assert np.allclose(trace, want, atol=1e-12, rtol=0)


def test_step_without_any_grads_raises():
    p = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([p])
    with pytest.raises(InputError):
        opt.step()


def test_params_finite_after_steps():
    rng = np.random.default_rng(0)
    p = Tensor(rng.normal(size=8), requires_grad=True)
    opt = Adam([p], lr=0.05)
    for _ in range(50):
        p.grad = rng.normal(size=8) * 100
        opt.step()
    assert np.all(np.isfinite(p.data))


def twin_params(shapes, rng):
    """Two lists of parameters holding equal values, one per optimizer."""
    datas = [rng.normal(size=shape) for shape in shapes]
    return ([Tensor(d.copy(), requires_grad=True) for d in datas],
            [Tensor(d.copy(), requires_grad=True) for d in datas])


def assert_same_state(arena_opt, ref_opt):
    for i, (p, q) in enumerate(zip(arena_opt.params, ref_opt.params)):
        assert np.array_equal(p.data, q.data), ("data", i)
        assert np.array_equal(arena_opt.m[i], ref_opt.m[i]), ("m", i)
        assert np.array_equal(arena_opt.v[i], ref_opt.v[i]), ("v", i)


def test_arena_matches_per_parameter_reference_bit_for_bit():
    """Shapes (1,), 2-D and larger than a block but not a multiple of it;
    parameters 2, 4 and 6 (the last) have no gradient on some steps, so the
    runs of updated parameters split around them; one step writes into
    p.data in place, as restore_params does, and the next step must see it."""
    rng = np.random.default_rng(3)
    big = (3, BLOCK // 2 + 7)
    shapes = [(1,), (5, 7), (4,), big, (2, 3), (BLOCK + 11,), (1,)]
    params, ref_params = twin_params(shapes, rng)
    opt, ref = Adam(params, lr=0.01), ReferenceAdam(ref_params, lr=0.01)
    for step in range(45):
        for i, (p, q) in enumerate(zip(params, ref_params)):
            if i in (2, 4) and step % 3 != 0 or i == 6 and step % 2:
                continue
            g = rng.normal(size=p.shape) * rng.choice([1e-3, 1.0, 30.0])
            p.grad, q.grad = g.copy(), g.copy()
        if step == 20:
            fresh = rng.normal(size=big)
            params[3].data[...] = fresh
            ref_params[3].data[...] = fresh
        opt.step()
        ref.step()
        assert all(p.grad is None for p in params)
        assert_same_state(opt, ref)


@pytest.mark.parametrize("make", ["overflow", "inf_grad"])
def test_non_finite_update_raises_like_reference(make):
    rng = np.random.default_rng(5)
    params, ref_params = twin_params([(3,), (BLOCK + 5,)], rng)
    lr = 1e308 if make == "overflow" else 0.01
    for ps in (params, ref_params):
        ps[1].data[...] = -1e308
        for p in ps:
            p.grad = np.ones(p.shape)
        if make == "inf_grad":
            ps[1].grad[BLOCK + 2] = np.inf
    for opt in (Adam(params, lr=lr), ReferenceAdam(ref_params, lr=lr)):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            opt.step()


def test_same_parameter_twice_is_rejected():
    p = Tensor(np.ones(2), requires_grad=True)
    q = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(InputError, match="more than once"):
        Adam([p, q, p])


def test_clip_global_norm():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    a.grad = np.full(3, 3.0)
    b.grad = np.full(4, 4.0)
    norm = clip_global_norm([a, b], max_norm=5.0)
    assert norm == pytest.approx(np.sqrt(3 * 9 + 4 * 16))
    clipped = np.sqrt(np.sum(a.grad ** 2) + np.sum(b.grad ** 2))
    assert clipped == pytest.approx(5.0)
    # below the threshold nothing changes
    a.grad = np.array([0.1, 0.0, 0.0])
    b.grad = np.zeros(4)
    clip_global_norm([a, b], max_norm=5.0)
    assert a.grad[0] == pytest.approx(0.1)
