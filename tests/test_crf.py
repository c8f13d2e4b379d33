"""CRF against exhaustive enumeration, analytic micro-cases, and shift
properties; the fused crf_nll node against the tape oracle, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casetag.crf import Crf, crf_nll, viterbi_decode
from casetag.errors import InputError, NumericError
from casetag.nn import Tensor, gradient_check, no_grad

from crf_oracles import (
    brute_force_best,
    brute_force_partition,
    gold_path_score,
    log_partition,
    logsumexp,
    path_score,
    tape_nll,
)


def make_crf(T, rng=None, zero=False):
    crf = Crf(T, rng if rng is not None else np.random.default_rng(0))
    if zero:
        crf.trans.data[:] = 0.0
    return crf


def random_instance(rng, L=None, T=None):
    L = L if L is not None else int(rng.integers(1, 7))
    T = T if T is not None else int(rng.integers(1, 6))
    crf = make_crf(T)
    crf.trans.data[:] = rng.normal(size=(T, T))
    crf.start.data[:] = rng.normal(size=T)
    crf.end.data[:] = rng.normal(size=T)
    em = Tensor(rng.normal(size=(L, T)))
    return em, crf


def test_log_partition_single_token_analytic():
    crf = make_crf(2, zero=True)
    a, b = 0.7, -1.2
    em = Tensor(np.array([[a, b]]))
    assert log_partition(em, crf).item() == pytest.approx(np.log(np.exp(a) + np.exp(b)), abs=1e-12)


def test_log_partition_all_zero_counts_paths():
    crf = make_crf(2, zero=True)
    em = Tensor(np.zeros((2, 2)))
    assert log_partition(em, crf).item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_log_partition_empty_raises():
    crf = make_crf(2)
    with pytest.raises(InputError):
        log_partition(Tensor(np.zeros((0, 2))), crf)


def test_nonfinite_emissions_rejected():
    crf = make_crf(2)
    with pytest.raises(NumericError):
        log_partition(Tensor(np.array([[np.inf, 0.0]])), crf)


def test_oracle_suite_100_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        em, crf = random_instance(rng)
        lz = log_partition(em, crf).item()
        assert lz == pytest.approx(brute_force_partition(em, crf), abs=1e-8)
        viterbi = viterbi_decode(em, crf)
        best_score, _ = brute_force_best(em, crf)
        assert path_score(em, viterbi, crf) == pytest.approx(best_score, abs=1e-9)
        gold = rng.integers(0, crf.num_tags, size=em.shape[0])
        assert crf_nll(em, gold, crf).item() >= 0.0
        assert lz >= path_score(em, gold, crf) - 1e-9


def test_nll_degenerate_tagset_is_exactly_zero():
    crf = make_crf(1)
    em = Tensor(np.random.default_rng(1).normal(size=(5, 1)))
    assert crf_nll(em, [0] * 5, crf).item() == 0.0


def test_nll_single_token_analytic():
    crf = make_crf(2, zero=True)
    a, b = 0.4, 1.1
    em = Tensor(np.array([[a, b]]))
    want = np.log(np.exp(a) + np.exp(b)) - a
    assert crf_nll(em, [0], crf).item() == pytest.approx(want, abs=1e-12)


def test_nll_rejects_out_of_range_tags():
    crf = make_crf(2)
    em = Tensor(np.zeros((2, 2)))
    with pytest.raises(InputError):
        crf_nll(em, [0, 5], crf)


def test_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    crf = make_crf(3)
    crf.trans.data[:] = rng.normal(size=(3, 3))
    em = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    gold = np.array([0, 2, 1, 1])
    params = crf.named_params() + [("emissions", em)]
    report = gradient_check(lambda: crf_nll(em, gold, crf), params)
    assert report.max_error <= 1e-5


def test_viterbi_zero_transitions_is_per_token_argmax():
    crf = make_crf(3, zero=True)
    em = np.array([[0.1, 2.0, -1.0], [3.0, 0.0, 0.5], [0.0, 0.0, 4.0]])
    assert viterbi_decode(Tensor(em), crf) == [1, 0, 2]


def test_viterbi_all_zero_ties_break_low():
    crf = make_crf(3, zero=True)
    em = Tensor(np.zeros((4, 3)))
    assert viterbi_decode(em, crf) == [0, 0, 0, 0]


def test_brute_force_guards_size():
    crf = make_crf(5)
    with pytest.raises(InputError):
        brute_force_partition(Tensor(np.zeros((10, 5))), crf)


def test_brute_force_enumeration_count():
    crf = make_crf(3, zero=True)
    em = Tensor(np.zeros((2, 3)))
    # all path scores are 0, so exp-sum counts the paths
    assert brute_force_partition(em, crf) == pytest.approx(np.log(3 ** 2))
    em1 = Tensor(np.array([[0.3, -0.2, 0.9]]))
    score, path = brute_force_best(em1, crf)
    assert path == [2] and score == pytest.approx(0.9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-3, 3), st.integers(1, 4), st.integers(1, 4))
def test_row_shift_moves_partition_not_viterbi(seed, k, L, T):
    rng = np.random.default_rng(seed)
    em, crf = random_instance(rng, L=L, T=T)
    row = int(rng.integers(L))
    base_lz = log_partition(em, crf).item()
    base_path = viterbi_decode(em, crf)
    shifted = em.data.copy()
    shifted[row] += k
    shifted_t = Tensor(shifted)
    assert log_partition(shifted_t, crf).item() == pytest.approx(base_lz + k, abs=1e-8)
    assert viterbi_decode(shifted_t, crf) == base_path


def test_gold_path_score_matches_pure_numpy():
    rng = np.random.default_rng(77)
    em, crf = random_instance(rng, L=5, T=4)
    gold = [3, 1, 0, 2, 2]
    assert gold_path_score(em, gold, crf).item() == pytest.approx(
        path_score(em, gold, crf), abs=1e-10)


def test_logsumexp_grads_and_value():
    a = Tensor(np.random.default_rng(123).normal(size=(3, 4)), requires_grad=True)
    assert gradient_check(lambda: logsumexp(a), [("a", a)]).max_error <= 1e-7
    assert gradient_check(lambda: logsumexp(a, axis=0).sum(), [("a", a)]).max_error <= 1e-7
    t = Tensor(np.array([1000.0, 1000.0]))
    assert np.isclose(logsumexp(t).item(), 1000.0 + np.log(2))


# -- the fused crf_nll node against the tape oracle ------------------------------------

def nll_and_grads(nll, em_data, gold, crf, em_grad=True):
    """The loss value and the gradients of emissions, trans, start and end
    after one backward of nll (crf_nll or the tape oracle)."""
    params = (crf.trans, crf.start, crf.end)
    for p in params:
        p.grad = None
    em = Tensor(em_data.copy(), requires_grad=em_grad)
    loss = nll(em, gold, crf)
    loss.backward()
    return loss.item(), [em.grad] + [p.grad for p in params]


def assert_same_as_tape(em_data, gold, crf, em_grad=True):
    fused_value, fused = nll_and_grads(crf_nll, em_data, gold, crf, em_grad)
    tape_value, tape = nll_and_grads(tape_nll, em_data, gold, crf, em_grad)
    assert fused_value == tape_value
    for name, a, b in zip(("emissions", "trans", "start", "end"), fused, tape):
        assert (a is None) == (b is None), name
        assert a is None or np.array_equal(a, b), name
    return fused_value, fused


@pytest.mark.parametrize("L", [1, 2, 40])
@pytest.mark.parametrize("T", [1, 2, 9])
def test_fused_nll_bit_identical_to_tape(L, T):
    rng = np.random.default_rng(100 * L + T)
    em, crf = random_instance(rng, L=L, T=T)
    gold = rng.integers(0, T, size=L)
    value, grads = assert_same_as_tape(em.data, gold, crf)
    assert value == pytest.approx(log_partition(em, crf).item()
                                  - gold_path_score(em, gold, crf).item(), abs=1e-12)
    # a single token reaches no transition, so trans gets no gradient
    assert (grads[1] is None) == (L == 1)


def test_fused_nll_gold_path_repeats_a_transition():
    rng = np.random.default_rng(8)
    em, crf = random_instance(rng, L=7, T=3)
    gold = [1, 2, 1, 2, 1, 2, 0]  # 1 -> 2 three times, 2 -> 1 twice
    _, (_, dtrans, _, _) = assert_same_as_tape(em.data, gold, crf)
    assert dtrans is not None


def test_fused_nll_single_tag_is_zero_with_zero_grads():
    rng = np.random.default_rng(9)
    em, crf = random_instance(rng, L=6, T=1)
    value, grads = assert_same_as_tape(em.data, [0] * 6, crf)
    assert value == 0.0
    assert all(not np.any(g) for g in grads)


def test_fused_nll_frozen_crf_and_constant_emissions_get_no_grad():
    rng = np.random.default_rng(11)
    em, crf = random_instance(rng, L=5, T=4)
    gold = rng.integers(0, 4, size=5)
    _, grads = assert_same_as_tape(em.data, gold, crf, em_grad=False)
    assert grads[0] is None and all(g is not None for g in grads[1:])
    for p in crf.named_params():
        p[1].requires_grad = False
    _, grads = assert_same_as_tape(em.data, gold, crf)
    assert grads[0] is not None and all(g is None for g in grads[1:])


def test_fused_nll_under_no_grad_records_no_node():
    rng = np.random.default_rng(12)
    em, crf = random_instance(rng, L=5, T=4)
    em = Tensor(em.data, requires_grad=True)
    with no_grad():
        loss = crf_nll(em, [0, 1, 2, 3, 0], crf)
    assert not loss.requires_grad and loss._parents == () and loss._backward is None


def test_fused_nll_benchmark_call():
    """A list of tags, a plain Tensor, .item() under no_grad: the value
    matches a float64 numpy forward algorithm."""
    rng = np.random.default_rng(13)
    em_t, crf = random_instance(rng, L=9, T=9)
    em = em_t.data
    gold = [int(y) for y in rng.integers(0, 9, size=9)]
    with no_grad():
        nll = crf_nll(Tensor(em), gold, crf).item()
    assert isinstance(nll, float)
    trans, start, end = crf.trans.data, crf.start.data, crf.end.data
    alpha = start + em[0]
    for t in range(1, len(em)):
        alpha = np.logaddexp.reduce(alpha[:, None] + trans, axis=0) + em[t]
    log_z = float(np.logaddexp.reduce(alpha + end))
    assert nll == pytest.approx(log_z - path_score(em, gold, crf), abs=1e-9 * max(1.0, abs(log_z)))


@pytest.mark.parametrize("gold", [[0, 1], [0, 1, 2, 0], [0, -1, 2]])
def test_nll_rejects_length_mismatch_and_negative_tags(gold):
    crf = make_crf(3)
    with pytest.raises(InputError):
        crf_nll(Tensor(np.zeros((3, 3))), gold, crf)
