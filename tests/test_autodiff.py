import numpy as np
import pytest

from tie import autodiff as ad
from tie.autodiff import Tape, Tensor

from fdcheck import central_diff, inner, max_rel_err, mean_weights


def test_matmul_identity():
    a = Tensor([[1.5, -2.0], [0.25, 4.0]])
    eye = Tensor(np.eye(2))
    out = ad.matmul(eye, a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0], [1.0]])
    out = ad.matmul(a, b)
    np.testing.assert_array_equal(out.data, [[2.0], [4.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ad.ShapeError) as err:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_matmul_grad_of_sum_is_ones_times_bt():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)))
    with Tape():
        loss = inner(ad.matmul(a, b), np.ones((3, 2)))
        ad.backward(loss)
    expected = np.ones((3, 2)) @ b.data.T
    np.testing.assert_allclose(a.grad, expected, rtol=1e-12)
    fd = central_diff(lambda: inner(ad.matmul(a, b), np.ones((3, 2))).item(), a.data)
    assert max_rel_err(fd, expected) < 1e-4


def test_softmax_rows_uniform_and_stability():
    out = ad.softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)
    big = ad.softmax_rows(Tensor([[1000.0, 0.0]]))
    assert np.isfinite(big.data).all()
    np.testing.assert_allclose(big.data, [[1.0, 0.0]], atol=1e-12)


def test_softmax_rows_sum_to_one_property():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m, n = rng.integers(1, 6, size=2)
        x = Tensor(rng.normal(scale=rng.uniform(0.1, 50.0), size=(m, n)))
        out = ad.softmax_rows(x)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(m), atol=1e-9)


def test_bce_analytic_values():
    loss = ad.bce_with_logits(Tensor(np.zeros((2, 2))), np.ones((2, 2)), mean_weights((2, 2)))
    assert abs(loss.item() - np.log(2.0)) < 1e-12

    t = np.array([[1.0, 0.0], [0.0, 1.0]])
    z = np.where(t == 1.0, 30.0, -30.0)
    sat = ad.bce_with_logits(Tensor(z), t, mean_weights((2, 2)))
    assert 0.0 <= sat.item() < 1e-9


def test_bce_matches_direct_formula():
    rng = np.random.default_rng(2)
    z = rng.normal(scale=3.0, size=(3, 3, 2))
    t = (rng.random((3, 3, 2)) < 0.4).astype(float)
    loss = ad.bce_with_logits(Tensor(z), t, mean_weights(z.shape))
    s = 1.0 / (1.0 + np.exp(-z))
    direct = -(t * np.log(s) + (1 - t) * np.log(1 - s)).mean()
    assert abs(loss.item() - direct) < 1e-10


def test_bce_nonnegative_property():
    rng = np.random.default_rng(12)
    for _ in range(100):
        z = rng.normal(scale=rng.uniform(0.1, 20.0), size=(3, 4))
        t = (rng.random((3, 4)) < 0.5).astype(float)
        assert ad.bce_with_logits(Tensor(z), t, mean_weights(z.shape)).item() >= 0.0


def test_bce_rejects_bad_targets():
    with pytest.raises(ValueError):
        ad.bce_with_logits(Tensor(np.zeros(3)), np.array([0.0, 0.5, 1.0]), mean_weights((3,)))
    with pytest.raises(ad.ShapeError):
        ad.bce_with_logits(Tensor(np.zeros((2, 2))), np.zeros((2, 3)), mean_weights((2, 2)))


def test_backward_square():
    x = Tensor(np.array(3.0), requires_grad=True)
    with Tape():
        y = inner(x, x)
        ad.backward(y)
    assert x.grad == pytest.approx(6.0)


def test_backward_constant_leaves_unused_leaf_zero():
    x = Tensor(np.array(5.0), requires_grad=True)
    c = Tensor(np.array(2.0))
    with Tape():
        ad.backward(c)
    assert x.grad == pytest.approx(0.0)


def test_backward_twice_errors():
    x = Tensor(np.array(2.0), requires_grad=True)
    with Tape():
        y = inner(x, x)
        ad.backward(y)
        with pytest.raises(ad.TapeError):
            ad.backward(y)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape():
        y = ad.add(x, x)
        with pytest.raises(ad.ShapeError):
            ad.backward(y)


def test_no_tape_means_no_tracking():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ad.add(x, x)
    assert not y.requires_grad and y._tape is None


def test_nonfinite_raises():
    with np.errstate(over="ignore"):
        with pytest.raises(ad.NonFiniteError):
            big = Tensor(np.full((2, 2), 1e308))
            ad.add(big, big)


def test_matmul_batch_axes_must_broadcast():
    with pytest.raises(ad.ShapeError) as err:
        ad.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
    assert "(2, 3, 4)" in str(err.value)


def test_matmul_broadcast_matches_per_matrix_products():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 2, 4))
    b = rng.normal(size=(4, 5))
    out = ad.matmul(Tensor(a), Tensor(b))
    for i in range(3):
        np.testing.assert_allclose(out.data[i], a[i] @ b, atol=1e-12)


def test_bce_weighted_is_weighted_sum_and_checks_shape():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(2, 3))
    t = (rng.random((2, 3)) < 0.5).astype(float)
    w = rng.random((2, 3))
    s = 1.0 / (1.0 + np.exp(-z))
    direct = -(w * (t * np.log(s) + (1 - t) * np.log(1 - s))).sum()
    assert ad.bce_with_logits(Tensor(z), t, w).item() == pytest.approx(direct, abs=1e-12)
    with pytest.raises(ad.ShapeError):
        ad.bce_with_logits(Tensor(z), t, np.ones((3, 2)))


def test_add_shapes_must_broadcast():
    with pytest.raises(ad.ShapeError) as err:
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)


def test_embedding_lookup_bounds():
    table = Tensor(np.arange(6.0).reshape(3, 2))
    with pytest.raises(ad.ShapeError):
        ad.embedding_lookup(table, [0, 3])


def test_dropout_zero_rate_is_identity():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x


def test_op_output_grad_is_lazy_and_keeps_strides():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)))
    with Tape():
        xt = ad.transpose(x)
        out = ad.matmul(xt, w)
        assert xt.grad is None and out.grad is None
        ad.backward(inner(out, np.ones(out.shape)))
    assert not xt.data.flags.c_contiguous
    assert xt.grad.strides == xt.data.strides
    np.testing.assert_array_equal(xt.grad, np.ones((5, 2)) @ w.data.T)


def test_branch_off_the_loss_path_is_skipped():
    x = Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    calls = []
    with Tape():
        side = ad._make(x.data * 3.0, "probe", (x,), calls.append)
        touched = ad.add(side, unused)   # consumes the leaf, but off the path too
        ad.backward(inner(x, x))
    assert side.grad is None and touched.grad is None
    assert calls == []
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)
    # a leaf that got no gradient still reads zeros
    np.testing.assert_array_equal(unused.grad, np.zeros(3))


def test_tensor_reached_twice_gets_exact_sum_in_its_own_buffer():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    w = rng.normal(size=(2, 3))
    with Tape():
        y = ad.scale(x, 0.7)
        z = ad.add(y, y)
        ad.backward(inner(z, w))
    np.testing.assert_array_equal(z.grad, w)   # not doubled in place by y's second add
    np.testing.assert_array_equal(y.grad, w + w)
    assert not np.shares_memory(y.grad, z.grad)
    np.testing.assert_array_equal(x.grad, (w + w) * 0.7)


def test_determinism():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4))
    a = ad.softmax_rows(ad.gelu(Tensor(x)))
    b = ad.softmax_rows(ad.gelu(Tensor(x)))
    assert np.array_equal(a.data, b.data)


# Finite-difference property suite: every differentiable op, randomized small
# shapes, weighted-sum loss so non-uniform output gradients are exercised.


def _op_cases(rng):
    m, k, n = rng.integers(2, 5, size=3)
    cases = []

    a = rng.normal(size=(m, k))
    b = rng.normal(size=(k, n))
    cases.append(("matmul", [a, b], lambda t: ad.matmul(t[0], t[1])))

    x = rng.normal(size=(m, n))
    y = rng.normal(size=(m, n))
    cases.append(("add", [x, y], lambda t: ad.add(t[0], t[1])))
    cases.append(("scale", [x], lambda t: ad.scale(t[0], 0.37)))

    # add broadcasts: a bias onto a batch, both operands over a pair grid,
    # and a size-1 leading axis
    bias = rng.normal(size=(k,))
    batch = rng.normal(size=(2, m, k))
    cases.append(("add_bias_broadcast", [batch, bias], lambda t: ad.add(t[0], t[1])))
    rows = rng.normal(size=(2, m, 1, k))
    cols = rng.normal(size=(2, 1, m, k))
    cases.append(("add_both_broadcast", [rows, cols], lambda t: ad.add(t[0], t[1])))
    lead = rng.normal(size=(1, m, k))
    cases.append(("add_size1_leading", [lead, batch], lambda t: ad.add(t[0], t[1])))

    batched = rng.normal(size=(2, m, k))
    cases.append(("matmul_batched_2d", [batched, b], lambda t: ad.matmul(t[0], t[1])))
    stacked = rng.normal(size=(2, k, n))
    cases.append(("matmul_batched_batched", [batched, stacked],
                  lambda t: ad.matmul(t[0], t[1])))
    left = rng.normal(size=(2, 1, m, k))
    right = rng.normal(size=(1, 3, k, n))
    cases.append(("matmul_broadcast_batch_axes", [left, right],
                  lambda t: ad.matmul(t[0], t[1])))
    cases.append(("matmul_2d_batched", [a, stacked], lambda t: ad.matmul(t[0], t[1])))

    table = rng.normal(size=(5, k))
    ids = rng.integers(0, 5, size=m)
    cases.append(("embedding_lookup", [table], lambda t: ad.embedding_lookup(t[0], ids)))
    ids_2d = rng.integers(0, 5, size=(2, m))
    cases.append(("embedding_lookup_nd", [table],
                  lambda t: ad.embedding_lookup(t[0], ids_2d)))
    # a table that is itself an op output gets its gradient buffer from the scatter
    cases.append(("embedding_lookup_of_op_output", [b],
                  lambda t: ad.embedding_lookup(ad.transpose(t[0]), ids % n)))

    g = rng.normal(size=(n,)) + 1.0
    bb = rng.normal(size=(n,))
    cases.append(("layer_norm", [x, g, bb], lambda t: ad.layer_norm(t[0], t[1], t[2])))

    cases.append(("gelu", [x], lambda t: ad.gelu(t[0])))
    cases.append(("transpose", [x], lambda t: ad.transpose(t[0])))

    cube = rng.normal(size=(m, n, k))
    cases.append(("transpose3", [cube], lambda t: ad.transpose(t[0], (1, 2, 0))))
    cases.append(("reshape", [cube], lambda t: ad.reshape(t[0], (m * n, k))))

    cases.append(("softmax_rows", [x], lambda t: ad.softmax_rows(t[0])))
    cases.append(("softmax_rows_nd", [cube], lambda t: ad.softmax_rows(t[0])))

    targ = (rng.random((m, n)) < 0.5).astype(float)
    cell_w = rng.random((m, n)) * (rng.random((m, n)) < 0.7)
    cases.append(("bce_weighted", [x], lambda t: ad.bce_with_logits(t[0], targ, cell_w)))
    return cases


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    trials = 0
    for _ in range(8):
        for name, arrays, build in _op_cases(rng):
            tensors = [Tensor(arr, requires_grad=True) for arr in arrays]
            out_probe = build(tensors)
            weights = rng.normal(size=out_probe.shape)

            with Tape():
                loss = inner(build(tensors), weights)
                ad.backward(loss)

            def value():
                return inner(build(tensors), weights).item()

            for tensor in tensors:
                fd = central_diff(value, tensor.data)
                err = max_rel_err(fd, tensor.grad)
                assert err < 1e-4, f"{name}: rel err {err:.2e}"
                tensor.zero_grad()
            trials += 1
    assert trials >= 100
