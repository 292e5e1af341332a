import math

import numpy as np
import pytest

from tie import autodiff as ad
from tie.autodiff import Tape, Tensor
from tie.codec import GoldMatrix
from tie.trainer import loss

from fdcheck import STEP, central_diff, inner, max_rel_err


def _eye(n):
    return Tensor(np.eye(n))


def test_attention_uniform_and_stability():
    # equal scores average the value rows; huge scores put all weight on one key
    v = Tensor([[[1.0, -2.0], [3.0, 0.5], [-4.0, 6.0]]])
    out = ad.attention(Tensor(np.zeros((1, 2, 2))), v, _eye(2), Tensor(np.zeros((2, 2))),
                       _eye(2), heads=2)
    np.testing.assert_allclose(out.data, np.repeat(v.data.mean(axis=1, keepdims=True), 2, 1),
                               atol=1e-12)
    big = ad.attention(Tensor([[[1000.0, 0.0]]]), Tensor(np.eye(2)[None]), _eye(2), _eye(2))
    assert np.isfinite(big.data).all()
    np.testing.assert_allclose(big.data, [[[1.0, 0.0]]], atol=1e-12)


def test_attention_rows_sum_to_one_property():
    # with identity values the output rows are the attention rows
    rng = np.random.default_rng(1)
    for _ in range(50):
        m, n = rng.integers(1, 6, size=2)
        x_q = Tensor(rng.normal(scale=rng.uniform(0.1, 50.0), size=(1, m, n)))
        wk = Tensor(rng.normal(scale=rng.uniform(0.1, 50.0), size=(n, n)))
        out = ad.attention(x_q, Tensor(np.eye(n)[None]), _eye(n), wk, _eye(n))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones((1, m)), atol=1e-9)


def _unfused_attention(x_q, x_kv, p, heads, mask, scale, keep, g, shared=False):
    """The attention branch as the chain of single ops it replaced, in plain
    numpy: a dense layer ``x @ w + b`` per projection, the attention steps,
    the output layer and the residual add, each gradient stored contiguously
    as a tape of single ops kept it. ``p`` maps "wq", "bq", ... and
    "residual" to arrays; without "wv" the keys are the values, without
    "wo" the output is not projected, and a missing bias or residual is
    left out. With ``shared`` ``x_q`` is ``x_kv``. Returns (output,
    {"x_q", "x_kv" and each name in ``p``: its gradient}) for upstream
    gradient ``g``, each input's gradient summed in the order of the old
    tape's reverse sweep: the residual's, then v's, k's and q's."""
    def dense(x, w, b):
        out = x @ p[w]
        if b in p:
            out += p[b]
        return out

    def dense_grads(x, w, b, g_out):
        grads[w] = x.reshape(-1, p[w].shape[0]).T @ g_out.reshape(-1, p[w].shape[1])
        if b in p:
            grads[b] = g_out.sum(axis=tuple(range(g_out.ndim - 1)))
        return g_out @ p[w].T

    grads = {}
    q, k = dense(x_q, "wq", "bq"), dense(x_kv, "wk", "bk")
    v = dense(x_kv, "wv", "bv") if "wv" in p else k
    size, n_q, d = q.shape
    n_k, dh = k.shape[1], d // heads
    qh = q.reshape(size, n_q, heads, dh).transpose(0, 2, 1, 3)
    k_t = k.reshape(size, n_k, heads, dh).transpose(0, 2, 3, 1)
    vh = v.reshape(size, n_k, heads, dh).transpose(0, 2, 1, 3)
    scores = (qh @ k_t) * scale
    if mask is not None:
        scores = scores + mask
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    att = e / e.sum(axis=-1, keepdims=True)
    att_d = att if keep is None else att * keep
    mixed = (att_d @ vh).transpose(0, 2, 1, 3).reshape(size, n_q, d)
    out = dense(mixed, "wo", "bo") if "wo" in p else mixed
    if "residual" in p:
        out = p["residual"] + out
        grads["residual"] = g.copy()

    g_mixed = dense_grads(mixed, "wo", "bo", g) if "wo" in p else g
    g_o = np.ascontiguousarray(g_mixed.reshape(size, n_q, heads, dh).transpose(0, 2, 1, 3))
    g_att = g_o @ np.swapaxes(vh, -1, -2)
    if keep is not None:
        g_att = g_att * keep
    g_s = (g_att - (g_att * att).sum(axis=-1, keepdims=True)) * att
    g_s = g_s * scale
    dq, dk, dv = (np.ascontiguousarray(a) for a in (
        (g_s @ np.swapaxes(k_t, -1, -2)).transpose(0, 2, 1, 3).reshape(size, n_q, d),
        (np.swapaxes(qh, -1, -2) @ g_s).transpose(0, 3, 1, 2).reshape(size, n_k, d),
        (np.swapaxes(att_d, -1, -2) @ g_o).transpose(0, 2, 1, 3).reshape(size, n_k, d)))
    if "wv" in p:
        grads["x_kv"] = dense_grads(x_kv, "wv", "bv", dv)
    else:
        dk += dv
    g_k = dense_grads(x_kv, "wk", "bk", dk)
    grads["x_kv"] = grads["x_kv"] + g_k if "x_kv" in grads else g_k
    g_q = dense_grads(x_q, "wq", "bq", dq)
    if shared:
        grads["x_kv"] += g_q
    else:
        grads["x_q"] = g_q
    return out, grads


def test_attention_matches_unfused_chain_bit_for_bit():
    rng = np.random.default_rng(8)
    size, n_q, n_k, d_in, d = 3, 5, 4, 6, 8
    # (heads, mask, dropout rate, the weights and biases given, whether x_q
    # is x_kv and a residual is added)
    every = ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")
    for heads, use_mask, rate, names, shared in (
            (2, True, 0.0, every, False), (4, False, 0.25, ("wq", "wk", "wv", "wo"), False),
            (1, True, 0.5, every, True), (2, False, 0.0, ("wq", "wk", "wv", "bv"), True),
            (1, False, 0.0, ("wq", "wk"), False)):   # the last as label attention
        n_kv = n_q if shared else n_k
        x_q = rng.normal(size=(size, n_q, d_in))
        x_kv = x_q if shared else rng.normal(size=(size, n_kv, d_in))
        p = {n: rng.normal(size=(d, d) if n == "wo" else (d_in, d) if n[0] == "w" else (d,))
             for n in names}
        p["residual"] = rng.normal(size=(size, n_q, d))
        g = rng.normal(size=(size, n_q, d))
        m = _key_mask([4, 2, 3], n_kv) if use_mask else None
        keep = ((np.random.default_rng(9).random((size, heads, n_q, n_kv)) >= rate)
                / (1.0 - rate)) if rate else None
        tensors = {n: Tensor(a, requires_grad=True) for n, a in p.items()}
        tensors["x_q"] = Tensor(x_q, requires_grad=True)
        tensors["x_kv"] = tensors["x_q"] if shared else Tensor(x_kv, requires_grad=True)
        with Tape():
            out = ad.attention(tensors["x_q"], tensors["x_kv"],
                               *(tensors.get(n) for n in ("wq", "wk", "wv", "wo")),
                               biases=tuple(tensors.get(n) for n in ("bq", "bk", "bv", "bo")),
                               heads=heads, mask=m, scale=0.3, rate=rate,
                               rng=np.random.default_rng(9), residual=tensors["residual"])
            ad.backward(out, g)
        want, grads = _unfused_attention(x_q, x_kv, p, heads, m, 0.3, keep, g, shared)
        assert np.array_equal(out.data, want)
        assert set(grads) == set(tensors) - ({"x_q"} if shared else set())
        for name, grad in grads.items():
            assert np.array_equal(tensors[name].grad, grad), name


def test_attention_shape_errors():
    x, w = Tensor(np.zeros((1, 2, 6))), Tensor(np.zeros((6, 6)))
    with pytest.raises(ad.ShapeError):   # 4 heads do not divide 6
        ad.attention(x, x, w, w, heads=4)
    with pytest.raises(ad.ShapeError):   # queries and keys of other widths
        ad.attention(x, x, w, Tensor(np.zeros((6, 4))))
    with pytest.raises(ad.ShapeError):   # values of another width than the keys
        ad.attention(x, x, w, w, Tensor(np.zeros((6, 4))))
    with pytest.raises(ad.ShapeError):   # queries and keys of other batch sizes
        ad.attention(x, Tensor(np.zeros((2, 2, 6))), w, w)


def _unfused_pair_scores(hh, ht, w3, w4, score_w, score_b, g):
    """The grid head as the per-op chain it replaced (a bilinear product
    from reshaped and transposed operands, the two halves of ``w4`` gathered
    from its transpose, broadcast adds, a score layer), in plain numpy. A
    gradient is first stored in a buffer with the strides of the output it
    belongs to, as that chain's tape kept it. Returns (logits, d h_head,
    d h_tail, d w3, d w4, d score_w, d score_b) for upstream gradient ``g``."""
    size, n, d = hh.shape
    k = score_b.shape[0]

    def buffer(like, grad):
        out = np.empty_like(like)
        out[...] = grad
        return out

    w3_2d = w3.reshape(d, k * d)
    a = (hh @ w3_2d).reshape(size, n * k, d)
    bilinear = (a @ ht.transpose(0, 2, 1)).reshape(size, n, k, n).transpose(0, 1, 3, 2)
    w4_t = w4.T
    w4_head, w4_tail = w4_t[np.arange(d)], w4_t[np.arange(d, 2 * d)]
    with_head = bilinear + (hh @ w4_head).reshape(size, n, 1, k)
    m = with_head + (ht @ w4_tail).reshape(size, 1, n, k)
    logits = m @ score_w.T + score_b

    g_m = buffer(m, g @ score_w)
    g_with_head = buffer(with_head, g_m)
    g_head, g_tail = g_with_head.sum(axis=2), g_m.sum(axis=1)
    g_bil = np.ascontiguousarray(buffer(bilinear, g_with_head).transpose(0, 1, 3, 2))
    g_bil = g_bil.reshape(size, n * k, n)
    g_a = g_bil @ ht
    d_hh = g_head @ w4_head.T + g_a.reshape(size, n, k * d) @ w3_2d.T
    d_ht = g_tail @ w4_tail.T + (np.swapaxes(a, -1, -2) @ g_bil).transpose(0, 2, 1)
    d_w3 = (hh.reshape(-1, d).T @ g_a.reshape(-1, k * d)).reshape(d, k, d)
    d_w4_t = np.zeros_like(w4_t)
    d_w4_t[d:] += ht.reshape(-1, d).T @ g_tail.reshape(-1, k)
    d_w4_t[:d] += hh.reshape(-1, d).T @ g_head.reshape(-1, k)
    d_score_w = (m.reshape(-1, k).T @ g.reshape(-1, k)).T
    return logits, d_hh, d_ht, d_w3, d_w4_t.T, d_score_w, g.sum(axis=(0, 1, 2))


def test_pair_scores_matches_unfused_chain_bit_for_bit():
    # n past 8 tokens makes numpy's pairwise sums depend on the layout summed
    rng = np.random.default_rng(10)
    for size, n, d, k in ((2, 1, 4, 1), (2, 3, 4, 2), (16, 10, 32, 3), (3, 17, 8, 8),
                          (1, 12, 4, 1)):
        arrays = [rng.normal(size=s) for s in ((size, n, d), (size, n, d), (d, k, d), (k, 2 * d),
                                               (k, k), (k,))]
        g = rng.normal(size=(size, n, n, k))
        tensors = [Tensor(a, requires_grad=True) for a in [np.stack(arrays[:2]), *arrays[2:]]]
        with Tape():
            out = ad.pair_scores(*tensors)
            ad.backward(out, g)
        expected = _unfused_pair_scores(*arrays, g)
        got = [out.data, *tensors[0].grad, *(t.grad for t in tensors[1:])]
        for got, want in zip(got, expected, strict=True):
            assert np.array_equal(got, want)


def test_pair_scores_shape_error_names_every_shape():
    shapes = [(2, 2, 3, 4), (4, 2, 4), (2, 8), (2, 2), (3,)]
    with pytest.raises(ad.ShapeError) as err:
        ad.pair_scores(*(Tensor(np.zeros(s)) for s in shapes))
    assert all(str(s) in str(err.value) for s in shapes)
    for h in ((2, 3, 4), (3, 2, 3, 4), (1, 2, 3, 4)):   # unstacked, or a stack of 3 or 1
        with pytest.raises(ad.ShapeError):
            ad.pair_scores(*(Tensor(np.zeros(s)) for s in [h, (4, 1, 4), (1, 8), (1, 1), (1,)]))


def test_backward_square():
    x = Tensor(np.array(3.0), requires_grad=True)
    with Tape():
        y = inner(x, x)
        ad.backward(y, np.ones(()))
    assert x.grad == pytest.approx(6.0)


def test_backward_constant_leaves_unused_leaf_zero():
    x = Tensor(np.array(5.0), requires_grad=True)
    c = Tensor(np.array(2.0))
    with Tape():
        ad.backward(c, np.ones(()))
    assert x.grad == pytest.approx(0.0)


def test_backward_twice_errors():
    x = Tensor(np.array(2.0), requires_grad=True)
    with Tape():
        y = inner(x, x)
        ad.backward(y, np.ones(()))
        with pytest.raises(ad.TapeError):
            ad.backward(y, np.ones(()))


def _scaled(x: Tensor, c: float) -> Tensor:
    """A test-local elementwise op, ``c * x``: its output keeps the layout
    of ``x``, and its backward passes ``x`` an owned gradient in that
    layout."""
    def bw(g):
        if x.requires_grad:
            ad._accumulate(x, g * c, owned=True)

    return ad._make(x.data * c, (x,), bw)


def test_bce_analytic_values():
    # the BCE that seeds backward: ln 2 at zero logits, with gradient
    # (1/2 - t) per cell over the cell count; ~0 when saturated on the gold
    t = np.array([[1.0, 0.0], [0.0, 1.0]])[:, :, None]
    gold = GoldMatrix.from_grid(t)
    value, grad = loss(Tensor(np.zeros((1, 2, 2, 1))), [gold])
    assert abs(value - np.log(2.0)) < 1e-12
    np.testing.assert_allclose(grad[0], (0.5 - t) / 4, rtol=0, atol=1e-15)

    sat, _ = loss(Tensor(np.where(t == 1.0, 30.0, -30.0)[None]), [gold])
    assert 0.0 <= sat < 1e-9


def test_bce_matches_direct_formula():
    # value and, seeded through a taped op, the leaf's gradient match the
    # direct log formula and its derivative
    rng = np.random.default_rng(2)
    z = rng.normal(scale=3.0, size=(3, 3, 2))
    t = (rng.random((3, 3, 2)) < 0.4).astype(float)
    x = Tensor(z[None], requires_grad=True)
    with Tape():
        y = _scaled(x, 0.5)
        value, grad = loss(y, [GoldMatrix.from_grid(t)])
        ad.backward(y, grad)
    s = 1.0 / (1.0 + np.exp(-0.5 * z))
    direct = -(t * np.log(s) + (1 - t) * np.log(1 - s)).mean()
    assert abs(value - direct) < 1e-10
    np.testing.assert_allclose(x.grad[0], 0.5 * (s - t) / t.size, rtol=1e-12, atol=1e-17)


def _ffn_weights(rng, d_in, hidden, d_out):
    return [Tensor(rng.normal(size=s), requires_grad=True)
            for s in ((d_in, hidden), (hidden,), (hidden, d_out), (d_out,))]


def test_backward_rejects_a_seed_of_another_shape():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape():
        y = _scaled(x, 2.0)
        for seed in (np.ones(()), np.ones(2), np.ones((3, 1))):
            with pytest.raises(ad.ShapeError, match="seed"):
                ad.backward(y, seed)
        ad.backward(y, [1.0, 2.0, 3.0])   # the shape's own seed still runs
    np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])


def test_backward_seed_becomes_the_outputs_buffer_and_is_only_read():
    # the residual's part of the gradient is added into y's buffer, never
    # into the seed; a seed with other strides than the output is copied
    rng = np.random.default_rng(6)
    weights = _ffn_weights(rng, 2, 4, 2)
    for seed in (rng.normal(size=(3, 2)), rng.normal(size=(2, 3)).T):
        kept = seed.copy()
        with Tape():
            y = _scaled(Tensor(rng.normal(size=(3, 2)), requires_grad=True), 0.7)
            z = ad.ffn(y, *weights, residual=y)
            ad.backward(z, seed)
        assert (z.grad is seed) == seed.flags.c_contiguous
        np.testing.assert_array_equal(seed, kept)
        np.testing.assert_array_equal(z.grad, kept)


def test_no_tape_means_no_tracking():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ad.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert not y.requires_grad and y._tape is None


def test_backward_names_the_op_that_overflowed():
    big = Tensor(np.full((2, 2), 1e308), requires_grad=True)
    ones = [Tensor(np.ones(s)) for s in ((2, 2), (2,), (2, 2), (2,))]
    with np.errstate(over="ignore", invalid="ignore"), Tape():
        out = ad.ffn(big, *ones)
        with pytest.raises(ad.NonFiniteError, match=r"output.*\bffn\b"):
            ad.backward(out, np.ones((2, 2)))


def test_dense_layer_shape_error_names_all_three_shapes():
    x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
    with pytest.raises(ad.ShapeError) as err:
        ad.ffn(x, w, Tensor(np.zeros((5,))), Tensor(np.zeros((4, 3))), Tensor(np.zeros((3,))))
    assert all(s in str(err.value) for s in ("(2, 3)", "(3, 4)", "(5,)"))
    # a projection whose rows do not match the inputs' width, or not 2-D
    x_3d = Tensor(np.zeros((1, 2, 3)))
    for projection in (Tensor(np.zeros((4, 4))), Tensor(np.zeros((1, 3, 4)))):
        with pytest.raises(ad.ShapeError):
            ad.attention(x_3d, x_3d, w, projection)


def _masked_sigmoid(z):
    """The logistic function as two masked branches, one exp per element:
    the reference form for ``ad.sigmoid``."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_masked_form_bit_for_bit():
    rng = np.random.default_rng(13)
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 700.0, -700.0, 1e308, -1e308])
    z = np.concatenate([edges, rng.normal(scale=10.0, size=500),
                        rng.uniform(-800.0, 800.0, size=500)])
    assert np.array_equal(ad.sigmoid(z), _masked_sigmoid(z))
    grid = z[:600].reshape(2, 3, 10, 10)
    assert np.array_equal(ad.sigmoid(grid), _masked_sigmoid(grid))


def test_embedding_lookup_bounds():
    table = Tensor(np.arange(6.0).reshape(3, 2))
    with pytest.raises(ad.ShapeError):
        ad.embedding_lookup(table, [0, 3])
    with pytest.raises(ad.ShapeError):
        ad.embedding_lookup(Tensor(np.zeros((2, 3, 2))), [[0, 6]])
    with pytest.raises(ad.ShapeError):
        ad.embedding_lookup(Tensor(np.zeros(3)), [0])
    # a position table needs a row for every position and the table's width
    for positions in (np.zeros((1, 2)), np.zeros((2, 3)), np.zeros(2)):
        with pytest.raises(ad.ShapeError, match="positions"):
            ad.embedding_lookup(table, [[0, 1]], Tensor(positions))
    with pytest.raises(ad.ShapeError, match="positions"):
        ad.embedding_lookup(table, 1, Tensor(np.zeros((2, 2))))


def test_gelu_at_zero_rate_is_plain_gelu_and_draws_nothing():
    gen = np.random.default_rng(5)
    x, weights = Tensor(gen.normal(size=(3, 4))), _ffn_weights(gen, 4, 6, 2)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert np.array_equal(ad.ffn(x, *weights, 0.0, rng).data, ad.ffn(x, *weights).data)
    assert rng.bit_generator.state == before


def _phi_erfc(x: float) -> float:
    """Φ from ``math.erfc``, taken at a positive argument, where erfc keeps
    its relative precision."""
    tail = 0.5 * math.erfc(abs(x) / math.sqrt(2.0))
    return tail if x < 0 else 1.0 - tail


def test_normal_cdf_is_within_2_to_the_minus_52_of_erfc():
    # a dense grid well past the table's range, the cell edges and centres
    # of the table and around its ends, and normal draws
    grid = np.linspace(-40.0, 40.0, 700_001)
    lattice = np.arange(-9 * 4096, 9 * 4096 + 1) / 4096
    draws = np.random.default_rng(11).normal(size=100_000)
    for x in (grid, lattice, draws):
        ref = np.array([_phi_erfc(v) for v in x.tolist()])
        assert np.abs(ad._normal_cdf(x) - ref).max() <= 2.0 ** -52
        assert np.abs(ad._normal_cdf(x) + ad._normal_cdf(-x) - 1.0).max() <= 2.0 ** -52
    # past the end cells, and at the top centre 8.5, the values are exact
    assert ad._normal_cdf(np.array([-8.6, -40.0])).tolist() == [0.0, 0.0]
    assert ad._normal_cdf(np.array([8.5, 40.0])).tolist() == [1.0, 1.0]


def _gelu(x: np.ndarray) -> np.ndarray:
    """GELU through ``ffn`` with 1 x 1 identity layers, so that ``x`` and
    its GELU pass the dense products unchanged but for the sign of a zero."""
    one, zero = Tensor([[1.0]]), Tensor([0.0])
    return ad.ffn(Tensor(x[:, None]), one, zero, one, zero).data[:, 0]


def test_gelu_keeps_the_erf_values_at_zeros_range_edges_and_huge_inputs():
    # 0.5 * x * (1 + erf(x / sqrt(2))) in float64 at each x; at -8.5, where
    # 1 + erf cancels to 0, the kernel gives the true -8.06e-17 instead
    x = np.array([0.0, -0.0, 8.5, -8.5, 1e300, -1e300])
    erf_values = np.array([0.0, -0.0, 8.5, -0.0, 1e300, -0.0])
    out = _gelu(x)
    exact = np.arange(len(x)) != 3
    assert out[exact].tolist() == erf_values[exact].tolist()
    # the product x * Φ(x) inside ffn keeps erf's signed zeros
    kernel = x * ad._normal_cdf(x)
    assert (np.signbit(kernel[exact]) == np.signbit(erf_values[exact])).all()
    assert abs(out[3] - erf_values[3]) <= 2.0 ** -52
    assert out[3] == pytest.approx(-8.0576e-17, rel=1e-4)


def test_normal_cdf_and_gelu_at_infinities_and_nan_raise_nothing():
    x = np.array([np.inf, -np.inf, np.nan])
    with np.errstate(all="raise"):
        cdf = ad._normal_cdf(x)
    np.testing.assert_array_equal(cdf, [1.0, 0.0, np.nan])
    # -inf * Φ(-inf) is -inf * 0, numpy's invalid product: NaN, as with erf
    with np.errstate(invalid="ignore"):
        out = _gelu(x)
    np.testing.assert_array_equal(out, [np.inf, np.nan, np.nan])


def test_op_output_grad_is_lazy_and_keeps_strides():
    # an elementwise op keeps the layout of a transposed leaf, so its output
    # is strided; its gradient buffer, made lazily, takes the same strides
    # though ffn passes it a C-order gradient
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 5)).T, requires_grad=True)
    weights = _ffn_weights(rng, 3, 4, 2)
    outputs = []
    for leaf in (x, Tensor(np.ascontiguousarray(x.data), requires_grad=True)):
        with Tape():
            h = _scaled(leaf, 2.0)
            out = ad.ffn(h, *weights)
            assert h.grad is None and out.grad is None
            ad.backward(out, np.ones(out.shape))
        outputs.append(h)
    strided, contiguous = outputs
    assert not strided.data.flags.c_contiguous
    assert strided.grad.strides == strided.data.strides
    np.testing.assert_allclose(strided.grad, contiguous.grad, rtol=1e-13)
    # a 3-D op output with swapped leading axes as an embedding table: its
    # rows cannot be flattened without a copy, so the scatter must add into
    # the strided buffer in place
    m, k = 3, 5
    ids = np.array([[0, 4], [4, 1], [5, 5]])
    leaf = Tensor(rng.normal(size=(m, 2, k)).transpose(1, 0, 2), requires_grad=True)
    with Tape():
        table = _scaled(leaf, 2.0)
        rows = ad.embedding_lookup(table, ids)
        ad.backward(rows, np.ones(rows.shape))
    assert table.grad.strides == table.data.strides
    assert not np.shares_memory(table.grad.reshape(-1, k), table.grad)
    counts = np.bincount(ids.ravel(), minlength=2 * m).reshape(2, m, 1) * np.ones(k)
    np.testing.assert_array_equal(table.grad, counts)
    np.testing.assert_array_equal(leaf.grad, 2.0 * counts)
    # an owned first gradient with the output's strides becomes the buffer
    out = Tensor(rng.normal(size=(4, 3)))     # an op output: no buffer yet
    g = rng.normal(size=(4, 3))
    ad._accumulate(out, g, owned=True)
    assert out.grad is g
    # a strided contribution is copied into a buffer with the data's strides
    strided = Tensor(rng.normal(size=(4, 3)))
    g_t = rng.normal(size=(3, 4)).T
    ad._accumulate(strided, g_t, owned=True)
    assert strided.grad is not g_t and not np.shares_memory(strided.grad, g_t)
    assert strided.grad.strides == strided.data.strides
    np.testing.assert_array_equal(strided.grad, g_t)
    # a contribution that is not owned is always copied
    shared = Tensor(rng.normal(size=(4, 3)))
    ad._accumulate(shared, g)
    assert not np.shares_memory(shared.grad, g)


def test_branch_off_the_loss_path_is_skipped():
    x = Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    calls = []
    with Tape():
        side = ad._make(x.data * 3.0, (x,), calls.append)
        # consumes the leaf, but off the path too
        touched = ad.layer_norm(side, unused, Tensor(np.zeros(3)))
        ad.backward(inner(x, x), np.ones(()))
    assert side.grad is None and touched.grad is None
    assert calls == []
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)
    # a leaf that got no gradient still reads zeros
    np.testing.assert_array_equal(unused.grad, np.zeros(3))


def test_tensor_reached_twice_gets_exact_sum_in_its_own_buffer():
    # y is an ffn's input and its residual: the op hands the residual its
    # own output's gradient, which y's buffer must copy, not take
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    weights = _ffn_weights(rng, 2, 4, 2)
    w = rng.normal(size=(3, 2))
    with Tape():
        y = _scaled(x, 0.7)
        z = ad.ffn(y, *weights, residual=y)
        ad.backward(z, w.copy())
    with Tape():   # the input's part alone
        y_alone = _scaled(Tensor(x.data, requires_grad=True), 0.7)
        ad.backward(ad.ffn(y_alone, *weights), w)
    np.testing.assert_array_equal(z.grad, w)   # not added to in place by y's second part
    np.testing.assert_array_equal(y.grad, w + y_alone.grad)
    assert not np.shares_memory(y.grad, z.grad)
    np.testing.assert_array_equal(x.grad, y.grad * 0.7)


def test_determinism():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 4, 4))
    weights = [Tensor(w.data) for w in _ffn_weights(rng, 4, 8, 4)]
    projections = [Tensor(rng.normal(size=(4, 4))) for _ in range(4)]

    def branch():
        h = ad.ffn(Tensor(x), *weights)
        return ad.attention(h, h, *projections, heads=2, residual=h)

    assert np.array_equal(branch().data, branch().data)


# Finite-difference property suite: every differentiable op, randomized small
# shapes, weighted-sum loss so non-uniform output gradients are exercised.


def _op_cases(rng):
    m, k, n = rng.integers(2, 5, size=3)
    cases = []

    b = rng.normal(size=(k, n))
    x = rng.normal(size=(m, n))

    table = rng.normal(size=(5, k))
    ids = rng.integers(0, 5, size=m)
    cases.append(("embedding_lookup", [table], lambda t: ad.embedding_lookup(t[0], ids)))
    ids_2d = rng.integers(0, 5, size=(2, m))
    cases.append(("embedding_lookup_nd", [table],
                  lambda t: ad.embedding_lookup(t[0], ids_2d)))
    # token rows plus the first m of a longer position table, as the model
    # embeds a (B, n) batch of ids
    positions = rng.normal(size=(m + 2, k))
    cases.append(("embedding_lookup_positions", [table, positions],
                  lambda t: ad.embedding_lookup(t[0], ids_2d, t[1])))
    # a table that is itself an op output gets its gradient buffer from the scatter
    cases.append(("embedding_lookup_of_op_output", [b],
                  lambda t: ad.embedding_lookup(_scaled(t[0], 1.5), ids % k)))
    # a 3-D table gives rows of its two leading axes flattened, as the
    # decoder's slot gather does, also when the table is an op output
    states = rng.normal(size=(2, m, k))
    slot_rows = rng.integers(0, 2 * m, size=(2, 3))
    cases.append(("embedding_lookup_3d", [states],
                  lambda t: ad.embedding_lookup(t[0], slot_rows)))
    cases.append(("embedding_lookup_3d_of_op_output", [states],
                  lambda t: ad.embedding_lookup(_scaled(t[0], 1.5), slot_rows)))
    # a table with swapped leading axes: its gradient buffer keeps those
    # strides, so no reshape to rows can be a view of it
    swapped = rng.normal(size=(m, 2, k)).transpose(1, 0, 2)
    cases.append(("embedding_lookup_3d_transposed_op_output", [swapped],
                  lambda t: ad.embedding_lookup(_scaled(t[0], 1.5), slot_rows)))

    g = rng.normal(size=(n,)) + 1.0
    bb = rng.normal(size=(n,))
    cases.append(("layer_norm", [x, g, bb], lambda t: ad.layer_norm(t[0], t[1], t[2])))

    # ffn: (m, n) rows through a hidden width of k, a batch of rows with
    # a residual, dropout drawn from a fresh stream per build, and inputs
    # out to each tail of the normal-CDF table and past it, through
    # identity layers. The tails are two cases: the lower tail's gradients
    # fall to 1e-9 and below, under the rounding of a loss that holds the
    # upper tail's values
    layers = [rng.normal(size=s) for s in ((n, k), (k,), (k, n), (n,))]
    cases.append(("ffn", [x, *layers], lambda t: ad.ffn(*t)))
    batch = rng.normal(size=(2, m, n))
    cases.append(("ffn_batched_residual", [batch, *layers, rng.normal(size=(2, m, n))],
                  lambda t: ad.ffn(*t[:5], residual=t[5])))
    cases.append(("ffn_dropout", [x, *layers],
                  lambda t: ad.ffn(*t, 0.3, np.random.default_rng(3))))
    # a stack of two branches over the same rows, as the head and tail MLPs
    stack = [rng.normal(size=s) for s in ((2, n, k), (2, k), (2, k, n), (2, n))]
    cases.append(("ffn_stacked", [x, *stack], lambda t: ad.ffn(*t)))
    eye, zeros = Tensor(np.eye(n)), Tensor(np.zeros(n))
    for case, sign in (("ffn_upper_tail", 1.0), ("ffn_lower_tail", -1.0)):
        cases.append((case, [sign * rng.uniform(2.0, 9.0, size=(m, n))],
                      lambda t: ad.ffn(t[0], eye, zeros, eye, zeros)))

    # attention: 2 heads of width k over m queries and n keys, batch 2, from
    # inputs of width 3; every projection with a bias and a residual, no
    # value or output projection (keys are values, as in label attention),
    # padded keys, a causal mask over padded keys, and dropout. The key
    # bias moves all of a query's scores alike, so its gradient is 0 and a
    # finite difference reads only rounding: the bit-for-bit test covers it
    def projections(d_in, names):
        return [rng.normal(size=(2 * k, 2 * k) if w == "wo" else (d_in, 2 * k)
                           if w[0] == "w" else (2 * k,)) for w in names]

    def branch(t, names, **kw):
        given = dict(zip(names, t[2:]))
        return ad.attention(t[0], t[1], *(given.get(w) for w in ("wq", "wk", "wv", "wo")),
                            biases=tuple(given.get(b) for b in ("bq", "bk", "bv", "bo")),
                            heads=2, scale=0.6, residual=given.get("residual"), **kw)

    every = ("wq", "wk", "wv", "wo", "bq", "bv", "bo")
    x_q, x_kv = rng.normal(size=(2, m, 3)), rng.normal(size=(2, n, 3))
    full = [x_q, x_kv, *projections(3, every), rng.normal(size=(2, m, 2 * k))]
    cases.append(("attention", full, lambda t: branch(t, every + ("residual",))))
    cases.append(("attention_keys_are_values", [x_q, x_kv, *projections(3, ("wq", "wk"))],
                  lambda t: branch(t, ("wq", "wk"))))
    unprojected = ("wq", "wk", "wv", "bv")
    cases.append(("attention_no_output_projection", [x_q, x_kv, *projections(3, unprojected)],
                  lambda t: branch(t, unprojected)))
    unbiased = ("wq", "wk", "wv", "wo")
    weights = projections(3, unbiased)
    pad = np.where(np.arange(n) >= np.array([n, n - 1])[:, None, None, None], -1e30, 0.0)
    cases.append(("attention_padded_keys", [x_q, x_kv, *weights],
                  lambda t: branch(t, unbiased, mask=pad)))
    keys = np.arange(m)
    causal = np.where((keys > keys[:, None]) | (keys >= np.array([m, m - 1])[:, None, None, None]),
                      -1e30, 0.0)
    cases.append(("attention_causal_padded", [x_q, rng.normal(size=(2, m, 3)), *weights],
                  lambda t: branch(t, unbiased, mask=causal)))
    cases.append(("attention_dropout", [x_q, x_kv, *weights],
                  lambda t: branch(t, unbiased, rate=0.3, rng=np.random.default_rng(3))))

    # the token-pair grid: batch 2, K > 1 channels over n > 1 tokens, and
    # one channel over one token
    for case, tokens, chans in (("pair_scores", m, k), ("pair_scores_one_token_one_channel", 1, 1)):
        d = 3
        cases.append((case, [rng.normal(size=s) for s in ((2, 2, tokens, d), (d, chans, d),
                                                          (chans, 2 * d), (chans, chans),
                                                          (chans,))],
                      lambda t: ad.pair_scores(*t)))

    return cases


# The padded-key and dropout attention cases have gradients down to ~2e-6,
# where the loss's rounding over 2h at the tests' step can reach the
# tolerance; their step is 1e-4
STEPS = {"attention_padded_keys": 1e-4, "attention_dropout": 1e-4}


def _check_op_cases(rng) -> int:
    """Check each case of ``_op_cases(rng)`` against finite differences of
    the weighted sum of its output, under weights drawn from ``rng``;
    returns the number of cases."""
    cases = _op_cases(rng)
    for name, arrays, build in cases:
        tensors = [Tensor(arr, requires_grad=True) for arr in arrays]
        weights = rng.normal(size=build(tensors).shape)
        with Tape():
            ad.backward(build(tensors), weights)
        for tensor in tensors:
            fd = central_diff(lambda: (build(tensors).data * weights).sum(), tensor.data,
                              STEPS.get(name, STEP))
            err = max_rel_err(fd, tensor.grad)
            assert err < 1e-4, f"{name}: rel err {err:.2e}"
    return len(cases)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    assert sum(_check_op_cases(rng) for _ in range(8)) >= 100


def test_gradients_match_finite_differences_on_other_seeds():
    for seed in range(100, 120):
        _check_op_cases(np.random.default_rng(seed))


# Packed operands: the real rows of a padded (B, n_max, ...) layout, with
# their RowMap. Each layout is one of: equal lengths, unequal lengths, and
# B=1; in every layout an instance is at n_max.
PACKED_LENGTHS = ([3, 3], [2, 4, 1], [3])


def _key_mask(lengths, n):
    return np.where(np.arange(n) >= np.asarray(lengths)[:, None, None, None], -1e30, 0.0)


def _packed_cases(rng, lengths):
    rows = ad.RowMap(lengths)
    size, n, total, d = len(lengths), rows.n, int(sum(lengths)), 4
    mask = _key_mask(lengths, n)
    cases = []
    # packed queries over padded keys that are the values, with a packed
    # residual (label attention's shape); padded queries over packed keys
    # and values with every projection and bias (the decoder's
    # cross-attention); and both packed with a residual (encoder
    # self-attention), that one with dropout drawn from a fresh stream per
    # build
    w = [rng.normal(size=(d, d)) for _ in range(4)]
    biases = [rng.normal(size=(d,)) for _ in range(3)]   # bq, bv and bo
    cases.append(("attention_packed_queries", [rng.normal(size=(total, d)),
                                               rng.normal(size=(size, 2, d)), *w[:2],
                                               rng.normal(size=(total, d))],
                  lambda t: ad.attention(*t[:4], scale=0.6, q_rows=rows, residual=t[4])))
    cases.append(("attention_packed_keys", [rng.normal(size=(size, 3, d)),
                                            rng.normal(size=(total, d)), *w, *biases],
                  lambda t: ad.attention(*t[:6], biases=(t[6], None, *t[7:]), heads=2,
                                         mask=mask, scale=0.6, kv_rows=rows)))
    cases.append(("attention_packed_both", [rng.normal(size=(total, d)) for _ in range(3)] + w,
                  lambda t: ad.attention(t[0], t[1], *t[3:], heads=2, mask=mask, scale=0.6,
                                         rate=0.3, rng=np.random.default_rng(3), q_rows=rows,
                                         kv_rows=rows, residual=t[2])))
    k = 2
    cases.append(("pair_scores_packed", [rng.normal(size=s) for s in (
        (2, total, d), (d, k, d), (k, 2 * d), (k, k), (k,))],
                  lambda t: ad.pair_scores(*t, rows=rows)))
    ids = rng.integers(0, 5, size=total)
    cases.append(("embedding_lookup_position_ids", [rng.normal(size=(5, d)),
                                                    rng.normal(size=(n + 2, d))],
                  lambda t: ad.embedding_lookup(t[0], ids, t[1], rows)))
    cases.append(("ffn_packed_dropout", [rng.normal(size=s) for s in (
        (total, d), (d, 6), (6,), (6, d), (d,), (total, d))],
                  lambda t: ad.ffn(*t[:5], 0.3, np.random.default_rng(3), rows, t[5])))
    return cases


@pytest.mark.parametrize("lengths", PACKED_LENGTHS, ids=["equal", "unequal", "one"])
def test_packed_ops_match_finite_differences(lengths):
    rng = np.random.default_rng(31)
    for name, arrays, build in _packed_cases(rng, lengths):
        tensors = [Tensor(arr, requires_grad=True) for arr in arrays]
        weights = rng.normal(size=build(tensors).shape)
        with Tape():
            ad.backward(build(tensors), weights)
        for i, tensor in enumerate(tensors):
            fd = central_diff(lambda: (build(tensors).data * weights).sum(), tensor.data)
            err = max_rel_err(fd, tensor.grad)
            assert err < 1e-4, f"{name} operand {i}: rel err {err:.2e}"


@pytest.mark.parametrize("lengths", PACKED_LENGTHS, ids=["equal", "unequal", "one"])
def test_packed_operands_match_the_padded_op_bit_for_bit(lengths):
    # packed rows give the padded op's real rows, and their gradients the
    # padded operands' real rows, when the padding holds zeros; dropout
    # draws the padded layout's masks
    rng = np.random.default_rng(32)
    rows = ad.RowMap(lengths)
    size, n, total = len(lengths), rows.n, int(sum(lengths))
    assert rows.flat.tolist() == [b * n + i for b, m in enumerate(lengths) for i in range(m)]
    assert rows.positions.tolist() == [i for m in lengths for i in range(m)]
    mask = _key_mask(lengths, n)
    packed = [rng.normal(size=(total, 8)) for _ in range(3)]
    weights = [rng.normal(size=s) for s in ((8, 2, 8), (2, 16), (2, 2), (2,))]
    projections = [rng.normal(size=(8, 8)) for _ in range(4)] + \
        [rng.normal(size=(8,)) for _ in range(4)]
    layers = [rng.normal(size=s) for s in ((8, 16), (16,), (16, 8), (8,))]
    g, g_grid = rng.normal(size=(total, 8)), rng.normal(size=(size, n, n, 2))
    # pair_scores' operand stacks heads and tails: each half is laid out
    stacked = (lambda a: np.stack([rows.pad(x) for x in a]),
               lambda a: np.stack([rows.pack(x) for x in a]))
    # (op, its packed operands, its other operands, the output's gradient,
    # whether the output is packed, how a packed operand is padded and packed)
    ops = [
        (lambda t, r: ad.attention(t[0], t[1], *t[3:7], biases=tuple(t[7:]), heads=2,
                                   mask=mask, scale=0.5, rate=0.25, rng=np.random.default_rng(4),
                                   q_rows=r, kv_rows=r, residual=t[2]),
         packed, projections, g, True, (rows.pad, rows.pack)),
        (lambda t, r: ad.ffn(t[0], *t[2:], 0.25, np.random.default_rng(4), r, t[1]),
         packed[:2], layers, g, True, (rows.pad, rows.pack)),
        (lambda t, r: ad.pair_scores(*t, rows=r), [np.stack(packed[:2])], weights, g_grid, False,
         stacked),
    ]
    for build, rows_in, others, grad, packed_out, (pad, pack) in ops:
        results = []
        for r, lay_out in ((rows, lambda a: a), (None, pad)):
            tensors = [Tensor(a, requires_grad=True) for a in [*map(lay_out, rows_in), *others]]
            with Tape():
                out = build(tensors, r)
                ad.backward(out, lay_out(grad) if packed_out else grad)
            results.append((out.data, [t.grad for t in tensors]))
        (out, grads), (padded_out, padded_grads) = results
        assert np.array_equal(out, pack(padded_out) if packed_out else padded_out)
        for i, (got, want) in enumerate(zip(grads, padded_grads)):
            assert np.array_equal(got, pack(want) if i < len(rows_in) else want)


def test_packed_operand_shape_errors():
    rows = ad.RowMap([2, 1])
    with pytest.raises(ad.ShapeError, match="row map"):
        ad.attention(Tensor(np.zeros((4, 4))), Tensor(np.zeros((2, 2, 4))),
                     Tensor(np.zeros((4, 4))), Tensor(np.zeros((4, 4))), q_rows=rows)
    with pytest.raises(ad.ShapeError, match="row map"):
        ad.attention(Tensor(np.zeros((2, 2, 4))), Tensor(np.zeros((2, 2, 4))),
                     Tensor(np.zeros((4, 4))), Tensor(np.zeros((4, 4))), kv_rows=rows)
    with pytest.raises(ad.ShapeError, match="row map"):
        ad.pair_scores(*(Tensor(np.zeros(s)) for s in ((2, 2, 3), (3, 1, 3), (1, 6), (1, 1),
                                                        (1,))), rows=rows)
    with pytest.raises(ad.ShapeError, match="packed ids"):
        ad.embedding_lookup(Tensor(np.zeros((3, 2))), [0, 1], Tensor(np.zeros((2, 2))), rows)


@pytest.mark.parametrize("x_shape", [(6, 4), (7, 4), (3, 4), (2, 3, 4)],
                         ids=["packed_equal", "packed_unequal", "packed_one", "padded"])
def test_stacked_ffn_equals_separate_ffn_calls_bit_for_bit(x_shape):
    # the head and tail MLPs as one stacked record and as two records: the
    # same outputs, weight and bias gradients, and input gradient (tail's
    # contribution first, then head's, as the two records run); the packed
    # shapes are PACKED_LENGTHS' row counts
    rng = np.random.default_rng(33)
    x = rng.normal(size=x_shape)
    stack = [rng.normal(size=s) for s in ((2, 4, 6), (2, 6), (2, 6, 4), (2, 4))]
    g = rng.normal(size=(2, *x_shape))
    x_stacked = Tensor(x, requires_grad=True)
    weights = [Tensor(w, requires_grad=True) for w in stack]
    with Tape():
        out = ad.ffn(x_stacked, *weights)
        ad.backward(out, g)
    x_alone = Tensor(x, requires_grad=True)
    for s in (1, 0):
        alone = [Tensor(w[s], requires_grad=True) for w in stack]
        with Tape():
            branch = ad.ffn(x_alone, *alone)
            ad.backward(branch, g[s])
        assert np.array_equal(out.data[s], branch.data)
        for stacked, one in zip(weights, alone):
            assert np.array_equal(stacked.grad[s], one.grad)
    assert np.array_equal(x_stacked.grad, x_alone.grad)


def test_stacked_ffn_takes_no_dropout_row_map_or_residual():
    x = Tensor(np.zeros((3, 4)))
    stack = [Tensor(np.zeros(s)) for s in ((2, 4, 6), (2, 6), (2, 6, 4), (2, 4))]
    for extra in ({"rate": 0.1, "rng": np.random.default_rng(0)}, {"rows": ad.RowMap([3])},
                  {"residual": x}):
        with pytest.raises(ad.ShapeError, match="stack"):
            ad.ffn(x, *stack, **extra)
    with pytest.raises(ad.ShapeError):   # a stack of biases of another width
        ad.ffn(x, *stack[:3], Tensor(np.zeros((2, 5))))
