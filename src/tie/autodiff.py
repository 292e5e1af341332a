"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Shape discipline is strict: operand shapes must match exactly, save a dense
layer's weight and bias, which apply over the leading axes of its input,
and an attention mask, which broadcasts over the scores. Ops record onto
the innermost active ``Tape`` only when some input requires gradients; with
no active tape they are plain numpy computations, so evaluation-time
forwards are side-effect free and safe to run concurrently.

Five taped ops: ``embedding_lookup`` (rows of a table of 2 or more axes,
its leading axes flattened, plus the rows of an optional position table in
the same record), ``layer_norm``, ``ffn`` (two dense layers around an exact
GELU, with its optional dropout), ``attention`` (the q, k, v and output
projections around multi-head scores, mask, softmax, dropout and value
mix) and ``pair_scores`` (the biaffine token-pair grid and its per-cell
score layer, from heads and tails stacked on a leading axis of 2, their
gradients one array). ``ffn`` and ``attention`` each add an optional
``residual`` to their output, so a pre-norm transformer branch is one
record, and each of their dense layers takes its weight's gradient as one
GEMM over every leading row of its input. ``ffn`` also takes weights and
biases with a leading stack axis: S branches over the same input in one
record, each layer one batched product whose slices are the separate
branches' products, so the stack's values and gradients are theirs bit
for bit. No loss is an op: ``backward(out, grad)`` starts
from any op output with a same-shape seed ``grad``, the gradient of the
caller's scalar with respect to ``out``, so a loss computed in plain numpy
(``tie.trainer.loss``) hands over its value's gradient with respect to the
logits. Neither ops nor ``backward`` check their results: NaN/Inf
propagate to where callers screen them, ``tie.model.forward`` its logits
with ``check_finite``, which names the first recorded op whose output is
non-finite, and ``tie.trainer.gated_step`` the gradients.

Row maps: a batch of B variable-length instances can hold its rows packed,
the T real rows of a padded (B, n, ...) layout in instance order, so that
row-wise work (``layer_norm``, the dense layers and the GELU) runs on real
rows only. A ``RowMap``, built once from the lengths, keeps them, each
packed row's flat position ``b * n + i`` in the padded layout and the key
mask of the padded rows. ``attention`` (``q_rows`` for packed queries,
``kv_rows`` for packed keys and values, masked by ``kv_rows.mask``)
scatters packed rows into zero-filled padded buffers inside its own
record, runs its padded arithmetic and gathers the real rows back, and its
backward does the reverse; ``pair_scores`` takes packed rows only (its
``rows`` is required) and returns the padded (B, n, n, K) grid;
``embedding_lookup`` (``rows``) gives each packed id the position row of
its place in its instance; ``ffn`` (``rows``) draws its dropout masks for
the padded layout and keeps the real rows'.

An op output's gradient buffer is made by its first contribution: an op
that computed that contribution into a fresh array of its own passes it as
owned, and the array becomes the buffer, with no copy, when its strides
equal those of the output's data. Any other first contribution, such as
the gradient a residual shares with its branch, is copied into a buffer
with the data's strides.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "RowMap",
    "MASKED",
    "ShapeError",
    "NonFiniteError",
    "TapeError",
    "backward",
    "embedding_lookup",
    "layer_norm",
    "ffn",
    "attention",
    "pair_scores",
    "check_finite",
    "sigmoid",
]

MASKED = -1e30   # a mask's finite stand-in for -inf, so masked scores stay checkable
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_LN_EPS = 1e-5   # added to layer_norm's variance
_CDF_PER_UNIT = 512   # Φ's table: cells per unit of x, centred on k / 512
_CDF_CELLS = 4352     # for |k| <= 4352, so that the centres span [-8.5, 8.5]
# x + _ROUND, for |x| < 2^42, is x rounded to a multiple of 1/512, and
# its low bits hold 512 times that
_ROUND = 1.5 * 2.0 ** 43
_ROUND_BITS = int(np.array(_ROUND).view(np.int64))


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class NonFiniteError(ArithmeticError):
    """An op produced NaN or Inf."""


class TapeError(RuntimeError):
    """Tape misuse, e.g. running backward twice on the same graph."""


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer.

    A tensor made with ``requires_grad=True`` (a leaf, e.g. a parameter)
    gets a zero gradient buffer at once; it accumulates across backward
    calls until explicitly zeroed, and reads zeros if no gradient reached
    it. An op output starts with ``grad = None``; backward gives it a
    buffer with the strides of its data when the first gradient arrives,
    so an output off the loss path never gets one. ``_tape`` is the tape
    that recorded the op making this tensor, if any.
    """

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if self.requires_grad else None
        self._tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class RowMap:
    """Where the rows of a packed operand sit in its padded layout: row r of
    a packed (T, ...) array is row ``flat[r]`` of the B * n rows of a padded
    (B, n, ...) array, whose other rows are padding. ``RowMap(lengths)``
    packs each instance's first n_b rows (``lengths``), in instance order,
    with n the longest length; ``positions`` holds each packed row's place
    in its instance, and ``mask``, the additive (B, 1, 1, n) key mask, is
    ``MASKED`` at padded rows and 0.0 at real ones, or None if none is
    padded."""

    __slots__ = ("lengths", "flat", "positions", "size", "n", "mask")

    def __init__(self, lengths):
        self.lengths = lengths = np.asarray(lengths, dtype=np.int64)
        self.size, self.n = len(lengths), int(lengths.max())
        place = np.arange(self.n)
        real = place < lengths[:, None]
        self.flat = (place + self.n * np.arange(self.size)[:, None])[real]
        self.positions = self.flat % self.n
        self.mask = None if real.all() else \
            np.where(real, 0.0, MASKED).reshape(self.size, 1, 1, self.n)

    def pad(self, x: np.ndarray) -> np.ndarray:
        """The packed rows ``x`` in a zero-filled (B, n, ...) array."""
        out = np.zeros((self.size * self.n,) + x.shape[1:])
        out[self.flat] = x
        return out.reshape((self.size, self.n) + x.shape[1:])

    def pack(self, x: np.ndarray) -> np.ndarray:
        """The real rows of a padded (B, n, ...) array, packed."""
        return x.reshape((self.size * self.n,) + x.shape[2:]).take(self.flat, axis=0)

    def fits(self, x: Tensor) -> bool:
        """Whether ``x`` is a packed (T, d) operand of this map."""
        return x.data.ndim == 2 and x.shape[0] == len(self.flat)


_tape_stack: list["Tape"] = []


class Tape:
    """Execution-ordered record of differentiable ops for one backward pass.

    Records are appended as ops execute, so parents always precede their
    consumers and a single reverse sweep visits each node exactly once. A
    record runs only if its output received a gradient; the others lie off
    the loss path and are skipped. The sweep drops each record once it has
    been visited: a record's closure and output tensor refer back to the
    tape, and cycles left for the garbage collector would hold every step's
    intermediates until a full collection.
    """

    def __init__(self):
        self._records = []  # (out tensor, backward closure)
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack.pop()
        assert popped is self
        return False

    def record(self, out: Tensor, backward_fn):
        """Append the op that made ``out``; ``backward_fn(out.grad)`` passes
        its gradient on to the op's inputs, which the closure holds itself."""
        out._tape = self
        self._records.append((out, backward_fn))


def backward(out: Tensor, grad):
    """Accumulate the gradient of ``sum(out * grad)`` into every
    requires-grad leaf, in one reverse sweep of ``out``'s tape; a tape runs
    backward once. ``grad``, the seed, must have ``out``'s shape.

    The seed becomes ``out``'s gradient buffer, without a copy when it has
    the strides of ``out.data``: nothing adds into that buffer after
    seeding and the sweep only reads it, so ``grad`` is left as given. An
    ``out`` with no tape attachment (a constant) is a no-op: untouched
    leaves keep their zero gradients. Op outputs off the path to ``out``
    keep ``grad = None``. Nothing is screened for NaN/Inf here:
    ``tie.model.forward`` screens the logits, ``tie.trainer.gated_step`` the gradients.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != out.shape:
        raise ShapeError(f"backward needs a seed of shape {out.shape}, got {grad.shape}")
    tape = out._tape
    if tape is None:
        return
    if tape._consumed:
        raise TapeError("backward already ran on this tape; zero grads and rebuild the graph")
    tape._consumed = True
    _accumulate(out, grad, owned=True)
    while tape._records:
        node, fn = tape._records.pop()
        if node.grad is not None:
            fn(node.grad)


def check_finite(t: Tensor, what: str):
    """Raise ``NonFiniteError`` if ``t`` holds NaN or Inf, naming the first
    non-finite op output on ``t``'s tape if it has one."""
    # a float64 sum is finite iff no element is NaN/Inf, barring overflow of
    # the sum itself, which the elementwise check rules out
    if np.isfinite(t.data.sum()) or np.isfinite(t.data).all():
        return
    # an op's backward closure is defined inside it: its qualname starts with the op's name
    first = next((fn.__qualname__.split(".")[0] for out, fn in getattr(t._tape, "_records", ())
                  if not np.isfinite(out.data).all()), None)
    raise NonFiniteError(f"{what} is non-finite" + (f", first from {first}" if first else ""))


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    tape = _tape_stack[-1] if _tape_stack else None
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True   # grad stays None until backward reaches it
        tape.record(out, backward_fn)
    return out


def _accumulate(t: Tensor, g, owned: bool = False):
    """Add one gradient contribution into ``t.grad``. The buffer of an op
    output always has the strides of ``t.data`` (a strided output gets a
    strided gradient, so later products take the same BLAS path). Its first
    contribution becomes the buffer if the caller ``owned`` it (a fresh
    array that nothing else refers to) and it already has those strides;
    otherwise it is copied into a buffer made with ``empty_like``."""
    if t.grad is not None:
        t.grad += g
    elif owned and g.shape == t.data.shape and g.strides == t.data.strides:
        t.grad = g
    else:
        t.grad = np.empty_like(t.data)
        t.grad[...] = g


def _grad_of(t: Tensor) -> np.ndarray:
    """``t.grad``, made zero first if ``t`` is an op output without one, for
    ops that add into part of it in place."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _over(a: np.ndarray, ndim: int) -> np.ndarray:
    """A stacked array, (S, ...) with one entry per layer of a stack, with
    ones after its stack axis up to ``ndim`` axes, so that it broadcasts over
    the middle axes of an operand of ``ndim`` axes."""
    return a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim) + a.shape[1:])


def _dense(x: np.ndarray, w: Tensor, b: Tensor | None, stacked: bool = False) -> np.ndarray:
    """``x @ w (+ b)`` over the last axis of ``x``, as a fresh C-order array.
    A ``stacked`` dense layer is S layers, a (S, in, out) ``w`` and (S, out)
    ``b``, over an ``x`` whose first axis is the stack's, or 1 to share
    ``x`` among the layers; it gives (S, ..., out) with one GEMM per layer
    and leading index, each with the shapes and strides of that layer's own
    unstacked product."""
    wd = w.data
    if wd.ndim != 2 + stacked or x.shape[-1:] != wd.shape[-2:-1] \
            or (b is not None and b.data.shape != wd.shape[:-2] + wd.shape[-1:]) \
            or (stacked and (x.ndim < 3 or x.shape[0] not in (1, wd.shape[0]))):
        raise ShapeError(f"a dense layer needs (..., in) x, (in, out) w and (out,) b, or a "
                         f"stack of them over x's first axis, got {x.shape}, {wd.shape} and "
                         f"{None if b is None else b.shape}")
    out = x @ (_over(wd, x.ndim) if stacked else wd)
    if b is not None:
        out += _over(b.data, out.ndim) if stacked else b.data
    return out


def _dense_bw(x: np.ndarray, w: Tensor, b: Tensor | None, g: np.ndarray,
              into: Tensor | None = None):
    """Accumulate the gradients of ``_dense(x, w, b)`` for its output's
    gradient ``g``: each layer's weight's as one GEMM over every leading row
    of ``x``, its bias's, and the input's into ``into``, the tensor ``x``
    holds the data of, if given. A 3-D ``w`` is a stacked layer, whose
    layers, when they share ``x``, sum their input gradients from the last
    layer to the first: the order in which separate layers' records run."""
    wd = w.data
    s = wd.ndim - 2   # 1 for a stacked layer, whose first axis no gradient sums over
    if w.requires_grad:
        rows = x.reshape(x.shape[:s] + (-1, wd.shape[-2])).swapaxes(-1, -2)
        _accumulate(w, rows @ g.reshape(g.shape[:s] + (-1, wd.shape[-1])), owned=True)
    if b is not None and b.requires_grad:
        _accumulate(b, g.sum(axis=tuple(range(s, g.ndim - 1))), owned=True)
    if into is not None and into.requires_grad:
        g_x = _times_wt(g, wd)
        _accumulate(into, g_x[::-1].sum(axis=0) if g_x.ndim > into.data.ndim else g_x,
                    owned=True)


def _times_wt(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``g @ w^T`` for a dense layer's (in, out) weight ``w``, or for a
    stacked layer's (S, in, out) one over a (S, ..., out) ``g``."""
    return g @ (_over(w, g.ndim) if w.ndim == 3 else w).swapaxes(-1, -2)


def embedding_lookup(table: Tensor, ids, positions: Tensor | None = None,
                     rows: RowMap | None = None) -> Tensor:
    """Gather rows of a table of 2 or more axes by an N-d id array. Row
    ``r`` is row ``r`` of the table's leading axes flattened, so a (B, m, d)
    table has B*m rows; the result has shape ``ids.shape + (d,)``.
    Gradients scatter-add into those rows in place, whatever the strides of
    the table's gradient buffer.

    Given a (rows, d) ``positions`` table, each id gets the position row of
    its place: its index along the last axis of ``ids``, or, for packed
    (T,) ``ids`` with their ``RowMap``, its place in its instance. The
    positions' gradient is the result's summed over the instances, in the
    padded layout."""
    if table.data.ndim < 2:
        raise ShapeError(f"embedding_lookup needs a table of 2 or more axes, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    table_rows = math.prod(table.shape[:-1])
    if idx.size and (idx.min() < 0 or idx.max() >= table_rows):
        raise ShapeError(f"row id out of range [0, {table_rows}) in embedding_lookup")
    if rows is not None and idx.shape != rows.flat.shape:
        raise ShapeError(f"embedding_lookup needs packed ids {rows.flat.shape}, got {idx.shape}")
    n = rows.n if rows is not None else idx.shape[-1] if idx.ndim else 0
    if positions is not None and (not idx.ndim or positions.data.ndim != 2
                                  or positions.shape[0] < n
                                  or positions.shape[1:] != table.shape[-1:]):
        raise ShapeError(f"embedding_lookup needs (>= {n}, d) positions for ids {idx.shape} "
                         f"and table {table.shape}, got {positions.shape}")
    # one index array per leading axis: no reshape of the table or of its
    # gradient, which would copy a strided buffer and lose the scatter
    at = np.unravel_index(idx, table.shape[:-1])
    out = table.data[at]
    if positions is not None:
        out += positions.data[:n] if rows is None else positions.data[rows.positions]

    def bw(g):
        if table.requires_grad:
            np.add.at(_grad_of(table), at, g)
        if positions is not None and positions.requires_grad:
            padded = g if rows is None else rows.pad(g)
            _grad_of(positions)[:n] += padded.sum(axis=tuple(range(padded.ndim - 2)))

    return _make(out, (table,) if positions is None else (table, positions), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the trailing axis to zero mean / unit variance, then affine."""
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm affine params must be ({n},), got {gain.shape} and {bias.shape}"
        )
    mu = x.data.sum(axis=-1, keepdims=True) / n
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def bw(g):
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, n).sum(axis=0), owned=True)
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, n).sum(axis=0), owned=True)
        if x.requires_grad:
            gy = g * gain.data
            m1 = gy.sum(axis=-1, keepdims=True) / n
            m2 = (gy * xhat).sum(axis=-1, keepdims=True) / n
            _accumulate(x, (gy - m1 - xhat * m2) * inv, owned=True)

    return _make(out, (x, gain, bias), bw)


def _cdf_table() -> np.ndarray:
    """Five rows over the cells of Φ's range, plus a cell at each end: the
    Taylor coefficients Φ^(k)(c) / k!, k = 0..4, about each cell's centre
    c. Φ(c) comes from ``math.erfc``, and Φ^(k)(c) is (-1)^(k-1)
    He_(k-1)(c) φ(c), with the Hermite polynomials from He_(n+1) =
    c He_n - n He_(n-1). The end cells are the constants 0 and 1."""
    c = np.arange(-_CDF_CELLS, _CDF_CELLS + 1) / _CDF_PER_UNIT
    # erfc of a positive argument keeps its relative precision in the tail
    tail = [0.5 * math.erfc(abs(v) / math.sqrt(2.0)) for v in c.tolist()]
    pdf = np.exp(-0.5 * c * c) * _INV_SQRT_2PI
    he = [np.ones_like(c), c]
    for n in (1, 2):
        he.append(c * he[n] - n * he[n - 1])
    table = np.zeros((5, c.size + 2))
    table[0, 1:-1] = np.where(c < 0, tail, 1.0 - np.array(tail))
    table[0, -1] = 1.0
    for k in range(1, 5):
        table[k, 1:-1] = (-1) ** (k - 1) * he[k - 1] * pdf / math.factorial(k)
    return table


_CDF_TABLE = tuple(_cdf_table())


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Φ, the standard normal CDF, elementwise from ``_CDF_TABLE`` for an
    array of one or more axes, within 2^-52 of the exact value; NaN gives
    NaN. The result is in C order."""
    # x clipped to the end cells' centres; NaN stays NaN
    end = (_CDF_CELLS + 1) / _CDF_PER_UNIT
    xc = np.maximum(x, -end)
    np.minimum(xc, end, out=xc)
    rounded = xc + _ROUND
    t = rounded - _ROUND              # the nearest centre k / 512, exactly
    np.subtract(xc, t, out=t)         # xc less that centre, exactly
    i = rounded.view(np.int64)        # k's row, from the low bits of xc + _ROUND
    i -= _ROUND_BITS - _CDF_CELLS - 1
    b0, b1, b2, b3, b4 = _CDF_TABLE
    # only a NaN has a row outside the table; the clipping takes keep it
    # inside, and its t, and so its Φ, stay NaN
    p = b4.take(i, mode="clip")
    for b in (b3, b2, b1, b0):
        p *= t
        p += b.take(i, out=xc, mode="clip")
    return p


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, rate: float = 0.0,
        rng=None, rows: RowMap | None = None, residual: Tensor | None = None) -> Tensor:
    """The feed-forward branch ``(GELU(x @ w1 + b1) @ w2 + b2)`` over the
    last axis of ``x``, plus ``residual`` if given, as one op.

    Weights and biases with a leading axis S, (S, d, h) ``w1``, (S, h)
    ``b1``, (S, h, d') ``w2`` and (S, d') ``b2``, stack S branches over the
    same ``x`` into one (S, *x.shape[:-1], d') output: each dense layer is
    one batched product, the GELU one call over the stack, and every slice's
    values and gradients are those of its own ``ffn`` call, bit for bit. A
    stack takes no ``rate``, ``rows`` or ``residual``.

    GELU is the exact ``h * Φ(h)``, with Φ from a table built at import in a
    few ms and 0.35 MB: the degree-4 Taylor coefficients of Φ about the
    centres of 1/512-wide cells, the multiples of 1/512 in [-8.5, 8.5], taken
    from ``math.erfc`` and the Hermite recurrence. A call clips, gathers its
    cells' coefficients and runs four Horner steps, with no branch and no
    float-to-int cast; it is within 2^-52 (absolute) of ``math.erfc``'s Φ.
    Past the cells Φ is exactly 0 (it is under 1e-17 there) and exactly 1
    (the float64 rounding of its value). ``GELU(inf)`` is inf;
    ``GELU(-inf)`` and ``GELU(nan)`` are NaN, and nothing raises.

    At a non-zero ``rate`` inverted dropout follows the GELU, with draws
    from ``rng``; for a packed ``x`` with its ``RowMap`` the draws are made
    for the padded layout and the real rows' kept, so that they are the
    padded ``x``'s."""
    stacked = w1.data.ndim == 3
    if stacked and (rate or rows is not None or residual is not None):
        raise ShapeError("a stack of ffn branches takes no dropout, row map or residual")
    x_in = x.data[None] if stacked else x.data
    pre = _dense(x_in, w1, b1, stacked)
    cdf = _normal_cdf(pre)
    h = pre * cdf
    if rate:
        draws = rng.random(h.shape) if rows is None else \
            rows.pack(rng.random((rows.size, rows.n) + h.shape[1:]))
        keep = (draws >= rate) / (1.0 - rate)
        h *= keep
    out = _dense(h, w2, b2, stacked)
    if residual is not None:
        out = residual.data + out

    def bw(g):
        if residual is not None and residual.requires_grad:
            _accumulate(residual, g)
        _dense_bw(h, w2, b2, g)
        g_h = _times_wt(g, w2.data)
        if rate:
            g_h = g_h * keep
        pdf = np.exp(-0.5 * pre * pre) * _INV_SQRT_2PI
        g_pre = g_h * (cdf + pre * pdf)
        _dense_bw(x_in, w1, b1, g_pre, x)

    return _make(out, [t for t in (x, w1, b1, w2, b2, residual) if t is not None], bw)


def attention(x_q: Tensor, x_kv: Tensor, wq: Tensor, wk: Tensor, wv: Tensor | None = None,
              wo: Tensor | None = None, biases=(None, None, None, None), heads: int = 1,
              mask=None, scale: float = 1.0, rate: float = 0.0, rng=None,
              q_rows: RowMap | None = None, kv_rows: RowMap | None = None,
              residual: Tensor | None = None) -> Tensor:
    """The attention branch as one op: (B, n_q, d_in) inputs ``x_q`` project
    to queries ``x_q @ wq + bq``, and (B, n_k, d_in) inputs ``x_kv`` to keys
    ``x_kv @ wk + bk`` and values ``x_kv @ wv + bv``, or, without ``wv``, to
    keys that are also the values; ``biases`` holds (bq, bk, bv, bo), each
    optional. The op splits heads, scores ``(q_h @ k_h^T) * scale``, adds
    the key mask if any, takes the softmax over keys, applies inverted
    dropout at ``rate`` with draws from ``rng``, mixes the v_h rows, merges
    the heads back to (B, n_q, d), then projects by ``wo`` (+ bo) if given
    and adds ``residual`` if given. Backward reuses the forward's softmax.

    Padded keys take ``mask``, additive and broadcastable to (B, heads,
    n_q, n_k), if any. Packed (T, d_in) ``x_q`` come with their ``RowMap``
    ``q_rows``, packed ``x_kv`` with ``kv_rows``, whose ``mask`` is theirs:
    the projections run on the packed rows, the op lays the projected rows
    out padded with zero rows, and packed queries give packed (T, d)
    outputs; backward hands each packed operand its real rows' gradient."""
    bq, bk, bv, bo = biases
    if (q_rows is not None and not q_rows.fits(x_q)) \
            or (kv_rows is not None and not kv_rows.fits(x_kv)):
        raise ShapeError(f"attention needs each packed operand with its row map, "
                         f"got {x_q.shape} and {x_kv.shape}")
    if kv_rows is not None and mask is not None:
        raise ShapeError("packed keys take their mask from kv_rows, not from mask")
    mask = mask if kv_rows is None else kv_rows.mask
    q, k = _dense(x_q.data, wq, bq), _dense(x_kv.data, wk, bk)
    v = k if wv is None else _dense(x_kv.data, wv, bv)
    qd = q if q_rows is None else q_rows.pad(q)
    kd = k if kv_rows is None else kv_rows.pad(k)
    vd = kd if wv is None else v if kv_rows is None else kv_rows.pad(v)
    if qd.ndim != 3 or kd.shape != vd.shape or kd.ndim != 3 or qd.shape[::2] != kd.shape[::2] \
            or qd.shape[2] % heads:
        raise ShapeError(f"attention needs (B, n_q, d) queries and (B, n_k, d) keys and values "
                         f"with {heads} heads dividing d, got {qd.shape}, {kd.shape} and "
                         f"{vd.shape}")
    size, n_q, d = qd.shape
    n_k, dh = kd.shape[1], d // heads
    qh = qd.reshape(size, n_q, heads, dh).transpose(0, 2, 1, 3)
    k_t = kd.reshape(size, n_k, heads, dh).transpose(0, 2, 3, 1)
    vh = vd.reshape(size, n_k, heads, dh).transpose(0, 2, 1, 3)
    scores = (qh @ k_t) * scale                                  # (B, h, n_q, n_k)
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    keep = (rng.random(att.shape) >= rate) / (1.0 - rate) if rate else None
    att_d = att * keep if rate else att
    mixed = (att_d @ vh).transpose(0, 2, 1, 3).reshape(size, n_q, d)
    if q_rows is not None:
        mixed = q_rows.pack(mixed)
    out = mixed if wo is None else _dense(mixed, wo, bo)
    if residual is not None:
        out = residual.data + out

    def bw(g):
        if residual is not None and residual.requires_grad:
            _accumulate(residual, g)
        if wo is not None:
            _dense_bw(mixed, wo, bo, g)
            g = g @ wo.data.T
        if q_rows is not None:
            g = q_rows.pad(g)
        g_o = g.reshape(size, n_q, heads, dh).transpose(0, 2, 1, 3)
        g_att = g_o @ np.swapaxes(vh, -1, -2)
        if rate:
            g_att = g_att * keep
        g_s = ((g_att - (g_att * att).sum(axis=-1, keepdims=True)) * att) * scale
        g_q = (g_s @ np.swapaxes(k_t, -1, -2)).transpose(0, 2, 1, 3).reshape(size, n_q, d)
        g_k = (np.swapaxes(qh, -1, -2) @ g_s).transpose(0, 3, 1, 2).reshape(size, n_k, d)
        g_v = (np.swapaxes(att_d, -1, -2) @ g_o).transpose(0, 2, 1, 3).reshape(size, n_k, d)
        if q_rows is not None:
            g_q = q_rows.pack(g_q)
        if kv_rows is not None:
            g_k, g_v = kv_rows.pack(g_k), kv_rows.pack(g_v)
        # g_k, a transposed reshape, can be strided; C order, as g_q and g_v
        # have, keeps its products' bits. Input gradients add v's, k's, q's
        g_k = np.ascontiguousarray(g_k)
        if wv is None:
            g_k += g_v
        else:
            _dense_bw(x_kv.data, wv, bv, g_v, x_kv)
        _dense_bw(x_kv.data, wk, bk, g_k, x_kv)
        _dense_bw(x_q.data, wq, bq, g_q, x_q)

    parents = (x_q, x_kv, wq, wk, *(t for t in (wv, wo, *biases, residual) if t is not None))
    return _make(out, parents, bw)


def pair_scores(h: Tensor, w3: Tensor, w4: Tensor, score_w: Tensor, score_b: Tensor,
                rows: RowMap) -> Tensor:
    """Token-pair logits of the biaffine grid head, as one op, from packed
    (2, T, d) states ``h`` with their ``RowMap``: heads ``h[0]``, tails
    ``h[1]``. With a (d, K, d) bilinear ``w3``, a (K, 2d) linear ``w4`` and
    a (K, K) score layer ``score_w``, ``score_b``, cell (i, j) is ``m = [h_i
    w3[:, c, :] t_j]_c + w4[:, :d] h_i + w4[:, d:] t_j`` mapped to ``score_w
    m + score_b``: (B, n, n, K) logits. The op lays the states out padded
    with zero rows, adds the head term per row and the tail term per column
    (no (B, n, n, 2d) pair tensor is built), and hands back both halves'
    real rows' gradient as one (2, T, d) array."""
    d, k = h.shape[-1], w4.shape[0]
    if h.data.ndim != 3 or h.shape[:2] != (2, len(rows.flat)) \
            or w3.shape != (d, k, d) or w4.shape != (k, 2 * d) \
            or score_w.shape != (k, k) or score_b.shape != (k,):
        raise ShapeError(f"pair_scores needs packed (2, T, d) stacked heads and tails with "
                         f"their row map, (d, K, d) w3, (K, 2d) w4, (K, K) score_w and (K,) "
                         f"score_b, got {h.shape}, {w3.shape}, {w4.shape}, {score_w.shape} "
                         f"and {score_b.shape}")
    hh, ht = map(rows.pad, h.data)
    size, n, _ = hh.shape
    w3_2d = w3.data.reshape(d, k * d)
    a = (hh @ w3_2d).reshape(size, n * k, d)                      # row (i, c): h_i w3[:, c, :]
    bilinear = (a @ ht.transpose(0, 2, 1)).reshape(size, n, k, n).transpose(0, 1, 3, 2)
    w4_t = np.ascontiguousarray(w4.data.T)   # (2d, K): C order fixes the BLAS path, so the bits
    w4_head, w4_tail = w4_t[:d], w4_t[d:]
    m = bilinear + (hh @ w4_head).reshape(size, n, 1, k) + (ht @ w4_tail).reshape(size, 1, n, k)
    out = m @ score_w.data.T
    out += score_b.data

    def bw(g):
        g_m = g @ score_w.data
        # numpy's summation order follows memory layout: the head term's
        # gradient is summed from a copy in the bilinear term's layout, the
        # order that keeps same-seed runs bit-identical to earlier ones
        g_grid = np.empty_like(bilinear)
        g_grid[...] = g_m
        g_head, g_tail = g_grid.sum(axis=2), g_m.sum(axis=1)     # (B, n, K) each
        g_bil = g_grid.transpose(0, 1, 3, 2).reshape(size, n * k, n)
        g_a = g_bil @ ht
        if h.requires_grad:
            g_h = np.empty((2, size, n, d))
            np.add(g_head @ w4_head.T, g_a.reshape(size, n, k * d) @ w3_2d.T, out=g_h[0])
            np.add(g_tail @ w4_tail.T, (np.swapaxes(a, -1, -2) @ g_bil).transpose(0, 2, 1),
                   out=g_h[1])
            _accumulate(h, g_h.reshape(2, size * n, d).take(rows.flat, axis=1), owned=True)
        if w3.requires_grad:
            _accumulate(w3, (hh.reshape(-1, d).T @ g_a.reshape(-1, k * d)).reshape(d, k, d),
                        owned=True)
        if w4.requires_grad:
            _accumulate(w4, np.concatenate((hh.reshape(-1, d).T @ g_head.reshape(-1, k),
                                            ht.reshape(-1, d).T @ g_tail.reshape(-1, k))).T,
                        owned=True)
        if score_w.requires_grad:
            _accumulate(score_w, (m.reshape(-1, k).T @ g.reshape(-1, k)).T, owned=True)
        if score_b.requires_grad:
            _accumulate(score_b, g.sum(axis=(0, 1, 2)), owned=True)

    return _make(out, (h, w3, w4, score_w, score_b), bw)


def sigmoid(z: np.ndarray, e=None) -> np.ndarray:
    """The logistic function on a plain array, in stable form (untaped);
    ``e`` is ``exp(-|z|)`` when the caller has it already."""
    if e is None:
        e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)
