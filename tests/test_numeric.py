import math

import numpy as np
import pytest

from kgcm import numeric as nm
from kgcm.errors import ContractError, NumericError, ShapeError
from kgcm.numeric import (
    SeededRng,
    Tensor,
    backward,
    clear_tape,
    grad_check,
    sum_sq,
    tensor,
)

import oracle
from oracle import layer_norm, matmul, softmax_rows, sum_all


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


class TestMatmul:
    def test_identity(self):
        a = tensor(np.eye(2))
        b = tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(a, b).data, b.data)

    def test_zero(self):
        a = tensor([[1.0, 0.0], [0.0, 1.0]])
        b = tensor([[0.0], [0.0]])
        np.testing.assert_array_equal(matmul(a, b).data, np.zeros((2, 1)))

    def test_hand_checked_product(self):
        a = tensor([[1.0, 2.0], [3.0, 4.0]])
        b = tensor([[5.0], [6.0]])
        # dot-product oracle: rows [1,2].[5,6] = 17, [3,4].[5,6] = 39
        np.testing.assert_allclose(matmul(a, b).data, [[17.0], [39.0]])

    def test_dimension_mismatch_names_both_shapes(self):
        a = tensor(np.ones((2, 3)))
        b = tensor(np.ones((2, 2)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(a, b)
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3,\)"):
            matmul(a, tensor(np.ones(3)))
        with pytest.raises(ShapeError, match=r"\(3,\).*\(3, 2\)"):
            matmul(tensor(np.ones(3)), tensor(np.ones((3, 2))))

    def test_gradients(self):
        rng = SeededRng(0)
        b = tensor(rng.normal((3, 2)))

        def f(x):
            return sum_sq(matmul(x, b))

        x = tensor(rng.normal((2, 3)))
        assert grad_check(f, x) < 1e-6


class TestSoftmaxRows:
    def test_symmetry(self):
        out = softmax_rows(tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_analytically_forced(self):
        out = softmax_rows(tensor([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(out.data, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = SeededRng(0)
        out = softmax_rows(tensor(rng.normal((3, 4), std=10.0)))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(3), atol=1e-12)
        assert (out.data >= 0).all()

    def test_empty_row_rejected(self):
        with pytest.raises(ShapeError):
            softmax_rows(tensor(np.ones((2, 0))))

    def test_shift_invariance(self):
        rng = SeededRng(1)
        m = rng.normal((3, 5))
        a = softmax_rows(tensor(m))
        b = softmax_rows(tensor(m + 123.456))
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_sum_of_softmax_has_zero_gradient(self):
        x = tensor([[0.3, -1.2, 0.8]], requires_grad=True)
        loss = sum_all(softmax_rows(x))
        grads = backward(loss, params=(x,))
        np.testing.assert_allclose(grads[x], np.zeros((1, 3)), atol=1e-12)

    def test_gradient_under_weighted_readout(self):
        # a random readout gives every score a gradient, unlike the sum above
        rng = SeededRng(4)
        readout = tensor(rng.normal((3, 5)))

        def f(x):
            return sum_sq(oracle.mul(softmax_rows(x), readout))

        assert grad_check(f, tensor(rng.normal((3, 5)))) < 1e-5


class TestLayerNorm:
    def test_constant_row_collapses_to_zero(self):
        h = tensor([[4.0, 4.0, 4.0]])
        out = layer_norm(h, tensor(np.ones(3)), tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)))

    def test_zero_gamma_broadcasts_beta(self):
        h = tensor([[1.0, -7.0, 2.5]])
        beta = np.array([9.0, 8.0, 7.0])
        out = layer_norm(h, tensor(np.zeros(3)), tensor(beta))
        np.testing.assert_allclose(out.data, beta[None, :])

    def test_two_point_row(self):
        # mean 2, population std 1 -> [-1, 1]
        out = layer_norm(tensor([1.0, 3.0]), tensor(np.ones(2)), tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-5)

    def test_row_statistics(self):
        rng = SeededRng(2)
        h = tensor(rng.normal((6, 9), std=3.0) + 5.0)
        out = layer_norm(h, tensor(np.ones(9)), tensor(np.zeros(9)))
        np.testing.assert_allclose(out.data.mean(axis=1), np.zeros(6), atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=1), np.ones(6), atol=1e-4)

    def test_zero_length_axis_rejected(self):
        with pytest.raises(ShapeError):
            layer_norm(tensor(np.ones((2, 0))), tensor(np.ones(0)), tensor(np.zeros(0)))

    def test_gradient(self):
        gamma = tensor(np.array([1.1, 0.9, 1.3, 0.7]))
        beta = tensor(np.array([0.1, -0.2, 0.0, 0.4]))

        def f(x):
            return sum_sq(layer_norm(x, gamma, beta))

        rng = SeededRng(0)
        x = tensor(rng.normal((3, 4)))
        assert grad_check(f, x) < 1e-4


class TestBackward:
    def test_quadratic(self):
        x = tensor([3.0], requires_grad=True)
        loss = sum_sq(x)
        grads = backward(loss, params=(x,))
        np.testing.assert_allclose(grads[x], [6.0])

    def test_unused_leaf_gets_zero(self):
        x = tensor([3.0], requires_grad=True)
        y = tensor([5.0], requires_grad=True)
        loss = sum_sq(x)
        grads = backward(loss, params=(x, y))
        np.testing.assert_array_equal(grads[y], [0.0])

    def test_non_scalar_loss_rejected(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        v = oracle.mul(x, x)
        with pytest.raises(ContractError):
            backward(v)

    def test_empty_tape_rejected(self):
        x = tensor(np.asarray(1.0), requires_grad=True)
        with pytest.raises(ContractError):
            backward(x)

    def test_tape_cleared_after_backward(self):
        x = tensor([1.0], requires_grad=True)
        backward(sum_sq(x), params=(x,))
        assert nm.tape_size() == 0

    def test_fanout_accumulates(self):
        x = tensor([2.0], requires_grad=True)
        loss = nm.add(sum_sq(x), sum_sq(x))
        grads = backward(loss, params=(x,))
        np.testing.assert_allclose(grads[x], [8.0])


class TestGradCheck:
    def test_quadratic_is_exact(self):
        err = grad_check(sum_sq, tensor([3.0]))
        assert err < 1e-10

    def test_layer_norm_sum(self):
        # gamma=1/beta=0 makes the row sums identically zero, so probe at a
        # generic affine point where the gradient is informative
        rng = SeededRng(0)
        gamma = tensor(rng.normal((5,), std=1.0) + 1.0)
        beta = tensor(rng.normal((5,), std=0.5))

        def f(x):
            return sum_all(layer_norm(x, gamma, beta))

        err = grad_check(f, tensor(rng.normal((4, 5))))
        assert err < 1e-4

    def test_nonfinite_probe_rejected(self):
        def f(x):
            with np.errstate(over="ignore"):
                val = np.exp(np.exp(x.data.sum() + 2000.0))
            out = Tensor.__new__(Tensor)
            out.data = np.asarray(val)
            out.requires_grad = False
            out.name = None
            return out

        x = tensor([1.0], requires_grad=True)
        with pytest.raises((NumericError, ContractError)):
            grad_check(lambda t: nm.sse(t, np.array([0.0])) if False else f(t), x)


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "op",
        [nm.relu, oracle.sigmoid],
        ids=["relu", "sigmoid"],
    )
    def test_unary(self, op):
        rng = SeededRng(3)

        def f(x):
            return sum_sq(op(x))

        # shift away from relu's kink so central differences are clean
        x = tensor(rng.normal((3, 3)) + 0.05)
        assert grad_check(f, x) < 1e-5

    def test_mix_gradients(self):
        rng = SeededRng(4)
        a = tensor(rng.normal((4,)))
        b = tensor(rng.normal((4,)))

        def f(g):
            return sum_sq(oracle.mix(oracle.sigmoid(g), a, b))

        assert grad_check(f, tensor(rng.normal((4,)))) < 1e-5

    def test_structured_ops_gradients(self):
        rng = SeededRng(5)
        w = tensor(rng.glorot(3, 4))

        def f(x):
            y = nm.linear(nm.take(x, np.s_[1:, :]), w)
            return sum_sq(nm.add(nm.mean_rows(y), nm.take(nm.linear(x, w), 0)))

        assert grad_check(f, tensor(rng.normal((5, 4)))) < 1e-5

    def test_gather_rows_gradient(self):
        def f(table):
            picked = nm.gather_rows(table, [0, 2, 2, 1])
            return sum_sq(picked)

        rng = SeededRng(6)
        assert grad_check(f, tensor(rng.normal((3, 4)))) < 1e-5


class TestFusedKernels:
    # the oracle's three graph kernels, which graph_layer is held to in
    # test_graph, and graph_layer take stacks of steps: one step is a stack of one

    def test_relation_softmax_matches_composition(self):
        rng = SeededRng(20)
        h = tensor(rng.normal((1, 5, 3)))
        wq = tensor(rng.glorot(3, 3))
        wk = tensor(rng.glorot(3, 3))
        fused = oracle.relation_softmax(h, wq, wk)
        step = tensor(h.data[0])
        composed = oracle.softmax_rows(nm.relu(nm.matmul_nt(oracle.matmul(step, wq), oracle.matmul(step, wk))))
        np.testing.assert_array_equal(fused.data[0], composed.data)

    @pytest.mark.parametrize("probe", ["states", "w_query", "w_key"])
    def test_relation_softmax_gradients(self, probe):
        rng = SeededRng(21)
        base = {
            "states": tensor(rng.normal((1, 4, 3))),
            "w_query": tensor(rng.glorot(3, 3)),
            "w_key": tensor(rng.glorot(3, 3)),
        }
        readout = tensor(rng.normal((1, 4, 4)))

        def f(x):
            args = dict(base)
            args[probe] = x
            return sum_sq(oracle.mul(oracle.relation_softmax(args["states"], args["w_query"], args["w_key"]), readout))

        assert grad_check(f, Tensor(base[probe].data.copy())) < 1e-4

    def test_conv_residual_norm_matches_composition(self):
        rng = SeededRng(22)
        h = tensor(rng.normal((1, 3, 5)))
        a = tensor(np.full((1, 3, 3), 1.0 / 3.0))
        w = tensor(rng.glorot(5, 5))
        gamma = tensor(rng.normal((5,)) + 1.0)
        beta = tensor(rng.normal((5,)))
        fused = oracle.conv_residual_norm(h, a, w, gamma, beta)
        step, relation = tensor(h.data[0]), tensor(a.data[0])
        composed = layer_norm(nm.add(nm.relu(oracle.matmul(oracle.matmul(relation, step), w)), step), gamma, beta)
        np.testing.assert_array_equal(fused.data[0], composed.data)

    @pytest.mark.parametrize("probe", ["states", "relation", "w_trans", "gamma", "beta"])
    def test_conv_residual_norm_gradients(self, probe):
        rng = SeededRng(23)
        base = {
            "states": tensor(rng.normal((1, 3, 5))),
            "relation": tensor(np.abs(rng.normal((1, 3, 3))) + 0.1),
            "w_trans": tensor(rng.glorot(5, 5)),
            "gamma": tensor(rng.normal((5,)) + 1.0),
            "beta": tensor(rng.normal((5,))),
        }
        readout = tensor(rng.normal((1, 3, 5)))

        def f(x):
            args = dict(base)
            args[probe] = x
            out = oracle.conv_residual_norm(args["states"], args["relation"], args["w_trans"], args["gamma"], args["beta"])
            return sum_sq(oracle.mul(out, readout))

        assert grad_check(f, Tensor(base[probe].data.copy())) < 1e-4

    def test_graph_kernels_take_stacks_only(self):
        rng = SeededRng(25)
        w = tensor(rng.glorot(3, 3))
        gamma, beta = tensor(np.ones(3)), tensor(np.zeros(3))
        stack = tensor(rng.normal((2, 4, 3)))
        start = np.full((4, 4), 0.25)
        for states, w_trans, matrix in [
            (tensor(rng.normal((4, 3))), w, start),  # one step not as a stack
            (tensor(np.zeros((0, 4, 3))), w, start),  # no steps
            (stack, tensor(rng.glorot(3, 4)), start),  # a non-square transform
            (stack, w, np.full((3, 3), 1.0 / 3.0)),  # a start matrix over other nodes
        ]:
            with pytest.raises(ShapeError):
                nm.graph_layer(states, w, w, w_trans, gamma, beta, matrix, 0.5)
        with pytest.raises(ShapeError):
            nm.graph_layer(stack, w, w, w, tensor(np.ones(4)), beta, start, 0.5)

    def test_history_columns_layout_and_padding(self):
        rows = tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        # full history at t=2, n=2: rows 1..2 transposed
        out = nm.history_columns(rows, 2, 2)
        np.testing.assert_array_equal(out.data, [[3.0, 5.0], [4.0, 6.0]])
        # padded at t=0, n=3: row 0 repeated
        padded = nm.history_columns(rows, 0, 3)
        np.testing.assert_array_equal(padded.data, [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])

    @pytest.mark.parametrize("t_steps", [1, 3, 8, 20])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_history_columns_of_every_step_scatter_as_add_at(self, t_steps, n):
        # the backward over all steps of a sequence sums each row in np.add.at's order, bit for bit
        rng = SeededRng(26)
        rows = Tensor(rng.normal((t_steps, 4)), requires_grad=True)
        g = rng.normal((t_steps, 4, n)) * np.exp(3.0 * rng.normal((t_steps, 4, n)))
        grad = backward(sum_all(oracle.mul(nm.history_columns(rows, range(t_steps), n), tensor(g))), [rows])[rows]
        want = np.zeros((t_steps, 4))
        np.add.at(want, np.maximum(np.arange(t_steps)[:, None] + np.arange(1 - n, 1), 0), np.swapaxes(g, 1, 2))
        assert grad.tobytes() == want.tobytes()

    def test_history_columns_gradient(self):
        def f(rows):
            out = nm.history_columns(rows, 1, 3)
            return sum_sq(out)

        rng = SeededRng(24)
        assert grad_check(f, tensor(rng.normal((4, 3)))) < 1e-5


# Composites of the generic ops, the reference for each fused value-path kernel.


def _time_attention_composite(x, wq, wk, wv, wo, gamma, beta, heads):
    head_dim = x.data.shape[1] // heads
    q, k, v = oracle.matmul(x, wq), oracle.matmul(x, wk), oracle.matmul(x, wv)
    merged = None
    for h in range(heads):
        cols = np.s_[:, h * head_dim:(h + 1) * head_dim]
        qh, kh, vh = (nm.take(m, cols) if heads > 1 else m for m in (q, k, v))
        part = oracle.matmul(oracle.softmax_rows(nm.scale(nm.matmul_nt(qh, kh), 1.0 / math.sqrt(head_dim))), vh)
        merged = part if merged is None else oracle.concat_cols(merged, part)
    return layer_norm(nm.add(oracle.matmul(merged, wo), x), gamma, beta)


def _feature_attention_composite(x, wq, wk, wv, wo, gamma, beta, bias):
    q, k, v = oracle.matmul(x, wq), oracle.matmul(x, wk), oracle.matmul(x, wv)
    scores = nm.scale(oracle.matmul_tn(q, k), 1.0 / math.sqrt(x.data.shape[0]))
    if bias is not None:
        scores = nm.add(scores, nm.constant(bias))
    att = nm.matmul_nt(v, oracle.softmax_rows(scores))
    return layer_norm(nm.add(oracle.matmul(att, wo), x), gamma, beta)


def _feedforward_composite(x, w1, b1, w2, b2, gamma, beta):
    ff = nm.linear(nm.relu(nm.linear(x, w1, b1)), w2, b2)
    return layer_norm(nm.add(ff, x), gamma, beta)


def _gate_composite(h, z, w, b=None):
    return oracle.mix(oracle.sigmoid(nm.linear(oracle.concat_cols(h, z), w, b)), h, z)


def _cross_attention_composite(rows, tokens, counts, wq, wk, wv, pq, pk):
    """All T rows scored under the packed-tokens mask, text-free rows zeroed after."""
    d = rows.data.shape[1]
    steps = np.arange(len(counts))
    mask = np.where(np.repeat(steps, counts) == steps[:, None], 0.0, nm.MASKED_SCORE)
    tok = nm.constant(tokens)
    q = nm.add(nm.linear(rows, wq), pq)
    k = nm.add(nm.linear(tok, wk), pk)
    scores = nm.add(nm.scale(nm.matmul_nt(q, k), 1.0 / math.sqrt(d)), nm.constant(mask))
    attended = oracle.matmul(oracle.softmax_rows(scores), nm.linear(tok, wv))
    return oracle.mul(attended, nm.constant((counts > 0).astype(np.float64)[:, None]))


def _run(fn, arrays, readout, **extra):
    """Output and gradients of ``sum(fn(...) * readout)`` for every array argument."""
    clear_tape()
    leaves = {name: Tensor(a.copy(), requires_grad=True) for name, a in arrays.items()}
    out = fn(*leaves.values(), **extra)
    grads = backward(sum_all(oracle.mul(out, tensor(readout))), params=leaves.values())
    return out.data, {name: grads[t] for name, t in leaves.items()}


def _assert_matches(fused, composite, arrays, rng, vanishing=(), **extra):
    """Forward within 1e-14 and every gradient within 1e-12, relative to the largest entry of the composite's.

    The gradients named in ``vanishing`` are zero in exact arithmetic (a
    softmax is blind to a shift of a whole row of scores, and a one-step
    softmax is constant); both sides must be zero to within 1e-12 of the
    largest gradient of the call.
    """
    readout = rng.normal(composite(*(tensor(a) for a in arrays.values()), **extra).data.shape)
    f_out, f_grads = _run(fused, arrays, readout, **extra)
    c_out, c_grads = _run(composite, arrays, readout, **extra)
    assert np.abs(f_out - c_out).max() <= 1e-14 * np.abs(c_out).max()
    largest = max(np.abs(g).max() for g in c_grads.values())
    for name in arrays:
        if name in vanishing:
            assert max(np.abs(f_grads[name]).max(), np.abs(c_grads[name]).max()) <= 1e-12 * largest, name
            continue
        scale = np.abs(c_grads[name]).max()
        assert scale > 0.0, name
        assert np.abs(f_grads[name] - c_grads[name]).max() <= 1e-12 * scale, name


def _block_arrays(rng, t, d, hidden=None):
    arrays = {"x": rng.normal((t, d))}
    if hidden is None:
        arrays.update({name: rng.glorot(d, d) for name in ("wq", "wk", "wv", "wo")})
    else:
        arrays.update(w1=rng.glorot(hidden, d), b1=rng.normal((hidden,)), w2=rng.glorot(d, hidden), b2=rng.normal((d,)))
    arrays.update(gamma=rng.normal((d,)) + 1.0, beta=rng.normal((d,)))
    return arrays


class TestValuePathKernels:
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("t", [1, 6])
    def test_time_attention_matches_composite(self, heads, t):
        rng = SeededRng(30 + t + heads)
        vanishing = ("wq", "wk") if t == 1 else ()
        _assert_matches(nm.time_attention_norm, _time_attention_composite, _block_arrays(rng, t, 4), rng,
                        vanishing=vanishing, heads=heads)

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("t", [1, 6])
    def test_feature_attention_matches_composite(self, with_bias, t):
        rng = SeededRng(40 + t + with_bias)
        raw = rng.uniform((4, 4)) + 0.1
        bias = np.log1p(raw / raw.sum(axis=1, keepdims=True)) if with_bias else None
        _assert_matches(nm.feature_attention_norm, _feature_attention_composite, _block_arrays(rng, t, 4), rng,
                        bias=bias)

    @pytest.mark.parametrize("t", [1, 6])
    def test_feedforward_matches_composite(self, t):
        rng = SeededRng(50 + t)
        _assert_matches(nm.feedforward_norm, _feedforward_composite, _block_arrays(rng, t, 4, hidden=16), rng)

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("t", [1, 5])
    def test_gate_matches_composite(self, with_bias, t):
        rng = SeededRng(60 + t + with_bias)
        arrays = {"h": rng.normal((t, 4)), "z": rng.normal((t, 4)), "w": rng.glorot(4, 8)}
        if with_bias:
            arrays["b"] = rng.normal((4,))
        _assert_matches(nm.sigmoid_gate, _gate_composite, arrays, rng)

    @pytest.mark.parametrize("counts", [[2, 1, 3, 1], [0, 3, 0, 1], [0, 0, 4, 0], [5]],
                             ids=["every-row", "some-rows", "one-row", "one-step"])
    def test_cross_attention_matches_composite(self, counts):
        d = 4
        rng = SeededRng(70 + len(counts) + sum(counts))
        counts = np.array(counts)
        tokens = rng.normal((int(counts.sum()), d))
        arrays = {"rows": rng.normal((len(counts), d)), "wq": rng.glorot(d, d), "wk": rng.glorot(d, d),
                  "wv": rng.glorot(d, d), "pq": rng.normal((d,)), "pk": rng.normal((d,))}

        def fused(rows, wq, wk, wv, pq, pk):
            return nm.step_cross_attention(rows, tokens, counts, wq, wk, wv, pq, pk)

        def composite(rows, wq, wk, wv, pq, pk):
            return _cross_attention_composite(rows, tokens, counts, wq, wk, wv, pq, pk)

        _assert_matches(fused, composite, arrays, rng, vanishing=("pk",))

    def test_cross_attention_leaves_text_free_rows_out(self):
        d = 4
        rng = SeededRng(80)
        counts = np.array([0, 2, 0])
        w = [tensor(rng.glorot(d, d)) for _ in range(3)]
        rows = tensor(rng.normal((3, d)), requires_grad=True)
        out = nm.step_cross_attention(rows, rng.normal((2, d)), counts, *w, tensor(np.zeros(d)), tensor(np.zeros(d)))
        np.testing.assert_array_equal(out.data[[0, 2]], np.zeros((2, d)))
        grads = backward(sum_sq(out), params=(rows,))
        np.testing.assert_array_equal(grads[rows][[0, 2]], np.zeros((2, d)))

    def test_one_tape_entry_each(self):
        rng = SeededRng(81)
        block = _block_arrays(rng, 3, 4)
        args = [tensor(a, requires_grad=True) for a in block.values()]
        nm.time_attention_norm(*args, heads=2)
        nm.feature_attention_norm(*args)
        ff = _block_arrays(rng, 3, 4, hidden=8)
        nm.feedforward_norm(*(tensor(a, requires_grad=True) for a in ff.values()))
        nm.sigmoid_gate(args[0], args[0], tensor(rng.glorot(4, 8), requires_grad=True))
        nm.step_cross_attention(args[0], rng.normal((2, 4)), np.array([1, 0, 1]), *args[1:4], args[5], args[6])
        assert nm.tape_size() == 5

    def test_shape_checks(self):
        rng = SeededRng(82)
        block = [tensor(a) for a in _block_arrays(rng, 3, 4).values()]
        x, wq, wk, wv, wo, gamma, beta = block
        with pytest.raises(ShapeError):
            nm.time_attention_norm(x, wq, wk, wv, wo, gamma, beta, heads=3)
        with pytest.raises(ShapeError):
            nm.time_attention_norm(tensor(np.ones(4)), wq, wk, wv, wo, gamma, beta)
        with pytest.raises(ShapeError):
            nm.feature_attention_norm(x, wq, wk, wv, tensor(np.ones((4, 3))), gamma, beta)
        with pytest.raises(ShapeError):
            nm.feature_attention_norm(x, wq, wk, wv, wo, gamma, beta, bias=np.zeros((3, 3)))
        with pytest.raises(ShapeError):
            nm.feedforward_norm(x, tensor(np.ones((8, 3))), tensor(np.ones(8)), tensor(np.ones((4, 8))),
                                tensor(np.ones(4)), gamma, beta)
        with pytest.raises(ShapeError):
            nm.sigmoid_gate(x, x, tensor(np.ones((4, 4))))
        with pytest.raises(ShapeError):
            nm.sigmoid_gate(x, x, tensor(np.ones((4, 8))), tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            nm.step_cross_attention(x, np.ones((2, 4)), np.array([1, 0, 0]), wq, wk, wv, gamma, beta)
        with pytest.raises(ShapeError):
            nm.step_cross_attention(x, np.ones((0, 4)), np.array([0, 0, 0]), wq, wk, wv, gamma, beta)

    def test_non_finite_result_rejected(self):
        x, wq, wk, wv, wo, gamma, beta = (tensor(a) for a in _block_arrays(SeededRng(83), 3, 4).values())
        with pytest.raises(NumericError), np.errstate(over="ignore"):
            nm.feature_attention_norm(x, wq, wk, wv, wo, tensor(np.full(4, 1e308)), tensor(np.full(4, 1e308)))


class TestRowSum:
    """``_row_sum`` gives the bytes of numpy's own row sum; a numpy that moves its order or start value fails here."""

    @staticmethod
    def _assert_numpy_bytes(x):
        got, want = nm._row_sum(x), x.sum(axis=-1, keepdims=True)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_numpy_sum(self, n):
        rng = np.random.default_rng(n)
        for shape in ((n,), (5, n), (1000, n), (48, 32, n), (2, 3, 4, n)):
            # magnitudes over 16 decades, so that any other order of the additions rounds differently
            self._assert_numpy_bytes(rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape))
        # a layout numpy may sum in another order, which takes numpy's own sum
        stack = rng.standard_normal((6, n, 7)) * 10.0 ** rng.integers(-8, 9, (6, n, 7))
        self._assert_numpy_bytes(stack.swapaxes(1, 2))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_signed_zeros(self, n):
        # +0.0 + -0.0 is +0.0, so a row of all -0.0 shows numpy's start value
        rows = np.random.default_rng(100 + n).choice(np.array([0.0, -0.0, 1.0, -1.0]), (256, n))
        rows[0], rows[1] = -0.0, 0.0
        rows[2] = np.where(np.arange(n) % 2, 0.0, -0.0)
        assert np.signbit(rows[0]).all()
        self._assert_numpy_bytes(rows)
        self._assert_numpy_bytes(rows[:1])


class TestTensorInvariantsAndTape:
    def test_rank_above_three_rejected(self):
        with pytest.raises(ShapeError):
            tensor(np.zeros((1, 1, 1, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            tensor([np.nan])
        with pytest.raises(NumericError):
            tensor([np.inf])

    def test_op_boundary_rejects_nonfinite(self):
        big = tensor(np.full((2, 2), 1e308))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            nm.add(big, big)

    def test_no_tape_records_nothing(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with nm.no_tape():
            nm.relu(x)
        assert nm.tape_size() == 0


class TestSeededRng:
    def test_same_seed_same_sequence(self):
        a = SeededRng(12345).normal((4, 4))
        b = SeededRng(12345).normal((4, 4))
        np.testing.assert_array_equal(a, b)

    def test_children_are_independent_and_stable(self):
        r = SeededRng(7)
        a1 = r.child("init").normal((3,))
        a2 = SeededRng(7).child("init").normal((3,))
        b = SeededRng(7).child("batch").normal((3,))
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_known_fnv_vector(self):
        assert nm.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
