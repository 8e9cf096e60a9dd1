import math

import numpy as np
import pytest

from kgcm import numeric as nm
from kgcm.errors import ContractError, NumericError, ShapeError
from kgcm.gradcheck import grad_check
from kgcm.numeric import (
    SeededRng,
    Tensor,
    backward,
    clear_tape,
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
        # a scalar, or a (C,) stack of window losses (TestTapedWindowStacks), but no loss of rank 2
        x = tensor([[1.0, 2.0]], requires_grad=True)
        v = oracle.mul(x, x)
        with pytest.raises(ContractError, match=r"a scalar loss or a \(C,\) stack of window losses"):
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


def _time_attention_composite(x, wq, wk, wv, wo, gamma, beta):
    q, k, v = oracle.matmul(x, wq), oracle.matmul(x, wk), oracle.matmul(x, wv)
    att = oracle.matmul(oracle.softmax_rows(nm.scale(nm.matmul_nt(q, k), 1.0 / math.sqrt(x.data.shape[1]))), v)
    return layer_norm(nm.add(oracle.matmul(att, wo), x), gamma, beta)


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


def _assert_cut_is_last_row(kernel, arrays, rng, **extra):
    """``kernel(..., last_only=True)`` against the uncut kernel followed by ``take`` of its last row.

    The (1, d) outputs agree within 1e-12 relative to the largest entry, and
    so does every gradient, relative to the largest entry of the uncut one's;
    a gradient that is zero there must be zero in the cut kernel too.
    """
    def cut(*args):
        return kernel(*args, last_only=True, **extra)

    def uncut(*args):
        return nm.take(kernel(*args, **extra), np.s_[-1:])

    readout = rng.normal((1, arrays["x"].shape[1]))
    c_out, c_grads = _run(cut, arrays, readout)
    u_out, u_grads = _run(uncut, arrays, readout)
    assert c_out.shape == u_out.shape == readout.shape
    assert np.abs(c_out - u_out).max() <= 1e-12 * np.abs(u_out).max()
    for name in arrays:
        assert np.abs(c_grads[name] - u_grads[name]).max() <= 1e-12 * np.abs(u_grads[name]).max(), name


class TestValuePathKernels:
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("t", [1, 6])
    def test_feature_attention_last_only_is_the_last_row(self, with_bias, t):
        rng = SeededRng(95 + t + with_bias)
        raw = rng.uniform((4, 4)) + 0.1
        bias = np.log1p(raw / raw.sum(axis=1, keepdims=True)) if with_bias else None
        _assert_cut_is_last_row(nm.feature_attention_norm, _block_arrays(rng, t, 4), rng, bias=bias)

    @pytest.mark.parametrize("t", [1, 6])
    def test_time_attention_matches_composite(self, t):
        rng = SeededRng(31 + t)
        vanishing = ("wq", "wk") if t == 1 else ()
        _assert_matches(nm.time_attention_norm, _time_attention_composite, _block_arrays(rng, t, 4), rng,
                        vanishing=vanishing)

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
        nm.time_attention_norm(*args)
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


def _stack_cases():
    """``name: (call, params)``: ``call(x, *params)`` runs the op on (T, D) rows or a (C, T, D) stack ``x``."""
    rng = SeededRng(90)
    block = list(_block_arrays(rng, 5, 4).values())[1:]
    ff = list(_block_arrays(rng, 5, 4, hidden=8).values())[1:]
    raw = rng.uniform((4, 4)) + 0.1
    bias = np.log1p(raw / raw.sum(axis=1, keepdims=True))
    table = rng.normal((6, 4))
    return {
        "add": (nm.add, [rng.normal((4,))]),
        "relu": (nm.relu, []),
        "linear": (nm.linear, [rng.glorot(3, 4), rng.normal((3,))]),
        "matmul_nt": (nm.matmul_nt, [rng.normal((3, 4))]),
        "gather_rows": (lambda x, t: nm.gather_rows(t, (np.abs(x.data) * 10).astype(int)[..., 0] % 6), [table]),
        "sigmoid_gate": (lambda x, w, b: nm.sigmoid_gate(x, tensor(np.cos(x.data)), w, b),
                         [rng.glorot(4, 8), rng.normal((4,))]),
        "time_attention_norm": (nm.time_attention_norm, block),
        "feature_attention_norm": (lambda x, *p: nm.feature_attention_norm(x, *p, bias=bias), block),
        "feature_attention_norm-last-only": (
            lambda x, *p: nm.feature_attention_norm(x, *p, bias=bias, last_only=True), block),
        "feedforward_norm": (nm.feedforward_norm, ff),
    }


class TestWindowStacks:
    """The ops scoring runs on a (C, T, D) stack of windows: bitwise per window off the tape, refused on it."""

    STACK = SeededRng(91).normal((3, 5, 4))

    @pytest.mark.parametrize("name", list(_stack_cases()))
    def test_each_window_of_an_untaped_stack_is_its_own_call(self, name):
        call, params = _stack_cases()[name]
        params = [tensor(p, requires_grad=True) for p in params]
        with nm.no_tape():
            stacked = call(tensor(self.STACK), *params).data
            alone = [call(tensor(x), *params).data for x in self.STACK]
        assert stacked.shape == (len(alone),) + alone[0].shape
        assert [s.tobytes() for s in stacked] == [a.tobytes() for a in alone]

    @pytest.mark.parametrize("name", list(_stack_cases()))
    def test_a_stack_on_a_recording_tape_records_one_entry(self, name):
        call, params = _stack_cases()[name]
        params = [tensor(p, requires_grad=True) for p in params]
        stacked = call(tensor(self.STACK, requires_grad=True), *params)
        assert stacked.requires_grad and nm.tape_size() == 1
        clear_tape()
        call(tensor(self.STACK[0], requires_grad=True), *params)  # as one window's rows do
        assert nm.tape_size() == 1

    def test_cross_attention_takes_one_window(self):
        w = [tensor(np.eye(4)) for _ in range(5)]
        with nm.no_tape(), pytest.raises(ShapeError):
            nm.step_cross_attention(tensor(self.STACK), np.ones((2, 4)), np.array([1, 0, 1, 0, 0]), *w)


def _taped_cases():
    """``name: (call, params, shape)``: ``call(x, *params)`` on one window's ``shape`` rows or a (C, *shape) stack.

    Every case's output and gradients depend on its input rows, and the
    ReLU masks give gradients signed zeros.
    """
    rng = SeededRng(92)
    block = list(_block_arrays(rng, 6, 4).values())[1:]
    ff = list(_block_arrays(rng, 6, 4, hidden=8).values())[1:]
    raw = rng.uniform((4, 4)) + 0.1
    bias = np.log1p(raw / raw.sum(axis=1, keepdims=True))
    stacked = lambda x: x.data.ndim == 3  # noqa: E731
    return {
        "add": (lambda x: nm.add(x, nm.relu(x)), [], (6, 4)),
        "relu": (nm.relu, [], (6, 4)),
        "linear": (nm.linear, [rng.glorot(3, 4), rng.normal((3,))], (6, 4)),
        "linear-no-bias": (nm.linear, [rng.glorot(3, 4)], (6, 4)),
        # one window's rank-1 row, (1, 4) in a stack, as the forecast heads and the auxiliary head take it
        "linear-one-row": (lambda x, w, b: nm.linear(nm.relu(x), w, b), [rng.glorot(3, 4), rng.normal((3,))], (4,)),
        "matmul_nt": (nm.matmul_nt, [rng.normal((3, 4))], (6, 4)),
        "gather_rows": (lambda x, t: nm.add(nm.gather_rows(t, (np.abs(x.data) * 10).astype(int)[..., 0] % 7), x),
                        [rng.normal((7, 4))], (6, 4)),
        "take": (lambda x: nm.take(x, np.s_[:, 2:5] if stacked(x) else np.s_[2:5]), [], (6, 4)),
        "take-last-row": (lambda x: nm.take(x, np.s_[:, -1:] if stacked(x) else -1), [], (6, 4)),
        "sigmoid_gate": (lambda x, w, b: nm.sigmoid_gate(x, nm.relu(x), w, b), [rng.glorot(4, 8), rng.normal((4,))],
                         (6, 4)),
        "sigmoid_gate-constant-z": (lambda x, w: nm.sigmoid_gate(x, tensor(np.cos(x.data)), w), [rng.glorot(4, 8)],
                                    (6, 4)),
        "time_attention_norm": (nm.time_attention_norm, block, (6, 4)),
        "feature_attention_norm": (lambda x, *p: nm.feature_attention_norm(x, *p, bias=bias), block, (6, 4)),
        "feature_attention_norm-last-only": (
            lambda x, *p: nm.feature_attention_norm(x, *p, bias=bias, last_only=True), block, (6, 4)),
        "feedforward_norm": (nm.feedforward_norm, ff, (6, 4)),
        "feedforward_norm-one-row": (nm.feedforward_norm, ff, (1, 4)),
    }


def _window_grads(call, params, x, target, windows):
    """The output, the input gradient and the parameter gradients of ``sse(call(x, *params), target)``."""
    clear_tape()
    params = [tensor(p, requires_grad=True) for p in params]
    x = tensor(x, requires_grad=True)
    out = call(x, *params)
    grads = backward(nm.sse(out, target.reshape(out.data.shape), windows=windows), params=[x] + params)
    return out.data, grads[x], [grads[p] for p in params]


class TestTapedWindowStacks:
    """A stack of C windows on a tape: outputs and input gradients bitwise those of C one-window tapes.

    A parameter's gradient from the (C,) losses is the gradient of their
    sum: the sum of the windows' own gradients, up to the order of the
    additions (``oracle.assert_window_sum``).
    """

    @pytest.mark.parametrize("count", [1, 2, 4])
    @pytest.mark.parametrize("name", list(_taped_cases()))
    def test_each_window_of_a_taped_stack_is_its_own_tape(self, name, count):
        call, params, shape = _taped_cases()[name]
        rng = SeededRng(93)
        rows = rng.normal((count,) + shape)
        targets = rng.normal((count, call(tensor(rows[0]), *map(tensor, params)).data.size))
        stacked = rows.reshape((count, -1, shape[-1]))  # a rank-1 row stacks as (C, 1, d)
        out, dx, dparams = _window_grads(call, params, stacked, targets, True)
        alone = [_window_grads(call, params, rows[c], targets[c], False) for c in range(count)]
        for c, (one_out, one_dx, _) in enumerate(alone):
            assert out[c].tobytes() == one_out.tobytes()
            assert dx[c].tobytes() == one_dx.tobytes()
        assert len(dparams) == len(alone[0][2])
        for k, got in enumerate(dparams):
            oracle.assert_window_sum(got, [one_dparams[k] for _, _, one_dparams in alone])

    def test_relu_gradients_carry_signed_zeros(self):
        # the comparison above reads bytes, so it holds the signs of zeros too; the cases make some
        _, dx, _ = _window_grads(nm.relu, [], -np.ones((2, 3, 4)), np.ones((2, 12)), True)
        assert (dx == 0.0).all() and np.signbit(dx).all()

    def test_a_shared_tensor_added_to_a_stack_gets_the_sum_of_the_windows_gradients(self):
        rng = SeededRng(99)
        rows, targets, bias = rng.normal((3, 5, 4)), rng.normal((3, 5, 4)), rng.normal((4,))

        def grads(x, target, windows):
            b = tensor(bias, requires_grad=True)
            x = tensor(x, requires_grad=True)
            out = nm.add(nm.relu(x), b)
            got = backward(nm.sse(out, target, windows=windows), params=[x, b])
            return got[x], got[b]

        dx, db = grads(rows, targets, True)
        alone = [grads(rows[c], targets[c], False) for c in range(3)]
        assert [g.tobytes() for g in dx] == [one_dx.tobytes() for one_dx, _ in alone]
        oracle.assert_window_sum(db, [one_db for _, one_db in alone])

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_per_window_entries_route_their_gradients_to_each_windows_slice(self, count):
        # lpo's fused rows: a stacked embedding, cross-attention once per window on its slice, a stacked gate
        rng = SeededRng(94)
        d = 4
        arrays = [rng.glorot(d, 3), rng.normal((d,)), rng.glorot(d, d), rng.glorot(d, d), rng.glorot(d, d),
                  rng.normal((d,)), rng.normal((d,)), rng.glorot(d, 2 * d)]
        counts = [np.array(k) for k in ([1, 0, 2, 0, 1], [0, 0, 3, 1, 0], [2, 2, 0, 0, 1], [0, 1, 0, 0, 0])]
        tokens = [rng.normal((int(k.sum()), d)) for k in counts]
        inputs, targets = rng.normal((count, 5, 3)), rng.normal((count, 5, d))

        def run(first, windows):
            params = [tensor(a, requires_grad=True) for a in arrays]
            w_embed, b_embed, wq, wk, wv, pq, pk, w_gate = params

            def text(rows, c):
                return nm.step_cross_attention(rows, tokens[c], counts[c], wq, wk, wv, pq, pk)

            x = tensor(inputs[first:first + windows] if windows else inputs[first], requires_grad=True)
            hs = nm.relu(nm.linear(x, w_embed, b_embed))
            if windows:
                views = nm.unstack(hs)
                joined = nm.each_window(windows, lambda c: text(views[c], c))
            else:
                joined = text(hs, first)
            out = nm.sigmoid_gate(hs, joined, w_gate)
            target = targets[first:first + windows] if windows else targets[first]
            grads = backward(nm.sse(out, target, windows=bool(windows)), params=[x] + params)
            return out.data, grads[x], [grads[p] for p in params]

        out, dx, grads = run(0, count)
        alone = [run(c, 0) for c in range(count)]
        for c, (one_out, one_dx, _) in enumerate(alone):
            assert out[c].tobytes() == one_out.tobytes()
            assert dx[c].tobytes() == one_dx.tobytes()
        for k, got in enumerate(grads):
            oracle.assert_window_sum(got, [one_grads[k] for _, _, one_grads in alone])

    def test_a_windows_first_gradient_keeps_its_signed_zeros(self):
        # relu's backward gives the masked entry -0.0, the first gradient each window's slice of x gets
        x = tensor(np.array([[-1.0, 2.0], [3.0, -4.0]]), requires_grad=True)
        views = nm.unstack(x)
        joined = nm.each_window(2, lambda c: nm.relu(views[c]))
        got = backward(nm.sse(joined, np.ones((2, 2)), windows=True), params=[x])[x]
        for c in range(2):
            one = tensor(x.data[c], requires_grad=True)
            want = backward(nm.sse(nm.relu(one), np.ones(2)), params=[one])[one]
            assert np.signbit(want[c]) and want[c] == 0.0
            assert got[c].tobytes() == want.tobytes()

    @staticmethod
    def _two_paths(x, count):
        """relu(x) - x on a stack, plus relu of relu(x) window by window: x's gradient reaches both adds."""
        a = nm.relu(x)
        b = nm.scale(x, -1.0)
        if count:
            views = nm.unstack(a)
            z = nm.each_window(count, lambda c: nm.relu(views[c]))
        else:
            z = nm.relu(a)
        return nm.add(nm.add(a, b), z)

    def test_a_windows_gradient_does_not_write_into_an_array_another_tensor_holds(self):
        # add hands one gradient array to both of its inputs; window c's slice of a's must not land in b's
        rows = SeededRng(96).normal((3, 4, 2))
        targets = SeededRng(97).normal((3, 8))
        x = tensor(rows, requires_grad=True)
        got = backward(nm.sse(self._two_paths(x, 3), targets.reshape(3, 4, 2), windows=True), params=[x])[x]
        for c in range(3):
            one = tensor(rows[c], requires_grad=True)
            want = backward(nm.sse(self._two_paths(one, 0), targets[c].reshape(4, 2)), params=[one])[one]
            assert got[c].tobytes() == want.tobytes()

    def test_a_stacked_gradient_after_per_window_ones_keeps_the_other_windows_signed_zeros(self):
        # a is a stacked relu's output and, in window 0 alone, a per-window relu's input. Backward adds the
        # per-window gradient first; the stacked one then fills window 1, -0.0 where x's negative entry masks
        rows = np.array([[[-1.0, 0.5]], [[-2.0, 1.5]]])

        def gradient(x, window):
            x = tensor(x, requires_grad=True)
            a = nm.relu(x)
            y = nm.relu(a)
            if window is None:
                views = nm.unstack(a)
                z = nm.each_window(2, lambda c: nm.relu(views[c]) if c == 0 else tensor(np.zeros((1, 2))))
                loss = nm.add(nm.sse(y, np.ones((2, 1, 2)), windows=True), nm.sse(z, np.ones((2, 1, 2)), windows=True))
            else:
                loss = nm.sse(y, np.ones((1, 2)))
                if window == 0:
                    loss = nm.add(loss, nm.sse(nm.relu(a), np.ones((1, 2))))
            return backward(loss, params=[x])[x]

        got = gradient(rows, None)
        for c in range(2):
            want = gradient(rows[c], c)
            assert np.signbit(want[0, 0]) and want[0, 0] == 0.0
            assert got[c].tobytes() == want.tobytes()

    def test_a_stack_records_one_entry_per_stacked_op_and_one_per_window_inside_each_window(self):
        x = tensor(SeededRng(95).normal((3, 5, 4)), requires_grad=True)
        views = nm.unstack(x)
        assert nm.tape_size() == 0  # a slice is a view, not an entry
        joined = nm.each_window(3, lambda c: nm.relu(views[c]))
        assert nm.tape_size() == 3 + 1
        assert joined.data.tobytes() == np.maximum(x.data, 0.0).tobytes()

    def test_backward_of_a_stack_of_window_losses_is_the_gradient_of_their_sum(self):
        p = tensor(np.array([1.0, -2.0]), requires_grad=True)
        loss = nm.add(nm.sse(tensor(np.ones((3, 2))), np.zeros((3, 2)), windows=True), sum_sq(p))
        assert loss.data.shape == (3,)
        assert backward(loss, params=[p])[p].tobytes() == (3 * 2.0 * p.data).tobytes()


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

    def test_float32_arrays_stay_float32_and_all_else_becomes_float64(self):
        narrow = np.ones(3, dtype=np.float32)
        assert tensor(narrow).data is narrow
        for data in ([1, 2], np.ones(2, dtype=np.float16), np.arange(2), 1.5):
            assert tensor(data).data.dtype == np.float64


class TestCast:
    @pytest.mark.parametrize("source, target", [(np.float64, np.float32), (np.float32, np.float64)])
    def test_backward_returns_the_source_dtype(self, source, target):
        x = Tensor(np.array([[1.5, -2.0], [0.25, 3.0]], dtype=source), requires_grad=True)
        y = nm.cast(x, target)
        assert y.data.dtype == target
        np.testing.assert_array_equal(y.data, x.data.astype(target))
        grads = backward(sum_sq(nm.cast(y, np.float64)), params=(x,))
        assert grads[x].dtype == source
        np.testing.assert_array_equal(grads[x], 2.0 * x.data)


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
