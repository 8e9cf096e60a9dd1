import logging
import math

import numpy as np
import pytest

from kgcm.errors import ShapeError
from kgcm.fusion_local import (
    LpoParams,
    embed_structured_rows,
    guided_cross_attention,
    init_lpo_params,
    prompt_loss,
)
from kgcm.gradcheck import grad_check
from kgcm.numeric import SeededRng, Tensor, backward, clear_tape, sigmoid_gate, sum_sq, tensor
from kgcm.text import encode_hashed


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


def _manual_params(d, f, **overrides):
    base = dict(
        w_embed=tensor(np.zeros((d, f))),
        b_embed=tensor(np.zeros(d)),
        prompt_struct=tensor(np.zeros(d)),
        prompt_text=tensor(np.zeros(d)),
        w_query=tensor(np.eye(d)),
        w_key=tensor(np.eye(d)),
        w_value=tensor(np.eye(d)),
        w_gate=tensor(np.zeros((d, 2 * d))),
    )
    base.update(overrides)
    return LpoParams(**base)


class TestEmbedStructured:
    def test_identity_block(self):
        f, d = 3, 5
        w = np.zeros((d, f))
        w[:f, :f] = np.eye(f)
        params = _manual_params(d, f, w_embed=tensor(w))
        x = tensor(np.array([[1.0, 2.0, 3.0], [4.0, 0.0, 6.0]]))
        out = embed_structured_rows(x, params)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0, 0.0, 0.0], [4.0, 0.0, 6.0, 0.0, 0.0]])

    def test_all_negative_preactivation(self):
        params = _manual_params(2, 2, w_embed=tensor(-np.eye(2)))
        out = embed_structured_rows(tensor(np.array([[3.0, 5.0], [1.0, 0.5]])), params)
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_hand_affine_oracle(self):
        # row [3, 5]: W x + b = [-2, 7] -> ReLU -> [0, 7]
        # row [1, 0]: W x + b = [1, 3] -> ReLU -> [1, 3]
        params = _manual_params(
            2, 2,
            w_embed=tensor([[1.0, -1.0], [2.0, 0.0]]),
            b_embed=tensor([0.0, 1.0]),
        )
        out = embed_structured_rows(tensor(np.array([[3.0, 5.0], [1.0, 0.0]])), params)
        np.testing.assert_array_equal(out.data, [[0.0, 7.0], [1.0, 3.0]])

    def test_length_mismatch(self):
        params = _manual_params(2, 2)
        with pytest.raises(ShapeError):
            embed_structured_rows(tensor(np.ones((4, 3))), params)

    def test_output_nonnegative(self):
        rng = SeededRng(0)
        params = init_lpo_params(8, 5, rng, with_text=True)
        out = embed_structured_rows(tensor(rng.normal((6, 5))), params)
        assert (out.data >= 0).all()


class TestGuidedCrossAttention:
    def test_single_token_returns_its_value(self):
        d = 4
        rng = SeededRng(1)
        params = init_lpo_params(d, 2, rng, with_text=True)
        h_s = tensor(rng.normal((2, d)))
        tokens = [rng.normal((1, d)), rng.normal((1, d))]
        z = guided_cross_attention(h_s, tokens, params)
        expected = np.concatenate(tokens) @ params.w_value.data.T
        np.testing.assert_allclose(z.data, expected, atol=1e-12)

    def test_identical_keys_average_values(self):
        d = 3
        rng = SeededRng(2)
        params = init_lpo_params(d, 2, rng, with_text=True)
        h_s = tensor(rng.normal((1, d)))
        row = rng.normal((d,))
        tokens = np.stack([row, row, row])
        z = guided_cross_attention(h_s, [tokens], params)
        values = tokens @ params.w_value.data.T
        np.testing.assert_allclose(z.data, values.mean(axis=0, keepdims=True), atol=1e-12)

    def test_scalar_softmax_oracle(self):
        # identity projections, zero prompts, h_s=[10,0], two axis-aligned tokens
        d = 2
        params = _manual_params(d, d)
        z = guided_cross_attention(tensor([[10.0, 0.0]]), [np.eye(2)], params)
        w0 = 1.0 / (1.0 + math.exp(-10.0 / math.sqrt(2.0)))
        np.testing.assert_allclose(z.data, [[w0, 1.0 - w0]], atol=1e-5)
        np.testing.assert_allclose(z.data, [[0.99915, 0.00085]], atol=5e-6)

    def test_empty_text_yields_zero_and_logs(self, caplog):
        params = init_lpo_params(4, 2, SeededRng(3), with_text=True)
        with caplog.at_level(logging.DEBUG, logger="kgcm.fusion_local"):
            z = guided_cross_attention(tensor(np.ones((3, 4))), [np.zeros((0, 4))] * 3, params)
        np.testing.assert_array_equal(z.data, np.zeros((3, 4)))
        assert not z.requires_grad
        assert any("empty local text" in r.message for r in caplog.records)

    def test_score_shift_invariance(self):
        # adding a constant to every attention score cannot change z; emulate
        # by shifting the query along a direction orthogonal to key spread
        d = 3
        rng = SeededRng(4)
        params = init_lpo_params(d, 2, rng, with_text=True)
        tokens = encode_hashed("match tonight expect surge", d).tokens
        h_s = tensor(rng.normal((1, d)))
        z1 = guided_cross_attention(h_s, [tokens], params)
        # same computation with prompts shifted identically on both sides of
        # the score product: softmax([s + c]) == softmax([s])
        scores_fn = lambda q, k: (q @ k.T) / math.sqrt(d)
        q = h_s.data @ params.w_query.data.T + params.prompt_struct.data
        k = tokens @ params.w_key.data.T + params.prompt_text.data
        s = scores_fn(q, k)
        e1 = np.exp(s - s.max())
        w1 = e1 / e1.sum()
        e2 = np.exp((s + 7.5) - (s + 7.5).max())
        w2 = e2 / e2.sum()
        np.testing.assert_allclose(w1, w2, atol=1e-12)
        np.testing.assert_allclose(z1.data, w1 @ (tokens @ params.w_value.data.T), atol=1e-12)

    def test_rows_see_only_their_own_step(self):
        # the masked window call equals attending each row to its step alone;
        # a text-free step gives a zero row
        d = 4
        rng = SeededRng(11)
        params = init_lpo_params(d, 2, rng, with_text=True)
        h = rng.normal((4, d))
        tokens = [encode_hashed("crowd surge after the show", d).tokens, np.zeros((0, d)),
                  encode_hashed("rain", d).tokens, encode_hashed("stadium match", d).tokens]
        together = guided_cross_attention(tensor(h), tokens, params).data
        np.testing.assert_array_equal(together[1], np.zeros(d))
        for t in (0, 2, 3):
            alone = guided_cross_attention(tensor(h[t:t + 1]), [tokens[t]], params).data
            np.testing.assert_allclose(together[t], alone[0], rtol=1e-12, atol=1e-14)

    def test_text_free_step_gets_no_gradient(self):
        d = 4
        rng = SeededRng(12)
        params = init_lpo_params(d, 2, rng, with_text=True)
        tokens = [encode_hashed("festival crowd", d).tokens, np.zeros((0, d)), encode_hashed("parade", d).tokens]
        h = tensor(rng.normal((3, d)), requires_grad=True)
        grads = backward(sum_sq(guided_cross_attention(h, tokens, params)), params=(h,))
        np.testing.assert_array_equal(grads[h][1], np.zeros(d))
        assert np.abs(grads[h][[0, 2]]).max() > 0.0

    def test_shape_mismatch(self):
        params = init_lpo_params(4, 2, SeededRng(13), with_text=True)
        with pytest.raises(ShapeError):
            guided_cross_attention(tensor(np.ones((2, 4))), [np.ones((1, 4))], params)
        with pytest.raises(ShapeError):
            guided_cross_attention(tensor(np.ones((1, 4))), [np.ones((2, 3))], params)
        with pytest.raises(ShapeError):
            guided_cross_attention(tensor(np.ones(4)), [np.ones((1, 4))], params)


class TestGatedFuse:
    """The lpo gate: ``numeric.sigmoid_gate`` over the structured and text rows, with no bias."""

    def test_zero_gate_weights_average(self):
        d = 3
        params = _manual_params(d, d)
        h = tensor(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        z = tensor(np.array([[5.0, 6.0, 7.0], [2.0, -2.0, 4.0]]))
        fused = sigmoid_gate(h, z, params.w_gate)
        np.testing.assert_allclose(fused.data, [[3.0, 4.0, 5.0], [1.0, -1.0, 2.0]])

    def test_gate_saturation(self):
        d = 2
        params = _manual_params(d, d, w_gate=tensor(np.full((d, 2 * d), 50.0)))
        h = tensor(np.array([[1.0, 1.0], [2.0, 0.5]]))
        z = tensor(np.array([[9.0, 9.0], [8.0, 7.0]]))
        fused = sigmoid_gate(h, z, params.w_gate)
        np.testing.assert_allclose(fused.data, h.data, atol=1e-6)

    def test_equal_inputs_fixed_point(self):
        d = 4
        params = init_lpo_params(d, 2, SeededRng(5), with_text=True)
        h = tensor(SeededRng(6).normal((3, d)))
        fused = sigmoid_gate(h, h, params.w_gate)
        np.testing.assert_allclose(fused.data, h.data, atol=1e-12)

    def test_convexity_bounds(self):
        d = 6
        rng = SeededRng(7)
        params = init_lpo_params(d, 2, rng, with_text=True)
        for _ in range(50):
            h = tensor(rng.normal((3, d)))
            z = tensor(rng.normal((3, d)))
            fused = sigmoid_gate(h, z, params.w_gate)
            lo = np.minimum(h.data, z.data) - 1e-12
            hi = np.maximum(h.data, z.data) + 1e-12
            assert ((fused.data >= lo) & (fused.data <= hi)).all()

    def test_rows_gate_independently(self):
        # each row's gate reads only that row: fusing rows together equals
        # fusing each row on its own
        d = 4
        rng = SeededRng(8)
        params = init_lpo_params(d, 2, rng, with_text=True)
        h, z = rng.normal((3, d)), rng.normal((3, d))
        together = sigmoid_gate(tensor(h), tensor(z), params.w_gate).data
        for t in range(3):
            alone = sigmoid_gate(tensor(h[t:t + 1]), tensor(z[t:t + 1]), params.w_gate).data
            np.testing.assert_allclose(together[t], alone[0], atol=1e-12)

    def test_shape_mismatch(self):
        w = tensor(np.zeros((3, 6)))
        with pytest.raises(ShapeError):
            sigmoid_gate(tensor(np.ones((2, 3))), tensor(np.ones((3, 3))), w)
        with pytest.raises(ShapeError):
            sigmoid_gate(tensor(np.ones(3)), tensor(np.ones(3)), w)


class TestPromptLoss:
    def test_equal_prompts(self):
        params = _manual_params(3, 3, prompt_struct=tensor(np.ones(3)), prompt_text=tensor(np.ones(3)))
        assert prompt_loss(params).item() == 0.0

    def test_orthogonal_unit_prompts(self):
        params = _manual_params(2, 2, prompt_struct=tensor([1.0, 0.0]), prompt_text=tensor([0.0, 1.0]))
        assert prompt_loss(params).item() == 2.0

    def test_gradient_is_twice_the_difference(self):
        p_t = tensor(np.array([0.5, -1.0, 2.0]))

        def f(p_s):
            params = _manual_params(3, 3, prompt_struct=p_s, prompt_text=p_t)
            return prompt_loss(params)

        p_s = tensor(np.array([1.0, 1.0, 1.0]), requires_grad=True)
        loss = f(p_s)
        grads = backward(loss, params=(p_s,))
        np.testing.assert_allclose(grads[p_s], 2.0 * (p_s.data - p_t.data))
        assert grad_check(f, p_s) < 1e-6

    def test_nonnegative_random(self):
        rng = SeededRng(8)
        for _ in range(20):
            params = _manual_params(
                4, 4,
                prompt_struct=tensor(rng.normal((4,))),
                prompt_text=tensor(rng.normal((4,))),
            )
            assert prompt_loss(params).item() >= 0.0


class TestLpoGradients:
    def test_cross_attention_and_gate_gradcheck(self):
        d = 4
        rng = SeededRng(9)
        params = init_lpo_params(d, 3, rng, with_text=True)
        tokens = [encode_hashed("crowd surge after the show", d).tokens, np.zeros((0, d)),
                  encode_hashed("match", d).tokens]
        x = tensor(rng.normal((3, 3)))

        def f(w_gate):
            h_s = embed_structured_rows(x, params)
            return sum_sq(sigmoid_gate(h_s, guided_cross_attention(h_s, tokens, params), w_gate))

        assert grad_check(f, Tensor(params.w_gate.data.copy())) < 1e-4

    def test_prompt_gradient_through_attention(self):
        d = 4
        rng = SeededRng(10)
        params = init_lpo_params(d, 3, rng, with_text=True)
        tokens = [encode_hashed("stadium event expected", d).tokens, encode_hashed("late trains", d).tokens]
        h_s = tensor(rng.normal((2, d)))

        def f(p_s):
            p = LpoParams(
                w_embed=params.w_embed,
                b_embed=params.b_embed,
                prompt_struct=p_s,
                prompt_text=params.prompt_text,
                w_query=params.w_query,
                w_key=params.w_key,
                w_value=params.w_value,
                w_gate=params.w_gate,
            )
            return sum_sq(guided_cross_attention(h_s, tokens, p))

        assert grad_check(f, Tensor(params.prompt_struct.data.copy())) < 1e-4
