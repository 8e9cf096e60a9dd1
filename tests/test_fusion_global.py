import hashlib

import numpy as np
import pytest

from kgcm.errors import FormatError, ShapeError
from kgcm.fusion_local import GlobalGateParams, acmfw_weight, init_global_gate
from kgcm.model import TrainConfig, build_model
from kgcm.numeric import SeededRng, clear_tape, sigmoid_gate, tensor
from kgcm.pipeline import load_model, save_model
from kgcm.text import EncoderConfig, encode


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


def _rcpg_gate(h, pooled, params):
    """The shared-context gate as Model runs it: the pooled vector tiled over the (T, d) rows."""
    tiled = tensor(np.tile(pooled, (h.shape[0], 1)))
    return sigmoid_gate(tensor(h), tiled, params.w_gate, params.b_gate).data


class TestEncodeGlobalPrompt:
    """The shared-context vector of a window is the pooled encoding of the cross-region text."""

    def test_empty_text_zero_vector(self):
        np.testing.assert_array_equal(encode("", "", EncoderConfig(), 8).pooled, np.zeros(8))

    def test_same_text_same_vector(self):
        a = encode("citywide holiday surge", "citywide holiday surge", EncoderConfig(), 8).pooled
        b = encode("citywide holiday surge", "citywide holiday surge", EncoderConfig(), 8).pooled
        np.testing.assert_array_equal(a, b)

    def test_matches_independent_hash_walkthrough(self):
        # recompute "holiday surge citywide" token by token with bare FNV-1a
        def fnv(word):
            h = 0xCBF29CE484222325
            for byte in word.encode("utf-8"):
                h = ((h ^ byte) * 0x100000001B3) % 2**64
            return h

        d = 16
        expected = np.zeros(d)
        for word in ["holiday", "surge", "citywide"]:
            h = fnv(word)
            expected[h % d] += -1.0 if h >> 63 else 1.0
        expected = expected / np.linalg.norm(expected)
        out = encode("holiday surge citywide", "holiday surge citywide", EncoderConfig(), d).pooled
        np.testing.assert_allclose(out, expected, atol=1e-15)


class TestConditionalGate:
    """The rcpg gate: ``numeric.sigmoid_gate`` with a bias and the pooled vector on every row."""

    def test_zero_params_average(self):
        d = 3
        params = GlobalGateParams(w_gate=tensor(np.zeros((d, 2 * d))), b_gate=tensor(np.zeros(d)))
        h = np.array([[2.0, 4.0, 6.0], [-2.0, 0.0, 8.0]])
        out = _rcpg_gate(h, np.zeros(d), params)
        np.testing.assert_allclose(out, [[1.0, 2.0, 3.0], [-1.0, 0.0, 4.0]])

    def test_bias_saturation_keeps_h(self):
        d = 2
        params = GlobalGateParams(w_gate=tensor(np.zeros((d, 2 * d))), b_gate=tensor(np.full(d, 60.0)))
        h = np.array([[1.5, -2.5], [0.5, 3.0]])
        out = _rcpg_gate(h, np.array([9.0, 9.0]), params)
        np.testing.assert_allclose(out, h, atol=1e-12)

    def test_equal_inputs_fixed_point(self):
        d = 5
        params = init_global_gate(d, SeededRng(0))
        p = SeededRng(1).normal((d,))
        h = np.tile(p, (3, 1))
        out = _rcpg_gate(h, p, params)
        np.testing.assert_allclose(out, h, atol=1e-12)

    def test_convex_combination(self):
        d = 4
        rng = SeededRng(2)
        params = init_global_gate(d, rng)
        for _ in range(50):
            h = rng.normal((3, d))
            p = rng.normal((d,))
            out = _rcpg_gate(h, p, params)
            lo = np.minimum(h, p) - 1e-12
            hi = np.maximum(h, p) + 1e-12
            assert ((out >= lo) & (out <= hi)).all()


def _model_file(tmp_path, a_star):
    """A saved dgso model whose stored relation matrix is ``a_star``, written as given."""
    config = TrainConfig(d=2, n=2, window=4, horizon=2, blocks=1, day_slots=4, epochs_stage1=1, epochs_stage2=1)
    model = build_model(config, {"dgso"}, 5)
    model.a_star = np.asarray(a_star, dtype=np.float64)
    path = tmp_path / "model.kgcm"
    save_model(model, path)
    return path


class TestFrozenStructure:
    """The frozen matrix enters from outside only through a model file, so load_model checks it."""

    def test_rejects_non_stochastic(self, tmp_path):
        with pytest.raises(FormatError, match="row-stochastic"):
            load_model(_model_file(tmp_path, [[0.5, 0.6], [0.5, 0.5]]))

    def test_rejects_non_square(self, tmp_path):
        # a d = 2 model whose file holds a 3 x 3 matrix
        with pytest.raises(FormatError, match="shape"):
            load_model(_model_file(tmp_path, np.full((3, 3), 1.0 / 3.0)))

    def test_rejects_negative_entries(self, tmp_path):
        with pytest.raises(FormatError, match="row-stochastic"):
            load_model(_model_file(tmp_path, [[1.5, -0.5], [0.5, 0.5]]))

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(FormatError, match="record _meta/a_star holds non-finite values"):
            load_model(_model_file(tmp_path, [[np.nan, 0.5], [0.5, 0.5]]))

    def test_rejects_row_sum_off_by_more_than_1e_9(self, tmp_path):
        with pytest.raises(FormatError, match="row-stochastic"):
            load_model(_model_file(tmp_path, [[0.5, 0.5 + 1e-8], [0.5, 0.5]]))
        model = load_model(_model_file(tmp_path, [[0.5, 0.5 + 1e-11], [0.5, 0.5]]))
        assert model.a_star[0, 1] == 0.5 + 1e-11

    def test_matrix_is_write_protected(self, tmp_path):
        model = load_model(_model_file(tmp_path, np.full((2, 2), 0.5)))
        with pytest.raises(ValueError):
            model.a_star[0, 0] = 1.0
        model.freeze_structure(np.array([[1.0, 3.0], [2.0, 2.0]]))
        np.testing.assert_array_equal(model.a_star, [[0.25, 0.75], [0.5, 0.5]])
        with pytest.raises(ValueError):
            model.a_star[0, 0] = 1.0

    def test_bytes_stable(self):
        matrix = np.full((3, 3), 1.0 / 3.0)
        before = hashlib.sha256(matrix.tobytes()).hexdigest()
        _ = acmfw_weight(tensor(np.ones((2, 3))), matrix)
        after = hashlib.sha256(matrix.tobytes()).hexdigest()
        assert before == after


class TestAcmfwWeight:
    def test_identity_matrix(self):
        h = tensor(np.array([[1.0, -2.0, 5.0], [0.5, 0.0, -1.0]]))
        out = acmfw_weight(h, np.eye(3))
        np.testing.assert_allclose(out.data, h.data, atol=1e-12)

    def test_uniform_matrix_averages(self):
        h = tensor(np.array([[1.0, 2.0, 3.0, 6.0], [0.0, 0.0, 4.0, 4.0]]))
        out = acmfw_weight(h, np.full((4, 4), 0.25))
        np.testing.assert_allclose(out.data, [np.full(4, 3.0), np.full(4, 2.0)], atol=1e-12)

    def test_hand_matrix_vector_oracle(self):
        out = acmfw_weight(tensor(np.array([[1.0, 2.0], [0.0, 1.0]])), np.array([[0.7, 0.3], [0.2, 0.8]]))
        np.testing.assert_allclose(out.data, [[1.3, 1.8], [0.3, 0.8]], atol=1e-12)

    def test_linearity(self):
        rng = SeededRng(3)
        raw = np.abs(rng.uniform((3, 3))) + 0.1
        matrix = raw / raw.sum(axis=1, keepdims=True)
        u = rng.normal((4, 3))
        v = rng.normal((4, 3))
        a, b = 2.5, -1.25
        left = acmfw_weight(tensor(a * u + b * v), matrix).data
        right = a * acmfw_weight(tensor(u), matrix).data + b * acmfw_weight(tensor(v), matrix).data
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_range_contraction(self):
        rng = SeededRng(4)
        raw = np.abs(rng.uniform((5, 5))) + 0.05
        matrix = raw / raw.sum(axis=1, keepdims=True)
        for _ in range(50):
            h = rng.normal((3, 5), std=3.0)
            out = acmfw_weight(tensor(h), matrix).data
            assert (out.min(axis=1) >= h.min(axis=1) - 1e-12).all()
            assert (out.max(axis=1) <= h.max(axis=1) + 1e-12).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            acmfw_weight(tensor(np.ones((2, 4))), np.eye(3))
        with pytest.raises(ShapeError):
            acmfw_weight(tensor(np.ones(3)), np.eye(3))
