import numpy as np
import pytest

from kgcm.errors import ConfigError, ShapeError
from kgcm.graph import (
    DgsoLayerParams,
    DgsoParams,
    init_dgso_params,
    run_dgso,
    uniform_matrix,
)
from kgcm.numeric import (
    SeededRng,
    Tensor,
    add,
    backward,
    clear_tape,
    grad_check,
    graph_layer,
    history_columns,
    no_tape,
    sum_sq,
    take,
    tape_size,
    tensor,
)

from oracle import conv_residual_norm, lerp_const, mul, relation_softmax


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


# The properties of one graph layer are stated on the oracle's three kernels,
# relation, smoothing scan and convolution, which ``TestGraphLayer`` holds
# ``graph_layer`` to. One step of them is a stack of one, as below.


def _relation(states, layer):
    """The (1, d, d) relation stack of a (1, d, n) state stack."""
    return relation_softmax(states, layer.w_query, layer.w_key)


def _conv(states, relation, layer):
    return conv_residual_norm(states, relation, layer.w_trans, layer.ln_gamma, layer.ln_beta)


def _step(x):
    """A (d, n) step as a stack of one."""
    return tensor(np.asarray(x)[None])


def _identity_layer(n):
    return DgsoLayerParams(
        w_query=tensor(np.eye(n)),
        w_key=tensor(np.eye(n)),
        w_trans=tensor(np.eye(n)),
        ln_gamma=tensor(np.ones(n)),
        ln_beta=tensor(np.zeros(n)),
    )


class TestLiftToNodes:
    """Node states at step t are ``history_columns(rows, t, n)``: node i's last n values."""

    def test_single_column(self):
        out = history_columns(tensor([[1.0, 2.0, 3.0]]), 0, 1)
        np.testing.assert_array_equal(out.data, [[1.0], [2.0], [3.0]])

    def test_constant_series_gives_constant_rows(self):
        out = history_columns(tensor([[4.0, 5.0]] * 3), 2, 3)
        np.testing.assert_array_equal(out.data, [[4.0, 4.0, 4.0], [5.0, 5.0, 5.0]])

    def test_history_layout(self):
        # column k holds the row n-1-k steps back: the current step is last
        out = history_columns(tensor([[1.0, 2.0], [3.0, 4.0]]), 1, 2)
        np.testing.assert_array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])

    def test_too_few_steps(self):
        # fewer than n steps of history: the first row is repeated in front
        out = history_columns(tensor([[1.0, 2.0], [3.0, 4.0]]), 1, 3)
        np.testing.assert_array_equal(out.data, [[1.0, 1.0, 3.0], [2.0, 2.0, 4.0]])
        with pytest.raises(ShapeError):
            history_columns(tensor([[1.0, 2.0]]), 1, 2)


class TestBuildRelationMatrix:
    def test_identical_states_give_uniform_rows(self):
        n = 3
        row = SeededRng(0).normal((n,))
        states = _step(np.tile(row, (4, 1)))
        a = _relation(states, _identity_layer(n))
        np.testing.assert_allclose(a.data[0], uniform_matrix(4), atol=1e-12)

    def test_negative_scores_collapse_to_uniform(self):
        n = 2
        layer = DgsoLayerParams(
            w_query=tensor(np.eye(n)),
            w_key=tensor(-np.eye(n)),  # scores = -H H^T <= 0 for these states
            w_trans=tensor(np.eye(n)),
            ln_gamma=tensor(np.ones(n)),
            ln_beta=tensor(np.zeros(n)),
        )
        states = _step(np.array([[1.0, 0.0], [0.0, 1.0]]))
        a = _relation(states, layer)
        np.testing.assert_allclose(a.data[0], uniform_matrix(2), atol=1e-12)

    def test_softmax_oracle_rows(self):
        # post-ReLU scores [[ln 2, 0], [0, 0]] -> rows [2/3,1/3], [1/2,1/2]
        ln2 = np.log(2.0)
        states = _step(np.array([[np.sqrt(ln2), 0.0], [0.0, 0.0]]))
        a = _relation(states, _identity_layer(2))
        np.testing.assert_allclose(a.data[0], [[2 / 3, 1 / 3], [0.5, 0.5]], atol=1e-12)

    def test_rows_stochastic_random(self):
        rng = SeededRng(1)
        params = init_dgso_params(4, 4, 1, 0.9, rng)
        for _ in range(100):
            states = _step(rng.normal((5, 4), std=3.0))
            a = _relation(states, params.layers[0]).data[0]
            np.testing.assert_allclose(a.sum(axis=1), np.ones(5), atol=1e-9)
            assert (a >= 0).all()


class TestEmaUpdate:
    def test_lambda_one_keeps_previous(self):
        prev = np.array([[0.7, 0.3], [0.1, 0.9]])
        raw = _step(uniform_matrix(2))
        out = lerp_const(raw, prev, 1.0)
        np.testing.assert_array_equal(out.data[0], prev)

    def test_lambda_zero_takes_raw(self):
        prev = uniform_matrix(2)
        raw = _step(np.array([[0.2, 0.8], [0.6, 0.4]]))
        out = lerp_const(raw, prev, 0.0)
        np.testing.assert_array_equal(out.data, raw.data)

    def test_halfway_symmetry(self):
        prev = np.eye(2)
        raw = _step(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = lerp_const(raw, prev, 0.5)
        np.testing.assert_allclose(out.data[0], np.full((2, 2), 0.5))

    def test_lambda_out_of_range(self):
        # the coefficient enters from outside through the graph's parameters
        with pytest.raises(ConfigError):
            init_dgso_params(2, 2, 1, 1.5, SeededRng(0))
        with pytest.raises(ConfigError):
            init_dgso_params(2, 2, 1, -0.1, SeededRng(0))

    def test_smoothing_preserves_row_sums(self):
        rng = SeededRng(2)
        params = init_dgso_params(3, 3, 1, 0.9, rng)
        prev = uniform_matrix(3)
        for _ in range(100):
            raw = _relation(_step(rng.normal((3, 3))), params.layers[0])
            smoothed = lerp_const(raw, prev, 0.9)
            np.testing.assert_allclose(smoothed.data[0].sum(axis=1), np.ones(3), atol=1e-9)
            prev = smoothed.data[0]


class TestGraphConvLayer:
    def test_identity_relation_zero_transform(self):
        n = 4
        layer = DgsoLayerParams(
            w_query=tensor(np.eye(n)),
            w_key=tensor(np.eye(n)),
            w_trans=tensor(np.zeros((n, n))),
            ln_gamma=tensor(np.ones(n)),
            ln_beta=tensor(np.zeros(n)),
        )
        states = SeededRng(3).normal((2, n))
        out = _conv(_step(states), _step(np.eye(2)), layer)
        mu = states.mean(axis=1, keepdims=True)
        sd = np.sqrt(states.var(axis=1, keepdims=True) + 1e-5)
        np.testing.assert_allclose(out.data[0], (states - mu) / sd, atol=1e-12)

    def test_row_statistics(self):
        rng = SeededRng(4)
        params = init_dgso_params(6, 6, 1, 0.9, rng)
        states = _step(rng.normal((3, 6)))
        a = _relation(states, params.layers[0])
        out = _conv(states, a, params.layers[0]).data[0]
        np.testing.assert_allclose(out.mean(axis=1), np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(out.var(axis=1), np.ones(3), atol=1e-4)

    def test_hand_oracle_n1_degeneracy(self):
        # A=[[.5,.5],[.5,.5]], W=[1], H=[[2],[4]] -> H_new=[[3],[3]],
        # residual [[5],[7]], LN over a single column collapses to beta=0
        layer = DgsoLayerParams(
            w_query=tensor(np.eye(1)),
            w_key=tensor(np.eye(1)),
            w_trans=tensor(np.array([[1.0]])),
            ln_gamma=tensor(np.ones(1)),
            ln_beta=tensor(np.zeros(1)),
        )
        states = np.array([[2.0], [4.0]])
        relation = np.full((2, 2), 0.5)
        propagated = relation @ states @ layer.w_trans.data
        np.testing.assert_allclose(propagated, [[3.0], [3.0]])
        out = _conv(_step(states), _step(relation), layer)
        np.testing.assert_allclose(out.data[0], np.zeros((2, 1)), atol=1e-12)


class TestRunDgso:
    def test_single_layer_lambda_zero_uses_raw(self):
        rng = SeededRng(5)
        params = init_dgso_params(2, 2, 1, 0.0, rng)
        rows = rng.normal((4, 3))
        _, matrix = run_dgso(tensor(rows), params, 2)
        states = history_columns(tensor(rows), [3], 2)
        raw = _relation(states, params.layers[0])
        np.testing.assert_allclose(matrix, raw.data[0], atol=1e-12)

    def test_deterministic(self):
        rng = SeededRng(6)
        params = init_dgso_params(3, 3, 2, 0.9, rng)
        data = SeededRng(7).normal((5, 4))
        states1, matrix1 = run_dgso(tensor(data), params, 3)
        states2, matrix2 = run_dgso(tensor(data), params, 3)
        np.testing.assert_array_equal(states1.data, states2.data)
        np.testing.assert_array_equal(matrix1, matrix2)

    def test_incremental_ema_matches_unrolled_recurrence(self):
        # oracle: recompute the recurrence from scratch over the stored raw
        # matrices for each step; must agree exactly with the carried state
        rng = SeededRng(8)
        params = init_dgso_params(2, 2, 1, 0.9, rng)
        d = 3
        raws = []
        prev = uniform_matrix(d)
        carried = []
        steps = tensor(rng.normal((100, d)))
        for t in range(100):
            states = history_columns(steps, [t], 2)
            raw = _relation(states, params.layers[0])
            raws.append(raw.data[0].copy())
            smoothed = lerp_const(raw, prev, 0.9)
            prev = smoothed.data[0].copy()
            carried.append(prev)
            states = _conv(states, smoothed, params.layers[0])
        for t in range(100):
            brute = uniform_matrix(d)
            for k in range(t + 1):
                brute = 0.9 * brute + (1.0 - 0.9) * raws[k]
            np.testing.assert_array_equal(brute, carried[t])

    def test_output_dims_independent_of_depth(self):
        rng = SeededRng(9)
        rows = tensor(rng.normal((6, 5)))
        for depth in (1, 2, 3):
            params = init_dgso_params(4, 4, depth, 0.9, SeededRng(10))
            states, matrix = run_dgso(rows, params, 4)
            assert states.data.shape == (6, 5, 4)
            assert matrix.shape == (5, 5)
            np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_pad_count_recorded(self):
        # steps 0 and 1 are short of history by 2 and 1 entries, 3 padded
        # slots in all, filled by repeating step 0: without smoothing each
        # step stands alone, so they match steps 2 and 3 of the window with
        # step 0 written out twice in front
        rng = SeededRng(11)
        params = init_dgso_params(3, 3, 1, 0.0, rng)
        rows = rng.normal((5, 2))
        states, _ = run_dgso(tensor(rows), params, 3)
        written_out, _ = run_dgso(tensor(np.vstack([rows[:1], rows[:1], rows])), params, 3)
        np.testing.assert_allclose(states.data, written_out.data[2:], atol=1e-12)

    def test_permutation_equivariance(self):
        # permuting feature indices permutes relation matrix and states alike
        d, n = 3, 2
        rng = SeededRng(12)
        params = init_dgso_params(n, n, 1, 0.7, rng)
        rows = rng.normal((4, d))
        perm = np.array([2, 0, 1])
        base_states, base_matrix = run_dgso(tensor(rows), params, n)
        states, matrix = run_dgso(tensor(rows[:, perm]), params, n)
        np.testing.assert_allclose(states.data, base_states.data[:, perm], atol=1e-12)
        np.testing.assert_allclose(matrix, base_matrix[np.ix_(perm, perm)], atol=1e-12)

    def test_gradients_flow_into_relation_projections(self):
        # smoothing history is carried as a constant by design, so exact
        # finite-difference agreement needs ema_lambda = 0 (no history term);
        # n=4 keeps the per-node layer norm away from its two-point saturation
        # where true gradients shrink below finite-difference resolution
        rng = SeededRng(13)
        steps_data = [rng.normal((3,)) for _ in range(6)]
        readout = tensor(rng.normal((3, 4)))
        base = init_dgso_params(4, 4, 1, 0.0, SeededRng(14))

        def f(w_query):
            layer = DgsoLayerParams(
                w_query=w_query,
                w_key=base.layers[0].w_key,
                w_trans=base.layers[0].w_trans,
                ln_gamma=base.layers[0].ln_gamma,
                ln_beta=base.layers[0].ln_beta,
            )
            params = DgsoParams(layers=[layer], ema_lambda=0.0)
            states, _ = run_dgso(tensor(np.stack(steps_data)), params, 4)
            return sum_sq(mul(take(states, -1), readout))

        err = grad_check(f, Tensor(base.layers[0].w_query.data.copy()))
        assert err < 1e-4

    def test_gradients_exact_for_single_step_window(self):
        # one step: the smoothing history is the uniform constant, so the
        # truncated gradient is the full gradient even at lambda = 0.9
        rng = SeededRng(15)
        step = rng.normal((3,))
        readout = tensor(rng.normal((3, 2)))
        base = init_dgso_params(2, 2, 1, 0.9, SeededRng(16))

        def f(w_key):
            layer = DgsoLayerParams(
                w_query=base.layers[0].w_query,
                w_key=w_key,
                w_trans=base.layers[0].w_trans,
                ln_gamma=base.layers[0].ln_gamma,
                ln_beta=base.layers[0].ln_beta,
            )
            params = DgsoParams(layers=[layer], ema_lambda=0.9)
            states, _ = run_dgso(tensor(step[None, :]), params, 2)
            return sum_sq(mul(take(states, 0), readout))

        err = grad_check(f, Tensor(base.layers[0].w_key.data.copy()))
        assert err < 1e-4


def _per_step_oracle(rows, params, n):
    """The graph pass one step at a time: lift, then per layer relation -> smoothing -> convolution."""
    d = rows.data.shape[1]
    prev = [uniform_matrix(d) for _ in params.layers]
    step_rows = []
    for t in range(rows.data.shape[0]):
        states = history_columns(rows, [t], n)
        for l, layer in enumerate(params.layers):
            smoothed = lerp_const(_relation(states, layer), prev[l], params.ema_lambda)
            prev[l] = smoothed.data[0]
            states = _conv(states, smoothed, layer)
        step_rows.append(take(states, np.s_[0, :, n - 1]))
    return step_rows, take(states, 0), prev


def _gradients(loss, tensors):
    grads = backward(loss, params=tensors)
    return [grads[t] for t in tensors]


class TestStackedGraphPass:
    """``run_dgso`` runs each layer on all T steps at once; a per-step loop is the oracle."""

    N, D = 4, 5

    @pytest.mark.parametrize("t_steps", [1, N - 1, 48])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("ema_lambda", [0.0, 0.9])
    def test_matches_per_step_oracle(self, t_steps, depth, ema_lambda):
        n, d = self.N, self.D
        rng = SeededRng(40 + 7 * t_steps + depth)
        params = init_dgso_params(n, 3, depth, ema_lambda, rng.child("params"))
        rows = Tensor(rng.normal((t_steps, d)), requires_grad=True)
        tensors = [rows] + [t for layer in params.layers
                            for t in (layer.w_query, layer.w_key, layer.w_trans, layer.ln_gamma, layer.ln_beta)]
        row_readout = rng.normal((t_steps, d))
        state_readout = tensor(rng.normal((d, n)))

        def step_rows():
            return take(run_dgso(rows, params, n)[0], np.s_[:, :, n - 1])

        def final_states():
            return take(run_dgso(rows, params, n)[0], t_steps - 1)

        states, matrix = run_dgso(rows, params, n)
        oracle_rows, oracle_states, oracle_matrices = _per_step_oracle(rows, params, n)
        clear_tape()
        assert states.data[:, :, n - 1].tobytes() == np.stack([r.data for r in oracle_rows]).tobytes()
        assert states.data[-1].tobytes() == oracle_states.data.tobytes()
        assert matrix.tobytes() == oracle_matrices[-1].tobytes()

        # a readout on every step row, as stage 2 reads the pass
        got = _gradients(sum_sq(mul(step_rows(), tensor(row_readout))), tensors)
        oracle_rows = _per_step_oracle(rows, params, n)[0]
        loss = sum_sq(mul(oracle_rows[0], tensor(row_readout[0])))
        for t in range(1, t_steps):
            loss = add(loss, sum_sq(mul(oracle_rows[t], tensor(row_readout[t]))))
        self._assert_close(got, _gradients(loss, tensors))
        # a readout on the final states only, as stage 1 reads it: every
        # step but the last gets a zero gradient, which the backward skips
        got = _gradients(sum_sq(mul(final_states(), state_readout)), tensors)
        want = _gradients(sum_sq(mul(_per_step_oracle(rows, params, n)[1], state_readout)), tensors)
        self._assert_close(got, want)

    @staticmethod
    def _assert_close(got, want):
        for g, w in zip(got, want, strict=True):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def _composite_layers(states, params):
    """The layer stack from the oracle's kernels: per layer relation, smoothing scan and convolution, an entry each."""
    d = states.data.shape[1]
    for layer in params.layers:
        smoothed = lerp_const(_relation(states, layer), uniform_matrix(d), params.ema_lambda)
        states = _conv(states, smoothed, layer)
    return states, smoothed.data[-1]


def _fused_layers(states, params, cut):
    """The same stack from ``graph_layer``, the last layer convolving only the last step when ``cut``."""
    start = uniform_matrix(states.data.shape[1])
    for l, layer in enumerate(params.layers):
        states, matrix = graph_layer(states, layer.w_query, layer.w_key, layer.w_trans, layer.ln_gamma,
                                     layer.ln_beta, start, params.ema_lambda, cut and l == len(params.layers) - 1)
    return states, matrix


class TestGraphLayer:
    """``graph_layer`` is the oracle's relation -> smoothing -> convolution composite in one tape entry."""

    N, D = 4, 5

    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("t_steps", [1, N - 1, 48])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("ema_lambda", [0.0, 0.9])
    def test_matches_three_kernel_composite(self, ema_lambda, depth, t_steps, cut):
        n, d = self.N, self.D
        rng = SeededRng(70 + 7 * t_steps + depth)
        params = init_dgso_params(n, 3, depth, ema_lambda, rng.child("params"))
        rows = Tensor(rng.normal((t_steps, d)), requires_grad=True)
        tensors = [rows] + [t for layer in params.layers
                            for t in (layer.w_query, layer.w_key, layer.w_trans, layer.ln_gamma, layer.ln_beta)]

        def lift():
            return history_columns(rows, range(t_steps), n)

        states, matrix = _fused_layers(lift(), params, cut)
        entries = tape_size()
        with no_tape():  # no backward state, the smoothing in place, and the taped call's bytes
            untaped, untaped_matrix = _fused_layers(lift(), params, cut)
        assert tape_size() == entries and not untaped.requires_grad
        assert untaped.data.tobytes() == states.data.tobytes()
        assert untaped_matrix.tobytes() == matrix.tobytes()
        want_states, want_matrix = _composite_layers(lift(), params)
        clear_tape()
        first = t_steps - 1 if cut else 0
        assert states.data.tobytes() == want_states.data[first:].tobytes()
        assert matrix.tobytes() == want_matrix.tobytes()

        # every convolved step read, then only some of them, the rest exactly zero
        dense = rng.normal(states.data.shape)
        sparse = dense * (np.arange(len(dense)) % 3 != 1)[:, None, None]
        for readout in (dense, sparse):
            fused, matrix = _fused_layers(lift(), params, cut)
            got = _gradients(sum_sq(mul(fused, tensor(readout))), tensors)
            out = take(_composite_layers(lift(), params)[0], np.s_[first:])
            TestStackedGraphPass._assert_close(got, _gradients(sum_sq(mul(out, tensor(readout))), tensors))
            # backward reuses the layer's stacks; the matrix it handed out stays as it was
            assert matrix.tobytes() == want_matrix.tobytes()


class TestStage1Cut:
    """Stage 1 reads step T-1 alone, so its pass convolves only that step in the last layer."""

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("ema_lambda", [0.0, 0.9])
    def test_last_step_only_matches_full_pass(self, ema_lambda, depth):
        n, t_steps = 4, 12
        rng = SeededRng(90 + depth)
        params = init_dgso_params(n, n, depth, ema_lambda, rng.child("params"))
        rows = Tensor(rng.normal((t_steps, 6)), requires_grad=True)
        tensors = [rows] + [t for layer in params.layers
                            for t in (layer.w_query, layer.w_key, layer.w_trans, layer.ln_gamma, layer.ln_beta)]
        readout = tensor(rng.normal((6, n)))

        full, full_matrix = run_dgso(rows, params, n)
        want = _gradients(sum_sq(mul(take(full, t_steps - 1), readout)), tensors)
        cut, cut_matrix = run_dgso(rows, params, n, last_step_only=True)
        assert cut.data.shape == (1, 6, n)
        assert cut.data[0].tobytes() == full.data[-1].tobytes()
        assert cut_matrix.tobytes() == full_matrix.tobytes()
        got = _gradients(sum_sq(mul(take(cut, 0), readout)), tensors)
        for g, w in zip(got, want, strict=True):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("last_step_only", [False, True])
    def test_one_tape_entry_per_layer(self, depth, last_step_only):
        # the lift, then one graph_layer entry per layer (the three kernels made 1 + 3 * depth)
        params = init_dgso_params(4, 4, depth, 0.9, SeededRng(95))
        run_dgso(Tensor(SeededRng(96).normal((10, 6)), requires_grad=True), params, 4, last_step_only)
        assert tape_size() == 1 + depth
