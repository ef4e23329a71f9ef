"""Tensor engine: forward values, gradients, optimizers, tape rules."""

import zlib

import numpy as np
import pytest

from potsmine import tensor as T
from potsmine.errors import InvalidInputError, ShapeError


def scalar_loss(t):
    # reduce to a scalar so backward() accepts the output
    return T.reduce_sum(t)


# ---------------------------------------------------------------------------
# forward values

def test_basic_forward_values():
    a = T.constant([[1.0, 2.0], [3.0, 4.0]])
    b = T.constant([[10.0, 20.0], [30.0, 40.0]])
    assert np.array_equal(T.add(a, b).data, [[11.0, 22.0], [33.0, 44.0]])
    assert np.array_equal(T.sub(b, a).data, [[9.0, 18.0], [27.0, 36.0]])
    assert np.array_equal(T.mul(a, a).data, [[1.0, 4.0], [9.0, 16.0]])
    assert np.array_equal(T.matmul(a, np.eye(2)).data, a.data)
    assert np.array_equal(T.transpose(a).data, a.data.T)
    assert np.array_equal(T.relu(T.constant([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_row_vector_broadcast_onto_matrix():
    m = T.constant(np.ones((3, 2)))
    v = T.constant([1.0, 2.0])
    out = T.add(m, v)
    assert out.shape == (3, 2)
    assert np.array_equal(out.data, np.ones((3, 2)) + np.array([1.0, 2.0]))


def test_incompatible_shapes_error_names_op():
    with pytest.raises(ShapeError, match="add"):
        T.add(T.constant(np.ones((2, 3))), T.constant(np.ones((3, 2))))
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))


def test_sigmoid_tanh_extremes_and_values():
    s = T.sigmoid(T.constant([0.0, 800.0, -800.0]))
    assert s.data[0] == 0.5
    assert 0.0 <= s.data[2] and s.data[1] <= 1.0
    assert np.isfinite(s.data).all()
    assert abs(T.tanh(T.constant(0.5)).data - np.tanh(0.5)) < 1e-15


def test_sigmoid_array_matches_the_logistic_formula_on_a_grid():
    x = np.linspace(-30.0, 30.0, 6001)
    assert np.abs(T.sigmoid_array(x) - 1.0 / (1.0 + np.exp(-x))).max() < 1e-15


def test_sigmoid_array_is_finite_and_silent_at_extremes():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = T.sigmoid_array(np.array([-800.0, -40.0, 0.0, 40.0, 800.0]))
    assert np.isfinite(s).all()
    assert s[2] == 0.5
    assert s[0] == 0.0 and s[-1] == 1.0
    assert T.sigmoid_array(np.array(0.0)) == 0.5


def test_sigmoid_array_out_may_alias_the_input():
    x = np.random.default_rng(5).normal(0.0, 4.0, size=(3, 7))
    want = T.sigmoid_array(x)
    got = T.sigmoid_array(x, out=x)
    assert got is x
    assert np.array_equal(x, want)


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(7)
    z = rng.normal(0, 50, size=(5, 4))
    out = T.softmax(T.constant(z)).data
    assert np.all(out > 0)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12


def test_log_floor_keeps_log_finite():
    out = T.log(T.constant([0.0, 1.0]))
    assert np.isfinite(out.data).all()


def test_reduce_and_reshape_values():
    a = T.constant(np.arange(6.0).reshape(2, 3))
    assert T.reduce_sum(a).data == 15.0
    assert np.array_equal(T.reduce_sum(a, axis=0).data, [3.0, 5.0, 7.0])
    assert np.array_equal(T.reduce_mean(a, axis=1).data, [1.0, 4.0])
    assert T.reshape(a, (3, 2)).shape == (3, 2)
    assert np.array_equal(T.concat([a, a]).data, np.concatenate([a.data, a.data], axis=-1))
    assert np.array_equal(T.slice_axis(a, 1, 0, 2).data, a.data[:, 0:2])


def test_masked_fill_values_and_mask_guard():
    a = T.constant(np.zeros((2, 2)))
    filled = T.masked_fill(a, np.eye(2), -1e9)
    assert filled.data[0, 0] == -1e9 and filled.data[0, 1] == 0.0
    with pytest.raises(ShapeError):
        T.masked_fill(T.constant(np.zeros(2)), np.zeros((3, 2)), 1.0)


def test_masked_mse_zero_mask_rejected():
    with pytest.raises(InvalidInputError):
        T.masked_mse(T.constant([1.0]), T.constant([2.0]), np.zeros(1))


def test_rank_cap():
    with pytest.raises(ShapeError):
        T.constant(np.zeros((1, 1, 1, 1)))


_Z = np.zeros


@pytest.mark.parametrize("call, error, message", [
    (lambda: T.matmul(_Z((2, 3)), _Z((2, 3))), ShapeError, r"incompatible shapes \(2, 3\)"),
    (lambda: T.matmul(_Z((4, 2, 3)), _Z((2, 3))), ShapeError, "incompatible shapes"),
    (lambda: T.matmul(_Z((4, 2, 3)), _Z((5, 3, 2))), ShapeError, "incompatible shapes"),
    (lambda: T.matmul(_Z((4, 2, 3)), _Z((4, 2, 3))), ShapeError, "incompatible shapes"),
    (lambda: T.matmul(_Z(3), _Z((3, 2))), ShapeError, "unsupported ranks"),
    (lambda: T.transpose(_Z(3)), ShapeError, "needs rank >= 2"),
    (lambda: T.concat([]), InvalidInputError, "at least one tensor"),
    (lambda: T.concat([_Z((2, 3)), _Z(3)]), ShapeError, "mixed ranks"),
    (lambda: T.concat([_Z((2, 3)), _Z((3, 3))]), ShapeError, "leading dimensions differ"),
    (lambda: T.slice_axis(_Z((2, 3)), 2, 0, 1), ShapeError, "axis 2 out of range"),
    (lambda: T.slice_axis(_Z((2, 3)), -1, 2, 2), InvalidInputError, r"bounds \[2, 2\)"),
    (lambda: T.slice_axis(_Z((2, 3)), 1, 0, 4), InvalidInputError, "invalid for dimension 3"),
    (lambda: T.reduce_sum(_Z((2, 3)), axis=2), ShapeError, "axis 2 out of range"),
    (lambda: T.reduce_sum(_Z((2, 3)), axis=(1, -1)), InvalidInputError, "repeated axis"),
    (lambda: T.reduce_mean(_Z((0, 3)), axis=0), InvalidInputError, "zero elements"),
    (lambda: T.reshape(_Z(4), (1, 1, 2, 2)), ShapeError, "rank 4 exceeds the cap of 3"),
    (lambda: T.masked_mse(_Z(2), _Z(2), _Z(3)), ShapeError, "masked_mse: shapes differ"),
    (lambda: T.masked_mse(_Z(2), _Z(3), _Z(2)), ShapeError, "masked_mse: shapes differ"),
    (lambda: T.cross_entropy_with_logits(_Z(3), [0]), ShapeError, "must be rank 2"),
    (lambda: T.cross_entropy_with_logits(_Z((2, 3)), [0]), ShapeError, "labels shape"),
    (lambda: T.cross_entropy_with_logits(_Z((2, 3)), [[0, 1]]), ShapeError, "labels shape"),
    (lambda: T.cross_entropy_with_logits(_Z((2, 3)), [0, 3]), InvalidInputError,
     r"labels outside \[0, 3\)"),
    (lambda: T.cross_entropy_with_logits(_Z((2, 3)), [-1, 0]), InvalidInputError,
     "labels outside"),
    (lambda: T.grad_check(lambda x: x * 2.0, _Z(2)), InvalidInputError,
     "must return a scalar tensor"),
])
def test_ops_refuse_bad_shapes_and_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


# ---------------------------------------------------------------------------
# backward examples

def test_square_gradient_at_three():
    tape = T.Tape()
    x = tape.leaf(3.0)
    tape.backward(T.mul(x, x))
    assert x.grad == 6.0


def test_sigmoid_gradient_at_zero():
    tape = T.Tape()
    x = tape.leaf(0.0)
    tape.backward(T.sigmoid(x))
    assert abs(x.grad - 0.25) < 1e-15


def test_self_product_matches_square_accumulation():
    # x*x must accumulate both product paths, matching 2x exactly
    rng = np.random.default_rng(3)
    v = rng.normal(size=(3, 3))
    tape = T.Tape()
    x = tape.leaf(v)
    tape.backward(scalar_loss(T.mul(x, x)))
    assert np.array_equal(x.grad, 2.0 * v)


def test_backward_is_bitwise_deterministic():
    rng = np.random.default_rng(11)
    v = rng.normal(size=(4, 4))

    def run():
        tape = T.Tape()
        x = tape.leaf(v)
        h = T.matmul(T.sigmoid(x), T.transpose(T.tanh(x)))
        tape.backward(scalar_loss(T.mul(h, h)))
        return x.grad.copy()

    assert np.array_equal(run(), run())


def test_constants_do_not_record():
    tape = T.Tape()
    x = tape.leaf(np.ones(3))
    before = len(tape)
    T.mul(T.constant(np.ones(3)), T.constant(np.ones(3)))
    assert len(tape) == before


def test_mixed_tapes_rejected():
    t1, t2 = T.Tape(), T.Tape()
    with pytest.raises(InvalidInputError):
        T.add(t1.leaf(1.0), t2.leaf(1.0))


def test_backward_requires_scalar_from_same_tape():
    tape = T.Tape()
    x = tape.leaf(np.ones(3))
    with pytest.raises(InvalidInputError):
        tape.backward(T.mul(x, x))
    with pytest.raises(InvalidInputError):
        T.Tape().backward(T.constant(1.0))


def test_grad_none_for_nodes_created_after_backward():
    tape = T.Tape()
    x = tape.leaf(2.0)
    tape.backward(T.mul(x, x))
    late = T.mul(x, x)
    assert late.grad is None


# ---------------------------------------------------------------------------
# finite-difference checks per op

def test_grad_linear_is_exact():
    w = np.array([[2.0, -1.0], [0.5, 3.0]])
    err = T.grad_check(lambda x: scalar_loss(T.matmul(x, T.constant(w))),
                       np.array([[1.0, 2.0]]))
    assert err < 1e-10


def test_grad_reduce_sum_of_square():
    rng = np.random.default_rng(5)
    err = T.grad_check(lambda x: T.reduce_sum(T.mul(x, x)), rng.normal(size=(3, 3)))
    assert err < 1e-7


def test_grad_masked_mse():
    rng = np.random.default_rng(6)
    target = rng.normal(size=(3, 4))
    mask = (rng.random((3, 4)) < 0.6).astype(float)
    mask[0, 0] = 1.0
    err = T.grad_check(
        lambda x: T.masked_mse(x, T.constant(target), mask), rng.normal(size=(3, 4)))
    assert err < 1e-6


def test_grad_every_op_randomized():
    # every case freezes its constants per trial so the finite-difference
    # probe evaluates one fixed function of x
    fill_mask = (np.arange(12).reshape(3, 4) % 3 == 0).astype(float)

    def weighted(op):
        def build(rng):
            x = rng.normal(size=(3, 4))
            w = rng.normal(size=(3, 4))
            return (lambda t: scalar_loss(T.mul(op(t), T.constant(w)))), x
        return build

    def binary(op, other_shape, x_shape=(3, 4)):
        def build(rng):
            x = rng.normal(size=x_shape)
            c = T.constant(rng.normal(size=other_shape))
            return (lambda t: scalar_loss(op(t, c))), x
        return build

    def mm(x_shape, w_shape):
        def build(rng):
            x = rng.normal(size=x_shape)
            w = T.constant(rng.normal(size=w_shape))
            return (lambda t: scalar_loss(T.matmul(t, w))), x
        return build

    def elementwise(op, sampler):
        def build(rng):
            return (lambda t: scalar_loss(op(t))), sampler(rng)
        return build

    def normal33(rng):
        return rng.normal(size=(3, 3))

    def away_from_kink(rng):
        v = rng.normal(size=(3, 3))
        return v + np.sign(v) * 0.2

    def concat_case(rng):
        x = rng.normal(size=(3, 3))
        tail = T.constant(rng.normal(size=(3, 2)))
        w = T.constant(rng.normal(size=(3, 5)))
        return (lambda t: scalar_loss(T.mul(T.concat([t, tail]), w))), x

    def slice_case(rng):
        x = rng.normal(size=(3, 4))
        w = T.constant(rng.normal(size=(3, 2)))
        return (lambda t: scalar_loss(T.mul(T.slice_axis(t, 1, 1, 3), w))), x

    def reduce_axis_case(rng):
        x = rng.normal(size=(3, 4))
        w = T.constant(rng.normal(size=4))
        return (lambda t: scalar_loss(T.mul(T.reduce_sum(t, axis=0), w))), x

    def reshape_case(rng):
        x = rng.normal(size=(3, 4))
        w = T.constant(rng.normal(size=(4, 3)))
        return (lambda t: scalar_loss(T.mul(T.reshape(t, (4, 3)), w))), x

    def fill_case(rng):
        x = rng.normal(size=(3, 4))
        w = T.constant(rng.normal(size=(3, 4)))
        return (lambda t: scalar_loss(T.mul(T.masked_fill(t, fill_mask, 2.5), w))), x

    def transpose_case(rng):
        x = rng.normal(size=(3, 4))
        w = T.constant(rng.normal(size=(4, 3)))
        return (lambda t: scalar_loss(T.mul(T.transpose(T.mul(t, t)), w))), x

    def mm_right_case(rng):
        x = rng.normal(size=(4, 3))
        left = T.constant(rng.normal(size=(2, 2, 4)))
        return (lambda t: scalar_loss(T.matmul(left, t))), x

    cases = [
        ("add", binary(T.add, (3, 4))),
        ("add_suffix", binary(T.add, (4,))),
        ("sub", binary(lambda t, c: T.sub(c, t), (3, 4))),
        ("mul", binary(T.mul, (3, 4))),
        ("mul_suffix", binary(lambda t, c: T.mul(c, t), (2, 3, 4), x_shape=(4,))),
        ("matmul22", mm((2, 4), (4, 3))),
        ("matmul32", mm((2, 2, 4), (4, 3))),
        ("matmul32_w", mm_right_case),
        ("matmul33", mm((2, 3, 4), (2, 4, 3))),
        ("transpose", transpose_case),
        ("sigmoid", elementwise(T.sigmoid, normal33)),
        ("tanh", elementwise(T.tanh, normal33)),
        ("relu", elementwise(T.relu, away_from_kink)),
        ("exp", elementwise(T.exp, normal33)),
        ("log", elementwise(T.log, lambda rng: rng.random((3, 3)) + 0.5)),
        ("softmax", weighted(T.softmax)),
        ("concat", concat_case),
        ("slice", slice_case),
        ("reduce_sum_axis", reduce_axis_case),
        ("reduce_mean", elementwise(lambda t: T.reduce_mean(T.mul(t, t)), normal33)),
        ("reshape", reshape_case),
        ("masked_fill", fill_case),
    ]

    for name, build in cases:
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        worst = 0.0
        for _ in range(10):
            f, x = build(rng)
            worst = max(worst, T.grad_check(f, x))
        assert worst < 1e-5, f"{name}: max relative error {worst}"


def test_grad_cross_entropy():
    rng = np.random.default_rng(9)
    labels = np.array([0, 2, 1])
    err = T.grad_check(
        lambda x: T.cross_entropy_with_logits(x, labels), rng.normal(size=(3, 3)))
    assert err < 1e-6


def test_cross_entropy_matches_manual_value():
    z = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
    labels = np.array([1, 0])
    expect = 0.0
    for row, lab in zip(z, labels):
        expect += -(row[lab] - np.log(np.exp(row).sum()))
    got = float(T.cross_entropy_with_logits(T.constant(z), labels).data)
    assert abs(got - expect) < 1e-12


# ---------------------------------------------------------------------------
# blocked reductions

def _qkv_like(k, dm=32, seed=0):
    """(K, M) rows and a strided (K, dm) b: the value half of a (K, 2 dm) block."""
    rng = np.random.default_rng(seed + k)
    a = rng.standard_normal((k, 17))
    qkv = rng.standard_normal((k, 2 * dm))
    return a, qkv[..., dm:]


@pytest.mark.parametrize("k", [1, 255, 256, 257, 816, 1536])
def test_at_b_matches_the_plain_product(k):
    a, b = _qkv_like(k)
    assert b.strides == (2 * b.shape[1] * 8, 8)
    want = a.T @ b
    err = np.abs(T.at_b(a, b) - want).max() / np.abs(want).max()
    assert err <= 1e-13
    # leading axes of b: one product per index
    stack = np.stack([b, 2.0 * b, -b])
    have = T.at_b(a, stack)
    assert have.shape == (3, 17, b.shape[1])
    assert np.abs(have - a.T @ stack).max() / np.abs(want).max() <= 3e-13


@pytest.mark.parametrize("k", [1, 255, 256, 257, 816, 1536])
def test_at_b_is_the_in_order_sum_of_its_block_products(k):
    a, b = _qkv_like(k, seed=1)
    rows = T.AT_B_ROWS
    acc = None
    for lo in range(0, k, rows):
        part = a[lo:lo + rows].T @ b[lo:lo + rows]
        acc = part if acc is None else acc + part
    assert np.array_equal(T.at_b(a, b), acc)


# ---------------------------------------------------------------------------
# optimizers

def _adam_per_parameter(params, grads, state, moments):
    """The per-parameter Adam update, the flat step's oracle."""
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        m, v = moments[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def test_flat_adam_is_bitwise_the_per_parameter_update():
    rng = np.random.default_rng(7)
    shapes = {"w": (5, 3), "b": (3,), "pos": (4, 2), "scalar": (), "u": (2, 2)}
    params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    want = {name: p.copy() for name, p in params.items()}
    moments = {name: (np.zeros(shape), np.zeros(shape)) for name, shape in shapes.items()}
    state = T.AdamState.for_params(params, lr=0.05)
    oracle = T.AdamState(lr=0.05)
    for step in range(5):
        grads = {name: rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8)
                 for name, shape in shapes.items()}
        grads["u"] = None
        if step % 2:
            del grads["b"]
        T.adam_step(params, grads, state)
        oracle.step += 1
        _adam_per_parameter(want, grads, oracle, moments)
        for name in shapes:
            assert np.array_equal(params[name], want[name]), (step, name)
    assert state.step == 5
    lo = 0
    for name, (m, v) in moments.items():
        size = m.size
        assert np.array_equal(state.m[lo:lo + size], m.ravel()), name
        assert np.array_equal(state.v[lo:lo + size], v.ravel()), name
        lo += size
    assert lo == state.m.size == state.v.size


@pytest.mark.parametrize("change", ["renamed", "reshaped", "added", "dropped", "reordered"])
def test_adam_refuses_params_that_do_not_match_its_state(change):
    params = {"w": np.ones((2, 3)), "b": np.zeros(3)}
    state = T.AdamState.for_params(params)
    other = {
        "renamed": {"v": params["w"], "b": params["b"]},
        "reshaped": {"w": np.ones((3, 2)), "b": params["b"]},
        "added": {**params, "c": np.zeros(1)},
        "dropped": {"w": params["w"]},
        "reordered": {"b": params["b"], "w": params["w"]},
    }[change]
    before = {name: p.copy() for name, p in other.items()}
    with pytest.raises(InvalidInputError, match="names and shapes"):
        T.adam_step(other, {}, state)
    assert state.step == 0
    assert all(np.array_equal(other[name], before[name]) for name in other)


def test_adam_first_step_magnitude():
    # with fresh moments the first Adam step is exactly -lr * sign(g)
    params = {"w": np.array([1.0, -2.0])}
    state = T.AdamState.for_params(params, lr=0.01)
    T.adam_step(params, {"w": np.array([3.0, -4.0])}, state)
    delta = params["w"] - np.array([1.0, -2.0])
    assert np.abs(delta + 0.01 * np.sign([3.0, -4.0])).max() < 1e-9


def test_adam_zero_gradient_is_fixed_point():
    params = {"w": np.array([1.5, -0.5])}
    state = T.AdamState.for_params(params, lr=0.1)
    for _ in range(3):
        T.adam_step(params, {"w": np.zeros(2)}, state)
    assert np.array_equal(params["w"], np.array([1.5, -0.5]))


def test_adam_missing_grad_treated_as_zero():
    params = {"w": np.array([2.0]), "b": np.array([1.0])}
    state = T.AdamState.for_params(params, lr=0.1)
    T.adam_step(params, {"w": np.array([1.0]), "b": None}, state)
    assert params["b"][0] == 1.0 and params["w"][0] != 2.0


# ---------------------------------------------------------------------------
# fused nodes

def test_record_fused_routes_gradients_to_recorded_inputs_only():
    tape = T.Tape()
    a = tape.leaf(np.array([1.0, 2.0]))
    b = T.constant(np.array([3.0, 5.0]))
    c = tape.leaf(np.array([7.0, 11.0]))
    calls = []

    def backward(g):
        calls.append(1)
        return [g * b.data * c.data, g * a.data * c.data, g * a.data * b.data]

    out = T.record_fused(a.data * b.data * c.data, [a, b, c], backward)
    tape.backward(scalar_loss(out))
    assert len(calls) == 1
    assert np.array_equal(a.grad, b.data * c.data)
    assert np.array_equal(c.grad, a.data * b.data)
    assert len(tape) == 4     # two leaves, the fused node, the sum


def test_record_fused_on_constants_records_nothing():
    out = T.record_fused(np.ones(2), [T.constant(np.ones(2))], lambda g: [g])
    assert out.tape is None

