"""Per-op gradient checks against central differences, plus tape mechanics.

div, neg, sqrt, tanh and relu are the oracle-only ops from oracle_refs;
conv2d is also checked against the per-tap conv2d_reference.
"""

import numpy as np
import pytest
from oracle_refs import conv2d_reference, conv_bias, div, neg, relu, sqrt, tanh

from gridflow import autodiff as ad
from gridflow.autodiff import Parameter, Tape, Tensor
from gridflow.errors import NumericalError


def fd_check(build_loss, params, eps=1e-6, rtol=1e-6, atol=1e-9):
    """Compare tape gradients of a scalar loss with central differences."""
    loss, tape = ad.record_forward(build_loss, params)
    grads = ad.backward(tape)
    for p in params:
        flat = p.data.reshape(-1)
        gflat = grads[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = float(build_loss().data)
            flat[i] = orig - eps
            lm = float(build_loss().data)
            flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            assert abs(fd - gflat[i]) <= atol + rtol * max(abs(fd), abs(gflat[i])), (
                f"{p.name}[{i}]: fd {fd:.10e} vs tape {gflat[i]:.10e}"
            )
    return grads


def randp(shape, name, seed):
    return Parameter(np.random.default_rng(seed).standard_normal(shape), name)


class TestPointwiseOps:
    @pytest.mark.parametrize(
        "op",
        [ad.exp, tanh, ad.sigmoid, lambda t: ad.leaky_relu(t, 0.4), neg],
    )
    def test_unary(self, op):
        p = randp((3, 4), "p", 0)
        fd_check(lambda: ad.sum_(op(p) * op(p)), [p])

    def test_sqrt_positive_domain(self):
        p = Parameter(np.abs(np.random.default_rng(1).standard_normal((3, 4))) + 0.5, "p")
        fd_check(lambda: ad.sum_(sqrt(p) * sqrt(p * p + 1.0)), [p])

    def test_relu_off_kink(self):
        p = Parameter(np.array([[-1.0, -0.3, 0.4, 2.0]]), "p")
        fd_check(lambda: ad.sum_(relu(p) * relu(p)), [p])

    def test_binary_broadcasting(self):
        a = randp((3, 1, 4), "a", 2)
        b = randp((5, 1), "b", 3)
        fd_check(lambda: ad.sum_(a * b + a - b), [a, b])

    def test_division(self):
        a = randp((2, 3), "a", 4)
        b = Parameter(np.abs(np.random.default_rng(5).standard_normal((2, 3))) + 1.0, "b")
        fd_check(lambda: ad.sum_(div(a, b) * div(a, b)), [a, b])

    def test_scalar_constants_keep_dtype(self):
        t = Tensor(np.ones((2, 2), dtype=np.float32))
        assert (t * 0.5).dtype == np.float32
        assert (t + 1.0).dtype == np.float32
        assert (0.5 * t - 1.0).dtype == np.float32


class TestShapeOps:
    def test_sum_axis_keepdims(self):
        p = randp((3, 4, 5), "p", 6)
        fd_check(lambda: ad.sum_(ad.sum_(p, axis=(1, 2), keepdims=True) * p), [p])
        fd_check(lambda: ad.sum_(ad.sum_(p, axis=1) * 2.0), [p])

    def test_mean(self):
        # the per-dimension loss form: a full sum scaled by 1/size
        p = randp((4, 4), "p", 7)
        fd_check(lambda: ad.sum_(p * p) * (1.0 / p.data.size), [p])

    def test_reshape_transpose(self):
        p = randp((2, 3, 4), "p", 8)
        fd_check(
            lambda: ad.sum_(ad.transpose(ad.reshape(p, (6, 4)), (1, 0)) * 1.5), [p]
        )

    def test_narrow(self):
        p = randp((4, 6), "p", 9)
        fd_check(lambda: ad.sum_(ad.narrow(p, 1, 2, 3) * ad.narrow(p, 1, 0, 3)), [p])

    def test_shift_down_values(self):
        x = np.arange(12.0).reshape(3, 4)
        out = ad.shift_down(Tensor(x)).data
        assert np.array_equal(out[0], np.zeros(4))
        assert np.array_equal(out[1:], x[:-1])

    def test_shift_down_grad(self):
        p = randp((4, 3), "p", 10)
        fd_check(lambda: ad.sum_(ad.shift_down(p) * p), [p])

    def test_permute_rows_scatter(self):
        x = np.arange(8.0).reshape(4, 2)
        rm = np.array([2, 0, 3, 1])
        out = ad.permute_rows(Tensor(x), rm).data
        for i in range(4):
            assert np.array_equal(out[rm[i]], x[i])

    def test_permute_rows_grad(self):
        p = randp((4, 3), "p", 11)
        w = randp((4, 3), "w", 12)
        fd_check(lambda: ad.sum_(ad.permute_rows(p, np.array([3, 1, 0, 2])) * w), [p, w])


class TestConv2d:
    def test_values_identity_kernel(self):
        x = np.random.default_rng(13).standard_normal((1, 5, 6))
        w = np.ones((1, 1, 1, 1))
        out = ad.conv2d(Tensor(x), Tensor(w)).data
        assert np.array_equal(out, x)

    def test_grad_plain(self):
        x = randp((2, 5, 6), "x", 14)
        w = randp((3, 2, 3, 3), "w", 15)
        b = randp((3,), "b", 16)

        def loss():
            y = conv_bias(x, w, b, pad=((2, 0), (1, 1)))
            return ad.sum_(y * y)

        fd_check(loss, [x, w, b])

    def test_grad_dilated(self):
        x = randp((2, 8, 7), "x", 17)
        w = randp((2, 2, 3, 3), "w", 18)
        fd_check(
            lambda: ad.sum_(
                ad.conv2d(x, w, dilation=(2, 2), pad=((4, 0), (2, 2)))
                * ad.conv2d(x, w, dilation=(2, 2), pad=((4, 0), (2, 2)))
            ),
            [x, w],
        )

    def test_causal_padding_keeps_height(self):
        x = Tensor(np.random.default_rng(19).standard_normal((1, 6, 4)))
        w = Tensor(np.random.default_rng(20).standard_normal((1, 1, 3, 1)))
        out = ad.conv2d(x, w, dilation=(2, 1), pad=((4, 0), (0, 0)))
        assert out.data.shape == (1, 6, 4)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            ad.conv2d(Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros((1, 3, 1, 1))))

    # (x shape, filter shape, dilation, pad)
    @pytest.mark.parametrize(
        "x_shape,w_shape,dilation,pad",
        [
            ((2, 5, 6), (3, 2, 3, 3), (1, 1), ((0, 0), (0, 0))),
            ((2, 9, 8), (3, 2, 3, 3), (2, 2), ((4, 0), (2, 2))),
            ((3, 6, 5), (2, 3, 3, 3), (1, 1), ((2, 0), (0, 0))),
            ((2, 6, 7), (3, 2, 3, 3), (1, 2), ((1, 3), (4, 0))),
            ((2, 5, 6), (3, 2, 3, 2), (1, 1), ((2, 0), (1, 0))),
            ((2, 5, 6), (3, 2, 1, 1), (1, 1), ((0, 0), (0, 0))),
            ((1, 6, 9), (16, 1, 3, 2), (1, 1), ((2, 2), (1, 1))),
        ],
        ids=["plain", "dilated", "causal", "asymmetric", "kw2", "k1x1", "upsampler"],
    )
    def test_matches_per_tap_reference(self, x_shape, w_shape, dilation, pad):
        rng = np.random.default_rng(21)
        x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
        ref = conv2d_reference(x, w, dilation=dilation, pad=pad)
        xt, wt = Parameter(x, "x"), Parameter(w, "w")
        g = rng.standard_normal(ref.shape)
        loss, tape = ad.record_forward(
            lambda: ad.sum_(ad.conv2d(xt, wt, dilation=dilation, pad=pad) * g), [xt, wt]
        )
        assert np.abs(tape.nodes[0].out.data - ref).max() <= 1e-12
        # conv is bilinear: <g, conv(x, w)> = <dx, x> = <dw, w> for the tape's adjoints
        grads = ad.backward(tape)
        expect = float((g * ref).sum())
        assert abs(float(loss.data) - expect) <= 1e-12 * max(1.0, abs(expect))
        assert abs(float((grads["x"] * x).sum()) - expect) <= 1e-12 * max(1.0, abs(expect))
        assert abs(float((grads["w"] * w).sum()) - expect) <= 1e-12 * max(1.0, abs(expect))


class TestTapeMechanics:
    def test_recording_order_matches_execution(self):
        p = Parameter(np.ones(3), "p")
        loss, tape = ad.record_forward(lambda: ad.sum_(ad.exp(p) * p), [p])
        assert [n.op for n in tape.nodes] == ["exp", "mul", "sum"]
        assert [n.out.node_id for n in tape.nodes] == [0, 1, 2]

    def test_reused_tensor_accumulates(self):
        p = Parameter(np.array([2.0]), "p")
        loss, tape = ad.record_forward(lambda: ad.sum_(p * p * p), [p])
        grads = ad.backward(tape)
        assert np.allclose(grads["p"], 3 * 4.0)  # d(p^3) = 3 p^2

    def test_unused_param_gets_zero_grad(self):
        p = Parameter(np.ones((2, 2)), "p")
        q = Parameter(np.ones(3), "q")
        loss, tape = ad.record_forward(lambda: ad.sum_(p * 2.0), [p, q])
        grads = ad.backward(tape)
        assert np.array_equal(grads["q"], np.zeros(3))

    def test_nan_abort_names_node(self):
        p = Parameter(np.array([1.0, -1.0]), "p")

        def loss_fn():
            return ad.sum_(sqrt(p))  # sqrt(-1) = nan

        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match="node"):
                ad.record_forward(loss_fn, [p])

    def test_duplicate_param_name_rejected(self):
        t = Tape()
        t.register([Parameter(np.ones(1), "w")])
        with pytest.raises(ValueError):
            t.register([Parameter(np.ones(2), "w")])

    def test_nested_tape_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError):
                Tape().__enter__()

    def test_grads_do_not_leak_across_steps(self):
        p = Parameter(np.array([3.0]), "p")
        _, tape1 = ad.record_forward(lambda: ad.sum_(p * p), [p])
        g1 = ad.backward(tape1)
        _, tape2 = ad.record_forward(lambda: ad.sum_(p * p), [p])
        g2 = ad.backward(tape2)
        assert np.allclose(g1["p"], g2["p"])  # no accumulation between tapes

    def test_fp64_end_to_end(self):
        p = Parameter(np.random.default_rng(0).standard_normal((3, 3)), "p")
        assert p.data.dtype == np.float64
        loss, tape = ad.record_forward(lambda: ad.sum_(tanh(p)), [p])
        grads = ad.backward(tape)
        assert grads["p"].dtype == np.float64
