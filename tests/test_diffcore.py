import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

import egorec.diffcore as dc
from egorec.diffcore import Tape, Tensor, backward
from egorec.diffcore import ops
from egorec.diffcore.ops import _result

from gradcheck import grad_check


def t(data, rg=False, dtype=np.float64):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=rg)


class TestForwardExamples:
    def test_sigmoid_zero(self):
        assert dc.sigmoid(t([0.0])).item() == 0.5

    def test_softmax_uniform_logits(self):
        out = dc.softmax(t([0.0, 0.0, 0.0])).numpy()
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-12)

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        out = dc.matmul(t(np.eye(3)), t(a)).numpy()
        np.testing.assert_array_equal(out, a)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5, 6, 3)).astype(np.float32)
        w = rng.normal(size=(3, 3, 3, 2)).astype(np.float32)
        a = dc.conv2d(Tensor(x), Tensor(w), stride=2, pad=1).numpy()
        b = dc.conv2d(Tensor(x), Tensor(w), stride=2, pad=1).numpy()
        assert a.tobytes() == b.tobytes()

    def test_softmax_rows_normalized(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(7, 9)).astype(np.float32) * 8)
        out = dc.softmax(x, axis=-1).numpy()
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(7), atol=1e-6)


class TestBackwardExamples:
    def test_sum_of_squares(self):
        x = t([1.0, 2.0], rg=True)
        with Tape() as tape:
            loss = dc.sum_(x * x)
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)

    def test_unused_parameter_zero_grad(self):
        x = t([1.0, 2.0], rg=True)
        p = t([5.0], rg=True)
        with Tape() as tape:
            loss = dc.sum_(x * x)
        backward(tape, loss, params=[p])
        np.testing.assert_array_equal(p.grad, [0.0])

    def test_sigmoid_at_zero_weight(self):
        w = t([0.0], rg=True)
        with Tape() as tape:
            loss = dc.sum_(dc.sigmoid(w * t([1.0])))
        backward(tape, loss)
        np.testing.assert_allclose(w.grad, [0.25], atol=1e-15)

    def test_non_scalar_loss_raises(self):
        x = t([1.0, 2.0], rg=True)
        with Tape() as tape:
            y = x * x
        with pytest.raises(dc.TapeError):
            backward(tape, y)

    def test_double_backward_raises(self):
        x = t([1.0], rg=True)
        with Tape() as tape:
            loss = dc.sum_(x * x)
        backward(tape, loss)
        with pytest.raises(dc.TapeError):
            backward(tape, loss)

    def test_backward_linearity_float64(self):
        rng = np.random.default_rng(3)
        xv = rng.normal(size=7)
        c1, c2 = rng.normal(size=7), rng.normal(size=7)

        def run(which, f1, f2):
            x = t(xv, rg=True)
            with Tape() as tape:
                l1, l2 = f1(x), f2(x)
                loss = {"a": l1, "b": l2, "ab": l1 + l2}[which]
            backward(tape, loss)
            return x.grad

        # each loss reaches x through a single path: bitwise equality
        # (only commutativity of float addition is needed)
        lin1 = lambda x: dc.sum_(x * t(c1))
        lin2 = lambda x: dc.sum_(x * t(c2))
        np.testing.assert_array_equal(run("ab", lin1, lin2),
                                      run("a", lin1, lin2) + run("b", lin1, lin2))

        # multi-path losses: fold order differs, equality up to rounding
        sq = lambda x: dc.sum_(x * x)
        np.testing.assert_allclose(run("ab", sq, lin2),
                                   run("a", sq, lin2) + run("b", sq, lin2),
                                   rtol=1e-12, atol=0)

    def test_grad_accumulates_across_calls(self):
        x = t([2.0], rg=True)
        for _ in range(2):
            with Tape() as tape:
                loss = dc.sum_(x * x)
            backward(tape, loss)
        np.testing.assert_allclose(x.grad, [8.0])


class TestTapeRelease:
    def test_backward_empties_the_tape(self):
        x = t([1.0, 2.0], rg=True)
        with Tape() as tape:
            loss = dc.sum_(dc.tanh_(x) * x)
        nodes = tape.nodes
        backward(tape, loss)
        assert len(tape) == 0 and tape.nodes is nodes

    def test_only_leaves_get_grad(self):
        x = t([1.0, 2.0], rg=True)
        with Tape() as tape:
            y = x * x
            loss = dc.sum_(y)
        backward(tape, loss)
        assert y.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_replayed_outputs_are_freed(self):
        x = t(np.linspace(-1.0, 1.0, 64), rg=True)
        with Tape() as tape:
            y = dc.tanh_(x)
            ref = weakref.ref(y.data)
            loss = dc.sum_(y * y)
        del y
        backward(tape, loss)
        assert len(tape) == 0  # the tape itself is still referenced here
        assert ref() is None

    def test_closure_holds_the_only_reference_to_its_gradient(self):
        """``backward`` keeps no reference to the gradient it passes a
        closure, so a closure that drops it frees it then."""
        freed = []

        def bwd(g):
            ref = weakref.ref(g)
            del g
            freed.append(ref() is None)
            return (np.zeros(4),)

        x = t(np.ones(4), rg=True)
        with Tape() as tape:
            y = _result("probe", x.data * 3.0, (x,), bwd)
            loss = dc.sum_(y * 2.0)
        backward(tape, loss)
        assert freed == [True]

    @staticmethod
    def _grads_with_input_tracked(op, data, track_input):
        """(closure's gradient for the first input, other leaves' .grad) of
        sum(op(...)^2)."""
        inputs = [Tensor(data[0], requires_grad=track_input)]
        inputs += [Tensor(d, requires_grad=True) for d in data[1:]]
        with Tape() as tape:
            y = op(*inputs)
            _, node_inputs, bwd, _ = tape.nodes[-1]
            loss = dc.sum_(y * y)
        grads = bwd(2.0 * y.data)
        g_input = next(g for x, g in zip(node_inputs, grads) if x is inputs[0])
        backward(tape, loss)
        return g_input, [p.grad for p in inputs[1:]]

    @pytest.mark.parametrize("case", ["conv2d", "grid_sample", "mul-left", "mul-right",
                                      "add", "div", "concat"])
    def test_untracked_input_gets_no_gradient(self, case):
        """The first input is the constant (a frame, a warp's mask, a dropout
        mask, a one-hot label); its operand position varies by case."""
        rng = np.random.default_rng(7)
        if case == "conv2d":
            op = lambda x, w, b: dc.conv2d(x, w, b, stride=2, pad=1)
            data = [rng.normal(size=(2, 6, 8, 3)), rng.normal(size=(3, 3, 3, 4)),
                    rng.normal(size=4)]
        elif case == "grid_sample":
            img = rng.normal(size=(3, 5, 7, 3)).astype(np.float32)
            op = lambda m, tr, f: dc.grid_sample(img, np.array([2, 0]), tr, f, m)
            data = [rng.uniform(size=(2, 4, 6)),
                    np.eye(2, 3) + rng.uniform(-0.2, 0.2, size=(2, 2, 3)),
                    rng.uniform(-0.3, 0.3, size=(2, 4, 6, 2))]
        else:
            x, c = rng.normal(size=(3, 4)), rng.uniform(0.5, 2.0, size=(3, 4))
            op = {"mul-left": dc.mul, "mul-right": lambda c, x: dc.mul(x, c),
                  "add": dc.add, "div": dc.div,
                  "concat": lambda c, x, z: dc.concat([x, c, z], axis=1)}[case]
            data = [c, x, x[:, :2]] if case == "concat" else [c[0], x]
        data = [d.astype(np.float32) for d in data]
        g_tracked, leaves_tracked = self._grads_with_input_tracked(op, data, True)
        g_untracked, leaves_untracked = self._grads_with_input_tracked(op, data, False)
        assert g_tracked is not None and g_untracked is None
        for a, b in zip(leaves_tracked, leaves_untracked):
            assert a.tobytes() == b.tobytes()


class TestDtypes:
    """float32 in, float32 out, float32 gradients: a scalar operand takes its
    tensor partner's dtype instead of NEP 50's float64."""

    @pytest.mark.parametrize("expr", [
        pytest.param(lambda x: x + 1.0, id="add"),
        pytest.param(lambda x: 1.0 + x, id="radd"),
        # x - 2 and 1 - x, written on add and mul
        pytest.param(lambda x: x + -2, id="sub-int"),
        pytest.param(lambda x: -1.0 * x + 1.0, id="rsub"),
        pytest.param(lambda x: x * -1.0, id="mul"),
        pytest.param(lambda x: 0.5 * x, id="rmul"),
        pytest.param(lambda x: x / 3.0, id="div"),
        pytest.param(lambda x: 2.0 / x, id="rdiv"),
        pytest.param(lambda x: dc.mul(np.float64(0.5), x), id="numpy-scalar"),
        pytest.param(lambda x: dc.add(x, np.int64(1)), id="numpy-int"),
        pytest.param(lambda x: dc.mean(x, axis=(0, 1)), id="mean-axes"),
        pytest.param(lambda x: dc.mean(x), id="mean-all"),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scalar_operands_keep_the_tensor_dtype(self, expr, dtype):
        x = t(np.linspace(0.5, 2.0, 6).reshape(2, 3), rg=True, dtype=dtype)
        with Tape() as tape:
            y = expr(x)
            loss = dc.sum_(y)
        assert y.dtype == dtype
        backward(tape, loss)
        assert x.grad.dtype == dtype

    def test_gradient_dtype_mismatch_names_the_op(self):
        x = t([1.0, 2.0, 3.0], rg=True, dtype=np.float32)
        with Tape() as tape:
            y = _result("upcast", x.data * 2, (x,), lambda g: (g.astype(np.float64) * 2,))
            loss = dc.sum_(y)
        with pytest.raises(dc.TapeError,
                           match="upcast: gradient dtype float64 does not match input dtype float32"):
            backward(tape, loss)


class TestFusedRelu:
    @pytest.mark.parametrize("op, shapes", [
        pytest.param(dc.conv2d, [(2, 6, 7, 3), (3, 3, 3, 4), (4,)], id="conv2d"),
        pytest.param(dc.conv_transpose2d, [(2, 3, 4, 3), (4, 4, 3, 2), (2,)],
                     id="conv_transpose2d"),
    ])
    def test_bitwise_equal_to_relu_of_conv(self, op, shapes):
        rng = np.random.default_rng(21)
        data = [rng.normal(size=s).astype(np.float32) for s in shapes]
        out_shape = op(*data, stride=2, pad=1).shape
        weights = Tensor(rng.normal(size=out_shape).astype(np.float32))

        def run(fused):
            inputs = [Tensor(d, requires_grad=True) for d in data]
            with Tape() as tape:
                if fused:
                    y = op(*inputs, stride=2, pad=1, relu=True)
                else:
                    y = dc.relu(op(*inputs, stride=2, pad=1))
                loss = dc.sum_(y * weights)
            nodes = len(tape)
            backward(tape, loss)
            return y.data, [p.grad for p in inputs], nodes

        y_fused, g_fused, n_fused = run(True)
        y_ref, g_ref, n_ref = run(False)
        assert (y_ref == 0).any() and (y_ref > 0).any()
        assert y_fused.tobytes() == y_ref.tobytes()
        for a, b in zip(g_fused, g_ref):
            assert a.tobytes() == b.tobytes()
        assert n_fused == n_ref - 1

    def test_pool_mask_is_built_only_when_recorded(self):
        """A tape-less conv2d with a ReLU and a pool peaks at least the
        packed ReLU mask's bytes (one bit per value) below the same call
        under a tape, with the same output bits."""
        rng = np.random.default_rng(22)
        inputs = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                  for s in [(8, 16, 32, 3), (3, 3, 3, 8), (8,)]]

        def run(taped):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                if taped:
                    with Tape() as tape:
                        y = dc.conv2d(*inputs, pad=1, relu=True, pool=2)
                    assert len(tape) == 1
                else:
                    y = dc.conv2d(*inputs, pad=1, relu=True, pool=2)
                    assert not y.requires_grad
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return y.data, peak - before

        run(False)    # a first call's one-off allocations
        y_free, peak_free = run(False)
        y_taped, peak_taped = run(True)
        assert y_free.tobytes() == y_taped.tobytes()
        mask_bytes = 8 * 16 * 32 * 8 // 8
        assert peak_free + mask_bytes <= peak_taped, (peak_free, peak_taped)

    @pytest.mark.parametrize("per_slice", [1, 2, 3])
    @pytest.mark.parametrize("shapes, kwargs", [
        pytest.param([(3, 30, 34, 3), (3, 3, 3, 7), (7,)], dict(pad=1), id="7140-bits"),
        pytest.param([(3, 28, 44, 2), (3, 3, 2, 5), (5,)], dict(stride=2, pad=1),
                     id="1540-bits-stride-2"),
        pytest.param([(3, 18, 30, 4), (1, 1, 4, 5), (5,)], {}, id="2700-bits-1x1"),
    ])
    def test_pool_mask_is_packed_per_item(self, shapes, kwargs, per_slice, monkeypatch):
        """A taped pooled conv2d keeps its ReLU mask as one bit per value
        and item, padded to whole bytes per item (each case's item has a
        bit count that is not a multiple of 8), so the tape holds besides
        the output at most the packed mask and 3 KiB of node overhead, not
        a byte per value. Forced into batch slices of ``per_slice`` items,
        its input, kernel and bias gradients are bitwise those of a
        boolean mask: the ReLU'd conv without a pool under the loss the
        mean spreads."""
        rng = np.random.default_rng(25)
        data = [rng.normal(size=s).astype(np.float32) for s in shapes]

        def run(pool, w_out):
            inputs = [Tensor(d, requires_grad=True) for d in data]
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                with Tape() as tape:
                    y = dc.conv2d(*inputs, relu=True, pool=pool, **kwargs)
                    held, _ = tracemalloc.get_traced_memory()
                    loss = dc.sum_(y * Tensor(w_out))
            finally:
                tracemalloc.stop()
            backward(tape, loss)
            return held - before - y.data.nbytes, y.data, [x.grad for x in inputs]

        n, ho, wo, co = dc.conv2d(*data, **kwargs).shape
        bits = ho * wo * co
        assert bits % 8
        weights = rng.normal(size=(n, ho // 2, wo // 2, co)).astype(np.float32)
        spread = np.repeat(np.repeat(weights / 4, 2, axis=1), 2, axis=2)
        _, full, g_ref = run(1, spread)
        assert (full == 0).any() and (full > 0).any()
        monkeypatch.setattr(ops, "_batch_slices", lambda count, item_bytes: [
            slice(i, min(i + per_slice, count)) for i in range(0, count, per_slice)])
        run(2, weights)    # a first call's one-off allocations
        held, _, g_packed = run(2, weights)
        assert held <= n * -(-bits // 8) + 3 * 1024, (held, n * bits)
        for a, b in zip(g_packed, g_ref):
            assert a.tobytes() == b.tobytes()


CONV_CASES = [
    pytest.param(dc.conv2d, [(5, 6, 8, 3), (3, 3, 3, 4), (4,)], dict(pad=1), id="conv2d"),
    pytest.param(dc.conv2d, [(5, 7, 6, 3), (3, 3, 3, 4), (4,)], dict(stride=2, relu=True),
                 id="conv2d-relu"),
    pytest.param(dc.conv2d, [(5, 6, 8, 3), (3, 3, 3, 4), (4,)], dict(pad=1, relu=True, pool=2),
                 id="conv2d-relu-pool"),
    pytest.param(dc.conv_transpose2d, [(5, 3, 4, 3), (4, 4, 3, 2), (2,)],
                 dict(stride=2, pad=1, relu=True), id="conv_transpose2d"),
]


def _warp(rows):
    """grid_sample of the rows ``rows`` of its first input's data, which
    gets no gradient, at the transform, field and mask that follow."""
    return lambda img, *args: dc.grid_sample(img.data, rows, *args)


# (op, input shapes, kwargs, whether the first input needs a gradient)
SLICED_CASES = [pytest.param(*case.values, True, id=case.id) for case in CONV_CASES] + [
    pytest.param(_warp(np.array([4, 0, 0, 2, 3])),
                 [(5, 6, 8, 3), (5, 2, 3), (5, 4, 7, 2), (5, 4, 7)], {}, False,
                 id="grid_sample-image-untracked"),
]


class TestScratchBudget:
    """Conv ops and the warp build their scratch one batch slice at a
    time, and the slices change no bit of any output or gradient."""

    @staticmethod
    def _run(op, shapes, kwargs, track_x):
        rng = np.random.default_rng(23)
        inputs = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=track_x or i > 0)
                  for i, s in enumerate(shapes)]
        with Tape() as tape:
            y = op(*inputs, **kwargs)
            weights = Tensor(rng.normal(size=y.shape).astype(np.float32))
            loss = dc.sum_(y * weights)
        backward(tape, loss)
        assert (inputs[0].grad is None) != track_x
        return [y.data] + [x.grad for x in inputs if x.requires_grad]

    @pytest.mark.parametrize("per_slice", [1, 2])
    @pytest.mark.parametrize("op, shapes, kwargs, track_x", SLICED_CASES)
    def test_slices_change_no_bit(self, op, shapes, kwargs, track_x, per_slice, monkeypatch):
        """Both sliced passes of the op, its forward and its backward, are
        forced into slices of ``per_slice`` items."""
        counts = []
        forced = False
        real = ops._batch_slices

        def spy(n, item_bytes):
            if forced:
                monkeypatch.setattr(ops, "_SCRATCH_BYTES", per_slice * item_bytes)
            slices = real(n, item_bytes)
            counts.append(len(slices))
            return slices

        monkeypatch.setattr(ops, "_batch_slices", spy)
        ref = self._run(op, shapes, kwargs, track_x)
        assert counts == [1, 1]
        forced = True
        sliced = self._run(op, shapes, kwargs, track_x)
        assert counts[2:] == [-(-shapes[0][0] // per_slice)] * 2
        for a, b in zip(sliced, ref):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("op, shapes, kwargs, track_x, g_copies", [
        pytest.param(dc.conv2d, [(160, 32, 64, 3), (3, 3, 3, 12), (12,)],
                     dict(pad=1, relu=True, pool=2), False, 5, id="backbone-conv1"),
        pytest.param(dc.conv_transpose2d, [(160, 16, 32, 12), (4, 4, 12, 8), (8,)],
                     dict(stride=2, pad=1, relu=True), True, 2, id="decoder-up2"),
        pytest.param(_warp((20 * np.arange(8)[:, None] + np.arange(19)).reshape(-1)),
                     [(160, 32, 64, 3), (152, 2, 3), (152, 32, 64, 2), (152, 32, 64)], {},
                     False, 1, id="reconstruction-warp"),
        pytest.param(lambda ref, m3: dc.binary_cross_entropy(m3, ref, 1e-7),
                     [(160, 32, 64), (160, 32, 64)], {}, False, 1, id="segmentation-m3"),
        pytest.param(dc.abs_diff_sum, [(152, 32, 64, 3), (152, 32, 64, 3)], {}, False, 1,
                     id="reconstruction-frames"),
        pytest.param(dc.total_variation, [(152, 32, 64, 2), (152, 32, 64)], {}, True, 1,
                     id="smoothness-field"),
    ])
    def test_scratch_is_bounded(self, op, shapes, kwargs, track_x, g_copies):
        """At the full batch of a default training step (8 clips x 20 frames,
        19 frame pairs for the warp), the traced peak of forward and
        backward, less what the op holds whatever its scratch (output, input
        gradients and ``g_copies`` arrays the size of the output gradient:
        the gradient itself and, for a conv with a ReLU, the gradient at its
        own full-resolution output), is <= 16 MiB. The raw frames into the
        backbone's first conv, the warp (which samples the 160 frames by
        row) and the photometric loss, and the reference mask, need no
        gradient."""
        rng = np.random.default_rng(24)
        inputs = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=track_x or i > 0)
                  for i, s in enumerate(shapes)]
        tracemalloc.start()
        try:
            with Tape() as tape:
                y = op(*inputs, **kwargs)
            g = rng.normal(size=y.shape).astype(np.float32)
            [(_, _, bwd, _)] = tape.nodes
            grads = [a for a in bwd(g) if a is not None]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grads) == len(inputs) - (not track_x)
        held = y.data.nbytes + g.nbytes * g_copies
        held += sum((a if a.base is None else a.base).nbytes for a in grads)
        assert peak - held <= 16 << 20, f"{(peak - held) / 2**20:.1f} MiB"

    @pytest.mark.parametrize("op, shapes, kwargs, track_x", [
        pytest.param(dc.conv_transpose2d, [(20, 16, 32, 12), (4, 4, 12, 8), (8,)],
                     dict(stride=2, pad=1, relu=True), True, id="decoder-up2"),
        pytest.param(dc.conv2d, [(19, 4, 8, 121), (3, 3, 121, 128), (128,)], dict(pad=1),
                     True, id="motion-global-conv"),
        pytest.param(_warp(np.arange(19)),
                     [(20, 32, 64, 3), (19, 2, 3), (19, 32, 64, 2), (19, 32, 64)], {},
                     False, id="reconstruction-warp"),
    ])
    @pytest.mark.parametrize("share", [1, 2], ids=["budget", "half-budget"])
    def test_one_clip_scratch_fits_the_budget(self, op, shapes, kwargs, track_x, share,
                                              monkeypatch):
        """At one clip's shapes at the default size (20 frames, 19 pairs),
        the traced peak of the untaped forward over its output is within
        ``_SCRATCH_BYTES``: a slice's budget counts its products. That of the
        backward over the gradients it returns is within 1.25 x the budget,
        as it also holds unsliced buffers (conv2d's kernel-gradient tap and
        padded input). Half the budget splits each pass into more slices.
        (Measured: forward at most 0.81 x, in global_conv; backward at most
        0.87 x, in global_conv at half the budget, and 0.80 x in up.2.)"""
        monkeypatch.setattr(ops, "_SCRATCH_BYTES", ops._SCRATCH_BYTES // share)
        rng = np.random.default_rng(25)
        inputs = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=track_x or i > 0)
                  for i, s in enumerate(shapes)]

        def scratch(run):
            tracemalloc.start()
            try:
                held = [a for a in run() if a is not None]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - sum((a if a.base is None else a.base).nbytes for a in held)

        forward = scratch(lambda: [op(*inputs, **kwargs).data])
        with Tape() as tape:
            y = op(*inputs, **kwargs)
        [(_, _, bwd, _)] = tape.nodes
        g = rng.normal(size=y.shape).astype(np.float32)
        backward = scratch(lambda: bwd(g))
        for name, got, bound in (("forward", forward, 1.0), ("backward", backward, 1.25)):
            assert got <= bound * ops._SCRATCH_BYTES, f"{name}: {got / 2**20:.2f} MiB"

    def test_slices_are_few_equal_and_within_budget(self, monkeypatch):
        monkeypatch.setattr(ops, "_SCRATCH_BYTES", 1000)
        for n in range(1, 30):
            for item in (1, 70, 300, 999, 1000, 1001):
                slices = ops._batch_slices(n, item)
                sizes = [s.stop - s.start for s in slices]
                assert [s.start for s in slices] == [0] + list(np.cumsum(sizes)[:-1])
                assert sum(sizes) == n and max(sizes) - min(sizes) <= 1
                cap = max(1, 1000 // item)
                assert max(sizes) <= cap and len(sizes) == -(-n // cap)


class TestRecomputedBuffers:
    """grid_sample, correlate and the per-pixel losses recompute what their
    backward reads, so the tape keeps no buffer of theirs beyond the inputs
    (and, for the warp, its constant image rows and row index)."""

    @staticmethod
    def _arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        if isinstance(value, (tuple, list)):
            return [a for v in value for a in TestRecomputedBuffers._arrays(v)]
        return []

    @pytest.mark.parametrize("case", ["grid_sample", "correlate", "binary_cross_entropy",
                                      "abs_diff_sum", "total_variation"])
    def test_closure_keeps_only_the_inputs(self, case):
        rng = np.random.default_rng(22)
        img, rows = rng.uniform(size=(3, 5, 7, 3)).astype(np.float32), np.array([1, 1])
        op, shapes = {
            "grid_sample": (lambda tr, f, m: dc.grid_sample(img, rows, tr, f, m),
                            [(2, 2, 3), (2, 4, 6, 2), (2, 4, 6)]),
            "correlate": (lambda a, b: dc.correlate(a, b, d=2), [(2, 4, 5, 3), (2, 4, 5, 3)]),
            "binary_cross_entropy": (lambda p, r: dc.binary_cross_entropy(p, r, 0.1),
                                     [(2, 4, 5), (2, 4, 5)]),
            "abs_diff_sum": (dc.abs_diff_sum, [(2, 4, 5, 3), (2, 4, 5, 3)]),
            "total_variation": (dc.total_variation, [(2, 4, 5, 3), (2, 4, 5)]),
        }[case]
        inputs = [Tensor(rng.uniform(-1.2, 1.2, size=s).astype(np.float32), requires_grad=True)
                  for s in shapes]
        with Tape() as tape:
            op(*inputs)
        cells = [c.cell_contents for c in tape.nodes[-1][2].__closure__]
        for value in cells:
            if isinstance(value, Tensor):
                assert any(value is x for x in inputs)
        for arr in self._arrays(cells):
            assert any(arr is x for x in [x.data for x in inputs] + [img, rows]), arr.shape


def _abs_reference(a):
    """|a| as one node, gradient ``g * sign(a)``: the reference chains' abs."""
    return _result("abs", np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def _transpose_reference(a, axes):
    """``a`` with its axes permuted, as one node: the reference chains' transpose."""
    inv = tuple(np.argsort(axes))
    return _result("transpose", a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def _minus(a, b):
    """``a - b`` as ``a + b * -1``: bitwise the same value and gradients."""
    return a + b * -1.0


def _bce_chain(p, ref, eps):
    pc = dc.clip(p, eps, 1.0 - eps)
    loglik = ref * dc.log(pc) + _minus(1.0, ref) * dc.log(_minus(1.0, pc))
    return dc.mean(loglik, axis=tuple(range(1, p.ndim))) * -1.0


def _tv_chain(x, mask):
    xm = x * dc.reshape(mask, mask.shape + (1,))
    dx = _minus(xm[:, :, 1:], xm[:, :, :-1])
    dy = _minus(xm[:, 1:], xm[:, :-1])
    return dc.mean(_abs_reference(dx)) + dc.mean(_abs_reference(dy))


# The chains of generic ops that binary_cross_entropy, abs_diff_sum and
# total_variation are bitwise equal to.
LOSS_CHAINS = {
    "binary_cross_entropy": _bce_chain,
    "abs_diff_sum": lambda a, b: dc.sum_(_abs_reference(_minus(a, b))),
    "total_variation": _tv_chain,
}

EPS32 = float(np.float32(1e-7))
HI32 = float(np.float32(1.0 - 1e-7))


def _f32(lo, hi, special):
    """float32 values in [lo, hi], often one of ``special`` so that ties,
    signed zeros and clamp bounds come up."""
    return st.one_of(st.sampled_from(special), st.floats(lo, hi, width=32))


class TestLossOps:
    """The per-pixel loss ops against the chains of generic ops they fuse."""

    @staticmethod
    def _run(fn, arrays_in, tracked, weights):
        inputs = [Tensor(a, requires_grad=r) for a, r in zip(arrays_in, tracked)]
        with Tape() as tape:
            y = fn(*inputs)
            loss = dc.sum_(y * Tensor(weights))
        nodes = len(tape)
        backward(tape, loss)
        return y.data, [x.grad for x in inputs if x.requires_grad], nodes

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(LOSS_CHAINS)), data=st.data())
    def test_bitwise_equal_to_the_chain(self, name, data):
        """Forward bytes and gradient bytes (signed zeros included) equal the
        chain's on float32 inputs with ties, zeros of both signs, values
        at, inside and beyond the clamp bounds, and output gradients of
        either sign or zero."""
        n, h, w, c = data.draw(st.tuples(*[st.integers(lo, 4) for lo in (1, 2, 2, 1)]), "shape")
        if name == "binary_cross_entropy":
            shapes, eps = [(n, h, w)] * 2, [1e-7]
            elems = [_f32(0.0, 1.0, [0.0, EPS32, HI32, 1.0, 0.5, 1e-8]),
                     _f32(0.0, 1.0, [0.0, 1.0, 0.25])]
            tracked = [True, False]
        else:
            shapes, eps = [(n, h, w, c), (n, h, w, c) if name == "abs_diff_sum" else (n, h, w)], []
            elems = [_f32(-2.0, 2.0, [0.0, -0.0, 0.5, -1.5])] * 2
            tracked = data.draw(st.sampled_from([[True, True], [False, True], [True, False]]),
                                "tracked")
        ins = [data.draw(arrays(np.float32, s, elements=e), f"input{i}")
               for i, (s, e) in enumerate(zip(shapes, elems))]
        wshape = (n,) if name == "binary_cross_entropy" else ()
        weights = data.draw(arrays(np.float32, wshape, elements=_f32(-2.0, 2.0, [1.0, 0.0, -0.5])),
                            "output gradient")
        fused = getattr(dc, name)
        y, grads, nodes = self._run(lambda *a: fused(*a, *eps), ins, tracked, weights)
        y_ref, grads_ref, _ = self._run(lambda *a: LOSS_CHAINS[name](*a, *eps), ins, tracked,
                                        weights)
        assert nodes == 3  # the op, the weighting and the sum
        assert y.dtype == np.float32 and y.tobytes() == y_ref.tobytes()
        for a, b in zip(grads, grads_ref):
            assert a.dtype == np.float32 and a.tobytes() == b.tobytes()

    def test_gradcheck_clamped_values_and_ties(self):
        """float64 gradients agree with central differences for mask values
        inside and beyond both clamp bounds (the bounds at 0.05 and 0.95,
        so a difference step stays on one side), and for exact ties, whose
        |difference| has the subgradient 0."""
        rng = np.random.default_rng(26)
        p = t(np.array([[0.01, 0.04, 0.2, 0.5, 0.8, 0.96, 0.99, 1.0, 0.65]]))
        ref = t(np.array([[0.0, 1.0, 1.0, 0.3, 0.0, 1.0, 0.0, 0.7, 0.6]]))
        rep = grad_check(lambda u: dc.sum_(dc.binary_cross_entropy(u, ref, 0.05)), [p])
        assert rep.passed and rep.skipped == 0, str(rep)
        assert np.count_nonzero(p.grad) == 4

        a = rng.uniform(0.5, 1.5, size=(2, 3, 4)) * rng.choice([-1.0, 1.0], size=(2, 3, 4))
        b = np.where(rng.uniform(size=a.shape) < 0.4, a, -a[::-1])
        rep = grad_check(dc.abs_diff_sum, [t(a), t(b)])
        assert rep.passed and rep.skipped == 0 and (a == b).sum() >= 5, str(rep)

        # 2x3 pixels, one tie along each axis at the top left
        x = t(np.array([0.7, 0.7, -0.4, 0.7, 1.3, 0.9]).reshape(1, 2, 3, 1))
        m = t(np.array([0.5, 0.5, 0.8, 0.5, 0.3, 0.6]).reshape(1, 2, 3))
        rep = grad_check(dc.total_variation, [x, m])
        assert rep.passed and rep.skipped == 0, str(rep)
        assert x.grad[0, 0, 0, 0] == 0.0 and m.grad[0, 0, 0] == 0.0

    @pytest.mark.parametrize("bound", [0.05, 0.95])
    def test_gradient_at_a_clamp_bound_is_the_inner_slope(self, bound):
        """A mask value exactly at a bound keeps its gradient, as ``clip``'s
        does; it is the one-sided slope from inside the range, which a
        central difference straddling the kink cannot check."""
        ref = t([[0.3]])
        f = lambda v: dc.binary_cross_entropy(t([[v]]), ref, 0.05).item()
        p = t([[bound]], rg=True)
        with Tape() as tape:
            loss = dc.sum_(dc.binary_cross_entropy(p, ref, 0.05))
        backward(tape, loss)
        step = 1e-7 if bound < 0.5 else -1e-7
        inner = (f(bound + step) - f(bound)) / step
        assert p.grad[0, 0] == pytest.approx(inner, rel=1e-5)
        assert f(bound - step) == f(bound)

    @pytest.mark.parametrize("name, shapes", [
        ("binary_cross_entropy", [(2, 3), (2, 4)]),
        ("abs_diff_sum", [(2, 3), (3, 2)]),
        ("total_variation", [(1, 3, 4, 2), (1, 3, 5)]),
    ])
    def test_shape_mismatch_names_the_op(self, name, shapes):
        args = [t(np.zeros(s)) for s in shapes] + ([0.1] if name == "binary_cross_entropy" else [])
        with pytest.raises(dc.ShapeError, match=name):
            getattr(dc, name)(*args)


def _coords_chain(transform, field, mask):
    """The former ``motion.transform_coords``: ``A p + t`` at the points
    ``p = X + mask * field``, as a chain of generic ops, (N, H, W, 2)."""
    n, h, w, _ = field.shape
    base = Tensor(ops._identity_grid(h, w, field.dtype.type))
    pts = dc.reshape(base + field * dc.reshape(mask, (n, h, w, 1)), (n, h * w, 2))
    a_t = _transpose_reference(transform[:, :, :2], (0, 2, 1))
    out = dc.matmul(pts, a_t) + dc.reshape(transform[:, :, 2], (n, 1, 2))
    return dc.reshape(out, (n, h, w, 2))


def _sample_reference(img, grid):
    """The former grid-taking ``grid_sample`` on constant image rows ``img``,
    full batch, one node: bilinear sampling at the (N, H, W, 2) ``grid``."""
    _, h, w, _ = img.shape
    gx = (grid.data[..., 0].astype(np.float64) + 1.0) * 0.5 * (w - 1)
    gy = (grid.data[..., 1].astype(np.float64) + 1.0) * 0.5 * (h - 1)
    inx = (gx > 0.0) & (gx < w - 1.0)
    iny = (gy > 0.0) & (gy < h - 1.0)
    gx, gy = np.clip(gx, 0.0, w - 1.0), np.clip(gy, 0.0, h - 1.0)
    x0 = np.minimum(gx.astype(np.int64), w - 2)
    y0 = np.minimum(gy.astype(np.int64), h - 2)
    fx = (gx - x0).astype(img.dtype)[..., None]
    fy = (gy - y0).astype(img.dtype)[..., None]
    bidx = np.arange(len(img)).reshape(-1, 1, 1)
    i00, i01 = img[bidx, y0, x0], img[bidx, y0, x0 + 1]
    i10, i11 = img[bidx, y0 + 1, x0], img[bidx, y0 + 1, x0 + 1]
    out = (i00 * (1 - fx) + i01 * fx) * (1 - fy) + (i10 * (1 - fx) + i11 * fx) * fy

    def bwd(g):
        ggrid = np.empty_like(grid.data)
        ggrid[..., 0] = ((((i01 - i00) * (1 - fy) + (i11 - i10) * fy) * g).sum(axis=-1)
                         * inx * (0.5 * (w - 1)))
        ggrid[..., 1] = ((((i10 - i00) * (1 - fx) + (i11 - i01) * fx) * g).sum(axis=-1)
                         * iny * (0.5 * (h - 1)))
        return (ggrid,)

    return _result("grid_sample", out, (grid,), bwd)


class TestWarp:
    """grid_sample, the reconstruction warp, against the chain it fuses:
    the former ``transform_coords`` and grid-taking ``grid_sample`` on the
    image rows picked by the index."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_the_chain(self, data):
        """Forward bytes and the gradient bytes of the transform, field and
        mask (signed zeros included) equal the chain's on float32 inputs
        whose coordinates fall on, inside and beyond the border, for any
        row index, any set of tracked inputs, and batch slices of one item
        or of the whole batch."""
        m, n, h, w, c = data.draw(st.tuples(*[st.integers(lo, hi) for lo, hi in
                                              ((1, 3), (1, 3), (1, 4), (1, 4), (1, 2))]), "shape")
        hi, wi = data.draw(st.tuples(st.integers(2, 4), st.integers(2, 4)), "image size")
        rows = data.draw(arrays(np.int64, (n,), elements=st.integers(0, m - 1)), "rows")
        img = data.draw(arrays(np.float32, (m, hi, wi, c), elements=_f32(-2.0, 2.0, [0.0, 1.0])),
                        "image")
        # half the draws shift the identity, so that points the field leaves
        # at X land exactly on the border, or a whole row beyond it
        if data.draw(st.booleans(), "shift only"):
            transform = np.broadcast_to(np.eye(2, 3, dtype=np.float32), (n, 2, 3)).copy()
            transform[:, :, 2] = data.draw(arrays(np.float32, (n, 2), elements=st.sampled_from(
                [0.0, -0.0, 1.0, -1.0, 2.0, 0.5])), "shift")
        else:
            transform = data.draw(arrays(np.float32, (n, 2, 3), elements=_f32(
                -2.0, 2.0, [0.0, 1.0, -1.0, 0.5, 2.0, -0.0])), "transform")
        ins = [transform] + [data.draw(arrays(np.float32, s, elements=e), name) for s, e, name in (
            ((n, h, w, 2), _f32(-2.0, 2.0, [0.0, -0.0, 1.0, -1.0, 2.0, 0.25]), "field"),
            ((n, h, w), _f32(0.0, 1.0, [0.0, 1.0, 0.5]), "mask"))]
        tracked = data.draw(st.lists(st.booleans(), min_size=3, max_size=3)
                            .filter(any), "tracked")
        weights = data.draw(arrays(np.float32, (n, h, w, c),
                                   elements=_f32(-2.0, 2.0, [1.0, 0.0, -0.5])), "output gradient")
        scratch = data.draw(st.sampled_from([1, ops._SCRATCH_BYTES]), "scratch bytes")

        def run(warp):
            inputs = [Tensor(a, requires_grad=r) for a, r in zip(ins, tracked)]
            with Tape() as tape:
                y = warp(*inputs)
                loss = dc.sum_(y * Tensor(weights))
            backward(tape, loss)
            return [y.data] + [x.grad for x in inputs if x.requires_grad]

        real = ops._SCRATCH_BYTES
        ops._SCRATCH_BYTES = scratch
        try:
            fused = run(lambda tr, f, mk: dc.grid_sample(img, rows, tr, f, mk))
        finally:
            ops._SCRATCH_BYTES = real
        chain = run(lambda tr, f, mk: _sample_reference(img[rows], _coords_chain(tr, f, mk)))
        assert len(fused) == len(chain) == 1 + sum(tracked)
        for a, b in zip(fused, chain):
            assert a.dtype == np.float32 and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("shapes, rows, match", [
        ([(2, 4, 5), (1, 2, 3), (1, 3, 4, 2), (1, 3, 4)], [0], r"image rows \(2, 4, 5\)"),
        ([(2, 4, 5, 3), (1, 2, 3), (1, 3, 4, 3), (1, 3, 4)], [0], r"field \(1, 3, 4, 3\)"),
        ([(2, 4, 5, 3), (1, 3, 2), (1, 3, 4, 2), (1, 3, 4)], [0], r"transform \(1, 3, 2\)"),
        ([(2, 4, 5, 3), (1, 2, 3), (1, 3, 4, 2), (1, 4, 3)], [0], r"mask \(1, 4, 3\)"),
        ([(2, 4, 5, 3), (1, 2, 3), (1, 3, 4, 2), (1, 3, 4)], [0, 1], r"index \(2,\)"),
        ([(2, 4, 5, 3), (1, 2, 3), (1, 3, 4, 2), (1, 3, 4)], [2], "rows of the 2 image rows"),
        ([(2, 4, 5, 3), (1, 2, 3), (1, 3, 4, 2), (1, 3, 4)], [-1], "rows of the 2 image rows"),
        ([(2, 4, 5, 3), (1, 2, 3), (1, 3, 4, 2), (1, 3, 4)], [0.0], "rows of the 2 image rows"),
    ])
    def test_shape_errors_name_the_op(self, shapes, rows, match):
        img, *args = [np.zeros(s) for s in shapes]
        with pytest.raises(dc.ShapeError, match="^grid_sample: .*" + match):
            dc.grid_sample(img, np.array(rows), *[t(a) for a in args])


def _lstm_chain(xw, hc, u, b, hc_other=None, v=None, vb=None):
    """The former ``LSTMCell.step``, with the cross-gate signal of its
    ``modulate``, as generic ops on packed [h | c] states: the chain that
    lstm_cell fuses."""
    h = u.shape[0]
    f_prev, c_prev = hc[:, :h], hc[:, h:]
    pre = xw + dc.matmul(f_prev, u)
    if hc_other is not None:
        pre = pre + dc.relu(dc.matmul(hc_other[:, :h], v) + vb)
    pre = pre + b
    i = dc.sigmoid(pre[:, :h])
    o = dc.sigmoid(pre[:, h:2 * h])
    g = dc.sigmoid(pre[:, 2 * h:3 * h])
    a = dc.tanh_(pre[:, 3 * h:])
    c = i * a + g * c_prev
    return dc.concat([o * dc.tanh_(c), c], axis=1)


def _lstm_shapes(n, h, cross):
    """Input shapes of lstm_cell: xw, hc, u, b and, cross-gated, hc_other, v, vb."""
    shapes = [(n, 4 * h), (n, 2 * h), (h, 4 * h), (4 * h,)]
    return shapes + shapes[1:] if cross else shapes


class TestLstmCell:
    """lstm_cell, one LSTM step, against the chain of generic ops it fuses."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_the_chain(self, data):
        """Forward bytes and every gradient's bytes (signed zeros included)
        equal the chain's on float32 inputs with zeros of both signs and
        all-zero states, plain or cross-gated, for any set of tracked
        inputs."""
        n, h = data.draw(st.integers(1, 4), "batch"), data.draw(st.integers(1, 4), "hidden")
        cross = data.draw(st.booleans(), "cross-gated")
        shapes = _lstm_shapes(n, h, cross)
        elems = _f32(-2.0, 2.0, [0.0, -0.0, 1.0, -1.0, 0.5])
        ins = [data.draw(arrays(np.float32, s, elements=elems), f"input{k}")
               for k, s in enumerate(shapes)]
        for k in (1, 4)[:1 + cross]:
            if data.draw(st.booleans(), f"input{k} is a first step's zero state"):
                ins[k] = np.zeros_like(ins[k])
        tracked = data.draw(st.lists(st.booleans(), min_size=len(ins), max_size=len(ins))
                            .filter(any), "tracked")
        weights = data.draw(arrays(np.float32, (n, 2 * h),
                                   elements=_f32(-2.0, 2.0, [1.0, 0.0, -0.5])), "output gradient")

        def run(cell):
            inputs = [Tensor(a, requires_grad=r) for a, r in zip(ins, tracked)]
            with Tape() as tape:
                y = cell(*inputs)
                loss = dc.sum_(y * Tensor(weights))
            nodes = len(tape)
            backward(tape, loss)
            return [y.data] + [x.grad for x in inputs if x.requires_grad], nodes

        fused, nodes = run(dc.lstm_cell)
        chain, _ = run(_lstm_chain)
        assert nodes == 3  # the op, the weighting and the sum
        assert len(fused) == len(chain) == 1 + sum(tracked)
        for a, b in zip(fused, chain):
            assert a.dtype == np.float32 and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("case", ["plain", "cross-gated", "relation"])
    def test_gradcheck_every_input(self, case):
        """float64 gradients of every input against central differences. The
        cross-gate pre-activations sit at least 0.1 from relu's kink; the
        relation cell reads tanh(h_ego + h_exo)·W as its input term."""
        rng = np.random.default_rng(31)
        n, h = 3, 3
        shapes = _lstm_shapes(n, h, case == "cross-gated")
        data = [rng.uniform(-1.0, 1.0, size=s) for s in shapes]
        if case == "cross-gated":
            data[5] *= 0.3
            data[6] = rng.choice([-1.0, 1.0], size=4 * h) * rng.uniform(1.0, 1.5, size=4 * h)
            j = data[4][:, :h] @ data[5] + data[6]
            assert np.abs(j).min() > 0.1 and (j > 0).any() and (j < 0).any()
        fn = lambda *a: _scalarize(dc.lstm_cell(*a))
        if case == "relation":
            data = [rng.uniform(-1.0, 1.0, size=s) for s in [(n, 2 * h), (n, 2 * h), (h, 4 * h)]
                    ] + data[1:]

            def fn(hc_ego, hc_exo, w, hc, u, b):
                r = dc.tanh_(hc_ego[:, :h] + hc_exo[:, :h])
                return _scalarize(dc.lstm_cell(dc.matmul(r, w), hc, u, b))
        rep = grad_check(fn, [t(d) for d in data])
        assert rep.passed and rep.skipped == 0, str(rep)

    @pytest.mark.parametrize("cross", [False, True])
    def test_untracked_inputs_get_no_gradient(self, cross):
        """The closure returns None for each input that needs no gradient
        (a first step's zero state, a frozen weight) and an array for the
        others."""
        rng = np.random.default_rng(32)
        shapes = _lstm_shapes(2, 3, cross)
        for k in range(len(shapes)):
            inputs = [t(rng.normal(size=s), rg=j != k) for j, s in enumerate(shapes)]
            with Tape() as tape:
                y = dc.lstm_cell(*inputs)
            (_, _, bwd, name), = tape.nodes
            grads = bwd(np.ones_like(y.data))
            assert name == "lstm_cell" and len(grads) == len(inputs)
            assert [g is None for g in grads] == [j == k for j in range(len(inputs))]

    @pytest.mark.parametrize("shapes, bad", [
        ([(2, 8), (2, 6), (3, 12), (12,)], r"\(2, 8\)"),
        ([(12,), (2, 6), (3, 12), (12,)], r"\(12,\), \(2, 6\)"),
        ([(2, 12), (2, 5), (3, 12), (12,)], r"\(2, 5\)"),
        ([(2, 12), (3, 6), (3, 12), (12,)], r"\(3, 6\)"),
        ([(2, 12), (2, 6), (3, 10), (12,)], r"\(3, 10\)"),
        ([(2, 12), (2, 6), (3, 12), (3, 4)], r"\(3, 4\)"),
        ([(2, 12), (2, 6), (3, 12), (12,), (1, 6), (3, 12), (12,)], r"\(1, 6\)"),
        ([(2, 12), (2, 6), (3, 12), (12,), (2, 6), (3, 8), (12,)], r"\(3, 8\)"),
        ([(2, 12), (2, 6), (3, 12), (12,), (2, 6), (3, 12), (8,)], r"\(8,\)\]"),
    ])
    def test_shape_errors_name_the_op(self, shapes, bad):
        with pytest.raises(dc.ShapeError, match=r"^lstm_cell: shapes \[.*" + bad):
            dc.lstm_cell(*[t(np.zeros(s)) for s in shapes])

    def test_cross_gate_inputs_come_together(self):
        inputs = [t(np.zeros(s)) for s in _lstm_shapes(2, 3, True)]
        with pytest.raises(dc.ShapeError, match="^lstm_cell: hc_other, v and vb come together"):
            dc.lstm_cell(*inputs[:6])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sigmoid_bitwise_equal_to_the_masked_form(data):
    """The branch-free sigmoid gives the bits of the masked form it
    replaced: 1 / (1 + e^-x) on x >= 0 and e^x / (1 + e^x) below, each
    over a boolean-indexed copy, for float32 and float64 values from zeros
    of both signs to infinities."""
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), "dtype")
    x = data.draw(arrays(dtype, st.tuples(st.integers(1, 5), st.integers(1, 9)),
                         elements=st.one_of(st.sampled_from([0.0, -0.0, 88.8, -88.8, 710.0,
                                                             -710.0, np.inf, -np.inf]),
                                            st.floats(-100, 100, width=32))), "x")
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    want[~pos] = ex / (1.0 + ex)
    got = dc.sigmoid(Tensor(x)).data
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


class TestShapeErrors:
    def test_add_mismatch_names_shapes(self):
        with pytest.raises(dc.ShapeError, match=r"add.*\(2,\).*\(3,\)"):
            dc.add(t([1.0, 2.0]), t([1.0, 2.0, 3.0]))

    def test_matmul_mismatch(self):
        with pytest.raises(dc.ShapeError, match="matmul"):
            dc.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))

    def test_conv_channel_mismatch(self):
        with pytest.raises(dc.ShapeError, match="conv2d"):
            dc.conv2d(t(np.ones((1, 4, 4, 3))), t(np.ones((3, 3, 2, 4))))

    def test_correlate_shape_mismatch(self):
        with pytest.raises(dc.ShapeError, match="correlate"):
            dc.correlate(t(np.ones((1, 4, 4, 2))), t(np.ones((1, 4, 5, 2))), d=1)

    def test_debug_nan(self):
        dc.set_debug_nan(True)
        try:
            with np.errstate(divide="ignore"), pytest.raises(dc.NonFiniteError):
                dc.log(t([0.0]))
        finally:
            dc.set_debug_nan(False)


class TestGradCheckHarness:
    def test_quadratic_passes_tightly(self):
        rng = np.random.default_rng(4)
        x = t(rng.normal(size=6), rg=True)
        rep = grad_check(lambda v: dc.sum_(v * v), [x])
        assert rep.passed and rep.max_rel_err < 1e-8

    def test_injected_error_fails(self):
        def lying_square(v):
            # correct forward, backward overstated by 1%
            return _result("lying_square", v.data * v.data, (v,),
                           lambda g: (g * 2.02 * v.data,))

        rng = np.random.default_rng(5)
        x = t(rng.normal(size=5) + 3.0, rg=True)
        rep = grad_check(lambda v: dc.sum_(lying_square(v)), [x])
        assert not rep.passed

    def test_constant_function_passes(self):
        x = t([1.0, -2.0], rg=True)
        rep = grad_check(lambda v: dc.sum_(t([7.0])) + dc.sum_(v * t([0.0, 0.0])), [x])
        assert rep.passed


def _scalarize(y):
    return dc.sum_(y * y) if y.size > 1 else dc.sum_(y)


PRIM_CASES = []
for seed in range(10):
    PRIM_CASES.append(seed)


@pytest.mark.parametrize("seed", PRIM_CASES)
def test_primitive_grad_sweep(seed):
    """Every primitive passes grad_check on random small shapes, 10 seeds."""
    rng = np.random.default_rng(100 + seed)

    def rt(shape, lo=-2.0, hi=2.0):
        return t(rng.uniform(lo, hi, size=shape), rg=True)

    a, b = rt((3, 4)), rt((3, 4))
    ref = t(rng.uniform(size=(2, 3, 4)))
    cases = [
        (lambda u, v: _scalarize(u + v), [a, b]),
        (lambda u, v: _scalarize(u * v), [rt((3, 4)), rt((3, 4))]),
        (lambda u, v: _scalarize(u / v), [rt((3, 4)), rt((3, 4), lo=0.5, hi=2.0)]),
        (lambda u, v: _scalarize(dc.matmul(u, v)), [rt((3, 4)), rt((4, 2))]),
        (lambda u, v: _scalarize(dc.matmul(u, v)), [rt((2, 3, 4)), rt((4, 2))]),
        (lambda u: _scalarize(_transpose_reference(u, (1, 0, 2))), [rt((2, 3, 2))]),
        (lambda u: _scalarize(dc.reshape(u, (6,))), [rt((2, 3))]),
        (lambda u, v: _scalarize(dc.concat([u, v], axis=1)), [rt((2, 3)), rt((2, 2))]),
        (lambda u: _scalarize(u[1:, :2]), [rt((3, 4))]),
        (lambda u: dc.sum_(u * u, axis=0, keepdims=True)[0, 1], [rt((3, 4))]),
        (lambda u: _scalarize(dc.mean(u, axis=1)), [rt((3, 4))]),
        (lambda u: _scalarize(dc.sigmoid(u)), [rt((3, 4))]),
        (lambda u: _scalarize(dc.tanh_(u)), [rt((3, 4))]),
        (lambda u: _scalarize(dc.relu(u)), [rt((3, 4))]),
        (lambda u: _scalarize(dc.log(u)), [rt((3, 4), lo=0.5, hi=3.0)]),
        (lambda u: _scalarize(dc.binary_cross_entropy(u, ref, 0.05)),
         [rt((2, 3, 4), lo=0.0, hi=1.0)]),
        (lambda u, v: dc.abs_diff_sum(u, v), [rt((3, 4)), rt((3, 4))]),
        # 2x3 pixels: no pixel's sign terms cancel to an exact zero gradient,
        # which a central difference cannot resolve
        (lambda u, v: dc.total_variation(u, v), [rt((2, 2, 3, 2)), rt((2, 2, 3), lo=0.0)]),
        (lambda u: _scalarize(dc.clip(u, -1.0, 1.0)), [rt((3, 4))]),
        (lambda u: _scalarize(dc.softmax(u, axis=-1)), [rt((3, 4))]),
        (lambda u, v, w: _scalarize(dc.conv2d(u, v, w, stride=1, pad=1)),
         [rt((2, 4, 5, 2)), rt((3, 3, 2, 3)), rt((3,))]),
        (lambda u, v: _scalarize(dc.conv2d(u, v, stride=2, pad=0)),
         [rt((1, 5, 5, 2)), rt((3, 3, 2, 2))]),
        # the last row and column are read by no window, so their gradient
        # is zero: outputs of the input gradient where no tap lands
        (lambda u, v: _scalarize(dc.conv2d(u, v, stride=2, pad=0)),
         [rt((1, 5, 7, 2)), rt((4, 4, 2, 2))]),
        (lambda u, v, w: _scalarize(dc.conv_transpose2d(u, v, w, stride=2, pad=1)),
         [rt((1, 3, 4, 2)), rt((4, 4, 2, 2)), rt((2,))]),
        (lambda u, v: _scalarize(dc.correlate(u, v, d=1)),
         [rt((1, 4, 5, 3)), rt((1, 4, 5, 3))]),
        (lambda u, v, w: _scalarize(dc.conv2d(u, v, w, stride=1, pad=1, relu=True)),
         [rt((2, 4, 5, 2)), rt((3, 3, 2, 3)), rt((3,))]),
        (lambda u, v, w: _scalarize(dc.conv_transpose2d(u, v, w, stride=2, pad=1, relu=True)),
         [rt((1, 3, 4, 2)), rt((4, 4, 2, 2)), rt((2,))]),
        (lambda u, v, w: _scalarize(dc.conv2d(u, v, w, stride=1, pad=1, relu=True, pool=2)),
         [rt((2, 4, 6, 2)), rt((3, 3, 2, 3)), rt((3,))]),
    ]
    for i, (fn, inputs) in enumerate(cases):
        rep = grad_check(fn, inputs)
        assert rep.passed, f"case {i}: {rep}"


def test_grid_sample_grad_offset_from_kinks():
    """float64 gradients of the warp for its transform, field and mask, with
    a row index that repeats row 3 and skips rows 1 and 2; the points sit
    off integer pixel coordinates and inside the image."""
    rng = np.random.default_rng(11)
    img = rng.uniform(0, 1, size=(4, 5, 6, 2))
    transform = np.eye(2, 3) * 0.8 + rng.uniform(-0.05, 0.05, size=(3, 2, 3))
    field = rng.uniform(-0.2, 0.2, size=(3, 3, 4, 2)) + np.array([0.013, 0.007])
    mask = rng.uniform(0.2, 0.9, size=(3, 3, 4))
    rows = np.array([3, 0, 3])
    rep = grad_check(lambda tr, f, m: _scalarize(dc.grid_sample(img, rows, tr, f, m)),
                     [t(transform), t(field), t(mask)])
    assert rep.passed and rep.skipped == 0, str(rep)


class TestOpSemantics:
    def test_correlate_zero_inputs(self):
        z = t(np.zeros((1, 3, 4, 2)))
        out = dc.correlate(z, z, d=2).numpy()
        assert out.shape == (1, 3, 4, 25)
        assert not out.any()

    def test_correlate_impulse(self):
        f_cur = np.zeros((1, 5, 6, 1))
        f_prev = np.zeros((1, 5, 6, 1))
        f_cur[0, 2, 3, 0] = 1.0
        f_prev[0, 2, 4, 0] = 1.0
        out = dc.correlate(t(f_prev), t(f_cur), d=1).numpy()
        q = (0 + 1) * 3 + (1 + 1)  # (dy, dx) = (0, +1)
        expected = np.zeros((1, 5, 6, 9))
        expected[0, 2, 3, q] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_correlate_constant_border(self):
        ones = t(np.ones((1, 4, 5, 1)))
        out = dc.correlate(ones, ones, d=1).numpy()[0]
        assert (out[1:-1, 1:-1] == 1.0).all()  # interior: all 9 taps hit
        assert out[0, 0, 0] == 0.0  # (dy, dx) = (-1, -1) off the map
        assert out[0, 0, 4] == 1.0  # (dy, dx) = (0, 0)

    def test_correlate_self_center_channel(self):
        rng = np.random.default_rng(12)
        f = rng.normal(size=(2, 4, 5, 6))
        out = dc.correlate(t(f), t(f), d=2).numpy()
        np.testing.assert_allclose(out[..., 12], (f * f).mean(axis=-1), atol=1e-12)

    def test_grid_sample_center_of_2x2(self):
        # a 1x1 identity grid is the point (-1, -1); t = (1, 1) moves it to the center
        img = np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 2, 2, 1)
        shift = t([[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]])
        out = dc.grid_sample(img, np.array([0]), shift, t(np.zeros((1, 1, 1, 2))),
                             t(np.ones((1, 1, 1))))
        assert out.item() == pytest.approx(1.5)

    def test_grid_sample_far_outside_clamps(self):
        rng = np.random.default_rng(14)
        img = rng.uniform(size=(2, 3, 4, 2))
        shift = t([[[1.0, 0.0, 9.0], [0.0, 1.0, 9.0]]])  # everything beyond bottom-right
        out = dc.grid_sample(img, np.array([1]), shift, t(rng.uniform(size=(1, 3, 4, 2))),
                             t(rng.uniform(size=(1, 3, 4)))).numpy()
        np.testing.assert_allclose(out, np.broadcast_to(img[1:, 2:3, 3:4], out.shape), atol=1e-12)

    def test_grid_sample_nan_transform_gives_nan(self):
        """A non-finite transform samples NaN, so the loss it feeds is not
        finite, instead of indexing outside the image."""
        img = np.random.default_rng(16).uniform(size=(1, 3, 4, 2))
        shift = t([[[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        out = dc.grid_sample(img, np.array([0]), shift, t(np.zeros((1, 3, 4, 2))),
                             t(np.ones((1, 3, 4)))).numpy()
        assert np.isnan(out).all()

    def test_pool_epilogue_matches_reshape_mean(self):
        """``pool=2`` equals a numpy reshape-mean of the ReLU'd conv, and its
        gradients equal those of the ReLU'd conv under the loss the mean
        spreads: each output gradient over its window, divided by 4."""
        rng = np.random.default_rng(15)
        data = [rng.normal(size=s).astype(np.float32)
                for s in [(2, 6, 8, 3), (3, 3, 3, 4), (4,)]]
        weights = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        spread = np.repeat(np.repeat(weights / 4, 2, axis=1), 2, axis=2)

        def run(pool, w_out):
            inputs = [Tensor(d, requires_grad=True) for d in data]
            with Tape() as tape:
                y = dc.conv2d(*inputs, pad=1, relu=True, pool=pool)
                loss = dc.sum_(y * Tensor(w_out))
            backward(tape, loss)
            return y.data, [x.grad for x in inputs]

        pooled, g_pooled = run(2, weights)
        full, g_full = run(1, spread)
        assert (full == 0).any() and (full > 0).any()
        ref = full.reshape(2, 3, 2, 4, 2, 4).mean(axis=(2, 4))
        assert pooled.tobytes() == ref.tobytes()
        for a, b in zip(g_pooled, g_full):
            assert a.tobytes() == b.tobytes()

    def test_pool_must_divide_the_output(self):
        x, w = t(np.zeros((1, 5, 6, 2))), t(np.zeros((3, 3, 2, 3)))
        with pytest.raises(dc.ShapeError, match=r"conv2d: output 5x6 not divisible by pool 2"):
            dc.conv2d(x, w, pad=1, pool=2)

    def test_conv2d_against_direct_loops(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(2, 5, 6, 3))
        w = rng.normal(size=(3, 3, 3, 4))
        out = dc.conv2d(t(x), t(w), stride=2, pad=1).numpy()
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        ref = np.zeros_like(out)
        for n in range(2):
            for i in range(out.shape[1]):
                for j in range(out.shape[2]):
                    patch = xp[n, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                    ref[n, i, j] = np.tensordot(patch, w, axes=([0, 1, 2], [0, 1, 2]))
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_conv_transpose_is_conv_adjoint(self):
        # <conv(x, w), g> == <x, convT(g, w with in/out swapped)>
        rng = np.random.default_rng(17)
        x = rng.normal(size=(1, 6, 8, 3))
        w = rng.normal(size=(4, 4, 3, 2))
        y = dc.conv2d(t(x), t(w), stride=2, pad=1).numpy()
        g = rng.normal(size=y.shape)
        lhs = (y * g).sum()
        back = dc.conv_transpose2d(t(g), t(np.transpose(w, (0, 1, 3, 2))),
                                   stride=2, pad=1).numpy()
        rhs = (x * back).sum()
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("k, stride, pad", [(4, 2, 1), (8, 4, 2), (3, 1, 1)])
def test_conv_transpose_is_conv_adjoint_bitwise(k, stride, pad):
    """conv_transpose2d(x, w) is bitwise conv2d's input gradient at g = x
    with the channel axes of w swapped, and conv_transpose2d's input
    gradient at g is bitwise conv2d(g, w swapped): the two ops run the same
    kernels."""
    rng = np.random.default_rng(25)
    x = rng.normal(size=(3, 5, 6, 4)).astype(np.float32)
    w = rng.normal(size=(k, k, 4, 3)).astype(np.float32)
    w_swapped = np.ascontiguousarray(np.transpose(w, (0, 1, 3, 2)))

    def forward(op, inp, kernel):
        with Tape() as tape:
            y = op(Tensor(inp, requires_grad=True), Tensor(kernel), stride=stride, pad=pad)
        [(_, _, bwd, _)] = tape.nodes
        return y.data, bwd

    up, up_bwd = forward(dc.conv_transpose2d, x, w)
    _, down_bwd = forward(dc.conv2d, np.zeros_like(up), w_swapped)
    assert up.tobytes() == down_bwd(x)[0].tobytes()
    g = rng.normal(size=up.shape).astype(np.float32)
    down = dc.conv2d(Tensor(g), Tensor(w_swapped), stride=stride, pad=pad).numpy()
    assert up_bwd(g)[0].tobytes() == down.tobytes()


def _window_columns(x, kh, kw, stride, pad):
    """``ops._columns``'s general im2col path, taken for every window."""
    xs = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x
    win = sliding_window_view(xs, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * x.shape[3])


@pytest.mark.parametrize("shape", [(20, 8, 16, 16), (20, 16, 32, 12), (20, 32, 64, 8)])
def test_one_by_one_conv_bitwise_equal_to_the_window_path(monkeypatch, shape):
    """A 1x1 conv2d reads its input's rows as its im2col columns, without a
    copy. Its output and its input, kernel and bias gradients are bitwise
    those of the window path, at the inputs of the mask decoder's three
    heads for one 20-frame clip."""
    rng = np.random.default_rng(31)
    x, g = (rng.normal(size=shape[:3] + (c,)).astype(np.float32) for c in (shape[3], 1))
    w = rng.normal(size=(1, 1, shape[3], 1)).astype(np.float32)
    b = rng.normal(size=1).astype(np.float32)
    assert np.shares_memory(ops._columns(x, 1, 1, 1, 0), x)

    def run():
        with Tape() as tape:
            y = dc.conv2d(*(Tensor(a, requires_grad=True) for a in (x, w, b)))
        [(_, _, bwd, _)] = tape.nodes
        return [y.data, *bwd(g)]

    rows = run()
    monkeypatch.setattr(ops, "_columns", _window_columns)
    for got, want in zip(rows, run(), strict=True):
        assert got.tobytes() == want.tobytes()


def _per_tap_transposed_backward(x, w, out, g, stride, pad, relu):
    """Reference gradients of ``conv_transpose2d(x, w, b)`` with output
    ``out``, computed over the whole batch: the (ReLU-masked) gradient in
    one zero-padded buffer, the input gradient as one im2col product with
    the channel-swapped kernel, the kernel gradient one kernel tap at a time
    (``gw[u, v] = (g_tap^T x)^T``) and the bias gradient as one sum."""
    kh, kw, ci, co = w.shape
    n, h, wd, _ = x.shape
    oh, ow = out.shape[1:3]
    gfull = np.zeros((n, oh + 2 * pad, ow + 2 * pad, co), g.dtype)
    inner = gfull[:, pad:pad + oh, pad:pad + ow]
    inner[...] = g * (out > 0) if relu else g
    cols = _window_columns(gfull, kh, kw, stride, 0)
    gx = (cols @ w.transpose(0, 1, 3, 2).reshape(-1, ci)).reshape(x.shape)
    gw = np.empty(w.shape, g.dtype)
    xflat = x.reshape(-1, ci)
    for u in range(kh):
        for v in range(kw):
            tap = gfull[:, u:u + stride * h:stride, v:v + stride * wd:stride]
            gw[u, v] = (tap.reshape(-1, co).T @ xflat).T
    return gx, gw, inner.sum(axis=(0, 1, 2))


@pytest.mark.parametrize("x_shape, w_shape, stride, pad, relu", [
    pytest.param((20, 4, 8, 24), (4, 4, 24, 16), 2, 1, True, id="attention-up0"),
    pytest.param((20, 8, 16, 16), (4, 4, 16, 12), 2, 1, True, id="attention-up1"),
    pytest.param((20, 16, 32, 12), (4, 4, 12, 8), 2, 1, True, id="attention-up2"),
    pytest.param((19, 4, 8, 16), (4, 4, 16, 8), 2, 1, True, id="motion-field-up1"),
    pytest.param((19, 8, 16, 8), (8, 8, 8, 2), 4, 2, False, id="motion-field-up2"),
])
def test_transposed_backward_agrees_with_the_per_tap_formula(x_shape, w_shape, stride, pad,
                                                             relu):
    """At one default clip's shapes of the mask decoder's and the dense
    field's transposed convs, conv_transpose2d's input gradient is bitwise
    the whole-batch reference's; its kernel and bias gradients, summed item
    by item, are within 1e-5 relative L2 of the reference's whole-batch
    sums. (Measured: at most 1.3e-6 for the kernel, 3.3e-6 for the bias.)"""
    rng = np.random.default_rng(37)
    x, w, b = (rng.normal(size=s).astype(np.float32) for s in (x_shape, w_shape, w_shape[3:]))
    with Tape() as tape:
        y = dc.conv_transpose2d(*(Tensor(a, requires_grad=True) for a in (x, w, b)),
                                stride=stride, pad=pad, relu=relu)
    [(_, _, bwd, _)] = tape.nodes
    g = rng.normal(size=y.shape).astype(np.float32)
    gx, gw, gb = bwd(g)
    want_x, want_w, want_b = _per_tap_transposed_backward(x, w, y.data, g, stride, pad, relu)
    assert gx.tobytes() == want_x.tobytes()
    for got, want in ((gw, want_w), (gb, want_b)):
        assert got.dtype == want.dtype
        rel = np.linalg.norm(got.astype(np.float64) - want) / np.linalg.norm(want)
        assert rel <= 1e-5, rel


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), stride=st.integers(1, 3), pad=st.integers(0, 3),
       ho=st.integers(1, 4), wo=st.integers(1, 4), c_in=st.integers(1, 3),
       c_out=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_conv_transpose_is_conv_adjoint_property(k, stride, pad, ho, wo, c_in, c_out, seed):
    """<conv2d(x, w), g> == <x, conv_transpose2d(g, w with in/out swapped)> for
    every kernel size, stride, pad and spatial size; the input size is the
    one whose conv2d output is ho x wo with no remainder."""
    h, w_ = (ho - 1) * stride + k - 2 * pad, (wo - 1) * stride + k - 2 * pad
    assume(pad < k and h >= 1 and w_ >= 1)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, h, w_, c_in))
    w = rng.normal(size=(k, k, c_in, c_out))
    y = dc.conv2d(t(x), t(w), stride=stride, pad=pad).numpy()
    assert y.shape == (2, ho, wo, c_out)
    g = rng.normal(size=y.shape)
    back = dc.conv_transpose2d(t(g), t(np.transpose(w, (0, 1, 3, 2))),
                               stride=stride, pad=pad).numpy()
    assert back.shape == x.shape
    assert (y * g).sum() == pytest.approx((x * back).sum(), rel=1e-10, abs=1e-10)


BINARY_OPS = {"add": dc.add, "mul": dc.mul, "div": dc.div}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(BINARY_OPS)),
       shapes=mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=4, max_side=3),
       seed=st.integers(0, 2**16))
def test_broadcast_gradients_property(name, shapes, seed):
    """add/mul/div pass grad_check in float64 on every broadcast-compatible
    pair of shapes, so ``_unbroadcast`` sums over leading and size-1 axes
    back to each input's own shape. Values keep |x| in [0.5, 1.5]: no
    kink-skipped coordinate, no small divisor."""
    rng = np.random.default_rng(seed)
    sa, sb = shapes.input_shapes
    a, b = (t(rng.uniform(0.5, 1.5, s) * rng.choice([-1.0, 1.0], s)) for s in (sa, sb))
    weights = t(rng.normal(size=shapes.result_shape))
    rep = grad_check(lambda x, y: dc.sum_(BINARY_OPS[name](x, y) * weights), [a, b])
    assert rep.passed and rep.skipped == 0, str(rep)
    assert a.grad.shape == sa and b.grad.shape == sb


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(BINARY_OPS)),
       shapes=mutually_broadcastable_shapes(num_shapes=2, min_dims=1, max_dims=4, max_side=3),
       data=st.data())
def test_non_broadcastable_shapes_raise_property(name, shapes, data):
    """Two sizes, both above 1 and different, on one aligned axis raise
    ``ShapeError`` naming the op and both shapes."""
    sa, sb = map(list, shapes.input_shapes)
    axis = data.draw(st.integers(1, min(len(sa), len(sb))), label="axis from the right")
    sa[-axis], sb[-axis] = data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=2,
                                              unique=True), label="sizes")
    with pytest.raises(dc.ShapeError, match=rf"^{name}: shapes \(.*\) and \(.*\) do not broadcast"):
        BINARY_OPS[name](t(np.ones(sa)), t(np.ones(sb)))
