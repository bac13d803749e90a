import numpy as np
import pytest

import egorec.diffcore as dc
from egorec.diffcore import ShapeError, Tape, Tensor
from egorec.interact import InteractiveClassifier, classification_loss

from gradcheck import grad_check


def make_model(variant="full", seed=0, hidden=6, proj=5, k=4, features="both"):
    return InteractiveClassifier(
        appear_dim=3, motion_dim=2, num_classes=k, proj_dim=proj, hidden=hidden,
        rng=np.random.default_rng(seed), variant=variant, features=features,
        dropout_ratio=0.5,
    )


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_lstm(xs, w, u, b):
    """Independent plain-numpy LSTM with the [i; o; g; a] gate layout."""
    hdim = u.shape[0]
    h = np.zeros((xs.shape[0], hdim))
    c = np.zeros_like(h)
    trace = []
    for n in range(xs.shape[1]):
        pre = xs[:, n] @ w + h @ u + b
        i = _sigmoid(pre[:, :hdim])
        o = _sigmoid(pre[:, hdim:2 * hdim])
        g = _sigmoid(pre[:, 2 * hdim:3 * hdim])
        a = np.tanh(pre[:, 3 * hdim:])
        c = i * a + g * c
        h = o * np.tanh(c)
        trace.append(h.copy())
    return np.stack(trace, axis=1)


class TestSymStep:
    def test_all_zero_params_and_state(self):
        m = make_model()
        for _, p in m.named_parameters():
            p.data = np.zeros_like(p.data)
        state = m.initial_state(2)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 5)).astype(np.float32))
        out = m.step(state, (x, x))
        assert not out.f[0].numpy().any() and not out.f[1].numpy().any()
        assert not out.c[0].numpy().any()
        # so is the cross-gate signal: the second step, which adds it, stays at zero
        again = m.step(out, (x, x))
        assert not any(t.numpy().any() for t in again.f + again.c)
        # gates themselves: sigmoid(0) = 0.5, candidate tanh(0) = 0
        pre = dc.matmul(x, m.block_ego.w) + m.block_ego.b
        i = dc.sigmoid(pre[:, :m.hidden]).numpy()
        np.testing.assert_array_equal(i, np.full_like(i, 0.5))

    def test_swap_symmetry_exact(self):
        rng = np.random.default_rng(2)
        a = make_model(seed=3)
        b = make_model(seed=3)
        # exchange the two blocks' parameter sets in b
        b.block_ego, b.block_exo = b.block_exo, b.block_ego
        a.astype(np.float64)
        b.astype(np.float64)
        x1 = Tensor(rng.normal(size=(3, 5)))
        x2 = Tensor(rng.normal(size=(3, 5)))
        sa = a.initial_state(3, np.float64)
        sb = b.initial_state(3, np.float64)
        for _ in range(4):
            sa = a.step(sa, (x1, x2))
            sb = b.step(sb, (x2, x1))
        np.testing.assert_array_equal(sa.f[0].numpy(), sb.f[1].numpy())
        np.testing.assert_array_equal(sa.f[1].numpy(), sb.f[0].numpy())
        np.testing.assert_array_equal(sa.c[0].numpy(), sb.c[1].numpy())

    def test_zero_cross_weights_reduce_to_plain_lstm(self):
        rng = np.random.default_rng(4)
        m = make_model(seed=5, hidden=7, proj=4)
        m.astype(np.float64)
        for blk in (m.block_ego, m.block_exo):
            blk.v.data = np.zeros_like(blk.v.data)
            blk.vb.data = np.zeros_like(blk.vb.data)
        xs_e = rng.normal(size=(3, 20, 4))
        xs_x = rng.normal(size=(3, 20, 4))
        state = m.initial_state(3, np.float64)
        got = []
        for n in range(20):
            state = m.step(state, (Tensor(xs_e[:, n]), Tensor(xs_x[:, n])))
            got.append(state.f[0].numpy().copy())
        ref = reference_lstm(xs_e, m.block_ego.w.numpy(), m.block_ego.u.numpy(),
                             m.block_ego.b.numpy())
        np.testing.assert_allclose(np.stack(got, axis=1), ref, atol=1e-6)


class TestRelationStep:
    def test_opposite_states_cancel(self):
        # the exo block is the ego block with its candidate (tanh) gate
        # negated, so from a zero state one step gives f_exo = -f_ego
        m = make_model(variant="rel", seed=6)
        hidden = m.hidden
        for name in ("w", "u", "b"):
            arr = getattr(m.block_ego, name).data.copy()
            arr[..., 3 * hidden:] *= -1.0
            getattr(m.block_exo, name).data = arr
        x = Tensor(np.random.default_rng(7).normal(size=(2, 5)).astype(np.float32))
        out = m.step(m.initial_state(2), (x, x))
        np.testing.assert_array_equal(out.f[1].numpy(), -out.f[0].numpy())
        np.testing.assert_array_equal(out.r.numpy(), np.zeros((2, hidden), np.float32))

    def test_swap_invariance(self):
        m = make_model(seed=8)
        swapped = make_model(seed=8)
        swapped.block_ego, swapped.block_exo = swapped.block_exo, swapped.block_ego
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(2, 5)).astype(np.float32))
        b = Tensor(rng.normal(size=(2, 5)).astype(np.float32))
        o1 = m.step(m.initial_state(2), (a, b))
        o2 = swapped.step(swapped.initial_state(2), (b, a))
        np.testing.assert_array_equal(o1.f[0].numpy(), o2.f[1].numpy())
        np.testing.assert_array_equal(o1.r.numpy(), o2.r.numpy())
        np.testing.assert_array_equal(o1.relation.numpy(), o2.relation.numpy())

    def test_all_zero_params_give_zero_relation(self):
        m = make_model(seed=10)
        for _, p in m.named_parameters():
            p.data = np.zeros_like(p.data)
        state = m.initial_state(2)
        x = Tensor(np.random.default_rng(11).normal(size=(2, 5)).astype(np.float32))
        for _ in range(3):
            state = m.step(state, (x, x))
        assert not state.relation.numpy().any()


class TestRunSequence:
    def test_zero_classifier_uniform_probs(self):
        m = make_model(seed=12, k=8)
        m.classifier.w.data = np.zeros_like(m.classifier.w.data)
        m.classifier.b.data = np.zeros_like(m.classifier.b.data)
        rng = np.random.default_rng(13)
        ego = Tensor(rng.normal(size=(2, 4, 5)).astype(np.float32))
        exo = Tensor(rng.normal(size=(2, 4, 5)).astype(np.float32))
        _, probs = m.run_sequence(ego, exo, rng=None)
        np.testing.assert_allclose(probs.numpy(), np.full((2, 8), 1 / 8), atol=1e-7)

    def test_logit_shift_invariance(self):
        m = make_model(seed=14, k=8)
        rng = np.random.default_rng(15)
        ego = Tensor(rng.normal(size=(2, 4, 5)).astype(np.float64))
        exo = Tensor(rng.normal(size=(2, 4, 5)).astype(np.float64))
        m.astype(np.float64)
        _, p1 = m.run_sequence(ego, exo, rng=None)
        m.classifier.b.data = m.classifier.b.data + 11.5
        _, p2 = m.run_sequence(ego, exo, rng=None)
        np.testing.assert_allclose(p1.numpy(), p2.numpy(), atol=1e-12)
        assert (np.argmax(p1.numpy(), 1) == np.argmax(p2.numpy(), 1)).all()

    def test_empty_sequence_raises(self):
        m = make_model(seed=16)
        z = Tensor(np.zeros((2, 0, 5), np.float32))
        with pytest.raises(ShapeError):
            m.run_sequence(z, z)

    @pytest.mark.parametrize("variant", ["ego", "exo", "concat", "sym", "rel", "full"])
    def test_all_variants_output_distributions(self, variant):
        m = make_model(variant=variant, seed=17, k=4)
        rng = np.random.default_rng(18)
        ego = Tensor(rng.normal(size=(3, 5, 5)).astype(np.float32))
        exo = Tensor(rng.normal(size=(3, 5, 5)).astype(np.float32))
        _, probs = m.run_sequence(ego, exo, rng=None)
        assert probs.shape == (3, 4)
        np.testing.assert_allclose(probs.numpy().sum(axis=1), np.ones(3), atol=1e-6)

    def test_classify_from_raw_features(self):
        m = make_model(seed=19, k=4)
        rng = np.random.default_rng(20)
        f = lambda d: Tensor(rng.normal(size=(2, 6, d)).astype(np.float32))
        _, probs = m.classify(f(3), f(2), f(3), f(2), rng=None)
        assert probs.shape == (2, 4)

    def test_dropout_only_with_rng(self):
        m = make_model(seed=21, k=4)
        rng = np.random.default_rng(22)
        ego = Tensor(rng.normal(size=(2, 3, 5)).astype(np.float32))
        exo = Tensor(rng.normal(size=(2, 3, 5)).astype(np.float32))
        _, p1 = m.run_sequence(ego, exo, rng=None)
        _, p2 = m.run_sequence(ego, exo, rng=None)
        assert p1.numpy().tobytes() == p2.numpy().tobytes()
        _, p3 = m.run_sequence(ego, exo, rng=np.random.default_rng(1))
        assert p1.numpy().tobytes() != p3.numpy().tobytes()


@pytest.mark.parametrize("variant, unread", [("ego", "exo"), ("exo", "ego")])
def test_single_stream_head_builds_only_its_projection(variant, unread):
    m = make_model(variant=variant, seed=26, k=4)
    names = [n for n, _ in m.named_parameters()]
    assert f"proj_{variant}.w" in names
    assert not [n for n in names if n.startswith(f"proj_{unread}.")]
    rng = np.random.default_rng(27)
    f = lambda d: Tensor(rng.normal(size=(2, 5, d)).astype(np.float32))
    _, probs = m.classify(f(3), f(2), f(3), f(2), rng=np.random.default_rng(28))
    np.testing.assert_allclose(probs.numpy().sum(axis=1), np.ones(2), atol=1e-6)


def test_rel_is_full_without_cross_gating():
    rel = make_model(variant="rel", seed=23, k=4)
    full = make_model(variant="full", seed=24, k=4)
    for blk in (full.block_ego, full.block_exo):
        blk.v.data = np.zeros_like(blk.v.data)
        blk.vb.data = np.zeros_like(blk.vb.data)
    # every rel parameter has a full counterpart of the same name
    full.load_state_arrays(full.state_arrays() | rel.state_arrays())
    rng = np.random.default_rng(25)
    f = lambda d: Tensor(rng.normal(size=(3, 7, d)).astype(np.float32))
    feats = (f(3), f(2), f(3), f(2))
    _, p_rel = rel.classify(*feats, rng=None)
    _, p_full = full.classify(*feats, rng=None)
    assert p_rel.numpy().tobytes() == p_full.numpy().tobytes()


def test_full_head_step_records_at_most_300_nodes():
    """A training step of a full head on cached features, batch 64 over 19
    steps (the default 20 frames), records at most 300 tape nodes: each
    cell step is one node (1215 nodes when each step was a chain of
    generic ops)."""
    m = make_model(variant="full", seed=29, k=4)
    rng = np.random.default_rng(30)
    f = lambda d: Tensor(rng.normal(size=(64, 19, d)).astype(np.float32))
    with Tape() as tape:
        _, probs = m.classify(f(3), f(2), f(3), f(2), rng=rng)
        classification_loss(probs, rng.integers(0, 4, size=64))
    assert len(tape) <= 300, len(tape)


class TestClassificationLoss:
    def test_uniform_eight_classes(self):
        probs = Tensor(np.full((1, 8), 1 / 8))
        assert classification_loss(probs, [3]).item() == pytest.approx(np.log(8), abs=1e-9)

    def test_perfect_prediction(self):
        p = np.zeros((1, 4))
        p[0, 2] = 1.0
        assert classification_loss(Tensor(p), [2]).item() == 0.0

    def test_clamped_floor(self):
        p = np.full((1, 4), 1e-9)
        p[0, 0] = 1.0 - 3e-9
        loss = classification_loss(Tensor(p), [1]).item()
        assert loss == pytest.approx(-np.log(1e-7), rel=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            classification_loss(Tensor(np.full((1, 4), 0.25)), [4])

    def test_batch_mean(self):
        p = np.array([[1.0, 0.0], [0.5, 0.5]])
        loss = classification_loss(Tensor(p), [0, 1]).item()
        assert loss == pytest.approx(0.5 * np.log(2), rel=1e-6)


def test_full_sequence_gradcheck_small():
    # S=3, hidden=4: every parameter tensor of the full variant. Bias shifts
    # keep gate and modulation paths active so every gradient coordinate
    # stays well above finite-difference noise.
    m = InteractiveClassifier(appear_dim=2, motion_dim=2, num_classes=3,
                              proj_dim=3, hidden=4, rng=np.random.default_rng(233),
                              variant="full", dropout_ratio=0.0)
    for blk in (m.block_ego, m.block_exo):
        blk.vb.data = blk.vb.data + 0.15
        blk.b.data = blk.b.data + 0.1
    m.relation_cell.b.data = m.relation_cell.b.data + 0.1
    rng = np.random.default_rng(243)
    f_ga, f_gm, f_la, f_lm = (Tensor(rng.normal(size=(2, 3, 2))) for _ in range(4))
    labels = np.array([0, 2])

    def fn(*params):
        _, probs = m.classify(f_ga, f_gm, f_la, f_lm, rng=None)
        return classification_loss(probs, labels)

    rep = grad_check(fn, m.parameters(), tol=1e-4)
    assert rep.passed, str(rep)
