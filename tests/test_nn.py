import numpy as np
import pytest

from crossseg.autodiff import Tensor, backward, mul, sum_all
from crossseg.nn import (Adam, EmbeddingTable, GcnnEncoder, GcnnLayer,
                         TextCnn, UNK_INDEX, clamped)


def test_embedding_rows_and_unk():
    emb = EmbeddingTable.build(["ca", "b"], dim=4,
                               rng=np.random.default_rng(0))
    assert emb.vocab == {"a": 1, "b": 2, "c": 3}
    assert emb.indices(["bax", "c"]).tolist() == [[2, 1, UNK_INDEX],
                                                  [3, -1, -1]]
    assert emb.table.shape == (4, 4)
    out, mask = emb.embed(["ab", "x"])
    assert out.shape == (2, 2, 4)
    assert mask.tolist() == [[True, True], [True, False]]
    np.testing.assert_array_equal(out.data[0, 0], emb.table.data[1])
    np.testing.assert_array_equal(out.data[1, 0], emb.table.data[UNK_INDEX])
    np.testing.assert_array_equal(out.data[1, 1], 0.0)  # padding reads none
    with pytest.raises(ValueError):
        emb.embed([""])
    with pytest.raises(ValueError):
        emb.embed(["ab", ""])
    with pytest.raises(ValueError):
        emb.embed([])
    with pytest.raises(ValueError):
        EmbeddingTable.build(["a b"], dim=2, rng=np.random.default_rng(0))


def test_gcnn_layer_can_represent_identity():
    d = 3
    w = np.zeros((1, d, d))
    w[0] = np.eye(d)
    layer = GcnnLayer(w=Tensor(w), b=Tensor(np.zeros(d)),
                      v=Tensor(np.zeros((1, d, d))),
                      c=Tensor(np.full(d, 50.0)))
    x = np.random.default_rng(1).normal(size=(2, 6, d))
    out = layer.forward(Tensor(x)).data
    np.testing.assert_allclose(out, x, atol=1e-9)


def test_gcnn_layer_matches_manual_computation():
    rng = np.random.default_rng(2)
    layer = GcnnLayer.create(k=3, d_in=2, d_out=4, rng=rng)
    layer.b.data[:] = rng.normal(size=4)
    layer.c.data[:] = rng.normal(size=4)
    x = rng.normal(size=(5, 2))
    padded = np.vstack([np.zeros((1, 2)), x, np.zeros((1, 2))])
    lin = np.zeros((5, 4))
    gate = np.zeros((5, 4))
    for i in range(5):
        for k in range(3):
            lin[i] += padded[i + k] @ layer.w.data[k]
            gate[i] += padded[i + k] @ layer.v.data[k]
    want = (lin + layer.b.data) / (1 + np.exp(-(gate + layer.c.data)))
    got = layer.forward(Tensor(x[None])).data
    np.testing.assert_allclose(got[0], want, atol=1e-12)


def test_gcnn_layer_single_step_shift_consistency():
    # zero padding equals a zero input row, so prepending one shifts output
    rng = np.random.default_rng(3)
    layer = GcnnLayer.create(k=3, d_in=2, d_out=2, rng=rng)
    x = rng.normal(size=(1, 5, 2))
    y = layer.forward(Tensor(x)).data
    y2 = layer.forward(Tensor(np.concatenate([np.zeros((1, 1, 2)), x],
                                             axis=1))).data
    np.testing.assert_allclose(y2[:, 1:], y, atol=1e-12)


def test_gcnn_layer_rejects_even_width():
    with pytest.raises(ValueError):
        GcnnLayer.create(k=2, d_in=2, d_out=2, rng=np.random.default_rng(0))


def test_encoder_stacks_and_dropout_gating():
    rng = np.random.default_rng(4)
    enc = GcnnEncoder.create(n_layers=3, k=3, d_in=4, d_out=4, drop=0.5,
                             rng=rng)
    x = rng.normal(size=(1, 6, 4))
    mask = np.ones((1, 6), dtype=bool)
    still = enc.forward(Tensor(x), mask, training=False).data
    again = enc.forward(Tensor(x), mask, training=False).data
    np.testing.assert_array_equal(still, again)
    with pytest.raises(ValueError):
        enc.forward(Tensor(x), mask, training=True)  # rng required
    noisy = enc.forward(Tensor(x), mask, training=True,
                        rng=np.random.default_rng(5)).data
    assert not np.allclose(noisy, still)
    names = set(enc.params("enc"))
    assert "enc.0.w" in names and "enc.2.c" in names
    assert len(names) == 12


def test_encoder_zero_dropout_training_matches_eval():
    rng = np.random.default_rng(6)
    enc = GcnnEncoder.create(n_layers=2, k=3, d_in=3, d_out=3, drop=0.0,
                             rng=rng)
    x = rng.normal(size=(2, 4, 3))
    mask = np.array([[True] * 4, [True, True, False, False]])
    a = enc.forward(Tensor(x), mask, training=True,
                    rng=np.random.default_rng(0)).data
    b = enc.forward(Tensor(x), mask, training=False).data
    np.testing.assert_array_equal(a, b)


class _Identity:
    """A layer stand-in that returns its input: the encoder then outputs
    its masked, dropped-out input."""

    def forward(self, x):
        return x


def test_encoder_dropout_scales_survivors():
    enc = GcnnEncoder([_Identity()], dropout=0.25)
    x = Tensor(np.ones((2, 100, 4)))
    mask = np.arange(100)[None, :] < np.array([[100], [60]])
    y = enc.forward(x, mask, training=True, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(y.data[~mask], 0.0)
    kept = y.data[y.data != 0]
    np.testing.assert_allclose(kept, 1.0 / 0.75)
    drop_frac = np.mean(y.data[mask] == 0)
    assert 0.15 < drop_frac < 0.35
    backward(sum_all(y))
    np.testing.assert_array_equal(x.grad, y.data)  # mask * keep / 0.75


def test_encoder_rejects_dropout_rate_outside_unit_interval():
    for rate in (-0.1, 1.0):
        with pytest.raises(ValueError):
            GcnnEncoder([_Identity()], dropout=rate)


def test_encoder_zero_rate_is_identity_and_draws_nothing():
    enc = GcnnEncoder([_Identity()], dropout=0.0)
    x = np.random.default_rng(1).normal(size=(2, 3, 3))
    mask = np.array([[True] * 3, [True, False, False]])
    rng = np.random.default_rng(0)
    y = enc.forward(Tensor(x), mask, training=True, rng=rng)
    np.testing.assert_array_equal(y.data, x * mask[:, :, None])
    assert rng.random() == np.random.default_rng(0).random()


def _separate_mask_and_dropout(enc, x, mask, rng):
    """A training forward that masks each layer input, then applies
    inverted dropout as a second factor, from the same draws in the same
    order as the encoder."""
    h = x
    for layer in enc.layers:
        h = mul(h, mask[:, :, None])
        keep = (rng.random(h.data.shape) >= enc.dropout) / (1.0 - enc.dropout)
        h = layer.forward(mul(h, Tensor(keep)))
    return h


def test_encoder_training_forward_equals_separate_mask_and_dropout():
    # one multiply by mask * keep gives exactly the two multiplies' values
    # and gradients: the mask is 0 or 1
    rng = np.random.default_rng(8)
    enc = GcnnEncoder.create(n_layers=3, k=3, d_in=4, d_out=5, drop=0.3,
                             rng=rng)
    x = rng.normal(size=(3, 6, 4))
    mask = np.arange(6)[None, :] < np.array([[6], [2], [4]])
    g = rng.normal(size=(3, 6, 5))

    def run(forward):
        xt = Tensor(x.copy())
        out = forward(xt, mask, np.random.default_rng(9))
        backward(sum_all(mul(out, Tensor(g))))
        grads = {}
        for name, p in enc.params("enc").items():
            grads[name] = p.grad
            p.zero_grad()
        return out.data, xt.grad, grads

    got = run(lambda *a: enc.forward(a[0], a[1], True, a[2]))
    want = run(lambda *a: _separate_mask_and_dropout(enc, *a))
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    for name in want[2]:
        np.testing.assert_array_equal(got[2][name], want[2][name],
                                      err_msg=name)


def test_encoder_padded_rows_match_the_sentence_alone():
    # every layer reads zeros past the end, whatever the padding holds
    rng = np.random.default_rng(12)
    enc = GcnnEncoder.create(n_layers=3, k=3, d_in=3, d_out=3, drop=0.0,
                             rng=rng)
    x = rng.normal(size=(2, 5, 3))
    mask = np.array([[True] * 5, [True, True, False, False, False]])
    got = enc.forward(Tensor(x), mask).data
    alone = enc.forward(Tensor(x[1:, :2]), mask[1:, :2]).data
    np.testing.assert_allclose(got[1, :2], alone[0], rtol=0, atol=1e-14)


def test_textcnn_fresh_probability_is_half():
    rng = np.random.default_rng(7)
    net = TextCnn.create(windows=(3, 4, 5), d_in=8, filters=6, rng=rng)
    x = rng.normal(size=(2, 10, 8))
    mask = np.arange(10)[None, :] < np.array([[10], [4]])
    p = net.forward(Tensor(x), mask).data
    assert p.shape == (2, 1)
    np.testing.assert_allclose(p, 0.5, rtol=0, atol=1e-12)


def test_textcnn_accepts_inputs_shorter_than_windows():
    rng = np.random.default_rng(8)
    net = TextCnn.create(windows=(3, 5), d_in=4, filters=2, rng=rng)
    net.proj_w.data[:] = rng.normal(size=net.proj_w.shape)
    for n in (1, 2, 4, 7):
        out = net.forward(Tensor(rng.normal(size=(1, n, 4))),
                          np.ones((1, n), dtype=bool))
        assert out.shape == (1, 1)
        assert 0.0 < out.item() < 1.0
    # in one batch, short rows pool as if zero padded to the window
    lengths = np.array([1, 2, 4, 7])
    x = rng.normal(size=(4, 7, 4))
    mask = np.arange(7)[None, :] < lengths[:, None]
    batch = net.forward(Tensor(x), mask).data
    for b, n in enumerate(lengths):
        alone = net.forward(Tensor(x[b:b + 1, :n]), mask[b:b + 1, :n]).data
        np.testing.assert_allclose(batch[b], alone[0], rtol=0, atol=1e-14)


def test_textcnn_matches_manual_oracle():
    rng = np.random.default_rng(9)
    net = TextCnn.create(windows=(2, 3), d_in=3, filters=2, rng=rng)
    net.proj_w.data[:] = rng.normal(size=net.proj_w.shape)
    net.proj_b.data[:] = 0.25
    x = rng.normal(size=(5, 3))
    pooled = []
    for w, (cw, cb) in zip(net.windows, net.convs):
        vals = np.stack([sum(x[i + k] @ cw.data[k] for k in range(w))
                         + cb.data for i in range(5 - w + 1)])
        pooled.append(vals.max(axis=0))
    z = np.concatenate(pooled)[None, :] @ net.proj_w.data + net.proj_b.data
    want = 1 / (1 + np.exp(-z))
    got = net.forward(Tensor(x[None]), np.ones((1, 5), dtype=bool)).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_textcnn_gradients_flow_everywhere():
    rng = np.random.default_rng(10)
    net = TextCnn.create(windows=(2, 3), d_in=3, filters=2, rng=rng)
    net.proj_w.data[:] = rng.normal(size=net.proj_w.shape)
    x = Tensor(rng.normal(size=(2, 4, 3)))
    backward(sum_all(net.forward(x, np.array([[True] * 4,
                                              [True, False, False, False]]))))
    for name, p in net.params("d").items():
        assert p.grad is not None, name
    assert x.grad is not None


def test_clamped_bounds():
    probs = Tensor(np.array([[0.0, 0.5, 1.0]]))
    out = clamped(probs).data
    assert out[0, 0] == pytest.approx(1e-7)
    assert out[0, 1] == pytest.approx(0.5)
    assert out[0, 2] == pytest.approx(1.0 - 1e-7)


def test_adam_first_step_magnitude():
    p = Tensor(np.zeros((1, 1)))
    p._accumulate(np.ones((1, 1)))
    opt = Adam(params={"p": p})
    opt.step()
    # bias-corrected first step moves by almost exactly lr
    assert p.data[0, 0] == pytest.approx(-0.001, abs=1e-9)
    p.zero_grad()
    opt.step()  # missing grad counts as zero, momentum decays
    assert -0.002 < p.data[0, 0] < -0.001


def test_adam_counts_steps_and_clears_grads():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(2, 2)))
    opt = Adam(params={"a": a}, lr=0.01)
    for _ in range(3):
        a._accumulate(np.ones((2, 2)))
        opt.step()
        opt.zero_grad()
    assert opt.t == 3
    assert a.grad is None
