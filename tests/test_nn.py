"""Tests for the transformer encoder primitives."""

import tracemalloc
import weakref

import numpy as np
import pytest

from sitsformer import nn
from sitsformer import tensor as T
from sitsformer.data import SitsSeries
from sitsformer.errors import ShapeError
from sitsformer.model import ModelConfig, SitsFormer, forward
from sitsformer.tensor import Tensor

from _gradcheck import check_gradients


def make_encoder(dim=8, depth=2, heads=2, mlp_ratio=4, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return [nn.BlockWeights(dim, heads, mlp_ratio, rng, dtype)
            for _ in range(depth)]


def random_tokens(shape, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape).astype(dtype))


class TestMSA:
    def test_dim_not_divisible_by_heads_fails_at_first_use(self):
        w = nn.MSAWeights(10, 3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            nn.msa_forward(random_tokens((1, 4, 10)), nn.NormWeights(10), w)

    def test_single_token_attention_weight_is_one(self):
        w = nn.MSAWeights(8, 2, np.random.default_rng(1))
        z = random_tokens((1, 1, 8), seed=2)
        out, attn = nn.msa_forward(z, nn.NormWeights(8), w, return_attn=True)
        np.testing.assert_array_equal(attn.data, np.ones((1, 2, 1, 1)))
        expected = w.out(w.v(z))
        np.testing.assert_allclose(out.data, expected.data, rtol=1e-6)

    def test_attention_rows_are_probability_vectors(self):
        w = nn.MSAWeights(8, 4, np.random.default_rng(3))
        z = random_tokens((2, 7, 8), seed=4)
        _, attn = nn.msa_forward(z, nn.NormWeights(8), w, return_attn=True)
        np.testing.assert_allclose(
            attn.data.sum(axis=-1), np.ones((2, 4, 7)), atol=1e-6
        )
        assert np.all(attn.data >= 0)

    def test_keep_queries_with_the_leading_tokens_only(self):
        w = nn.MSAWeights(8, 2, np.random.default_rng(3))
        z = random_tokens((2, 7, 8), seed=4)
        ln = nn.NormWeights(8)
        out, attn = nn.msa_forward(z, ln, w, return_attn=True, keep=3)
        full, full_attn = nn.msa_forward(z, ln, w, return_attn=True)
        assert out.shape == (2, 3, 8) and attn.shape == (2, 2, 3, 7)
        np.testing.assert_allclose(out.data, full.data[:, :3], atol=1e-6)
        np.testing.assert_allclose(attn.data, full_attn.data[:, :, :3],
                                   atol=1e-6)

    def test_permutation_equivariance(self):
        w = nn.MSAWeights(8, 2, np.random.default_rng(5))
        z = random_tokens((2, 6, 8), seed=6)
        perm = np.random.default_rng(7).permutation(6)
        ln = nn.NormWeights(8)
        out = nn.msa_forward(z, ln, w)
        out_perm = nn.msa_forward(Tensor(z.data[:, perm]), ln, w)
        np.testing.assert_allclose(out.data[:, perm], out_perm.data, atol=1e-5)

    def test_wrong_feature_width(self):
        w = nn.MSAWeights(8, 2, np.random.default_rng(8))
        with pytest.raises(ShapeError):
            nn.msa_forward(random_tokens((1, 3, 6)), nn.NormWeights(6), w)

    def test_gradcheck(self):
        w = nn.MSAWeights(8, 2, np.random.default_rng(9), dtype=np.float64)
        ln = nn.NormWeights(8, dtype=np.float64)
        rng = np.random.default_rng(10)
        z = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True,
                   dtype=np.float64)
        params = [z] + [p for _, p in nn.named_parameters([ln, w], "w")]
        coef = rng.standard_normal((2, 5, 8))

        def loss(_):
            out = nn.msa_forward(z, ln, w)
            return (out * Tensor(coef, dtype=np.float64)).sum()

        assert check_gradients(loss, params) < 1e-3


class TestBlock:
    def test_zeroed_projections_give_identity(self):
        block = nn.BlockWeights(8, 2, 4, np.random.default_rng(11))
        block.attn.out.weight.data[:] = 0.0
        block.mlp.fc2.weight.data[:] = 0.0
        z = random_tokens((3, 4, 8), seed=12)
        out = nn.transformer_block(z, block)
        np.testing.assert_array_equal(out.data, z.data)

    @pytest.mark.parametrize("shape", [(1, 1, 8), (2, 5, 8), (4, 9, 8)])
    def test_shape_isotropy(self, shape):
        block = nn.BlockWeights(8, 4, 4, np.random.default_rng(13))
        out = nn.transformer_block(random_tokens(shape, seed=14), block)
        assert out.shape == shape

    def test_two_blocks_equal_depth_two_encoder(self):
        enc = make_encoder(dim=8, depth=2, seed=15)
        z = random_tokens((2, 4, 8), seed=16)
        blocks = nn.transformer_block(
            nn.transformer_block(z, enc[0]), enc[1]
        )
        manual = T.layer_norm(blocks)
        stacked = nn.encoder_forward(z, enc)
        np.testing.assert_array_equal(manual.data, stacked.data)


class TestEncoder:
    def test_depth_zero_is_identity(self):
        enc = make_encoder(dim=8, depth=0)
        z = random_tokens((2, 3, 8), seed=17)
        out = nn.encoder_forward(z, enc)
        np.testing.assert_array_equal(out.data, z.data)

    def test_final_norm_is_parameter_free(self):
        enc = make_encoder(dim=8, depth=1, seed=25)
        out = nn.encoder_forward(random_tokens((2, 5, 8), seed=26), enc).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, rtol=1e-3)
        names = [name for name, _ in nn.named_parameters(enc, "enc")]
        assert names and all(n.startswith("enc.0.") for n in names)

    def test_keep_normalises_only_the_leading_tokens(self):
        enc = make_encoder(dim=8, depth=2, seed=27)
        z = random_tokens((3, 6, 8), seed=28)
        kept = nn.encoder_forward(z, enc, keep=2)
        np.testing.assert_array_equal(kept.data,
                                      nn.encoder_forward(z, enc).data[:, :2])

    @pytest.mark.parametrize("depth, keep", [(2, 2), (1, 1), (2, 5), (0, 2)])
    def test_keep_equals_full_blocks_sliced_before_the_norm(self, depth, keep):
        # With keep, the last block is class attention; it must equal every
        # block run in full, the first keep rows taken, then the final norm.
        enc = make_encoder(dim=8, depth=depth, seed=27, dtype=np.float64)
        rng = np.random.default_rng(28)
        leaves = [p for _, p in nn.named_parameters(enc, "enc")]
        for p in leaves:  # weights far from init, so attention mixes tokens
            p.data[...] = 0.5 * rng.standard_normal(p.shape)
        z = Tensor(rng.standard_normal((3, 5, 8)), requires_grad=True,
                   dtype=np.float64)
        leaves.append(z)
        coef = Tensor(rng.standard_normal((3, keep, 8)), dtype=np.float64)

        def sliced_full():
            out = z
            for block in enc:
                out = nn.transformer_block(out, block)
            out = T.getitem(out, (slice(None), slice(0, keep)))
            return T.layer_norm(out) if enc else out

        runs = []
        for run in (lambda: nn.encoder_forward(z, enc, keep=keep), sliced_full):
            out = run()
            T.backward((out * coef).sum())
            runs.append([out.data] + [p.grad for p in leaves])
            for p in leaves:
                p.zero_grad()
        assert runs[0][0].shape == (3, keep, 8)
        for new, old in zip(*runs):
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)

    def test_parameter_count_formula(self):
        # Per block at mlp_ratio 4: attention 4d^2+3d (the key has no bias),
        # mlp 8d^2+5d, norms 4d.
        d, depth = 128, 4
        enc = make_encoder(dim=d, depth=depth, heads=4, mlp_ratio=4)
        counted = sum(p.size for _, p in nn.named_parameters(enc, "enc"))
        formula = depth * (4 * d * d + 3 * d + 8 * d * d + 5 * d + 4 * d)
        assert counted == formula == 792_576

    def test_permutation_equivariance_through_stack(self):
        enc = make_encoder(dim=8, depth=3, seed=18)
        z = random_tokens((2, 6, 8), seed=19)
        perm = np.random.default_rng(20).permutation(6)
        out = nn.encoder_forward(z, enc)
        out_perm = nn.encoder_forward(Tensor(z.data[:, perm]), enc)
        np.testing.assert_allclose(out.data[:, perm], out_perm.data, atol=1e-5)

    def test_encoder_gradcheck(self):
        enc = make_encoder(dim=4, depth=1, heads=2, mlp_ratio=2,
                           seed=21, dtype=np.float64)
        rng = np.random.default_rng(22)
        z = Tensor(rng.standard_normal((1, 3, 4)), dtype=np.float64)
        params = [p for _, p in nn.named_parameters(enc, "enc")]
        coef = rng.standard_normal((1, 3, 4))

        def loss(_):
            out = nn.encoder_forward(z, enc)
            return (out * Tensor(coef, dtype=np.float64)).sum()

        assert check_gradients(loss, params) < 1e-3


# 3 samples, 9 locations, 3 streams, 4 frames, dim 8: with CHUNK = 600 every
# encoder input splits into chunks of CHUNK // (n * d) rows, the last ragged.
# (rows, n) per encoder: temporal (27, 7) into 10s, blocked spatial (9, 10)
# into 7s, full spatial (3, 30) into 2s, spatial_first's per-frame stage
# (12, 9) into 8s.
CHUNKED = dict(n_classes=3, dim=8, depth_temporal=2, depth_spatial=2,
               n_heads=2, mlp_ratio=2, patch=(1, 2, 2), input_shape=(4, 6, 6, 2))


class TestGradFreeChunks:
    @pytest.mark.parametrize("task", ["segmentation", "classification"])
    @pytest.mark.parametrize("interactions", ["blocked", "full"])
    @pytest.mark.parametrize("order", ["temporal_first", "spatial_first"])
    def test_chunked_forward_is_bitwise_the_one_chunk_forward(
            self, monkeypatch, order, interactions, task):
        cfg = ModelConfig(**CHUNKED, factorization=order, task=task,
                          cls_interactions=interactions)
        model = SitsFormer(cfg, seed=3)
        rng = np.random.default_rng(4)
        batch = [SitsSeries(rng.standard_normal(cfg.input_shape)
                            .astype(np.float32), np.array([3, 40, 90, 200]))
                 for _ in range(3)]
        firsts = {id(enc[0]) for enc in (model.temporal_encoder,
                                          model.spatial_encoder)}
        chunks = []
        block = nn.transformer_block

        def watched_block(z, w, keep=None):
            if id(w) in firsts:
                chunks.append(z.shape[:-1])
            return block(z, w, keep)

        monkeypatch.setattr(nn, "transformer_block", watched_block)
        with T.no_grad():
            whole = forward(batch, model).data
            monkeypatch.setattr(nn, "CHUNK", 600)
            chunks.clear()
            split = forward(batch, model).data
        assert [len(c) for c in chunks] == [2] * len(chunks)
        inputs = [(12, 9)] if order == "spatial_first" else []
        inputs.append((27, 7))
        if order == "temporal_first":
            inputs.append((9, 10) if interactions == "blocked" else (3, 30))
        expected = []
        for m, n in inputs:
            rows = 600 // (n * cfg.dim)
            assert 1 < rows < m and m % rows
            expected += [(min(rows, m - i), n) for i in range(0, m, rows)]
        assert chunks == expected
        assert split.tobytes() == whole.tobytes()

    def test_recording_forward_is_one_chunk(self, monkeypatch):
        model, series = demo_model_and_series()
        tape = T.active_tape()
        try:
            logits = forward(series, model)
            entries = len(tape)
            tape.clear()
            monkeypatch.setattr(nn, "CHUNK", 1)
            chunked = forward(series, model)
            assert len(tape) == entries and chunked.requires_grad
            assert chunked.data.tobytes() == logits.data.tobytes()
        finally:
            tape.clear()


class TestParameterWalk:
    def test_names_follow_attribute_order_and_skip_constants(self):
        class Leaf:
            def __init__(self, seed):
                self.w = Tensor(np.full(2, seed), requires_grad=True)
                self.frozen = Tensor(np.zeros(2))
                self.count = 3
                self.keys = np.arange(4)

        class Root:
            def __init__(self):
                self.first = Tensor(np.ones(1), requires_grad=True)
                self.items = [Leaf(0), Leaf(1)]
                self.leaf = Leaf(2)

        root = Root()
        named = list(nn.named_parameters(root, "r"))
        assert [name for name, _ in named] == [
            "r.first", "r.items.0.w", "r.items.1.w", "r.leaf.w",
        ]
        assert named[0][1] is root.first
        assert named[2][1] is root.items[1].w
        assert named[3][1] is root.leaf.w


class TestInit:
    def test_trunc_normal_respects_bounds(self):
        draws = nn.trunc_normal(np.random.default_rng(23), (10000,)).data
        assert np.all(np.abs(draws) <= 0.04 + 1e-7)
        # Truncating at two sigma shrinks the std to ~0.880 sigma.
        assert abs(float(draws.std()) - 0.0176) < 0.001

    def test_biases_start_at_zero(self):
        aff = nn.Affine(4, 3, np.random.default_rng(24))
        np.testing.assert_array_equal(aff.bias.data, np.zeros(3, dtype=np.float32))


# The README run.cfg model.
DEMO = dict(n_classes=4, dim=32, depth_temporal=2, depth_spatial=2, n_heads=4,
            mlp_ratio=2, patch=(1, 2, 2), input_shape=(12, 8, 8, 3))


def demo_model_and_series():
    rng = np.random.default_rng(2)
    values = rng.standard_normal(DEMO["input_shape"]).astype(np.float32)
    dates = np.sort(rng.choice(365, size=12, replace=False))
    return SitsFormer(ModelConfig(**DEMO), seed=1), SitsSeries(values, dates)


def reachable(fn):
    """Everything a closure's cells hold, through nested closures and lists."""
    seen, stack = {}, [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return list(seen.values())


class TestTapeMemory:
    """The tape keeps gradient slots and the arrays backward reads, no more."""

    def test_tape_holds_no_tensor_but_the_parameters(self):
        model, series = demo_model_and_series()
        params = model.parameters()
        tape = T.active_tape()
        tape.clear()
        try:
            forward(series, model)
            assert len(tape) > 0
            for slot, back, inputs in tape:
                assert not isinstance(slot, Tensor)
                assert not any(isinstance(v, Tensor) for v in reachable(back))
                # A trainable leaf is its own slot, so p.grad is filled.
                for s in inputs:
                    assert not isinstance(s, Tensor) or any(s is p for p in params)
        finally:
            tape.clear()

    def test_residual_sum_is_freed_when_the_block_returns(self, monkeypatch):
        block = nn.BlockWeights(8, 2, 4, np.random.default_rng(31))
        z = random_tokens((2, 5, 8), seed=32)
        sums = []
        add = T.add

        def watched_add(a, b):
            out = add(a, b)
            sums.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, "add", watched_add)
        tape = T.active_tape()
        try:
            out = nn.transformer_block(z, block)
            assert len(sums) == 2  # y = msa(ln(z)) + z, then mlp(ln(y)) + y
            assert sums[0]() is None
            assert sums[1]() is out.data
            del out
            assert sums[1]() is None
            assert len(tape) > 0
        finally:
            tape.clear()

    @pytest.mark.parametrize("keep", [None, 2])
    def test_block_keeps_no_probabilities_and_one_hidden_array(
            self, monkeypatch, keep):
        # Attention keeps its softmax rows' max and sum, not the (..., heads,
        # n_q, n_k) probabilities; the MLP keeps its pre-activation, not the
        # GELU output or slope. Both are rebuilt in backward, as are each
        # norm's scaled and shifted output, the query rows and the merged
        # heads: the token-wide arrays kept are the two norms' outputs, which
        # the ops reading them share, and q, k and v.
        block = nn.BlockWeights(8, 2, 4, np.random.default_rng(33))
        params = {id(p.data) for _, p in nn.named_parameters(block, "b")}
        z = random_tokens((2, 5, 8), seed=34)
        n_q = 5 if keep is None else keep
        norms = []
        layer_norm = T.layer_norm

        def watched_layer_norm(a):
            out = layer_norm(a)
            norms.append(out.data)
            return out

        monkeypatch.setattr(T, "layer_norm", watched_layer_norm)
        nn.transformer_block(z, block, keep=keep)
        tape = T.active_tape()
        assert len(tape) > 0
        held = {id(v): v for _, back, _ in tape for v in reachable(back)
                if isinstance(v, np.ndarray) and id(v) not in params}
        held = list(held.values())
        assert not [a for a in held if a.shape[-3:] == (2, n_q, 5)]
        hidden = [a.shape for a in held if a.shape[-1] == 32]
        assert hidden == [(2 * n_q, 32)]
        tokens = [a for a in held if a.shape[-1] == 8]
        assert len(tokens) == 5
        assert all(any(a is x for a in tokens) for x in norms)
        ln = norms[0] * block.ln1.gamma.data + block.ln1.beta.data
        projections = [ln[:, :n_q] @ block.attn.q.weight.data
                       + block.attn.q.bias.data, ln @ block.attn.k.data,
                       ln @ block.attn.v.weight.data + block.attn.v.bias.data]
        rest = [a for a in tokens if not any(a is x for x in norms)]
        for want in projections:
            assert sum(a.shape == want.shape and np.allclose(a, want)
                       for a in rest) == 1

    def test_warm_forward_retains_little(self):
        # A warm demo forward with grad on keeps 0.57 MB until backward. The
        # bound leaves a margin because Python object sizes vary by version,
        # yet fails a tape that also keeps every norm's scaled and shifted
        # output and every attention output before its projection (0.79
        # MB), let alone every block's GELU output and slope and its
        # attention probabilities (1.01 MB).
        model, series = demo_model_and_series()
        tape = T.active_tape()
        try:
            forward(series, model)
            tape.clear()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                logits = forward(series, model)
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        finally:
            tape.clear()
        assert logits.requires_grad
        assert kept <= 0.65e6

    def test_grad_free_forward_peaks_with_the_chunk(self, monkeypatch):
        # 256 locations; the temporal encoder's input is 147,456 values
        # (590 KB). Traced peaks of a warm grad-free forward: 7.68 MB in one
        # chunk, 2.47 MB at CHUNK = 16 Ki values, growing about 40 B per
        # CHUNK value (the MLP's fc1 product and GELU output are 4 values
        # each). The bound allows four input-sized arrays plus 12 float32s
        # per CHUNK value: 3.15 MB.
        cfg = ModelConfig(n_classes=2, dim=32, depth_temporal=2,
                          depth_spatial=2, n_heads=4, mlp_ratio=4,
                          patch=(1, 2, 2), input_shape=(16, 32, 32, 2))
        model = SitsFormer(cfg, seed=5)
        rng = np.random.default_rng(6)
        series = SitsSeries(rng.standard_normal(cfg.input_shape)
                            .astype(np.float32), 5 * np.arange(16))
        monkeypatch.setattr(nn, "CHUNK", 1 << 14)
        values = cfg.n_locations * (cfg.n_streams + cfg.n_frames) * cfg.dim
        bound = 4 * (4 * values) + 12 * (4 * nn.CHUNK)

        def peak():
            with T.no_grad():
                forward(series, model)
                tracemalloc.start()
                try:
                    forward(series, model)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        assert peak() <= bound
        monkeypatch.setattr(nn, "CHUNK", 1 << 40)
        assert peak() > 2 * bound
