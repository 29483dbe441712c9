"""Tests for the full model: wiring, comparison axes, counts, checkpoints."""

import re
import struct

import numpy as np
import pytest
from _formats import FORMATS, HEADER_FORMATS, HEADER_TEXT_OFFSET
from hypothesis import given, settings
from hypothesis import strategies as st

from sitsformer import model as m
from sitsformer.container import config_from_items, config_items
from sitsformer.data import SitsSeries
from sitsformer.errors import CompatibilityError, ConfigError, FormatError
from sitsformer.tensor import Tensor, no_grad

TOY = dict(
    n_classes=3,
    dim=8,
    depth_temporal=1,
    depth_spatial=1,
    n_heads=2,
    mlp_ratio=2,
    patch=(1, 2, 2),
    input_shape=(4, 4, 4, 2),
)


def toy_model(seed=0, **overrides):
    cfg = m.ModelConfig(**{**TOY, **overrides})
    return m.SitsFormer(cfg, seed=seed)


def toy_series(cfg, seed=0):
    rng = np.random.default_rng(seed)
    T, H, W, C = cfg.input_shape
    values = rng.standard_normal((T, H, W, C)).astype(np.float32)
    dates = np.sort(rng.choice(365, size=T, replace=False))
    return SitsSeries(values, dates)


class TestConfig:
    def test_bad_enum(self):
        with pytest.raises(ConfigError, match="factorization"):
            m.ModelConfig(**{**TOY, "factorization": "sideways"})

    def test_indivisible_patch(self):
        with pytest.raises(ConfigError):
            m.ModelConfig(**{**TOY, "patch": (1, 3, 2)})

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError):
            m.ModelConfig(**{**TOY, "n_heads": 3})

    def test_items_round_trip(self):
        cfg = m.ModelConfig(**{**TOY, "task": "classification",
                               "cls_mode": "single"})
        assert config_from_items(m.ModelConfig, config_items(cfg)) == cfg

    def test_unknown_item_key(self):
        with pytest.raises(ConfigError, match="mystery"):
            config_from_items(m.ModelConfig, [("mystery", "1")])


class TestTemporalEncode:
    def test_output_shape(self):
        model = toy_model()
        out = m.temporal_encode(toy_series(model.config), model)
        assert out.shape == (4, 3, 8)

    def test_depth_zero_zero_pe_returns_cls_tokens(self):
        model = toy_model(depth_temporal=0)
        model.temporal_pe.table.data[:] = 0.0
        out = m.temporal_encode(toy_series(model.config), model)
        for loc in range(4):
            np.testing.assert_array_equal(out.data[loc], model.cls.temporal.data)

    def test_joint_time_permutation_invariance(self):
        model = toy_model()
        series = toy_series(model.config, seed=3)
        base = m.temporal_encode(series, model)
        perm = np.random.default_rng(4).permutation(4)
        shuffled = SitsSeries(series.values.copy(), series.dates)
        shuffled.values = Tensor(series.values[perm])
        shuffled.dates = series.dates[perm]
        out = m.temporal_encode(shuffled, model)
        np.testing.assert_allclose(out.data, base.data, atol=1e-5)

    def test_date_sensitivity_with_two_key_table(self):
        cfg = m.ModelConfig(**TOY)
        model = m.SitsFormer(cfg, temporal_keys=[0, 50], seed=1)
        rng = np.random.default_rng(5)
        values = rng.standard_normal(cfg.input_shape).astype(np.float32)
        early = m.temporal_encode(SitsSeries(values, [0, 1, 2, 3]), model)
        late = m.temporal_encode(SitsSeries(values, [47, 48, 49, 50]), model)
        assert not np.allclose(early.data, late.data, atol=1e-4)

    def test_static_mode_ignores_dates(self):
        model = toy_model(pe_mode="static")
        rng = np.random.default_rng(6)
        values = rng.standard_normal(model.config.input_shape).astype(np.float32)
        a = m.temporal_encode(SitsSeries(values, [1, 2, 3, 4]), model)
        b = m.temporal_encode(SitsSeries(values, [10, 90, 180, 300]), model)
        np.testing.assert_array_equal(a.data, b.data)

    def test_wrong_input_shape(self):
        model = toy_model()
        bad = SitsSeries(np.zeros((4, 4, 6, 2), dtype=np.float32), [1, 2, 3, 4])
        with pytest.raises(Exception, match="does not match"):
            m.temporal_encode(bad, model)


class TestSpatialEncode:
    def test_output_shapes(self):
        model = toy_model()
        z = Tensor(np.random.default_rng(7).standard_normal((4, 3, 8))
                   .astype(np.float32))
        global_out, local = m.spatial_encode(z, model)
        assert global_out.shape == (3, 8)
        assert local.shape == (3, 4, 8)

    def test_blocked_streams_are_bitwise_independent(self):
        model = toy_model()
        rng = np.random.default_rng(8)
        z_np = rng.standard_normal((4, 3, 8)).astype(np.float32)
        g1, l1 = m.spatial_encode(Tensor(z_np), model)
        poked = z_np.copy()
        poked[:, 1, :] = rng.standard_normal((4, 8))
        model.cls.spatial.data[1] += 3.0
        g2, l2 = m.spatial_encode(Tensor(poked), model)
        for j in (0, 2):
            np.testing.assert_array_equal(g1.data[j], g2.data[j])
            np.testing.assert_array_equal(l1.data[j], l2.data[j])
        assert not np.array_equal(g1.data[1], g2.data[1])

    def test_full_mode_lets_streams_interact(self):
        model = toy_model(cls_interactions="full")
        rng = np.random.default_rng(9)
        z_np = rng.standard_normal((4, 3, 8)).astype(np.float32)
        g1, _ = m.spatial_encode(Tensor(z_np), model)
        poked = z_np.copy()
        poked[:, 1, :] += 5.0
        g2, _ = m.spatial_encode(Tensor(poked), model)
        assert not np.array_equal(g1.data[0], g2.data[0])


class TestHeads:
    def test_segmentation_shape(self):
        model = toy_model()
        out = m.forward(toy_series(model.config), model)
        assert out.shape == (4, 4, 3)

    def test_classification_shape(self):
        model = toy_model(task="classification")
        out = m.forward(toy_series(model.config), model)
        assert out.shape == (3,)

    def test_zero_seg_head_collapses_to_bias(self):
        model = toy_model()
        model.head_weight.data[:] = 0.0
        model.head_bias.data[:] = np.arange(3, dtype=np.float32)[:, None, None]
        out = m.forward(toy_series(model.config), model)
        for k in range(3):
            np.testing.assert_array_equal(
                out.data[:, :, k], np.full((4, 4), float(k), dtype=np.float32)
            )

    def test_zero_cls_head_collapses_to_bias(self):
        model = toy_model(task="classification")
        model.head_weight.data[:] = 0.0
        model.head_bias.data[:] = np.array([5.0, 6.0, 7.0])[:, None, None]
        out = m.forward(toy_series(model.config), model)
        np.testing.assert_array_equal(out.data, [5.0, 6.0, 7.0])

    def test_cls_head_is_classwise_separable(self):
        model = toy_model(task="classification")
        rng = np.random.default_rng(10)
        g = rng.standard_normal((3, 8)).astype(np.float32)
        base = m.classification_head(Tensor(g), model)
        poked = g.copy()
        poked[1] += 1.0
        out = m.classification_head(Tensor(poked), model)
        assert out.data[1] != base.data[1]
        np.testing.assert_array_equal(out.data[[0, 2]], base.data[[0, 2]])

    def test_single_cls_segmentation_shape(self):
        model = toy_model(cls_mode="single")
        assert model.cls.temporal.shape == (1, 8)
        out = m.forward(toy_series(model.config), model)
        assert out.shape == (4, 4, 3)

    def test_single_cls_classification_shape(self):
        model = toy_model(cls_mode="single", task="classification")
        out = m.forward(toy_series(model.config), model)
        assert out.shape == (3,)

    def test_spatial_first_shapes(self):
        model = toy_model(factorization="spatial_first")
        out = m.forward(toy_series(model.config), model)
        assert out.shape == (4, 4, 3)
        model = toy_model(factorization="spatial_first", task="classification")
        out = m.forward(toy_series(model.config), model)
        assert out.shape == (3,)

    def test_class_axis_permutation_equivariance(self):
        model = toy_model(seed=11)
        series = toy_series(model.config, seed=12)
        base = m.forward(series, model)
        perm = np.array([2, 0, 1])
        model.cls.temporal.data[:] = model.cls.temporal.data[perm]
        model.cls.spatial.data[:] = model.cls.spatial.data[perm]
        model.head_weight.data[:] = model.head_weight.data[perm]
        model.head_bias.data[:] = model.head_bias.data[perm]
        out = m.forward(series, model)
        np.testing.assert_allclose(out.data, base.data[:, :, perm], atol=1e-5)


class TestParameterCount:
    def test_hand_count_depth_zero(self):
        model = toy_model(depth_temporal=0, depth_spatial=0, n_classes=1)
        d, flat, loc, hw = 8, 8, 4, 4
        hand = (flat * d + d) + 4 * d + loc * d + 2 * d + (d * hw + hw)
        assert m.count_parameters(model) == hand
        assert m.parameter_count(model.config) == hand

    def test_reference_config_total(self):
        cfg = m.ModelConfig()
        n = m.parameter_count(cfg)
        assert n == 1_631_172
        assert 1_360_000 <= n <= 2_040_000

    @pytest.mark.parametrize("seed", range(5))
    def test_formula_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        heads = int(rng.choice([1, 2, 4]))
        cfg = m.ModelConfig(
            n_classes=int(rng.integers(1, 6)),
            dim=heads * int(rng.choice([4, 8])),
            depth_temporal=int(rng.integers(0, 3)),
            depth_spatial=int(rng.integers(0, 3)),
            n_heads=heads,
            mlp_ratio=int(rng.choice([1, 2, 4])),
            patch=(1, 2, 2),
            input_shape=(int(rng.integers(2, 6)), 4, 4, int(rng.integers(1, 4))),
            task=str(rng.choice(["segmentation", "classification"])),
            cls_mode=str(rng.choice(["per_class", "single"])),
        )
        model = m.SitsFormer(cfg, seed=seed)
        assert m.count_parameters(model) == m.parameter_count(cfg)


@settings(max_examples=20, deadline=None)
@given(
    n_classes=st.integers(1, 4),
    gh=st.integers(1, 3),
    gw=st.integers(1, 3),
    frames=st.integers(1, 5),
    channels=st.integers(1, 3),
    task=st.sampled_from(["segmentation", "classification"]),
    cls_mode=st.sampled_from(["per_class", "single"]),
    factorization=st.sampled_from(["temporal_first", "spatial_first"]),
)
def test_forward_shape_contract(n_classes, gh, gw, frames, channels, task,
                                cls_mode, factorization):
    cfg = m.ModelConfig(
        n_classes=n_classes,
        dim=8,
        depth_temporal=1,
        depth_spatial=1,
        n_heads=2,
        mlp_ratio=1,
        patch=(1, 2, 2),
        input_shape=(frames, 2 * gh, 2 * gw, channels),
        task=task,
        cls_mode=cls_mode,
        factorization=factorization,
    )
    model = m.SitsFormer(cfg, seed=13)
    rng = np.random.default_rng(14)
    values = rng.standard_normal(cfg.input_shape).astype(np.float32)
    dates = np.arange(frames) * 3 + 1
    with no_grad():
        out = m.forward(SitsSeries(values, dates), model)
    if task == "segmentation":
        assert out.shape == (2 * gh, 2 * gw, n_classes)
    else:
        assert out.shape == (n_classes,)


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        model = toy_model(seed=21)
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(path, model)
        loaded = m.load_checkpoint(path)
        assert loaded.config == model.config
        np.testing.assert_array_equal(loaded.temporal_pe.keys,
                                      model.temporal_pe.keys)
        for (name_a, a), (name_b, b) in zip(model.named_parameters(),
                                            loaded.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(a.data, b.data)
        series = toy_series(model.config, seed=22)
        with no_grad():
            np.testing.assert_array_equal(
                m.forward(series, model).data, m.forward(series, loaded).data
            )

    @pytest.mark.parametrize("fmt", HEADER_FORMATS)
    def test_bad_magic(self, tmp_path, fmt):
        path = tmp_path / "junk"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError) as err:
            FORMATS[fmt][1](path)
        assert err.value.offset == 0

    @pytest.mark.parametrize("fmt", HEADER_FORMATS)
    def test_version_bump_rejected(self, tmp_path, fmt):
        write, read = FORMATS[fmt]
        path = tmp_path / fmt
        write(path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CompatibilityError, match="99"):
            read(path)

    @pytest.mark.parametrize("fmt", HEADER_FORMATS)
    def test_truncation_reports_offset(self, tmp_path, fmt):
        write, read = FORMATS[fmt]
        path = tmp_path / fmt
        write(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError) as err:
            read(path)
        assert err.value.offset <= len(blob) // 2

    @pytest.mark.parametrize("fmt, edit", [
        ("checkpoint", lambda t: t.replace(b"temporal_keys=", b"temporal_keys=x")),
        ("checkpoint", lambda t: t.replace(b"\n", b"\n\xff", 1)),
        ("checkpoint", lambda t: t.replace(b"dim=8", b"dim=3")),
        ("state", lambda t: t.replace(b"\n", b"\n\xff", 1)),
        ("state", lambda t: t.replace(b"epoch=3\n", b"epoch=x\n")),
        ("state", lambda t: re.sub(rb"opt_step=\d+\n", b"", t)),
        ("checkpoint", lambda t: t.replace(b"temporal_keys=3,17",
                                           b"temporal_keys=3,03")),
    ], ids=["bad-temporal-key", "ckpt-not-utf8", "invalid-config",
            "state-not-utf8", "bad-epoch", "missing-opt-step",
            "repeated-temporal-key"])
    def test_corrupt_header_is_format_error(self, tmp_path, fmt, edit):
        write, read = FORMATS[fmt]
        path = tmp_path / fmt
        write(path)
        blob = path.read_bytes()
        (n,) = struct.unpack("<I", blob[6:10])
        text = edit(blob[10 : 10 + n])
        assert text != blob[10 : 10 + n]
        path.write_bytes(blob[:6] + struct.pack("<I", len(text)) + text
                         + blob[10 + n :])
        with pytest.raises(FormatError, match="header") as err:
            read(path)
        assert err.value.offset == HEADER_TEXT_OFFSET
