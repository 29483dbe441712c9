"""Tests for the full model: wiring, comparison axes, counts, checkpoints."""

import re
import struct

import numpy as np
import pytest
from _formats import FORMATS, HEADER_FORMATS, HEADER_TEXT_OFFSET
from _gradcheck import check_gradients
from hypothesis import given, settings
from hypothesis import strategies as st

from sitsformer import model as m
from sitsformer.container import config_from_items, config_items
from sitsformer.data import SitsSeries
from sitsformer.errors import CompatibilityError, ConfigError, FormatError
from sitsformer.tensor import Tensor, active_tape, backward, no_grad
from sitsformer.training import focal_loss, masked_cross_entropy

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


def encode(series, model):
    """temporal_encode of one series, as a batch of one."""
    return m.temporal_encode(series.values[None],
                             np.asarray(series.dates)[None], model)


class TestConfig:
    @pytest.mark.parametrize("axis", m.CHOICES)
    def test_bad_enum(self, axis):
        with pytest.raises(ConfigError, match=axis):
            m.ModelConfig(**{**TOY, axis: "sideways"})

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


class TestTemporalPatch:
    """A temporal patch t > 1: each token covers t consecutive frames."""

    def test_t_must_divide_frames(self):
        with pytest.raises(ConfigError, match="must divide"):
            m.ModelConfig(**{**TOY, "patch": (3, 2, 2)})
        assert m.ModelConfig(**{**TOY, "patch": (2, 2, 2)}).n_frames == 2

    def test_query_is_the_first_day_of_each_frame_pair(self):
        model = toy_model(patch=(2, 2, 2))
        dates = np.array([[12, 80, 151, 240], [3, 9, 27, 81]])
        np.testing.assert_array_equal(model._temporal_query(dates),
                                      [[12, 151], [3, 27]])

    @pytest.mark.parametrize("factorization", m.CHOICES["factorization"])
    def test_forward_shapes(self, factorization):
        model = toy_model(patch=(2, 2, 2), factorization=factorization)
        series = toy_series(model.config)
        assert encode(series, model).shape == (1, 4, 3, 8)
        assert m.forward(series, model).shape == (4, 4, 3)
        model = toy_model(patch=(2, 2, 2), factorization=factorization,
                          task="classification")
        assert m.forward(series, model).shape == (3,)

    def test_gradcheck(self):
        cfg = m.ModelConfig(**{**TOY, "patch": (2, 2, 2)})
        model = m.SitsFormer(cfg, temporal_keys=[20, 150], seed=3,
                             dtype=np.float64)
        rng = np.random.default_rng(5)
        series = SitsSeries(rng.standard_normal(cfg.input_shape),
                            [12, 80, 151, 240])
        labels = rng.integers(0, cfg.n_classes + 1, size=(4, 4))

        def make_loss(_):
            logits = m.forward(series, model)
            return masked_cross_entropy(logits, labels, cfg.n_classes)

        assert check_gradients(make_loss, model.parameters(), h=1e-4) < 1e-3


class TestTemporalEncode:
    def test_output_shape(self):
        model = toy_model()
        out = encode(toy_series(model.config), model)
        assert out.shape == (1, 4, 3, 8)

    def test_depth_zero_zero_pe_returns_cls_tokens(self):
        model = toy_model(depth_temporal=0)
        model.temporal_pe.table.data[:] = 0.0
        out = encode(toy_series(model.config), model)
        for loc in range(4):
            np.testing.assert_array_equal(out.data[0, loc],
                                          model.cls_temporal.data)

    def test_joint_time_permutation_invariance(self):
        model = toy_model()
        series = toy_series(model.config, seed=3)
        base = encode(series, model)
        perm = np.random.default_rng(4).permutation(4)
        shuffled = SitsSeries(series.values.copy(), series.dates)
        shuffled.values = Tensor(series.values[perm])
        shuffled.dates = series.dates[perm]
        out = encode(shuffled, model)
        np.testing.assert_allclose(out.data, base.data, atol=1e-5)

    def test_date_sensitivity_with_two_key_table(self):
        cfg = m.ModelConfig(**TOY)
        model = m.SitsFormer(cfg, temporal_keys=[0, 50], seed=1)
        rng = np.random.default_rng(5)
        values = rng.standard_normal(cfg.input_shape).astype(np.float32)
        early = encode(SitsSeries(values, [0, 1, 2, 3]), model)
        late = encode(SitsSeries(values, [47, 48, 49, 50]), model)
        assert not np.allclose(early.data, late.data, atol=1e-4)

    def test_static_mode_ignores_dates(self):
        model = toy_model(pe_mode="static")
        rng = np.random.default_rng(6)
        values = rng.standard_normal(model.config.input_shape).astype(np.float32)
        a = encode(SitsSeries(values, [1, 2, 3, 4]), model)
        b = encode(SitsSeries(values, [10, 90, 180, 300]), model)
        np.testing.assert_array_equal(a.data, b.data)

    def test_static_table_is_keyed_by_frame_index(self):
        # Day keys passed to a static model are ignored: row i serves frame i.
        cfg = m.ModelConfig(**TOY, pe_mode="static")
        days = np.arange(1, 360, 10)
        model = m.SitsFormer(cfg, temporal_keys=days, seed=1)
        assert model.temporal_pe.table.shape == (cfg.n_frames, cfg.dim)
        query = model._temporal_query(days[None, : cfg.n_frames])
        np.testing.assert_array_equal(model.temporal_pe.row_indices(query),
                                      [np.arange(cfg.n_frames)])
        assert m.count_parameters(model) == m.parameter_count(cfg)
        assert m.parameter_count(cfg, days.size) == m.parameter_count(cfg)

    def test_wrong_input_shape(self):
        model = toy_model()
        bad = SitsSeries(np.zeros((4, 4, 6, 2), dtype=np.float32), [1, 2, 3, 4])
        with pytest.raises(Exception, match="does not match"):
            encode(bad, model)


class TestSpatialEncode:
    def test_output_shapes(self):
        model = toy_model()
        z = Tensor(np.random.default_rng(7).standard_normal((1, 4, 3, 8))
                   .astype(np.float32))
        global_out, local = m.spatial_encode(z, model)
        assert global_out.shape == (1, 3, 8)
        assert local.shape == (1, 3, 4, 8)

    def test_blocked_streams_are_bitwise_independent(self):
        model = toy_model()
        rng = np.random.default_rng(8)
        z_np = rng.standard_normal((1, 4, 3, 8)).astype(np.float32)
        g1, l1 = m.spatial_encode(Tensor(z_np), model)
        poked = z_np.copy()
        poked[:, :, 1, :] = rng.standard_normal((4, 8))
        model.cls_spatial.data[1] += 3.0
        g2, l2 = m.spatial_encode(Tensor(poked), model)
        for j in (0, 2):
            np.testing.assert_array_equal(g1.data[:, j], g2.data[:, j])
            np.testing.assert_array_equal(l1.data[:, j], l2.data[:, j])
        assert not np.array_equal(g1.data[:, 1], g2.data[:, 1])

    def test_full_mode_lets_streams_interact(self):
        model = toy_model(cls_interactions="full")
        rng = np.random.default_rng(9)
        z_np = rng.standard_normal((1, 4, 3, 8)).astype(np.float32)
        g1, _ = m.spatial_encode(Tensor(z_np), model)
        poked = z_np.copy()
        poked[:, :, 1, :] += 5.0
        g2, _ = m.spatial_encode(Tensor(poked), model)
        assert not np.array_equal(g1.data[:, 0], g2.data[:, 0])


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
        g = rng.standard_normal((1, 3, 8)).astype(np.float32)
        base = m.classification_head(Tensor(g), model)
        poked = g.copy()
        poked[:, 1] += 1.0
        out = m.classification_head(Tensor(poked), model)
        assert out.data[0, 1] != base.data[0, 1]
        np.testing.assert_array_equal(out.data[:, [0, 2]], base.data[:, [0, 2]])

    def test_single_cls_segmentation_shape(self):
        model = toy_model(cls_mode="single")
        assert model.cls_temporal.shape == (1, 8)
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
        model.cls_temporal.data[:] = model.cls_temporal.data[perm]
        model.cls_spatial.data[:] = model.cls_spatial.data[perm]
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
        assert n == 1_630_148
        assert 1_360_000 <= n <= 2_040_000

    @pytest.mark.parametrize("seed", range(5))
    def test_formula_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        choices = {name: str(rng.choice(allowed))
                   for name, allowed in m.CHOICES.items()}
        # Both orders whatever the draws: spatial_first has no spatial cls.
        choices["factorization"] = m.CHOICES["factorization"][seed % 2]
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
            **choices,
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


# Day keys of every pinned model: a longer grid than the series' four days,
# hit exactly by two of them, so ``date_lookup`` (nearest key, rows 1, 8, 15
# and 24) and ``static`` (rows 0-3 of a four-row table) read different rows.
PIN_DAY_KEYS = np.arange(0, 365, 10)

# Per variant of a float64 toy model (fixed seed, series and labels): the
# logits' sum, their absolute sum, and the global gradient norm after one
# loss backward, as variant_summary computes them. A change that moves one
# beyond rtol 1e-9 changes the numerics, not just the wiring.
VARIANT_PINS = {
    ("temporal_first", "per_class", "date_lookup", "blocked", "segmentation"):
        (-0.41624004124196734, 1.241824576751266, 1.4288823771469292),
    ("temporal_first", "per_class", "date_lookup", "blocked", "classification"):
        (0.08848549905986057, 0.17110690535890183, 6.004670173170629),
    ("temporal_first", "per_class", "date_lookup", "full", "segmentation"):
        (-0.41519503776403244, 1.2419488466366961, 1.4289494634922684),
    ("temporal_first", "per_class", "date_lookup", "full", "classification"):
        (0.08233238997001192, 0.1831272647107225, 5.590851846465819),
    ("temporal_first", "per_class", "static", "blocked", "segmentation"):
        (1.096589903906298, 1.8275972285892585, 1.1755377313556705),
    ("temporal_first", "per_class", "static", "blocked", "classification"):
        (0.014825249650232353, 0.08588344311350672, 3.07455599590238),
    ("temporal_first", "per_class", "static", "full", "segmentation"):
        (1.0976895421597057, 1.8285529504183569, 1.1756441885526931),
    ("temporal_first", "per_class", "static", "full", "classification"):
        (0.016513251627726107, 0.08082783180604863, 3.1345525364892746),
    ("temporal_first", "single", "date_lookup", "blocked", "segmentation"):
        (0.2565032866512404, 2.2375788218416153, 1.2077225974335892),
    ("temporal_first", "single", "date_lookup", "blocked", "classification"):
        (-0.09532531581733097, 0.1473975274760704, 4.069143169142656),
    ("temporal_first", "single", "date_lookup", "full", "segmentation"):
        (0.2565032866512404, 2.2375788218416153, 1.2077225974335892),
    ("temporal_first", "single", "date_lookup", "full", "classification"):
        (-0.09532531581733097, 0.1473975274760704, 4.069143169142656),
    ("temporal_first", "single", "static", "blocked", "segmentation"):
        (0.6106465061724813, 2.424911475718301, 1.6052921591331657),
    ("temporal_first", "single", "static", "blocked", "classification"):
        (0.04092704035389231, 0.1218011113369368, 3.1209732687294833),
    ("temporal_first", "single", "static", "full", "segmentation"):
        (0.6106465061724813, 2.424911475718301, 1.6052921591331657),
    ("temporal_first", "single", "static", "full", "classification"):
        (0.04092704035389231, 0.1218011113369368, 3.1209732687294833),
    ("spatial_first", "per_class", "date_lookup", "blocked", "segmentation"):
        (0.11675129050902099, 2.4617028522881776, 1.356084436035447),
    ("spatial_first", "per_class", "date_lookup", "blocked", "classification"):
        (-0.06749189005764525, 0.07538157583663635, 3.236784613335388),
    ("spatial_first", "per_class", "date_lookup", "full", "segmentation"):
        (0.11675129050902099, 2.4617028522881776, 1.356084436035447),
    ("spatial_first", "per_class", "date_lookup", "full", "classification"):
        (-0.06749189005764525, 0.07538157583663635, 3.236784613335388),
    ("spatial_first", "per_class", "static", "blocked", "segmentation"):
        (-0.5673076588558609, 1.3544696027020622, 1.5637138776075559),
    ("spatial_first", "per_class", "static", "blocked", "classification"):
        (-0.20254959320920424, 0.20948805614599592, 3.652032706272186),
    ("spatial_first", "per_class", "static", "full", "segmentation"):
        (-0.5673076588558609, 1.3544696027020622, 1.5637138776075559),
    ("spatial_first", "per_class", "static", "full", "classification"):
        (-0.20254959320920424, 0.20948805614599592, 3.652032706272186),
    ("spatial_first", "single", "date_lookup", "blocked", "segmentation"):
        (-1.140167042876763, 2.068779413014237, 1.4030909158152451),
    ("spatial_first", "single", "date_lookup", "blocked", "classification"):
        (-0.03499792926134025, 0.1743397878455359, 2.3635160314072428),
    ("spatial_first", "single", "date_lookup", "full", "segmentation"):
        (-1.140167042876763, 2.068779413014237, 1.4030909158152451),
    ("spatial_first", "single", "date_lookup", "full", "classification"):
        (-0.03499792926134025, 0.1743397878455359, 2.3635160314072428),
    ("spatial_first", "single", "static", "blocked", "segmentation"):
        (-0.46744734099984253, 2.3728699847193475, 1.088570729137358),
    ("spatial_first", "single", "static", "blocked", "classification"):
        (0.073411932912191, 0.073411932912191, 3.475449224252474),
    ("spatial_first", "single", "static", "full", "segmentation"):
        (-0.46744734099984253, 2.3728699847193475, 1.088570729137358),
    ("spatial_first", "single", "static", "full", "classification"):
        (0.073411932912191, 0.073411932912191, 3.475449224252474),
}


def variant_summary(variant):
    """The pinned figures of one variant, computed from the code as it is."""
    factorization, cls_mode, pe_mode, cls_interactions, task = variant
    cfg = m.ModelConfig(**TOY, factorization=factorization, cls_mode=cls_mode,
                        pe_mode=pe_mode, cls_interactions=cls_interactions,
                        task=task)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(cfg.input_shape)
    dates = np.array([12, 80, 151, 240])
    model = m.SitsFormer(cfg, temporal_keys=PIN_DAY_KEYS, seed=3,
                         dtype=np.float64)
    logits = m.forward(SitsSeries(values, dates), model)
    if task == "segmentation":
        labels = rng.integers(0, cfg.n_classes + 1, size=logits.shape[:-1])
        loss = masked_cross_entropy(logits, labels, cfg.n_classes)
    else:
        loss = focal_loss(logits, 1, gamma=2.0)
    backward(loss)
    grads = [p.grad for p in model.parameters()]
    # Every weight reaches the loss: a gradient of rounding size would name
    # a weight that no output reads.
    for (name, _), g in zip(model.named_parameters(), grads):
        assert g is not None and np.abs(g).max() > 1e-12, name
    return (float(logits.data.sum()), float(np.abs(logits.data).sum()),
            float(np.sqrt(sum((g * g).sum() for g in grads))))


@pytest.mark.parametrize("variant", list(VARIANT_PINS),
                         ids=["-".join(v) for v in VARIANT_PINS])
def test_variant_logits_and_gradients_are_pinned(variant):
    np.testing.assert_allclose(variant_summary(variant), VARIANT_PINS[variant],
                               rtol=1e-9)


def _batch_of_three(cfg, dtype):
    """Three series with distinct dates, and labels in which the second
    segmentation map is all ignored."""
    rng = np.random.default_rng(17)
    series = [SitsSeries(rng.standard_normal(cfg.input_shape).astype(dtype),
                         np.sort(rng.choice(365, cfg.input_shape[0],
                                            replace=False)))
              for _ in range(3)]
    if cfg.task == "classification":
        return series, np.arange(3) % cfg.n_classes
    labels = rng.integers(0, cfg.n_classes + 1, (3,) + cfg.input_shape[1:3])
    labels[1] = cfg.n_classes
    return series, labels


def _loss(logits, labels, cfg):
    if cfg.task == "segmentation":
        return masked_cross_entropy(logits, labels, cfg.n_classes)
    return focal_loss(logits, labels, gamma=2.0)


@pytest.mark.parametrize("variant", list(VARIANT_PINS),
                         ids=["-".join(v) for v in VARIANT_PINS])
def test_batched_call_matches_one_sample_calls(variant):
    # One batched forward and backward of the mean loss against three
    # one-sample calls whose losses, scaled by 1/3, add up their gradients.
    factorization, cls_mode, pe_mode, cls_interactions, task = variant
    cfg = m.ModelConfig(**TOY, factorization=factorization, cls_mode=cls_mode,
                        pe_mode=pe_mode, cls_interactions=cls_interactions,
                        task=task)
    model = m.SitsFormer(cfg, temporal_keys=PIN_DAY_KEYS, seed=3,
                         dtype=np.float64)
    series, labels = _batch_of_three(cfg, np.float64)
    batched = m.forward(series, model)
    loss = _loss(batched, labels, cfg)
    backward(loss)
    batched_grads = [p.grad for p in model.parameters()]
    model.zero_grad()
    singles = []
    for one, label in zip(series, labels):
        logits = m.forward(one, model)
        singles.append(logits.data)
        backward(_loss(logits, label, cfg) * (1.0 / 3.0))
    if task == "segmentation":
        assert _loss(Tensor(batched.data[1]), labels[1], cfg).item() == 0.0
    np.testing.assert_allclose(batched.data, np.stack(singles),
                               rtol=1e-12, atol=1e-12)
    for (name, p), g in zip(model.named_parameters(), batched_grads):
        np.testing.assert_allclose(g, p.grad, rtol=1e-12, atol=1e-12,
                                   err_msg=name)


def test_batched_float32_logits_match_one_sample_calls():
    cfg = m.ModelConfig(n_classes=4, dim=32, depth_temporal=2,
                        depth_spatial=2, n_heads=4, mlp_ratio=2,
                        patch=(1, 2, 2), input_shape=(12, 8, 8, 3))
    model = m.SitsFormer(cfg, temporal_keys=PIN_DAY_KEYS, seed=1)
    series, _ = _batch_of_three(cfg, np.float32)
    with no_grad():
        batched = m.forward(series, model).data
        singles = np.stack([m.forward(one, model).data for one in series])
    assert batched.dtype == np.float32
    np.testing.assert_allclose(batched, singles, rtol=0, atol=1e-5)


def test_demo_forward_tape_size_is_pinned():
    # The README run.cfg model. Per micro-batch, whatever its size: 1
    # affine (the patch embedding), 4 attention, 4 mlp, 10 layer_norm, 11
    # add, 5 reshape, 4 getitem, 3 transpose, 2 concat, 2 broadcast_to and 1
    # matmul (the head). Each attention and mlp takes its norm's scale and
    # shift and its projections, so no block records an affine of its own.
    # The getitem are the date lookup, the cls rows that enter the residual
    # in the last temporal block, and the spatial readout and local tokens;
    # the broadcast_to put the temporal and spatial cls tokens in front of
    # every sample's sequences. A one-sample call adds one reshape, which
    # drops the batch axis. A primitive split back into its parts shows up
    # here first.
    cfg = m.ModelConfig(n_classes=4, dim=32, depth_temporal=2,
                        depth_spatial=2, n_heads=4, mlp_ratio=2,
                        patch=(1, 2, 2), input_shape=(12, 8, 8, 3))
    model = m.SitsFormer(cfg, seed=1)
    tape = active_tape()
    try:
        m.forward(toy_series(cfg, seed=2), model)
        assert len(tape) == 48
        tape.clear()
        m.forward([toy_series(cfg, seed=s) for s in (2, 3)], model)
        assert len(tape) == 47
    finally:
        tape.clear()


def test_static_and_date_lookup_pins_differ():
    for variant, pins in VARIANT_PINS.items():
        if variant[2] == "static":
            twin = variant[:2] + ("date_lookup",) + variant[3:]
            assert pins != VARIANT_PINS[twin], variant


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

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_version_bump_rejected(self, tmp_path, fmt):
        write, read = FORMATS[fmt]
        path = tmp_path / fmt
        write(path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CompatibilityError, match="99"):
            read(path)

    def test_version_2_state_rejected(self, tmp_path):
        # Version 2 held best_miou and a second step count, and no
        # fingerprint; its files are refused, not read.
        write, read = FORMATS["state"]
        path = tmp_path / "state"
        write(path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (2).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CompatibilityError, match="version 2 unsupported"):
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
        ("state", lambda t: re.sub(rb"step=\d+\n", b"", t)),
        ("checkpoint", lambda t: t.replace(b"temporal_keys=3,17",
                                           b"temporal_keys=3,03")),
        ("checkpoint", lambda t: t + b"n_classes=3\n"),
        ("state", lambda t: t + b"epoch=3\n"),
    ], ids=["bad-temporal-key", "ckpt-not-utf8", "invalid-config",
            "state-not-utf8", "bad-epoch", "missing-step",
            "repeated-temporal-key", "ckpt-repeated-key",
            "state-repeated-key"])
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
