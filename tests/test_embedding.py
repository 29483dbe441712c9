"""Tests for tokenization, position tables, and encoder input assembly."""

import numpy as np
import pytest

from sitsformer import embedding as emb
from sitsformer.data import SitsRecord, SitsSeries
from sitsformer.errors import ConfigError, DataError, ShapeError
from sitsformer.nn import Affine
from sitsformer.tensor import Tensor, backward


def identity_affine(width, dtype=np.float32):
    aff = Affine(width, width, np.random.default_rng(0), dtype=dtype)
    aff.weight.data[:] = np.eye(width, dtype=dtype)
    aff.bias.data[:] = 0.0
    return aff


def temporal_table(keys, dim):
    return emb.TemporalPositionTable(keys, dim, np.random.default_rng(0))


# Both (values, dates) types: a plain series and a labelled record.
SERIES_TYPES = (
    SitsSeries,
    lambda values, dates: SitsRecord(values, dates, np.zeros((4, 4))),
)


class TestSeries:
    def test_valid(self):
        for make in SERIES_TYPES:
            s = make(np.zeros((3, 4, 4, 2), dtype=np.float32), [5, 9, 30])
            assert s.values.shape == (3, 4, 4, 2)
            assert s.dates.dtype == np.int64

    def test_dates_must_increase(self):
        for make in SERIES_TYPES:
            with pytest.raises(DataError, match="strictly increasing"):
                make(np.zeros((3, 4, 4, 2), dtype=np.float32), [5, 5, 9])

    def test_values_kept_as_given(self):
        # No cast and no Tensor wrap: float64 input runs a float64 forward.
        values = np.zeros((2, 4, 4, 2))
        assert SitsSeries(values, [1, 2]).values is values

    def test_date_count_must_match_frames(self):
        for make in SERIES_TYPES:
            with pytest.raises(ShapeError, match="one date per frame"):
                make(np.zeros((3, 4, 4, 2), dtype=np.float32), [1, 2])


class TestTokenize:
    def test_germany_sized_grid(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((1, 52, 24, 24, 13)).astype(np.float32))
        aff = Affine(1 * 2 * 2 * 13, 16, rng)
        grid = emb.tokenize_sits(x, (1, 2, 2), aff)
        assert grid.shape == (1, 52, 12, 12, 16)
        assert grid.size // 16 == 7488

    def test_whole_frame_patch(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 5, 4, 4, 3)).astype(np.float32))
        aff = Affine(4 * 4 * 3, 8, rng)
        grid = emb.tokenize_sits(x, (1, 4, 4), aff)
        assert grid.shape == (2, 5, 1, 1, 8)

    def test_zero_weights_collapse_to_bias(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((1, 2, 4, 4, 3)).astype(np.float32))
        aff = Affine(12, 6, rng)
        aff.weight.data[:] = 0.0
        aff.bias.data[:] = np.arange(6, dtype=np.float32)
        grid = emb.tokenize_sits(x, (1, 2, 2), aff)
        expected = np.broadcast_to(np.arange(6, dtype=np.float32),
                                   (1, 2, 2, 2, 6))
        np.testing.assert_array_equal(grid.data, expected)

    def test_indivisible_frame_fails_in_reshape(self):
        x = Tensor(np.zeros((1, 2, 10, 9, 3), dtype=np.float32))
        aff = Affine(4 * 4 * 3, 6, np.random.default_rng(4))
        with pytest.raises(ShapeError, match="cannot reshape"):
            emb.tokenize_sits(x, (1, 4, 4), aff)

    def test_temporal_patch_groups_frames(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 4, 2, 2, 1)).astype(np.float32)
        aff = identity_affine(2 * 2 * 2 * 1)
        grid = emb.tokenize_sits(Tensor(x), (2, 2, 2), aff)
        assert grid.shape == (2, 2, 1, 1, 8)
        for b in range(2):
            np.testing.assert_array_equal(grid.data[b, 0, 0, 0],
                                          x[b, :2].ravel())

    def test_indivisible_time_fails_in_reshape(self):
        # ModelConfig rejects a t that does not divide T; a direct call
        # fails at the first reshape.
        x = Tensor(np.zeros((1, 5, 2, 2, 1), dtype=np.float32))
        with pytest.raises(ShapeError, match="cannot reshape"):
            emb.tokenize_sits(x, (2, 2, 2), identity_affine(8))


class TestTemporalTable:
    def test_exact_lookup(self):
        table = temporal_table([10, 25, 40], dim=4)
        np.testing.assert_array_equal(table.row_indices([25, 10]), [1, 0])
        out = table([25, 10])
        np.testing.assert_array_equal(out.data[0], table.table.data[1])
        np.testing.assert_array_equal(out.data[1], table.table.data[0])

    def test_nearest_fallback(self):
        table = temporal_table([10, 25, 40], dim=4)
        assert table.row_indices([26])[0] == 1
        assert table.row_indices([17])[0] == 0

    def test_tie_goes_to_earlier_key(self):
        table = temporal_table([10, 20], dim=4)
        assert table.row_indices([15])[0] == 0

    def test_out_of_range_clamps(self):
        table = temporal_table([10, 25, 40], dim=4)
        np.testing.assert_array_equal(table.row_indices([0, 99]), [0, 2])

    def test_lookup_is_bitwise_deterministic(self):
        table = temporal_table(np.arange(0, 70, 7), dim=8)
        dates = [3, 14, 14, 65]
        a = table(dates)
        b = table(dates)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.data[1], a.data[2])

    def test_empty_keys_rejected(self):
        with pytest.raises(ConfigError):
            temporal_table([], dim=4)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ConfigError):
            temporal_table([3, 3, 9], dim=4)

    def test_unsorted_keys_are_sorted(self):
        table = temporal_table([40, 10, 25], dim=2)
        np.testing.assert_array_equal(table.keys, [10, 25, 40])

    def test_repeated_dates_accumulate_gradient(self):
        table = temporal_table([10, 25, 40], dim=3)
        out = table([10, 10, 25])
        backward(out.sum())
        np.testing.assert_array_equal(table.table.grad[0], 2.0)
        np.testing.assert_array_equal(table.table.grad[1], 1.0)
        np.testing.assert_array_equal(table.table.grad[2], 0.0)


class TestTemporalInput:
    def test_germany_sized_assembly(self):
        rng = np.random.default_rng(8)
        d = 4
        grid = Tensor(rng.standard_normal((1, 52, 12, 12, d)).astype(np.float32))
        pe = Tensor(rng.standard_normal((1, 52, d)).astype(np.float32))
        cls = Tensor(rng.standard_normal((17, d)).astype(np.float32))
        out = emb.build_temporal_input(grid, pe, cls)
        assert out.shape == (1, 144, 69, d)

    def test_zero_pe_tail_is_reshaped_grid(self):
        rng = np.random.default_rng(9)
        grid_np = rng.standard_normal((2, 3, 2, 2, 5)).astype(np.float32)
        out = emb.build_temporal_input(
            Tensor(grid_np),
            Tensor(np.zeros((2, 3, 5), dtype=np.float32)),
            Tensor(rng.standard_normal((2, 5)).astype(np.float32)),
        )
        expected = grid_np.transpose(0, 2, 3, 1, 4).reshape(2, 4, 3, 5)
        np.testing.assert_array_equal(out.data[:, :, 2:, :], expected)

    def test_cls_rows_repeat_at_every_location(self):
        rng = np.random.default_rng(10)
        cls_np = rng.standard_normal((3, 4)).astype(np.float32)
        out = emb.build_temporal_input(
            Tensor(rng.standard_normal((2, 2, 2, 3, 4)).astype(np.float32)),
            Tensor(rng.standard_normal((2, 2, 4)).astype(np.float32)),
            Tensor(cls_np),
        )
        for b in range(2):
            for loc in range(6):
                np.testing.assert_array_equal(out.data[b, loc, :3, :], cls_np)

    def test_pe_length_mismatch(self):
        with pytest.raises(ShapeError):
            emb.build_temporal_input(
                Tensor(np.zeros((1, 3, 2, 2, 4), dtype=np.float32)),
                Tensor(np.zeros((1, 5, 4), dtype=np.float32)),
                Tensor(np.zeros((2, 4), dtype=np.float32)),
            )


class TestSpatialInput:
    def test_germany_sized_assembly(self):
        rng = np.random.default_rng(11)
        d = 4
        out = emb.build_spatial_input(
            Tensor(rng.standard_normal((1, 144, 17, d)).astype(np.float32)),
            Tensor(rng.standard_normal((144, d)).astype(np.float32)),
            Tensor(rng.standard_normal((17, 1, d)).astype(np.float32)),
        )
        assert out.shape == (1, 17, 145, d)

    def test_zero_tables_give_pure_transpose(self):
        rng = np.random.default_rng(12)
        z_np = rng.standard_normal((2, 6, 3, 4)).astype(np.float32)
        out = emb.build_spatial_input(
            Tensor(z_np),
            Tensor(np.zeros((6, 4), dtype=np.float32)),
            Tensor(np.zeros((3, 1, 4), dtype=np.float32)),
        )
        np.testing.assert_array_equal(out.data[:, :, 1:, :],
                                      z_np.transpose(0, 2, 1, 3))

    def test_global_slot_holds_cls_token(self):
        rng = np.random.default_rng(13)
        cls_np = rng.standard_normal((3, 1, 4)).astype(np.float32)
        out = emb.build_spatial_input(
            Tensor(rng.standard_normal((2, 6, 3, 4)).astype(np.float32)),
            Tensor(rng.standard_normal((6, 4)).astype(np.float32)),
            Tensor(cls_np),
        )
        for b in range(2):
            for k in range(3):
                np.testing.assert_array_equal(out.data[b, k, 0, :], cls_np[k, 0])

    def test_ps_shape_mismatch(self):
        with pytest.raises(ShapeError):
            emb.build_spatial_input(
                Tensor(np.zeros((1, 6, 3, 4), dtype=np.float32)),
                Tensor(np.zeros((5, 4), dtype=np.float32)),
                Tensor(np.zeros((3, 1, 4), dtype=np.float32)),
            )
