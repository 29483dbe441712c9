"""Tests for the sample format, synthetic generator, and transforms."""

import numpy as np
import pytest
from _formats import FORMATS
from hypothesis import given, settings
from hypothesis import strategies as st

from sitsformer import data as d
from sitsformer.errors import ConfigError, DataError, FormatError, ShapeError


def small_record(seed=0, T=3, H=4, W=4, C=2, kind=d.KIND_SEGMENTATION):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((T, H, W, C)).astype(np.float32)
    dates = np.sort(rng.choice(400, size=T, replace=False))
    if kind == d.KIND_SEGMENTATION:
        labels = rng.integers(0, 5, size=(H, W))
    else:
        labels = int(rng.integers(5))
    return d.SitsRecord(values, dates, labels, kind)


class TestRecord:
    def test_dates_must_increase(self):
        # A record is a series with labels: both fail the same shared check.
        values = np.zeros((2, 2, 2, 1), dtype=np.float32)
        for dates in ([7, 7], [9, 3]):
            with pytest.raises(DataError, match="strictly increasing"):
                d.SitsSeries(values, dates)
            with pytest.raises(DataError, match="strictly increasing"):
                d.SitsRecord(values, dates, np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_values_must_be_finite(self, bad):
        values = np.zeros((2, 2, 2, 1), dtype=np.float32)
        values[1, 0, 1, 0] = bad
        with pytest.raises(DataError, match="series values must be finite"):
            d.SitsSeries(values, [1, 2])
        with pytest.raises(DataError, match="series values must be finite"):
            d.SitsRecord(values, [1, 2], np.zeros((2, 2)))

    def test_label_shape_checked(self):
        with pytest.raises(ShapeError):
            d.SitsRecord(
                np.zeros((2, 2, 2, 1), dtype=np.float32), [1, 2],
                np.zeros((3, 3)),
            )

    def test_dates_must_fit_sixteen_bits(self):
        with pytest.raises(DataError):
            d.SitsRecord(
                np.zeros((1, 2, 2, 1), dtype=np.float32), [70_000],
                np.zeros((2, 2)),
            )


class TestSampleFile:
    def test_round_trip_bitwise(self, tmp_path):
        record = small_record()
        path = tmp_path / "a.sits"
        d.write_sample(path, record)
        loaded = d.read_sample(path)
        assert loaded == record
        assert loaded.values.tobytes() == record.values.tobytes()

    def test_non_finite_values_rejected_on_read(self, tmp_path):
        record = small_record()
        record.values[0, 1, 2, 0] = np.nan  # write_sample stores what it gets
        path = tmp_path / "nan.sits"
        d.write_sample(path, record)
        with pytest.raises(DataError, match="series values must be finite"):
            d.read_sample(path)

    def test_classification_round_trip(self, tmp_path):
        record = small_record(kind=d.KIND_CLASSIFICATION)
        path = tmp_path / "c.sits"
        d.write_sample(path, record)
        loaded = d.read_sample(path)
        assert loaded == record
        assert isinstance(loaded.labels, int)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_randomized_round_trip(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 5))
        H, W = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        C = int(rng.integers(1, 4))
        kind = d.KIND_SEGMENTATION if rng.random() < 0.5 else d.KIND_CLASSIFICATION
        values = rng.standard_normal((T, H, W, C)).astype(np.float32)
        dates = np.sort(rng.choice(1000, size=T, replace=False))
        labels = (rng.integers(0, 9, size=(H, W))
                  if kind == d.KIND_SEGMENTATION else int(rng.integers(9)))
        record = d.SitsRecord(values, dates, labels, kind)
        path = tmp_path_factory.mktemp("rt") / "r.sits"
        d.write_sample(path, record)
        assert d.read_sample(path) == record

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sits"
        record = small_record()
        d.write_sample(path, record)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            d.read_sample(path)
        assert err.value.offset == 0

    def test_truncation_fails_closed(self, tmp_path):
        path = tmp_path / "t.sits"
        d.write_sample(path, small_record())
        blob = path.read_bytes()
        cut = len(blob) - 7
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError) as err:
            d.read_sample(path)
        assert err.value.offset <= cut

    def test_trailing_bytes_rejected(self, tmp_path):
        # Every container format shares the end-of-body check.
        for fmt, (write, read) in FORMATS.items():
            path = tmp_path / fmt
            write(path)
            size = path.stat().st_size
            path.write_bytes(path.read_bytes() + b"\x00" * 4)
            with pytest.raises(FormatError, match="trailing") as err:
                read(path)
            assert err.value.offset == size, fmt


class TestPhenologySpec:
    def test_green_up_must_precede_senescence(self):
        with pytest.raises(ConfigError):
            d.PhenologyClassSpec((0.1,), (0.5,), 200.0, 100.0, 0.1, 0.1, 0.0, 0.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ConfigError):
            d.PhenologyClassSpec((0.1,), (-0.5,), 50.0, 150.0, 0.1, 0.1, 0.0, 0.0)

    def test_cloud_prob_must_be_probability(self):
        with pytest.raises(ConfigError):
            d.PhenologyClassSpec((0.1,), (0.5,), 50.0, 150.0, 0.1, 0.1, 0.0, 1.5)

    def test_curve_rises_then_falls(self):
        spec = d.PhenologyClassSpec((0.1,), (0.8,), 80.0, 200.0, 0.1, 0.1,
                                    0.0, 0.0)
        days = np.array([10, 140, 330])
        low_before, peak, low_after = spec.curve(days)[:, 0]
        assert peak > low_before + 0.5
        assert peak > low_after + 0.5


class TestGenerator:
    def test_sample_is_pure_function_of_seed_and_index(self, tmp_path):
        specs = d.default_class_specs(3, 2)
        a = d.generate_sample(7, 42, specs)
        b = d.generate_sample(7, 42, specs)
        assert a == b
        pa, pb = tmp_path / "a.sits", tmp_path / "b.sits"
        d.write_sample(pa, a)
        d.write_sample(pb, b)
        assert pa.read_bytes() == pb.read_bytes()
        assert d.generate_sample(8, 42, specs) != a

    def test_noise_free_classes_collapse(self):
        specs = d.default_class_specs(3, 2, noise_std=0.0, cloud_prob=0.0)
        record = d.generate_sample(1, 5, specs, grid=(10, 10))
        for k in range(3):
            mask = record.labels == k
            if not mask.any():
                continue
            series = record.values[:, mask, :]
            np.testing.assert_array_equal(
                series, np.broadcast_to(series[:, :1, :], series.shape)
            )

    def test_mean_curves_match_spec_within_three_sigma(self):
        noise = 0.1
        specs = d.default_class_specs(2, 2, noise_std=noise, cloud_prob=0.0)
        record = d.generate_sample(0, 11, specs, grid=(40, 40))
        checked = 0
        for k in range(2):
            mask = record.labels == k
            n = int(mask.sum())
            if n < 500:
                continue
            observed = record.values[:, mask, :].mean(axis=1)
            expected = specs[k].curve(record.dates)
            band = 3.0 * noise / np.sqrt(n)
            assert np.max(np.abs(observed - expected)) < band
            checked += 1
        assert checked >= 1

    def test_cloudy_acquisitions_saturate(self):
        specs = d.default_class_specs(2, 2, noise_std=0.0, cloud_prob=0.5)
        record = d.generate_sample(3, 9, specs, grid=(10, 10))
        mask = record.labels == record.labels[5, 5]
        series = record.values[:, mask, :]
        cloudy = np.all(series == 1.0, axis=(1, 2))
        assert cloudy.any() and not cloudy.all()

    def test_background_margin_present(self):
        specs = d.default_class_specs(4, 2)
        record = d.generate_sample(2, 13, specs, grid=(8, 8))
        assert np.all(record.labels[0, :] == 4)
        assert np.all(record.labels[-1, :] == 4)
        assert np.all(record.labels[:, 0] == 4)
        assert np.all(record.labels[:, -1] == 4)
        assert np.any(record.labels != 4)


class TestDataset:
    def test_manifest_round_trip_and_splits(self, tmp_path):
        manifest = d.generate_synthetic_dataset(tmp_path, 12, 3, seed=5)
        loaded = d.read_manifest(tmp_path)
        assert loaded == manifest
        assert loaded.n_classes == 3
        assert loaded.ignore_label == 3
        by_split = {s: manifest.paths_for(s) for s in d.SPLITS}
        assert sum(len(v) for v in by_split.values()) == 12
        assert all(len(v) >= 1 for v in by_split.values())
        all_paths = [p for v in by_split.values() for p in v]
        assert len(set(all_paths)) == 12
        train = d.load_split(tmp_path, loaded, "train")
        assert len(train) == len(by_split["train"])

    def test_regeneration_is_bitwise(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        d.generate_synthetic_dataset(a_dir, 4, 2, seed=9)
        d.generate_synthetic_dataset(b_dir, 4, 2, seed=9)
        for name in sorted(p.name for p in a_dir.iterdir()):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_varying_frame_count_rejected_before_writing(self, tmp_path):
        # input_shape fixes T, so a dataset of several lengths is unusable.
        with pytest.raises(ConfigError, match="A == B"):
            d.generate_synthetic_dataset(tmp_path / "g", 4, 2, t_range=(5, 8))
        assert not (tmp_path / "g").exists()

    def test_duplicate_paths_rejected(self):
        with pytest.raises(DataError):
            d.DatasetManifest(
                (("a.sits", "train"), ("a.sits", "val")), ("c",), 0
            )

    def test_unknown_split_rejected(self):
        with pytest.raises(DataError):
            d.DatasetManifest((("a.sits", "holdout"),), ("c",), 0)

    def test_bad_manifest_header(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("nope\n")
        (tmp_path / "classes.txt").write_text("c\n")
        with pytest.raises(FormatError):
            d.read_manifest(tmp_path)

    def test_non_integer_manifest_seed(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("path,split,seed\na.sits,train,x\n")
        (tmp_path / "classes.txt").write_text("c\n")
        with pytest.raises(FormatError, match="a.sits,train,x"):
            d.read_manifest(tmp_path)

    def test_manifest_seeds_must_agree(self, tmp_path):
        (tmp_path / "manifest.csv").write_text(
            "path,split,seed\na.sits,train,1\nb.sits,val,7\n")
        (tmp_path / "classes.txt").write_text("c\n")
        with pytest.raises(FormatError, match="manifest.csv.*b.sits,val,7") as e:
            d.read_manifest(tmp_path)
        assert e.value.offset == 31

    def test_malformed_manifest_line_reports_its_offset(self, tmp_path):
        (tmp_path / "manifest.csv").write_text(
            "path,split,seed\na.sits,train,1\nb.sits,val,1\nc.sits,val\n")
        (tmp_path / "classes.txt").write_text("c\n")
        with pytest.raises(FormatError, match="manifest.csv.*c.sits,val") as e:
            d.read_manifest(tmp_path)
        assert e.value.offset == 44

    @pytest.mark.parametrize("name, offset", [("manifest.csv", 31),
                                              ("classes.txt", 2)])
    def test_non_utf8_byte_is_format_error(self, tmp_path, name, offset):
        (tmp_path / "manifest.csv").write_text("path,split,seed\na.sits,train,1\n")
        (tmp_path / "classes.txt").write_text("c\n")
        with open(tmp_path / name, "ab") as f:
            f.write(b"b\xff.sits,val,1\n")
        with pytest.raises(FormatError, match=name) as e:
            d.read_manifest(tmp_path)
        assert e.value.offset == offset


class TestLoadSplit:
    """load_split is the gate for sample content, and names a bad file."""

    @staticmethod
    def dataset(tmp_path):
        manifest = d.generate_synthetic_dataset(tmp_path, 6, 3, grid=(4, 4),
                                                t_range=(3, 3), seed=2)
        path = tmp_path / manifest.paths_for("train")[0]
        return manifest, path, d.read_sample(path)

    @staticmethod
    def rejects(tmp_path, manifest, path, message):
        with pytest.raises(DataError) as e:
            d.load_split(tmp_path, manifest, "train")
        assert str(e.value).startswith(f"{path}: {message}")
        return e.value

    def test_out_of_range_label(self, tmp_path):
        manifest, path, record = self.dataset(tmp_path)
        labels = record.labels.copy()
        labels[1, 1] = 3  # background, n_classes, is a segmentation label
        d.write_sample(path, d.SitsRecord(record.values, record.dates, labels))
        assert len(d.load_split(tmp_path, manifest, "train")) == 4
        labels[2, 1] = 4
        d.write_sample(path, d.SitsRecord(record.values, record.dates, labels))
        self.rejects(tmp_path, manifest, path, "label 4 outside 0..3")

    def test_label_out_of_range(self, tmp_path):
        # A classification label has no background value.
        manifest, path, record = self.dataset(tmp_path)

        def write(label):
            d.write_sample(path, d.SitsRecord(record.values, record.dates,
                                              label, d.KIND_CLASSIFICATION))

        write(2)
        assert len(d.load_split(tmp_path, manifest, "train")) == 4
        write(3)
        self.rejects(tmp_path, manifest, path, "label 3 outside 0..2")

    def test_non_finite_value_names_the_file(self, tmp_path):
        manifest, path, record = self.dataset(tmp_path)
        record.values = record.values.copy()  # read back as a read-only view
        record.values[0, 1, 1, 0] = np.nan
        d.write_sample(path, record)
        self.rejects(tmp_path, manifest, path, "series values must be finite")

    def test_truncated_file_names_the_file(self, tmp_path):
        manifest, path, _ = self.dataset(tmp_path)
        path.write_bytes(path.read_bytes()[:-1])
        error = self.rejects(tmp_path, manifest, path, "sample truncated")
        assert isinstance(error.__cause__, FormatError)


class TestTransforms:
    def test_center_pixel_rule(self):
        record = small_record(T=2, H=24, W=24, C=1)
        record.labels[:] = 0
        record.labels[12, 12] = 5
        out = d.make_classification_sample(record, background_label=9)
        assert out.kind == d.KIND_CLASSIFICATION
        assert out.labels == 5
        np.testing.assert_array_equal(out.values, record.values)

    def test_background_center_discarded(self):
        record = small_record(T=2, H=6, W=6, C=1)
        record.labels[3, 3] = 4
        assert d.make_classification_sample(record, background_label=4) is None

    def test_generated_set_never_emits_background(self, tmp_path):
        manifest = d.generate_synthetic_dataset(tmp_path, 10, 3, seed=2)
        for path, _ in manifest.entries:
            record = d.read_sample(tmp_path / path)
            out = d.make_classification_sample(record, manifest.ignore_label)
            if out is not None:
                assert 0 <= out.labels < 3
