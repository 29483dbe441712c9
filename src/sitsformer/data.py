"""Sample container format, synthetic dataset generation, and transforms.

Samples live one per file in the shared container (see container.py): the
label kind and dimensions, the acquisition days, the raster block, and the
labels. The synthetic generator fills a grid with rectangular parcels on a
background margin and gives every parcel a class-specific seasonal curve,
so class identity is carried by the timing of the signal rather than by
its amplitude.
"""

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import (ConfigError, DataError, FormatError, ShapeError,
                     SitsformerError)

SAMPLE_MAGIC = b"SITS"
SAMPLE_VERSION = 1

KIND_SEGMENTATION = "segmentation"
KIND_CLASSIFICATION = "classification"
_KIND_TO_CODE = {KIND_SEGMENTATION: 0, KIND_CLASSIFICATION: 1}
_CODE_TO_KIND = {v: k for k, v in _KIND_TO_CODE.items()}

SPLITS = ("train", "val", "test")

# Synthetic scenes: the day range acquisitions fall in, and the width in
# pixels of the background border around the parcels.
_SEASON = (1, 360)
_MARGIN = 1


class SitsSeries:
    """A (values, dates) pair: finite values (T, H, W, C), one int day per
    frame, the days strictly increasing.

    values stay the array they were given: tokenize_sits wraps them, and
    its dtype rule keeps float64 input float64.
    """

    __slots__ = ("values", "dates")

    def __init__(self, values, dates):
        shape = np.shape(values)
        if len(shape) != 4:
            raise ShapeError(f"series values must be (T, H, W, C), got {shape}")
        dates = np.asarray(dates, dtype=np.int64)
        if dates.shape != shape[:1]:
            raise ShapeError(
                f"need one date per frame: {shape[0]} frames, "
                f"{dates.shape} dates"
            )
        if np.any(np.diff(dates) <= 0):
            raise DataError("acquisition dates must be strictly increasing")
        if not np.isfinite(values).all():
            raise DataError("series values must be finite")
        self.values = values
        self.dates = dates


class SitsRecord(SitsSeries):
    """A float32 series plus labels, within what the file format stores.

    Labels are an (H, W) integer map for segmentation or a single integer
    for classification. Day indices, dimensions and labels must fit in 16
    bits.
    """

    __slots__ = ("labels", "kind")

    def __init__(self, values, dates, labels, kind=KIND_SEGMENTATION):
        super().__init__(np.ascontiguousarray(values, dtype=np.float32), dates)
        if np.any(self.dates < 0) or np.any(self.dates > 0xFFFF):
            raise DataError("dates must fit in 16 bits")
        if kind not in _KIND_TO_CODE:
            raise DataError(f"unknown label kind {kind!r}")
        T, H, W, C = self.values.shape
        if max(T, H, W, C) > 0xFFFF:
            raise DataError("header dimensions must fit in 16 bits")
        if kind == KIND_SEGMENTATION:
            labels = np.ascontiguousarray(labels, dtype=np.int64)
            if labels.shape != (H, W):
                raise ShapeError(
                    f"segmentation labels must be ({H}, {W}), got {labels.shape}"
                )
            if np.any(labels < 0) or np.any(labels > 0xFFFF):
                raise DataError("labels must fit in 16 bits")
        else:
            labels = int(labels)
            if labels < 0 or labels > 0xFFFF:
                raise DataError(f"classification label {labels} out of range")
        self.labels = labels
        self.kind = kind

    def __eq__(self, other):
        if not isinstance(other, SitsRecord):
            return NotImplemented
        return (
            self.kind == other.kind
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.dates, other.dates)
            and (
                np.array_equal(self.labels, other.labels)
                if self.kind == KIND_SEGMENTATION
                else self.labels == other.labels
            )
        )

    def __repr__(self):
        T, H, W, C = self.values.shape
        return f"SitsRecord({self.kind}, T={T}, H={H}, W={W}, C={C})"


def write_sample(path, record: SitsRecord) -> None:
    """Serialize one record; the read side reproduces it bit for bit."""
    T, H, W, C = record.values.shape
    with container.create(path, SAMPLE_MAGIC, SAMPLE_VERSION) as w:
        w.pack("<BHHHH", _KIND_TO_CODE[record.kind], T, H, W, C)
        w.array(record.dates, "<u2")
        w.array(record.values, "<f4")
        if record.kind == KIND_SEGMENTATION:
            w.array(record.labels, "<u2")
        else:
            w.pack("<H", record.labels)


def read_sample(path) -> SitsRecord:
    """Parse one sample file; any malformation fails with a byte offset."""
    r = container.Reader(path, SAMPLE_MAGIC, SAMPLE_VERSION, "sample")
    kind_code, T, H, W, C = r.unpack("<BHHHH")
    if kind_code not in _CODE_TO_KIND:
        raise FormatError(f"unknown label kind code {kind_code}", offset=6)
    kind = _CODE_TO_KIND[kind_code]
    dates = r.array("<u2", (T,)).astype(np.int64)
    values = r.array("<f4", (T, H, W, C))
    if kind == KIND_SEGMENTATION:
        labels = r.array("<u2", (H, W)).astype(np.int64)
    else:
        (labels,) = r.unpack("<H")
    r.end()
    return SitsRecord(values, dates, labels, kind)


# -- synthetic phenology --------------------------------------------------------


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class PhenologyClassSpec:
    """Double-logistic seasonal curve parameters for one class.

    The signal rises around green_up_day, falls around senescence_day, and
    is offset/scaled per channel. Identical curves shifted in time stay
    separable only through temporal position, which is the point.
    """

    baseline: tuple
    amplitude: tuple
    green_up_day: float
    senescence_day: float
    up_slope: float
    down_slope: float
    noise_std: float
    cloud_prob: float

    def __post_init__(self):
        object.__setattr__(self, "baseline", tuple(float(b) for b in self.baseline))
        object.__setattr__(
            self, "amplitude", tuple(float(a) for a in self.amplitude)
        )
        if len(self.baseline) != len(self.amplitude):
            raise ConfigError("baseline and amplitude must cover the same channels")
        if any(a < 0 for a in self.amplitude):
            raise ConfigError("amplitude must be non-negative")
        if not self.green_up_day < self.senescence_day:
            raise ConfigError(
                f"green-up day {self.green_up_day} must precede senescence "
                f"day {self.senescence_day}"
            )
        if not all(0 < s < math.inf for s in (self.up_slope, self.down_slope)):
            raise ConfigError("slopes must be positive and finite")
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError(f"noise_std {self.noise_std} must be finite, >= 0")
        if not 0.0 <= self.cloud_prob <= 1.0:
            raise ConfigError("cloud_prob must lie in [0, 1]")

    @property
    def channels(self) -> int:
        return len(self.baseline)

    def curve(self, days) -> np.ndarray:
        """Noise-free class mean signal at the given days, shape (T, C)."""
        days = np.asarray(days, dtype=np.float64)
        season = _sigmoid(self.up_slope * (days - self.green_up_day)) - _sigmoid(
            self.down_slope * (days - self.senescence_day)
        )
        baseline = np.array(self.baseline)
        amplitude = np.array(self.amplitude)
        return baseline[None, :] + amplitude[None, :] * season[:, None]


def default_class_specs(n_classes: int, channels: int, noise_std: float = 0.05,
                        cloud_prob: float = 0.05):
    """Specs that differ in season timing but share per-channel levels."""
    if n_classes < 1:
        raise ConfigError("need at least one class spec")
    baseline = np.linspace(0.05, 0.2, channels)
    amplitude = np.linspace(0.5, 0.9, channels)
    specs = []
    for k in range(n_classes):
        frac = k / max(1, n_classes - 1)
        green_up = 50.0 + 160.0 * frac
        specs.append(
            PhenologyClassSpec(
                baseline=tuple(baseline),
                amplitude=tuple(amplitude),
                green_up_day=green_up,
                senescence_day=green_up + 80.0,
                up_slope=0.09,
                down_slope=0.07,
                noise_std=noise_std,
                cloud_prob=cloud_prob,
            )
        )
    return specs


def background_spec(channels: int, noise_std: float = 0.05) -> PhenologyClassSpec:
    """Flat low signal for pixels outside every parcel."""
    return PhenologyClassSpec(
        baseline=tuple(np.full(channels, 0.05)),
        amplitude=tuple(np.zeros(channels)),
        green_up_day=100.0,
        senescence_day=200.0,
        up_slope=0.09,
        down_slope=0.07,
        noise_std=noise_std,
        cloud_prob=0.0,
    )


def _partition_parcels(rng, height: int, width: int,
                       n_classes: int) -> np.ndarray:
    """Rectangular parcels inside a background margin; label map (H, W)."""
    labels = np.full((height, width), n_classes, dtype=np.int64)
    inner_h = height - 2 * _MARGIN
    inner_w = width - 2 * _MARGIN
    if inner_h < 1 or inner_w < 1:
        raise ConfigError(f"grid {height}x{width} too small for a margin")
    max_rows = max(1, min(3, inner_h // 2))
    max_cols = max(1, min(3, inner_w // 2))
    n_rows = int(rng.integers(1, max_rows + 1))
    n_cols = int(rng.integers(1, max_cols + 1))
    row_cuts = np.sort(rng.choice(np.arange(1, inner_h), size=n_rows - 1,
                                  replace=False)) if n_rows > 1 else np.array([])
    col_cuts = np.sort(rng.choice(np.arange(1, inner_w), size=n_cols - 1,
                                  replace=False)) if n_cols > 1 else np.array([])
    row_edges = np.concatenate(([0], row_cuts, [inner_h])).astype(int)
    col_edges = np.concatenate(([0], col_cuts, [inner_w])).astype(int)
    cells = rng.integers(0, n_classes, size=(n_rows, n_cols))
    for i in range(n_rows):
        for j in range(n_cols):
            r0, r1 = _MARGIN + row_edges[i], _MARGIN + row_edges[i + 1]
            c0, c1 = _MARGIN + col_edges[j], _MARGIN + col_edges[j + 1]
            labels[r0:r1, c0:c1] = cells[i, j]
    return labels


def generate_sample(index: int, seed: int, specs, grid=(8, 8), t_range=(16, 16),
                    date_step: int = 1, season_span=None) -> SitsRecord:
    """One synthetic record, a pure function of (seed, index).

    Acquisition days are drawn without replacement from a day grid with
    spacing date_step over days 1-359. When season_span is set, each sample
    observes only a random contiguous window of that length, the way a
    sensor campaign covers part of a season; windows are aligned to the day
    grid so the same calendar days recur across samples.
    """
    n_classes = len(specs)
    channels = specs[0].channels
    if any(s.channels != channels for s in specs):
        raise ConfigError("all class specs must share a channel count")
    t_lo, t_hi = t_range
    lo, hi = _SEASON
    if not 1 <= t_lo <= t_hi or t_hi > hi - lo:
        raise ConfigError(f"bad acquisition-count range {t_range}")
    if date_step < 1:
        raise ConfigError(f"date_step must be positive, got {date_step}")
    rng = np.random.default_rng([seed, 0, index])
    T = int(rng.integers(t_lo, t_hi + 1))
    if season_span is None:
        pool = np.arange(lo, hi, date_step)
    else:
        n_starts = (hi - 1 - lo - season_span) // date_step + 1
        if n_starts < 1:
            raise ConfigError(
                f"season window {season_span} does not fit in {_SEASON}"
            )
        start = lo + date_step * int(rng.integers(0, n_starts))
        pool = np.arange(start, start + season_span, date_step)
    if pool.size < t_hi:
        raise ConfigError(
            f"day grid holds {pool.size} dates, fewer than t_range max {t_hi}"
        )
    dates = np.sort(rng.choice(pool, size=T, replace=False))
    height, width = grid
    labels = _partition_parcels(rng, height, width, n_classes)
    values = np.empty((T, height, width, channels), dtype=np.float32)
    regions = [(n_classes, background_spec(channels, specs[0].noise_std))]
    regions += [(k, specs[k]) for k in range(n_classes)]
    for label_value, spec in regions:
        mask = labels == label_value
        n_px = int(mask.sum())
        if n_px == 0:
            continue
        clean = spec.curve(dates)[:, None, :]
        noisy = clean + rng.normal(0.0, spec.noise_std, size=(T, n_px, channels))
        if spec.cloud_prob > 0:
            cloudy = rng.random(T) < spec.cloud_prob
            noisy[cloudy] = 1.0
        values[:, mask] = noisy.astype(np.float32)
    return SitsRecord(values, dates, labels, KIND_SEGMENTATION)


# -- manifest -------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetManifest:
    """File list with split assignment plus the class vocabulary."""

    entries: tuple  # of (path, split)
    class_names: tuple
    seed: int

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((str(p), str(s)) for p, s in self.entries)
        )
        object.__setattr__(
            self, "class_names", tuple(str(c) for c in self.class_names)
        )
        paths = [p for p, _ in self.entries]
        if len(set(paths)) != len(paths):
            raise DataError("manifest lists a sample file twice")
        for path, split in self.entries:
            if split not in SPLITS:
                raise DataError(
                    f"split {split!r} for {path} not one of {SPLITS}"
                )
        if not self.class_names:
            raise DataError("manifest needs at least one class name")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def ignore_label(self) -> int:
        return self.n_classes

    def paths_for(self, split: str):
        if split not in SPLITS:
            raise ConfigError(f"split {split!r} not one of {SPLITS}")
        return [p for p, s in self.entries if s == split]


def write_manifest(directory, manifest: DatasetManifest) -> None:
    path = os.path.join(directory, "manifest.csv")
    with container.atomic_open(path, "w") as f:
        f.write("path,split,seed\n")
        for sample_path, split in manifest.entries:
            f.write(f"{sample_path},{split},{manifest.seed}\n")
    with container.atomic_open(os.path.join(directory, "classes.txt"), "w") as f:
        for name in manifest.class_names:
            f.write(name + "\n")


def _text_lines(path):
    """(byte offset, stripped text) of every non-blank line of a UTF-8 file."""
    with open(path, "rb") as f:
        raw = f.read()
    lines = []
    offset = 0
    for line in raw.splitlines(keepends=True):
        try:
            text = line.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise FormatError(f"{path}: line is not UTF-8", offset=offset) from None
        if text:
            lines.append((offset, text))
        offset += len(line)
    return lines


def read_manifest(directory) -> DatasetManifest:
    """Read manifest.csv and classes.txt; every line must carry one seed."""
    path = os.path.join(directory, "manifest.csv")
    lines = _text_lines(path)
    if not lines or lines[0][1] != "path,split,seed":
        raise FormatError(f"{path} is not a manifest (bad header)", offset=0)
    entries = []
    seeds = set()
    for offset, line in lines[1:]:
        try:
            sample_path, split, seed_text = line.split(",")
            seeds.add(int(seed_text))
        except ValueError:
            raise FormatError(
                f"{path}: malformed manifest line {line!r}", offset=offset
            ) from None
        if len(seeds) > 1:
            raise FormatError(
                f"{path}: line {line!r} changes the dataset seed", offset=offset
            )
        entries.append((sample_path, split))
    class_names = [text for _, text in
                   _text_lines(os.path.join(directory, "classes.txt"))]
    return DatasetManifest(tuple(entries), tuple(class_names),
                           seeds.pop() if seeds else 0)


@contextlib.contextmanager
def naming(path):
    """Raise a package error from the block again as a DataError on path."""
    try:
        yield
    except SitsformerError as e:
        raise DataError(f"{path}: {e}") from e


def load_split(directory, manifest: DatasetManifest, split: str):
    """The split's records. The one gate for sample content: it names a file
    that fails to read or holds a label past the manifest's classes, 0..K
    for segmentation (K = n_classes is background), 0..K-1 otherwise.
    """
    records = []
    for name in manifest.paths_for(split):
        path = os.path.join(directory, name)
        with naming(path):
            record = read_sample(path)
            top = manifest.n_classes - (record.kind == KIND_CLASSIFICATION)
            if np.max(record.labels) > top:
                raise DataError(f"label {np.max(record.labels)} outside 0..{top}")
        records.append(record)
    return records


def _split_sizes(n: int) -> tuple:
    """Train/val/test counts: 15% each to val and test, at least one each."""
    n_val = max(1, round(n * 0.15)) if n >= 3 else (1 if n >= 2 else 0)
    n_test = max(1, round(n * 0.15)) if n >= 3 else 0
    n_train = n - n_val - n_test
    if n_train < 1:
        raise ConfigError(f"{n} samples cannot fill three splits")
    return n_train, n_val, n_test


def generate_synthetic_dataset(directory, n_samples: int, n_classes: int,
                               grid=(8, 8), t_range=(16, 16), seed: int = 0,
                               channels: int = 3, noise_std: float = 0.05,
                               cloud_prob: float = 0.05, date_step: int = 1,
                               season_span=None) -> DatasetManifest:
    """Write n_samples sample files plus manifest and class sidecar."""
    if n_classes < 2:
        raise ConfigError("need at least two classes")
    if n_samples < 1:
        raise ConfigError("need at least one sample")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if channels < 1:
        raise ConfigError(f"channels must be positive, got {channels}")
    if t_range[0] != t_range[1]:
        raise ConfigError(f"t_range {t_range} needs A == B: input_shape fixes T")
    specs = default_class_specs(n_classes, channels, noise_std, cloud_prob)
    os.makedirs(directory, exist_ok=True)
    n_train, n_val, n_test = _split_sizes(n_samples)
    order = np.random.default_rng([seed, 3]).permutation(n_samples)
    split_of = {}
    for rank, idx in enumerate(order):
        if rank < n_train:
            split_of[int(idx)] = "train"
        elif rank < n_train + n_val:
            split_of[int(idx)] = "val"
        else:
            split_of[int(idx)] = "test"
    entries = []
    for i in range(n_samples):
        record = generate_sample(i, seed, specs, grid=grid, t_range=t_range,
                                 date_step=date_step, season_span=season_span)
        name = f"sample_{i:05d}.sits"
        write_sample(os.path.join(directory, name), record)
        entries.append((name, split_of[i]))
    class_names = tuple(f"class_{k:02d}" for k in range(n_classes))
    manifest = DatasetManifest(tuple(entries), class_names, seed)
    write_manifest(directory, manifest)
    return manifest


# -- transforms -----------------------------------------------------------------


def make_classification_sample(record: SitsRecord, background_label: int):
    """Global label = the center pixel's class; background discards the sample."""
    if record.kind != KIND_SEGMENTATION:
        raise DataError("classification samples derive from segmentation labels")
    H, W = record.labels.shape
    center = int(record.labels[H // 2, W // 2])
    if center == background_label:
        return None
    return SitsRecord(record.values, record.dates, center, KIND_CLASSIFICATION)
