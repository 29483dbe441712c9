"""Workload inputs are a function of the seed: values change, shapes do not."""

import os

import numpy as np

import sitsformer as sf
import workloads


def _demo_inputs(tmp_path, seed):
    work = tmp_path / f"demo{seed}"
    work.mkdir()
    wl = workloads.TrainDemo(str(work), seed, workloads.Tally())
    wl.setup()
    data_dir = work / "data"
    manifest = sf.read_manifest(str(data_dir))
    records = [sf.read_sample(os.path.join(data_dir, p)) for p, _ in manifest.entries]
    return manifest, records


def _reference_inputs(tmp_path, seed, n):
    work = tmp_path / f"ref{seed}"
    work.mkdir(parents=True)
    return workloads._reference_pool(workloads.InferRef(str(work), seed, None), n)


def _same_layout(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.values.shape == y.values.shape
        assert x.dates.shape == y.dates.shape
        assert np.shape(x.labels) == np.shape(y.labels)


def test_demo_seed_changes_values_not_shapes_or_counts(tmp_path):
    m1, r1 = _demo_inputs(tmp_path, 1)
    m2, r2 = _demo_inputs(tmp_path, 2)
    assert len(m1.entries) == len(m2.entries) == 200
    for split in ("train", "val", "test"):
        assert len(m1.paths_for(split)) == len(m2.paths_for(split))
    _same_layout(r1, r2)
    assert r1[0].values.shape == (12, 8, 8, 3)
    assert not np.array_equal(r1[0].values, r2[0].values)


def test_reference_seed_changes_values_not_shapes_or_counts(tmp_path):
    a = _reference_inputs(tmp_path, 1, 2)
    b = _reference_inputs(tmp_path, 2, 2)
    _same_layout(a, b)
    assert a[0].values.shape == (52, 24, 24, 13)
    assert not np.array_equal(a[0].values, b[0].values)


def test_same_seed_gives_the_same_inputs(tmp_path):
    assert (_reference_inputs(tmp_path / "a", 3, 1)
            == _reference_inputs(tmp_path / "b", 3, 1))
