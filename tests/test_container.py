"""Tests for the shared container: pinned bytes, atomic writes, config text."""

import hashlib
import os

import pytest
from _formats import FORMATS, STATE_FINGERPRINT, TOY, write_pinned_files

from sitsformer import container
from sitsformer.cli import RunConfig, parse_run_config
from sitsformer.data import read_manifest, read_sample
from sitsformer.errors import ConfigError
from sitsformer.model import ModelConfig, load_checkpoint
from sitsformer.training import TrainConfig

# sha256 of the files write_pinned_files produces, taken from the writers
# as they were before the formats moved into container.py; toy.ckpt as of
# its version 2, which has no key bias, and train.state as of its version
# 3, whose header holds one step count and the run fingerprint. Any change
# here is an on-disk format change. The run config sets warmup_epochs=2 because
# TrainConfig rejects the default warmup of 10 in a 7-epoch run.
PINS = {
    "toy.ckpt": "2f534544e66a512dd99c00ecac90fb953bb713282312d0dae77771ac5a6790f5",
    "train.state": "cd1385edbd4eb3782ea3f2ff569be57561a0824e882c1cd260fe493bc609df44",
    "seg.sits": "2936264541b283ae4d60d33e9d5ea58b5c7c32f7a66c932e2458db1ea34a457e",
    "cls.sits": "d8ff276281ea66ef9c3cea4f419b4cb1a2deecef1ccd4af1bc709dc65e4f659d",
    "manifest.csv": "c061b7d327538f59c0544237ee78f7f96ecaa81349071e4b3d8d5b265be02de3",
    "classes.txt": "880553fca8fcea94e325ee2cfb48e5a985cc797f39a14cc6d3cedecfeb2ae4d2",
    "run/resolved.cfg": "20ae6048d286fdcc8ff6385bc0bf031b37cb9f8fdce50cb055284dcd50daff68",
}


def test_written_bytes_match_pins(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_pinned_files()
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINS
    }
    assert digests == PINS
    # The pinned files must load as well.
    assert load_checkpoint("toy.ckpt").config == ModelConfig(**TOY)
    assert FORMATS["state"][1]("train.state") == (3, 1, STATE_FINGERPRINT)
    assert read_sample("cls.sits").labels == 2
    assert read_manifest(".").class_names == ("a", "b", "c")
    assert parse_run_config("run/resolved.cfg").train.floor_lr == 1e-7
    assert sorted(os.listdir(tmp_path)) == sorted(
        {name.split("/")[0] for name in PINS}
    )


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, fmt):
    write, read = FORMATS[fmt]
    path = tmp_path / fmt
    write(path)
    before = path.read_bytes()
    real_array = container.Writer.array
    written = []

    def array_then_fail(self, values, dtype):
        if len(written) == 2:
            raise OSError("disk full")
        written.append(dtype)
        real_array(self, values, dtype)

    monkeypatch.setattr(container.Writer, "array", array_then_fail)
    with pytest.raises(OSError, match="disk full"):
        write(path)
    assert written, "the write failed before it began"
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [fmt]
    monkeypatch.undo()
    read(path)


def test_atomic_open_text(tmp_path):
    path = tmp_path / "resolved.cfg"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with container.atomic_open(path, "w") as f:
            f.write("half of the new")
            raise RuntimeError("killed")
    assert path.read_text() == "old\n"
    with container.atomic_open(path, "w") as f:
        f.write("new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["resolved.cfg"]


class TestConfigText:
    def test_nested_round_trip(self):
        run = RunConfig(ModelConfig(**TOY), TrainConfig(peak_lr=0.1 + 0.2),
                        "d", "o")
        items = container.config_items(run)
        assert [k for k, _ in items][-3:] == ["seed", "data_dir", "out_dir"]
        assert ("peak_lr", "0.30000000000000004") in items
        assert ("patch", "1,2,2") in items
        assert container.config_from_items(RunConfig, items) == run

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing key 'out_dir'"):
            container.config_from_items(RunConfig, [("data_dir", "d")])

    @pytest.mark.parametrize("key, value", [("epochs", "1.5"),
                                            ("input_shape", "4,4,x,2"),
                                            ("floor_lr", "tiny")])
    def test_bad_value_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}='{value}'"):
            container.config_from_items(
                RunConfig, [("data_dir", "d"), ("out_dir", "o"), (key, value)]
            )
