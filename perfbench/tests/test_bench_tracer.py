"""The span recorder, its self-time arithmetic, and attribute restoration."""

import itertools
import json
import os
import sys

import numpy as np

import layers
import sitsformer as sf
from tracer import Tracer, layer_self_times, self_times

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(layers.__file__)),
                              "BENCHMARK.json")

# a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]; e is a root.
TREE = [
    ["model.a", 0.0, 10.0, -1],
    ["nn.b", 1.0, 4.0, 0],
    ["tensor.c", 2.0, 3.0, 1],
    ["tensor.d", 5.0, 9.0, 0],
    ["model.e", 11.0, 12.0, -1],
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(TREE) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_layer_roll_up_sums_self_time_by_name_prefix():
    assert layer_self_times(TREE) == {"model": 4.0, "nn": 2.0, "tensor": 5.0}


def test_spans_record_parent_and_clock_readings():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("tensor.inner", lambda x: x + 1)
    with tracer.span("cli.outer"):
        assert inner(1) == 2
    assert tracer.spans == [["cli.outer", 0.0, 3.0, -1],
                            ["tensor.inner", 1.0, 2.0, 0]]


def test_per_layer_metrics_normalise_per_forward_sample():
    spans = [
        ["model.forward", 0.0, 4.0, -1],
        ["tensor.matmul", 1.0, 2.0, 0],
        ["model.forward", 5.0, 9.0, -1],
        ["tensor.matmul", 6.0, 9.0, 2],
        ["tensor.backward", 10.0, 12.0, -1],
    ]
    marks = {"tensor.backward": [(150, 64.0)]}
    out = layers.per_layer_metrics(spans, marks, phase_s=13.0)
    assert out["tensor.matmul_ms"] == 2000.0  # 4 s of matmul over 2 samples
    assert out["tensor.ops_per_sample"] == 1.0
    assert out["tensor.us_per_op"] == 2e6
    assert out["tensor.backward_ms"] == 2000.0  # per call
    assert out["tensor.tape_entries_per_step"] == 150
    assert out["self.model_ms"] == 2000.0
    assert out["self.bench_ms"] == 1500.0  # 13 s phase, 10 s inside roots
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        per_layer = {m["name"] for m in json.load(f)["per_layer"]}
    assert set(out) | {"trace.overhead_pct"} == per_layer


def _namespaces():
    """Every attribute of every sitsformer module and class, by identity."""
    seen = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("sitsformer"):
            continue
        for key, value in vars(module).items():
            seen[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    seen[(name, key, attr)] = member
    return seen


def _toy_step():
    cfg = sf.ModelConfig(n_classes=3, dim=8, depth_temporal=1, depth_spatial=1,
                         n_heads=2, mlp_ratio=1, input_shape=(4, 4, 4, 3))
    model = sf.SitsFormer(cfg, seed=0)
    rng = np.random.default_rng(0)
    record = sf.SitsRecord(rng.random((4, 4, 4, 3)), np.arange(4),
                           rng.integers(0, 3, (4, 4)))
    loss = sf.masked_cross_entropy(
        sf.forward(sf.SitsSeries(record.values, record.dates), model),
        record.labels, 3)
    sf.backward(loss)
    sf.evaluate(model, [record])


def test_traced_run_restores_every_wrapped_name():
    before = _namespaces()
    tracer = Tracer()
    with tracer.installed(layers.targets()):
        assert sf.forward is not before[("sitsformer", "forward")]
        _toy_step()
    after = _namespaces()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    names = {span[0] for span in tracer.spans}
    # Reached through Tensor.__matmul__, nn's ``T.`` and model's own imports.
    assert {"tensor.matmul", "tensor.gelu", "nn.msa_forward", "model.forward",
            "tensor.backward", "metrics.confusion_update"} <= names
    (tape_len, rss_mb), = tracer.marks["tensor.backward"]
    assert tape_len > 0 and rss_mb > 0
