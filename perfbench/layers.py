"""Which sitsformer functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules. Every span is named ``<layer>.<function>``;
the benchmark's own spans around CLI calls are named ``cli.<subcommand>``.
"""

import os
import statistics

from tracer import layer_self_times, self_times

LAYERS = ("tensor", "nn", "embedding", "model", "training", "metrics", "data",
          "cli")

TENSOR_GROUPS = {
    "gelu": ("gelu",),
    "matmul": ("matmul",),
    "softmax": ("softmax",),
    "layer_norm": ("layer_norm",),
    "elementwise": ("add", "sub", "mul", "neg", "exp", "log", "pow_const"),
    "layout": ("reshape", "transpose", "concat", "getitem", "broadcast_to",
               "gather_last"),
    "reduction": ("tsum", "tmean", "logsumexp"),
}
PRIMITIVES = {f"tensor.{fn}" for fns in TENSOR_GROUPS.values() for fn in fns}

# Inclusive time per forward sample (spans named here nest tensor work).
PER_SAMPLE = {
    "nn.mlp_forward_ms": ("nn.mlp_forward",),
    "nn.msa_forward_ms": ("nn.msa_forward",),
    "embedding.tokenize_ms": ("embedding.tokenize_sits",),
    "embedding.build_input_ms": ("embedding.build_temporal_input",
                                 "embedding.build_spatial_input"),
    "model.temporal_encode_ms": ("model.temporal_encode",),
    "model.spatial_encode_ms": ("model.spatial_encode",),
    "model.head_ms": ("model.segmentation_head", "model.classification_head"),
    "training.loss_ms": ("training.masked_cross_entropy",
                         "training.focal_loss"),
}

# Inclusive time per call.
PER_CALL = {
    "tensor.backward_ms": "tensor.backward",
    "training.adamw_step_ms": "training.adamw_step",
    "training.save_training_state_ms": "training.save_training_state",
    "metrics.confusion_update_ms": "metrics.confusion_update",
    "data.read_sample_ms": "data.read_sample",
    "data.write_sample_ms": "data.write_sample",
    "data.generate_sample_ms": "data.generate_sample",
    "model.load_checkpoint_ms": "model.load_checkpoint",
    "model.save_checkpoint_ms": "model.save_checkpoint",
}


def _rss_mb():
    with open("/proc/self/statm", encoding="ascii") as f:
        resident_pages = int(f.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _before_backward():
    import sitsformer.tensor

    return len(sitsformer.tensor.active_tape()), _rss_mb()


def targets():
    """``(span name, module, attribute path, on_enter)`` for Tracer.install."""
    out = [(f"tensor.{fn}", "sitsformer.tensor", fn, None)
           for fns in TENSOR_GROUPS.values() for fn in fns]
    out.append(("tensor.backward", "sitsformer.tensor", "backward",
                _before_backward))
    for layer, fns in (
        ("nn", ("msa_forward", "mlp_forward")),
        ("embedding", ("tokenize_sits", "build_temporal_input",
                       "build_spatial_input")),
        ("model", ("forward", "temporal_encode", "spatial_encode",
                   "segmentation_head", "classification_head",
                   "save_checkpoint", "load_checkpoint")),
        ("training", ("train_loop", "evaluate", "masked_cross_entropy",
                      "focal_loss", "adamw_step", "save_training_state",
                      "load_training_state")),
        ("data", ("generate_sample", "write_sample", "read_sample",
                  "read_manifest", "load_split")),
    ):
        out += [(f"{layer}.{fn}", f"sitsformer.{layer}", fn, None) for fn in fns]
    out.append(("metrics.confusion_update", "sitsformer.metrics",
                "ConfusionMatrix.update", None))
    return out


def per_layer_metrics(spans, marks, phase_s):
    """Per-layer figures from one traced phase lasting ``phase_s`` seconds.

    ``_ms`` figures are milliseconds per forward sample (one call of
    ``model.forward``) unless listed in PER_CALL, which are per call.
    """
    own = self_times(spans)
    durations = {}
    calls = {}
    prim_self = {}
    for (name, start, end, _), t in zip(spans, own):
        durations[name] = durations.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if name in PRIMITIVES:
            prim_self[name] = prim_self.get(name, 0.0) + t
    samples = calls.get("model.forward", 0)
    per_sample = 1e3 / samples if samples else 0.0

    def mean_ms(name):
        n = calls.get(name, 0)
        return 1e3 * durations[name] / n if n else 0.0

    out = {}
    for group, fns in TENSOR_GROUPS.items():
        total = sum(prim_self.get(f"tensor.{fn}", 0.0) for fn in fns)
        out[f"tensor.{group}_ms"] = total * per_sample
    n_ops = sum(calls.get(name, 0) for name in PRIMITIVES)
    out["tensor.ops_per_sample"] = n_ops / samples if samples else 0.0
    before = marks.get("tensor.backward", [])
    out["tensor.tape_entries_per_step"] = (
        statistics.median(n for n, _ in before) if before else 0)
    out["tensor.us_per_op"] = 1e6 * sum(prim_self.values()) / n_ops if n_ops else 0.0
    out["tensor.rss_at_backward_mb"] = (
        statistics.median(mb for _, mb in before) if before else 0.0)
    for metric, names in PER_SAMPLE.items():
        out[metric] = sum(durations.get(n, 0.0) for n in names) * per_sample
    for metric, name in PER_CALL.items():
        out[metric] = mean_ms(name)
    out["training.evaluate_ms"] = _evaluate_ms_per_sample(spans)

    layer_self = layer_self_times(spans)
    for layer in LAYERS:
        out[f"self.{layer}_ms"] = layer_self.get(layer, 0.0) * per_sample
    root_time = sum(end - start for _, start, end, parent in spans if parent < 0)
    out["self.bench_ms"] = max(0.0, phase_s - root_time) * per_sample
    out["trace.spans_per_sample"] = len(spans) / samples if samples else 0.0
    return out


def _evaluate_ms_per_sample(spans):
    """Time inside ``evaluate`` per forward sample it ran."""
    inside = set()
    total = 0.0
    samples = 0
    for i, (name, start, end, parent) in enumerate(spans):
        if name == "training.evaluate":
            inside.add(i)
            total += end - start
        elif parent in inside:
            inside.add(i)
            samples += name == "model.forward"
    return 1e3 * total / samples if samples else 0.0
