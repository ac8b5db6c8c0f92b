"""Which package functions a traced run wraps, and the per-layer figures.

Every public function of every anchorkit module is wrapped, so each
layer's self time excludes the layers it calls. The figures reported are
the ones listed in ``PER_LAYER``; a listed function that the package no
longer defines is reported as absent with value 0, not as an error.

MAC and byte counts are computed from array shapes at call time, not
measured: bytes ignore caches, and MACs follow ``attention.flop_count``.
"""

from __future__ import annotations

import inspect
import os
import types
from collections import defaultdict

import numpy as np

import anchorkit
from anchorkit import (
    assignnet, attention, baselines, cli, compressor, core, ddim, objective, synth,
)

from .trace import Tracer, self_times

MODULES = (assignnet, objective, compressor, attention, baselines, ddim, core, synth, cli)

# usage above this share of uniform (1/A) makes an anchor live
LIVE_FRACTION = 0.1

SELF_MS = {
    "assignnet": ("forward", "backward", "adam_step", "save_checkpoint", "load_checkpoint"),
    "objective": ("total_loss", "soft_assign", "pool_anchors", "contrastive_loss",
                  "contrastive_grad", "kl_uniform", "kl_uniform_grad"),
    "compressor": ("train", "compress"),
    "attention": ("anchor_attention", "full_attention", "attention_weights"),
    "baselines": ("kmeans", "quantization_error"),
    "ddim": ("run_trajectory",),
    "core": ("save_tokens", "load_tokens", "save_array", "load_array"),
    "synth": ("gaussian_mixture", "drift_video"),
    "cli": ("gen", "train", "compress", "attend", "ddim"),
}

# synth runs only while inputs are made, so its figures are per set-up
SETUP_LAYERS = ("synth",)


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer, fns in SELF_MS.items():
        for fn in fns:
            units[f"{layer}.{fn}.self_ms"] = "ms"
    for fn in ("forward", "backward"):
        units[f"assignnet.{fn}.macs"] = "MAC"
        units[f"assignnet.{fn}.gmac_s"] = "GMAC/s"
    for fn in SELF_MS["objective"]:
        units[f"objective.{fn}.calls_per_step"] = "count"
    units["compressor.live_anchor_ratio"] = "ratio"
    for fn in ("anchor_attention", "full_attention"):
        units[f"attention.{fn}.macs"] = "MAC"
        units[f"attention.{fn}.gmac_s"] = "GMAC/s"
        units[f"attention.{fn}.bytes_computed"] = "B"
    units["baselines.kmeans.iters"] = "count"
    units["ddim.predictor_calls"] = "count"
    for fn in SELF_MS["core"]:
        units[f"core.{fn}.bytes"] = "B"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.absent_functions"] = "count"
    return units


PER_LAYER = _per_layer_units()


def span_name(module: types.ModuleType, fn_name: str) -> str:
    layer = module.__name__.rsplit(".", 1)[-1]
    if module is cli and fn_name.startswith("cmd_"):
        fn_name = fn_name[len("cmd_"):]
    return f"{layer}.{fn_name}"


def fphi_macs(net, n_tokens: int) -> int:
    hidden = [l.weight.shape[0] for l in net.layers[:-1]]
    return attention.flop_count(n_tokens, net.output_dim, net.input_dim, 1, "fphi", hidden)


def backward_macs(net, n_tokens: int) -> int:
    """Weight gradients of every layer plus the deltas pushed below layer 0."""
    first = net.layers[0].weight.size * n_tokens
    return 2 * fphi_macs(net, n_tokens) - first


def attention_bytes(n_tokens: int, n_keys: int, channels: int, proj_dim: int, keys_are_tokens: bool) -> int:
    """float64 bytes of the arrays one kernel call reads and creates.

    Inputs (tokens, anchors unless keys are the tokens, three projections),
    the projected queries/keys/values, the score matrix and the output.
    """
    inputs = n_tokens * channels + (0 if keys_are_tokens else n_keys * channels)
    inputs += 3 * channels * proj_dim
    projected = n_tokens * proj_dim + 2 * n_keys * proj_dim
    return 8 * (inputs + projected + n_tokens * n_keys + n_tokens * proj_dim)


def _observe_forward(t: Tracer, args, kwargs, result) -> None:
    net, tokens = args[0], args[1]
    t.count("assignnet.forward.macs", fphi_macs(net, tokens.num_tokens))


def _observe_backward(t: Tracer, args, kwargs, result) -> None:
    net, tokens = args[0], args[1]
    t.count("assignnet.backward.macs", backward_macs(net, tokens.num_tokens))


def _observe_adam(t: Tracer, args, kwargs, result) -> None:
    t.count("steps", 1)


def _observe_attention(mode: str):
    def observe(t: Tracer, args, kwargs, result) -> None:
        tokens, proj = args[0], args[-1]
        m, c = tokens.data.shape
        n_keys = m if mode == "full" else np.shape(args[1])[0]
        d = proj.proj_dim
        name = f"attention.{mode}_attention"
        t.count(f"{name}.macs", attention.flop_count(m, n_keys, c, d, mode))
        t.count(f"{name}.bytes_computed", attention_bytes(m, n_keys, c, d, mode == "full"))

    return observe


def _observe_assignments(t: Tracer, args, kwargs, result) -> None:
    t.latest["assignments"] = result.assignments


def _observe_kmeans(t: Tracer, args, kwargs, result) -> None:
    t.count("baselines.kmeans.iters", len(result.inertia_history) - 1)


def _observe_file(name: str):
    def observe(t: Tracer, args, kwargs, result) -> None:
        t.count(f"{name}.bytes", os.path.getsize(args[0]))

    return observe


OBSERVERS = {
    "assignnet.forward": _observe_forward,
    "assignnet.backward": _observe_backward,
    "assignnet.adam_step": _observe_adam,
    "attention.anchor_attention": _observe_attention("anchor"),
    "attention.full_attention": _observe_attention("full"),
    "compressor.compress": _observe_assignments,
    "objective.total_loss": _observe_assignments,
    "baselines.kmeans": _observe_kmeans,
    **{f"core.{fn}": _observe_file(f"core.{fn}") for fn in SELF_MS["core"]},
}


def public_functions(module: types.ModuleType) -> list[str]:
    return sorted(
        name for name, value in vars(module).items()
        if not name.startswith("_")
        and isinstance(value, types.FunctionType)
        and value.__module__ == module.__name__
    )


def install_all(tracer: Tracer) -> None:
    """Wrap every public function of every module, and every predictor call."""
    namespaces = (anchorkit, *MODULES)
    targets = [(span_name(module, name), vars(module)[name])
               for module in MODULES for name in public_functions(module)]
    for key, original in targets:
        tracer.install(namespaces, key, original, OBSERVERS.get(key))
    for cls_name, cls in vars(ddim).items():
        if (inspect.isclass(cls) and issubclass(cls, ddim.NoisePredictor)
                and "__call__" in vars(cls) and cls is not ddim.NoisePredictor):
            tracer.install_method(cls, "__call__", f"ddim.{cls_name}.__call__")


def absent_functions() -> list[str]:
    missing = []
    for layer, fns in SELF_MS.items():
        module = getattr(anchorkit, layer)
        for fn in fns:
            attr = "cmd_" + fn if layer == "cli" else fn
            if not isinstance(getattr(module, attr, None), types.FunctionType):
                missing.append(f"{layer}.{fn}")
    return missing


def per_layer_metrics(tracer: Tracer, units: int, n_setups: int,
                      overhead_ratio: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures of a traced run, and the absent function names.

    Only spans recorded during set-up ("setup-*" iterations) and inside
    timed calls ("op-*") count; the harness's own checks do not.
    Self times, MACs, bytes and calls are per unit of work of the timed
    loop (a training step, or one call), so the self times add up to the
    end-to-end figure; ``synth`` is per set-up instead. Throughput divides
    MACs by the call's inclusive time.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[tuple[bool, str], list[int]] = defaultdict(list)
    inclusive_ns: dict[str, int] = defaultdict(int)
    for s in spans:
        if not s.iteration.startswith(("setup", "op")):
            continue
        in_setup = s.iteration.startswith("setup")
        by_name[(in_setup, s.name)].append(selfs[s.id])
        if not in_setup:
            inclusive_ns[s.name] += s.end_ns - s.start_ns
    counts: dict[str, float] = defaultdict(float)
    for iteration, key, value in tracer.counts:
        if iteration.startswith("op"):
            counts[key] += value
    calls = {name: len(v) for (setup, name), v in by_name.items() if not setup}

    def self_ms(name: str) -> float:
        in_setup = name.split(".", 1)[0] in SETUP_LAYERS
        total_ns = sum(by_name.get((in_setup, name), ()))
        return total_ns / 1e6 / (n_setups if in_setup else units)

    def gmac_s(name: str) -> float:
        # the MAC count covers the whole call, children included
        total_ns = inclusive_ns.get(name, 0)
        return counts[f"{name}.macs"] / total_ns if total_ns else 0.0

    steps = counts["steps"]
    absent = absent_functions()
    out = {}
    for key in PER_LAYER:
        name, _, figure = key.rpartition(".")
        if figure == "self_ms":
            out[key] = self_ms(name)
        elif figure == "gmac_s":
            out[key] = gmac_s(name)
        elif figure == "calls_per_step":
            out[key] = calls.get(name, 0) / steps if steps else 0.0
        elif key == "baselines.kmeans.iters":
            n = calls.get("baselines.kmeans", 0)
            out[key] = counts[key] / n if n else 0.0
        elif key == "ddim.predictor_calls":
            out[key] = _leaf_predictor_calls(spans) / units
        elif key == "compressor.live_anchor_ratio":
            out[key] = live_anchor_ratio(tracer.latest.get("assignments"))
        elif key == "trace.overhead_ratio":
            out[key] = overhead_ratio
        elif key == "trace.absent_functions":
            out[key] = float(len(absent))
        else:  # macs, bytes_computed, bytes: per unit of work
            out[key] = counts[key] / units
    return out, absent


def _leaf_predictor_calls(spans) -> int:
    """Noise-model evaluations: predictor calls that call no other predictor."""
    predictor = {s.id for s in spans
                 if s.name.endswith(".__call__") and s.iteration.startswith("op")}
    parents = {s.parent for s in spans if s.id in predictor}
    return len(predictor - parents)


def live_anchor_ratio(assignments) -> float:
    """Share of anchors whose usage exceeds LIVE_FRACTION of uniform."""
    if assignments is None:
        return 0.0
    r = np.asarray(assignments)
    usage = r.sum(axis=1) / r.shape[1]
    return float((usage > LIVE_FRACTION / r.shape[0]).sum() / r.shape[0])
