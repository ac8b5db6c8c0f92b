"""Command-line front end.

Subcommands: gen | train | compress | bench | ddim | attend. Every
tunable can come from three places, in override order: command-line flag,
config file (UTF-8 lines of ``key = value``), built-in default. The fully
resolved configuration is echoed to stderr so any run can be replayed
from its log. Exit codes: 0 success, 2 usage or configuration error,
3 numerical failure during training.

All randomness is seeded; ``--seed`` falls back to the ANCHOR_SEED
environment variable, then 0. Repeating a command with the same seed
produces byte-identical artifact files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import assignnet, attention, baselines, compressor, ddim, synth
from .core import (
    AnchorKitError,
    ConfigError,
    TokenMatrix,
    load_array,
    load_tokens,
    save_array,
    save_latent,
    save_tokens,
    seeded_rng,
)
from .compressor import TrainingDivergedError
from .objective import AnchorConfig, PRIOR_MODES

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

SEED_ENV_VAR = "ANCHOR_SEED"


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    items = [s for s in text.split(",") if s.strip()]
    return tuple(int(s) for s in items)


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


@dataclass(frozen=True)
class Opt:
    name: str
    conv: Callable
    default: object
    help: str
    is_flag: bool = False


_COMMON_SEED = Opt("seed", int, None, "global RNG seed (env ANCHOR_SEED, then 0)")

OPTIONS: dict[str, list[Opt]] = {
    "gen": [
        Opt("mixture", _parse_bool, False, "generate a Gaussian token mixture", True),
        Opt("drift", _parse_bool, False, "generate a drifting-blob latent video", True),
        Opt("clusters", int, 8, "mixture: number of clusters"),
        Opt("dim", int, 16, "mixture: token channel count"),
        Opt("points", int, 128, "mixture: points per cluster"),
        Opt("center_scale", float, 1.0, "mixture: uniform center range"),
        Opt("noise_sigma", float, 0.05, "mixture: point noise sigma"),
        Opt("frames", int, 4, "drift: frame count"),
        Opt("channels", int, 8, "drift: channel count"),
        Opt("height", int, 16, "drift: grid height"),
        Opt("width", int, 16, "drift: grid width"),
        Opt("objects", int, 3, "drift: object count"),
        Opt("drift_per_frame", float, 1.0, "drift: pixels moved per frame"),
        Opt("out", str, None, "output path prefix"),
        _COMMON_SEED,
    ],
    "train": [
        Opt("input", str, None, "token matrix (.vlt) to train on"),
        Opt("steps", int, 500, "optimization steps"),
        Opt("log_every", int, 50, "record every N steps"),
        Opt("anchors", int, 512, "anchor count"),
        Opt("top_k", int, 8, "contrastive positives per anchor"),
        Opt("temperature", float, 0.1, "contrastive temperature"),
        Opt("lambda_vi", float, 0.1, "regularizer weight"),
        Opt("prior", str, "categorical", f"one of {'|'.join(PRIOR_MODES)}"),
        Opt("lr", float, 1e-4, "Adam learning rate"),
        Opt("hidden", _parse_int_list, (128, 128), "hidden widths, comma separated"),
        Opt("subsample", int, None, "tokens sampled per step (default full batch)"),
        Opt("resume", str, None, "checkpoint to continue from"),
        Opt("checkpoint", str, None, "checkpoint output path"),
        Opt("report", str, None, "training report CSV output path"),
        _COMMON_SEED,
    ],
    "compress": [
        Opt("input", str, None, "token matrix (.vlt) to compress"),
        Opt("checkpoint", str, None, "trained network checkpoint"),
        Opt("out_r", str, None, "assignment matrix output (.vlt)"),
        Opt("out_c", str, None, "anchor matrix output (.vlt)"),
        _COMMON_SEED,
    ],
    "bench": [
        Opt("m_values", _parse_int_list, (1024, 2048, 4096, 8192), "token counts to sweep"),
        Opt("anchors", int, 512, "anchor count for anchor mode"),
        Opt("channels", int, 64, "token channel count"),
        Opt("proj_dim", int, 64, "projected dimension"),
        Opt("modes", _parse_str_list, ("full", "anchor"), "kernels to time"),
        Opt("repeats", int, 3, "timings per point; best is kept"),
        Opt("single_thread", _parse_bool, False, "pin BLAS pools to one thread", True),
        Opt("out", str, None, "benchmark CSV output path"),
        _COMMON_SEED,
    ],
    "ddim": [
        Opt("steps", int, 50, "schedule length T"),
        Opt("predictor", str, "zero", "zero | tonly | linear"),
        Opt("dim", int, 64, "latent vector length"),
        Opt("guidance", float, None, "wrap the predictor with this guidance scale"),
        Opt("dump", str, None, "directory for trajectory tensors"),
        _COMMON_SEED,
    ],
    "attend": [
        Opt("input", str, None, "token matrix (.vlt)"),
        Opt("mode", str, "full", "full | anchor"),
        Opt("anchors_file", str, None, "anchor matrix (.vlt), required for anchor mode"),
        Opt("proj_dim", int, 64, "projected dimension"),
        Opt("out", str, None, "attention output (.vlt)"),
        _COMMON_SEED,
    ],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anchorkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="key = value config file")
        for opt in opts:
            flag = "--" + opt.name.replace("_", "-")
            if opt.is_flag:
                p.add_argument(flag, dest=opt.name, action="store_const", const=True,
                               default=None, help=opt.help)
            else:
                p.add_argument(flag, dest=opt.name, type=str, default=None, help=opt.help)
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    text = Path(path).read_text(encoding="utf-8")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        values[key.strip()] = value.strip()
    return values


def resolve_options(command: str, args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over defaults; reject unknown keys."""
    opts = {o.name: o for o in OPTIONS[command]}
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(opts)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for name, opt in opts.items():
        flag_value = getattr(args, name)
        if flag_value is not None:
            value = flag_value if opt.is_flag else opt.conv(flag_value)
        elif name in file_values:
            value = opt.conv(file_values[name])
        else:
            value = opt.default
        resolved[name] = value
    if resolved.get("seed") is None:
        env = os.environ.get(SEED_ENV_VAR)
        resolved["seed"] = int(env) if env else 0
    return resolved


def _echo_config(command: str, resolved: dict) -> None:
    for key in sorted(resolved):
        print(f"config {command}.{key} = {resolved[key]}", file=sys.stderr)


@contextlib.contextmanager
def _thread_limit(single_thread: bool):
    if not single_thread:
        yield
        return
    try:
        import threadpoolctl
    except ImportError:
        print("warning: threadpoolctl unavailable; thread pinning skipped", file=sys.stderr)
        yield
        return
    with threadpoolctl.threadpool_limits(1):
        yield


def cmd_gen(cfg: dict) -> int:
    if cfg["mixture"] == cfg["drift"]:
        raise ConfigError("pass exactly one of --mixture / --drift")
    if not cfg["out"]:
        raise ConfigError("--out prefix is required")
    prefix = Path(cfg["out"])
    if cfg["mixture"]:
        spec = synth.MixtureSpec(
            n_clusters=cfg["clusters"],
            dim=cfg["dim"],
            points_per_cluster=cfg["points"],
            center_scale=cfg["center_scale"],
            noise_sigma=cfg["noise_sigma"],
            seed=cfg["seed"],
        )
        data = synth.gaussian_mixture(spec)
        save_tokens(f"{prefix}.vlt", data.tokens)
        with open(f"{prefix}_labels.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["token", "label"])
            for m, label in enumerate(data.labels):
                writer.writerow([m, int(label)])
        print(f"wrote {prefix}.vlt ({data.tokens.num_tokens} tokens) and {prefix}_labels.csv")
    else:
        spec = synth.DriftVideoSpec(
            frames=cfg["frames"],
            channels=cfg["channels"],
            height=cfg["height"],
            width=cfg["width"],
            n_objects=cfg["objects"],
            drift_per_frame=cfg["drift_per_frame"],
            seed=cfg["seed"],
        )
        latent = synth.drift_video(spec)
        save_latent(f"{prefix}.vlt", latent)
        print(f"wrote {prefix}.vlt (shape {latent.data.shape})")
    return EXIT_OK


def _train_config(cfg: dict) -> compressor.TrainConfig:
    objective = AnchorConfig(
        n_anchors=cfg["anchors"],
        top_k=cfg["top_k"],
        temperature=cfg["temperature"],
        kl_weight=cfg["lambda_vi"],
        prior_mode=cfg["prior"],
    )
    adam = assignnet.AdamParams(learning_rate=cfg["lr"])
    return compressor.TrainConfig(
        steps=cfg["steps"],
        log_every=cfg["log_every"],
        seed=cfg["seed"],
        objective=objective,
        adam=adam,
        hidden_dims=tuple(cfg["hidden"]),
        subsample=cfg["subsample"],
    )


def cmd_train(cfg: dict) -> int:
    if not cfg["input"]:
        raise ConfigError("--input is required")
    tokens = load_tokens(cfg["input"])
    train_cfg = _train_config(cfg)
    net = None
    base_steps = 0
    if cfg["resume"]:
        net, base_steps = assignnet.load_checkpoint(cfg["resume"])
    net, report = compressor.train(tokens, train_cfg, net=net)
    if cfg["checkpoint"]:
        assignnet.save_checkpoint(cfg["checkpoint"], net, base_steps + train_cfg.steps)
    if cfg["report"]:
        report.write_csv(cfg["report"])
    final = report.final
    print(
        f"final step={final.step} total={final.total:.6f} "
        f"contrastive={final.contrastive:.6f} regularizer={final.regularizer:.6f} "
        f"entropy={final.entropy:.6f}"
    )
    return EXIT_OK


def cmd_compress(cfg: dict) -> int:
    if not cfg["input"] or not cfg["checkpoint"]:
        raise ConfigError("--input and --checkpoint are required")
    tokens = load_tokens(cfg["input"])
    net, _ = assignnet.load_checkpoint(cfg["checkpoint"])
    result = compressor.compress(tokens, net)
    if cfg["out_r"]:
        save_array(cfg["out_r"], result.assignments)
    if cfg["out_c"]:
        save_array(cfg["out_c"], result.anchors)
    entropy = compressor.anchor_usage_entropy(result.assignments)
    means = compressor.anchor_means(result.assignments, tokens)
    qerr = baselines.quantization_error(tokens, means)
    k = min(result.anchors.shape[0], tokens.num_tokens)
    oracle = baselines.kmeans(tokens, k, seed=cfg["seed"])
    oracle_err = oracle.inertia / tokens.num_tokens
    ratio = qerr / oracle_err if oracle_err > 0 else float("inf")
    print(
        f"entropy={entropy:.6f} quantization_error={qerr:.6e} "
        f"kmeans_error={oracle_err:.6e} ratio={ratio:.4f}"
    )
    return EXIT_OK


def _time_best(fn: Callable[[], object], repeats: int) -> int:
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return int(best)


def cmd_bench(cfg: dict) -> int:
    rng = seeded_rng(cfg["seed"])
    c, d, a = cfg["channels"], cfg["proj_dim"], cfg["anchors"]
    proj = attention.init_projection(c, d, seed=cfg["seed"])
    rows = []
    with _thread_limit(cfg["single_thread"]):
        for m in cfg["m_values"]:
            tokens = TokenMatrix(rng.standard_normal((m, c)))
            anchors = rng.standard_normal((a, c))
            for mode in cfg["modes"]:
                if mode == "full":
                    fn = lambda: attention.full_attention(tokens, proj)
                elif mode == "anchor":
                    fn = lambda: attention.anchor_attention(tokens, anchors, proj)
                else:
                    raise ConfigError(f"unknown bench mode {mode!r}")
                wall_ns = _time_best(fn, cfg["repeats"])
                flops = attention.flop_count(m, a, c, d, mode)
                rows.append((mode, m, a, c, d, wall_ns, flops))
                print(f"bench mode={mode} M={m} wall_ns={wall_ns} flops={flops}")
    if cfg["out"]:
        with open(cfg["out"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mode", "M", "A", "c", "d", "wall_ns", "flops"])
            writer.writerows(rows)
    try:
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"peak_rss_kb={peak_kb} (best effort, platform dependent)", file=sys.stderr)
    except Exception:
        pass
    return EXIT_OK


def _build_predictor(cfg: dict) -> ddim.NoisePredictor:
    kind = cfg["predictor"]
    if kind == "zero":
        pred = ddim.ZeroPredictor()
    elif kind == "tonly":
        pred = ddim.TimeOnlyPredictor(seed=cfg["seed"])
    elif kind == "linear":
        pred = ddim.LinearPredictor(cfg["dim"], seed=cfg["seed"])
    else:
        raise ConfigError(f"unknown predictor {kind!r}")
    if cfg["guidance"] is not None:
        pred = ddim.GuidedPredictor(pred, ddim.GuidanceConfig(scale=cfg["guidance"]))
    return pred


def cmd_ddim(cfg: dict) -> int:
    sched = ddim.linear_beta_schedule(cfg["steps"])
    pred = _build_predictor(cfg)
    rng = seeded_rng(cfg["seed"])
    start = rng.standard_normal(cfg["dim"])
    upward = ddim.run_trajectory(start, sched, pred, "invert")
    downward = ddim.run_trajectory(upward[-1], sched, pred, "denoise")
    error = float(np.abs(downward[-1] - start).max())
    if cfg["dump"]:
        ddim.save_trajectory(cfg["dump"], upward)
    print(f"steps={cfg['steps']} predictor={cfg['predictor']} max_abs_error={error:.3e}")
    return EXIT_OK


def cmd_attend(cfg: dict) -> int:
    if not cfg["input"]:
        raise ConfigError("--input is required")
    tokens = load_tokens(cfg["input"])
    proj = attention.init_projection(tokens.num_channels, cfg["proj_dim"], seed=cfg["seed"])
    if cfg["mode"] == "full":
        out = attention.full_attention(tokens, proj)
    elif cfg["mode"] == "anchor":
        if not cfg["anchors_file"]:
            raise ConfigError("anchor mode needs --anchors-file")
        anchors = load_array(cfg["anchors_file"])
        out = attention.anchor_attention(tokens, anchors, proj)
    else:
        raise ConfigError(f"unknown mode {cfg['mode']!r}")
    if cfg["out"]:
        save_tokens(cfg["out"], out)
    print(f"attended {tokens.num_tokens} tokens -> {out.data.shape}")
    return EXIT_OK


COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "compress": cmd_compress,
    "bench": cmd_bench,
    "ddim": cmd_ddim,
    "attend": cmd_attend,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        resolved = resolve_options(args.command, args)
        _echo_config(args.command, resolved)
        return COMMANDS[args.command](resolved)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (AnchorKitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())
