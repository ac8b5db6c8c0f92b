"""Command-line front end.

Subcommands: gen | train | compress | bench | ddim | attend. Every
tunable can come from three places, in override order: command-line flag,
config file (UTF-8 lines of ``key = value``), built-in default. Each
option's parser in ``OPTIONS`` holds its legal values, so a bad or missing
value exits 2 naming its flag, file key or ANCHOR_SEED, before any work,
as does an output path that is a directory or lies in a missing one.
The resolved configuration is echoed to stderr so any run can be replayed
from its log. Exit codes: 0 success, 2 usage or configuration error,
3 numerical failure during training.

All randomness is seeded; ``--seed`` falls back to the ANCHOR_SEED
environment variable, then 0. Repeating a command with the same seed
produces byte-identical artifact files.
"""

from __future__ import annotations

import argparse
import functools
import math
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
    _write_csv,
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


def _at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value
    return parse


def _finite(*, above: float = -math.inf, at_least: float = -math.inf) -> Callable[[str], float]:
    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {value}")
        if not value > above:
            raise ValueError(f"must be > {above:g}, got {value}")
        if value < at_least:
            raise ValueError(f"must be >= {at_least:g}, got {value}")
        return value
    return parse


def _one_of(choices) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"unknown choice {text!r}, expected one of {' | '.join(choices)}")
        return text
    return parse


def _list_of(item: Callable) -> Callable[[str], tuple]:
    def parse(text: str) -> tuple:
        values = tuple(item(s.strip()) for s in text.split(",") if s.strip())
        if not values:
            raise ValueError(f"must list at least one value, got {text!r}")
        return values
    return parse


# attention kernels by mode, called as (tokens, anchors, projection); looked up at call time
_KERNELS = {
    "full": lambda tokens, anchors, proj: attention.full_attention(tokens, proj),
    "anchor": lambda tokens, anchors, proj: attention.anchor_attention(tokens, anchors, proj),
}

# noise predictors by name, built as (dim, seed)
_PREDICTORS = {
    "zero": lambda dim, seed: ddim.ZeroPredictor(),
    "tonly": lambda dim, seed: ddim.TimeOnlyPredictor(seed=seed),
    "linear": lambda dim, seed: ddim.LinearPredictor(dim, seed=seed),
}


@dataclass(frozen=True)
class Opt:
    name: str
    conv: Callable
    default: object
    help: str
    is_flag: bool = False
    required: bool = False
    # an output option names the files it writes by these suffixes of its value
    writes: tuple[str, ...] = ()

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


_POSITIVE = _at_least(1)
_NON_NEGATIVE = _finite(at_least=0)
_COMMON_SEED = Opt("seed", _at_least(0), 0, "global RNG seed (env ANCHOR_SEED, then 0)")

OPTIONS: dict[str, list[Opt]] = {
    "gen": [
        Opt("mixture", _parse_bool, False, "generate a Gaussian token mixture", True),
        Opt("drift", _parse_bool, False, "generate a drifting-blob latent video", True),
        Opt("clusters", _POSITIVE, 8, "mixture: number of clusters"),
        Opt("dim", _POSITIVE, 16, "mixture: token channel count"),
        Opt("points", _POSITIVE, 128, "mixture: points per cluster"),
        Opt("center_scale", _NON_NEGATIVE, synth.MixtureSpec.center_scale,
            "mixture: uniform center range"),
        # stays 0.05 against MixtureSpec's 0.1: the CLI's artifacts and perfbench's
        # cli-pipeline follow this value, and its train-* workloads follow MixtureSpec's
        Opt("noise_sigma", _NON_NEGATIVE, 0.05, "mixture: point noise sigma"),
        Opt("frames", _POSITIVE, 4, "drift: frame count"),
        Opt("channels", _POSITIVE, 8, "drift: channel count"),
        Opt("height", _POSITIVE, 16, "drift: grid height"),
        Opt("width", _POSITIVE, 16, "drift: grid width"),
        Opt("objects", _at_least(0), 3, "drift: object count"),
        Opt("drift_per_frame", _finite(), synth.DriftVideoSpec.drift_per_frame,
            "drift: pixels moved per frame"),
        Opt("out", str, None, "output path prefix", required=True, writes=(".vlt", "_labels.csv")),
        _COMMON_SEED,
    ],
    "train": [
        Opt("input", str, None, "token matrix (.vlt) to train on", required=True),
        Opt("steps", _POSITIVE, 500, "optimization steps"),
        Opt("log_every", _POSITIVE, compressor.TrainConfig.log_every, "record every N steps"),
        Opt("anchors", _POSITIVE, AnchorConfig.n_anchors, "anchor count"),
        Opt("top_k", _POSITIVE, AnchorConfig.top_k, "contrastive positives per anchor"),
        Opt("temperature", _finite(above=0), AnchorConfig.temperature, "contrastive temperature"),
        Opt("lambda_vi", _NON_NEGATIVE, AnchorConfig.kl_weight,
            "regularizer weight (0 turns it off)"),
        Opt("prior", _one_of(PRIOR_MODES), AnchorConfig.prior_mode,
            f"one of {'|'.join(PRIOR_MODES)}"),
        Opt("lr", _finite(above=0), assignnet.AdamParams.learning_rate, "Adam learning rate"),
        Opt("hidden", _list_of(_POSITIVE), compressor.TrainConfig.hidden_dims,
            "hidden widths, comma separated"),
        Opt("subsample", _POSITIVE, None, "tokens sampled per step (default full batch)"),
        Opt("resume", str, None, "checkpoint to continue from"),
        Opt("checkpoint", str, None, "checkpoint output path", writes=("",)),
        Opt("report", str, None, "training report CSV output path", writes=("",)),
        _COMMON_SEED,
    ],
    "compress": [
        Opt("input", str, None, "token matrix (.vlt) to compress", required=True),
        Opt("checkpoint", str, None, "trained network checkpoint", required=True),
        Opt("out_r", str, None, "assignment matrix output (.vlt)", writes=("",)),
        Opt("out_c", str, None, "anchor matrix output (.vlt)", writes=("",)),
        _COMMON_SEED,
    ],
    "bench": [
        Opt("m_values", _list_of(_POSITIVE), (1024, 2048, 4096, 8192), "token counts to sweep"),
        Opt("anchors", _POSITIVE, 512, "anchor count for anchor mode"),
        Opt("channels", _POSITIVE, 64, "token channel count"),
        Opt("proj_dim", _POSITIVE, 64, "projected dimension"),
        Opt("modes", _list_of(_one_of(_KERNELS)), ("full", "anchor"), "kernels to time"),
        Opt("repeats", _POSITIVE, 3, "timings per point; best is kept"),
        Opt("out", str, None, "benchmark CSV output path", writes=("",)),
        _COMMON_SEED,
    ],
    "ddim": [
        Opt("steps", _POSITIVE, 50, "schedule length T"),
        Opt("predictor", _one_of(_PREDICTORS), "zero", " | ".join(_PREDICTORS)),
        Opt("dim", _POSITIVE, 64, "latent vector length"),
        Opt("guidance", _finite(), None, "wrap the predictor with this guidance scale"),
        Opt("dump", str, None, "directory for trajectory tensors"),
        _COMMON_SEED,
    ],
    "attend": [
        Opt("input", str, None, "token matrix (.vlt)", required=True),
        Opt("mode", _one_of(_KERNELS), "full", " | ".join(_KERNELS)),
        Opt("anchors_file", str, None, "anchor matrix (.vlt), required for anchor mode"),
        Opt("proj_dim", _POSITIVE, 64, "projected dimension"),
        Opt("out", str, None, "attention output (.vlt)", writes=("",)),
        _COMMON_SEED,
    ],
}


@functools.cache  # built once per process; each parse_args returns a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anchorkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="key = value config file")
        for opt in opts:
            if opt.is_flag:
                p.add_argument(opt.flag, dest=opt.name, action="store_const", const=True,
                               default=None, help=opt.help)
            else:
                p.add_argument(opt.flag, dest=opt.name, type=str, default=None, help=opt.help)
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
    """Merge flags over config-file values over defaults; name the source of a bad value."""
    opts = {o.name: o for o in OPTIONS[command]}
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(opts)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    env_seed = os.environ.get(SEED_ENV_VAR)
    resolved = {}
    for name, opt in opts.items():
        flag_value = getattr(args, name)
        source = opt.flag
        try:
            if flag_value is not None:
                value = flag_value if opt.is_flag else opt.conv(flag_value)
            elif name in file_values:
                source = f"{args.config} key {name}"
                value = opt.conv(file_values[name])
            elif name == "seed" and env_seed:
                source = SEED_ENV_VAR
                value = opt.conv(env_seed)
            else:
                value = opt.default
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from None
        resolved[name] = value
    for opt in opts.values():
        if opt.required and not resolved[opt.name]:
            raise ConfigError(f"{opt.flag} is required")
    return resolved


def _check_outputs(command: str, resolved: dict) -> None:
    """Refuse an output path that is a directory or whose directory is missing."""
    for opt in OPTIONS[command]:
        for suffix in opt.writes if resolved[opt.name] else ():
            path = Path(f"{resolved[opt.name]}{suffix}")
            if path.is_dir():
                raise ConfigError(f"{opt.flag}: {path} is a directory")
            if not path.parent.is_dir():
                raise ConfigError(f"{opt.flag}: no directory {path.parent}")


def _echo_config(command: str, resolved: dict) -> None:
    for key in sorted(resolved):
        print(f"config {command}.{key} = {resolved[key]}", file=sys.stderr)


def cmd_gen(cfg: dict) -> int:
    if cfg["mixture"] == cfg["drift"]:
        raise ConfigError("pass exactly one of --mixture / --drift")
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
        _write_csv(f"{prefix}_labels.csv", ["token", "label"],
                   ([m, int(label)] for m, label in enumerate(data.labels)))
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
        hidden_dims=cfg["hidden"],
        subsample=cfg["subsample"],
    )


def cmd_train(cfg: dict) -> int:
    train_cfg = _train_config(cfg)  # reject bad settings before reading any input
    tokens = load_tokens(cfg["input"])
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
    tokens = load_tokens(cfg["input"])
    net, _ = assignnet.load_checkpoint(cfg["checkpoint"])
    result = compressor.compress(tokens, net)
    if cfg["out_r"]:
        save_array(cfg["out_r"], result.assignments)
    if cfg["out_c"]:
        save_array(cfg["out_c"], result.anchors)
    entropy = compressor.anchor_usage_entropy(result.assignments)
    means = compressor.anchor_means(result)
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
    for _ in range(repeats):
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
    for m in cfg["m_values"]:
        tokens = TokenMatrix(rng.standard_normal((m, c)))
        anchors = rng.standard_normal((a, c))
        for mode in cfg["modes"]:
            kernel = _KERNELS[mode]
            wall_ns = _time_best(lambda: kernel(tokens, anchors, proj), cfg["repeats"])
            flops = attention.flop_count(m, a, c, d, mode)
            rows.append((mode, m, a, c, d, wall_ns, flops))
            print(f"bench mode={mode} M={m} wall_ns={wall_ns} flops={flops}")
    if cfg["out"]:
        _write_csv(cfg["out"], ["mode", "M", "A", "c", "d", "wall_ns", "flops"], rows)
    try:
        import resource
    except ImportError:  # no resource module off POSIX
        return EXIT_OK
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak_rss_kb={peak_kb} (best effort, platform dependent)", file=sys.stderr)
    return EXIT_OK


def cmd_ddim(cfg: dict) -> int:
    sched = ddim.linear_beta_schedule(cfg["steps"])
    pred = _PREDICTORS[cfg["predictor"]](cfg["dim"], cfg["seed"])
    if cfg["guidance"] is not None:
        pred = ddim.GuidedPredictor(pred, cfg["guidance"])
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
    if cfg["mode"] == "anchor" and not cfg["anchors_file"]:
        raise ConfigError("anchor mode needs --anchors-file")
    tokens = load_tokens(cfg["input"])
    anchors = load_array(cfg["anchors_file"]) if cfg["mode"] == "anchor" else None
    proj = attention.init_projection(tokens.num_channels, cfg["proj_dim"], seed=cfg["seed"])
    out = _KERNELS[cfg["mode"]](tokens, anchors, proj)
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
        _check_outputs(args.command, resolved)
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
