"""The benchmark's workloads: seeded inputs, one timed call, output checks.

Each workload is a closed loop with one client: the harness calls
``run`` again only after the previous call returned. ``setup`` makes the
inputs from the workload seed; the package only ever sees those inputs.
``outputs`` turns a result into arrays for the byte-identity check, and
``check`` validates one output against a naive oracle. Neither is timed.

Why these workloads (the benchmark records the same in BENCHMARK.json):

* ``train-a512`` -- a training step where the objective's similarity
  matrix and top-k masks dominate.
* ``train-a8`` -- the same data and network at A=8, where the objective
  is cheap and the MLP forward, backward and Adam dominate; an objective
  change should read "no change" here.
* ``infer-m8192`` -- compress (forward only, no backward) plus anchor
  attention over a spatiotemporal latent.
* ``full-m8192`` -- the quadratic full-attention baseline on the same
  latent, so the anchor speed-up is a ratio of two medians.
* ``cli-pipeline`` -- ``gen -> train -> compress -> attend -> ddim``
  through ``cli.main``, the only workload that reaches the k-means
  oracle, file I/O, checkpoints, the DDIM kernels and the CLI.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from anchorkit import assignnet, attention, cli, compressor, core, objective, synth

# rows of an attention output compared against the naive oracle
ORACLE_ROWS = 16


@dataclass
class State:
    inputs: tuple  # everything generated from the seed, for the seed test
    params: dict = field(default_factory=dict)
    workdir: Optional[Path] = None


def same_bytes(a: tuple, b: tuple) -> bool:
    """True when two output tuples are byte-for-byte identical."""
    if len(a) != len(b):
        return False
    return all(
        x.dtype == y.dtype and x.shape == y.shape
        and np.array_equal(x.reshape(-1).view(np.uint8), y.reshape(-1).view(np.uint8))
        for x, y in zip(a, b)
    )


def naive_attention_rows(queries_from, keys_from, proj, rows) -> np.ndarray:
    """Attention output for selected rows, one row at a time."""
    d = proj.w_query.shape[1]
    keys = keys_from @ proj.w_key
    values = keys_from @ proj.w_value
    out = []
    for i in rows:
        scores = keys @ (queries_from[i] @ proj.w_query) / np.sqrt(d)
        weights = np.exp(scores - scores.max())
        out.append((weights / weights.sum()) @ values)
    return np.array(out)


def _check_attention_rows(label, out, queries_from, keys_from, proj, seed) -> list[str]:
    rng = core.seeded_rng(seed)
    rows = np.sort(rng.choice(out.shape[0], size=min(ORACLE_ROWS, out.shape[0]), replace=False))
    expected = naive_attention_rows(queries_from, keys_from, proj, rows)
    if not np.allclose(out[rows], expected, rtol=1e-9, atol=1e-12):
        err = float(np.abs(out[rows] - expected).max())
        return [f"{label} differs from the naive oracle by {err:.3e}"]
    return []


class TrainWorkload:
    """``compressor.train`` of a fixed step count from one seed, full batch."""

    metric = "train_step_ms"

    def __init__(self, name, n_anchors, steps, warmup, clusters=8, points=512,
                 dim=16, hidden=(128, 128)):
        self.name = name
        self.n_anchors = n_anchors
        self.units = steps  # one timed call is this many training steps
        self.warmup = warmup
        self.spec = dict(n_clusters=clusters, dim=dim, points_per_cluster=points)
        self.hidden = tuple(hidden)

    def setup(self, seed: int, workdir: Path) -> State:
        data = synth.gaussian_mixture(synth.MixtureSpec(seed=seed, **self.spec))
        cfg = compressor.TrainConfig(
            steps=self.units,
            log_every=self.units,
            seed=seed,
            objective=objective.AnchorConfig(n_anchors=self.n_anchors),
            hidden_dims=self.hidden,
        )
        return State((data.tokens.data,), dict(tokens=data.tokens, cfg=cfg))

    def run(self, state: State):
        return compressor.train(state.params["tokens"], state.params["cfg"])

    def outputs(self, state: State, result) -> tuple:
        net, report = result
        losses = np.array([(r.total, r.contrastive, r.regularizer) for r in report.records])
        return tuple(a for l in net.layers for a in (l.weight, l.bias)) + (losses,)

    def check(self, state: State, outputs: tuple) -> list[str]:
        tokens = state.params["tokens"]
        widths = [tokens.num_channels, *self.hidden, self.n_anchors]
        shapes = [s for w0, w1 in zip(widths, widths[1:]) for s in ((w1, w0), (w1,))]
        problems = []
        if [a.shape for a in outputs[:-1]] != shapes:
            problems.append(f"network shapes {[a.shape for a in outputs[:-1]]} != {shapes}")
        if not all(np.isfinite(a).all() for a in outputs):
            problems.append("network or losses not finite")
        return problems

    def close(self, state: State) -> None:
        pass


def _latent_tokens(seed: int, frames: int, channels: int, side: int) -> core.TokenMatrix:
    spec = synth.DriftVideoSpec(frames, channels, side, side, n_objects=6, seed=seed)
    return core.flatten(synth.drift_video(spec))


class InferWorkload:
    """``compress`` with a seeded network, then ``anchor_attention``."""

    metric = "infer_ms"
    units = 1

    def __init__(self, name, frames=8, channels=64, side=32, n_anchors=512,
                 hidden=(128, 128), proj_dim=64, warmup=2):
        self.name = name
        self.shape = (frames, channels, side)
        self.n_anchors = n_anchors
        self.hidden = tuple(hidden)
        self.proj_dim = proj_dim
        self.warmup = warmup

    def setup(self, seed: int, workdir: Path) -> State:
        tokens = _latent_tokens(seed, *self.shape)
        c = tokens.num_channels
        net = assignnet.init_network(c, self.n_anchors, self.hidden, seed=seed)
        proj = attention.init_projection(c, self.proj_dim, seed=seed)
        return State((tokens.data,), dict(tokens=tokens, net=net, proj=proj, seed=seed))

    def run(self, state: State):
        p = state.params
        result = compressor.compress(p["tokens"], p["net"])
        return result, attention.anchor_attention(p["tokens"], result.anchors, p["proj"])

    def outputs(self, state: State, result) -> tuple:
        compressed, attended = result
        return compressed.assignments, compressed.anchors, attended.data

    def check(self, state: State, outputs: tuple) -> list[str]:
        r, anchors, out = outputs
        z = state.params["tokens"].data
        problems = []
        if r.min() < 0 or not np.allclose(r.sum(axis=0), 1.0, rtol=0, atol=1e-12):
            problems.append("assignments are not column-stochastic")
        if not np.allclose(anchors, r @ z, rtol=1e-12, atol=1e-12):
            problems.append("anchors differ from R @ Z")
        problems += _check_attention_rows(
            "anchor attention", out, z, anchors, state.params["proj"], state.params["seed"]
        )
        return problems

    def close(self, state: State) -> None:
        pass


class FullAttentionWorkload(InferWorkload):
    """``full_attention`` over the same latent as ``infer-m8192``."""

    metric = "full_attend_ms"

    def __init__(self, name, warmup=1, **kwargs):
        super().__init__(name, warmup=warmup, **kwargs)

    def setup(self, seed: int, workdir: Path) -> State:
        tokens = _latent_tokens(seed, *self.shape)
        proj = attention.init_projection(tokens.num_channels, self.proj_dim, seed=seed)
        return State((tokens.data,), dict(tokens=tokens, proj=proj, seed=seed))

    def run(self, state: State):
        return attention.full_attention(state.params["tokens"], state.params["proj"])

    def outputs(self, state: State, result) -> tuple:
        return (result.data,)

    def check(self, state: State, outputs: tuple) -> list[str]:
        z = state.params["tokens"].data
        return _check_attention_rows(
            "full attention", outputs[0], z, z, state.params["proj"], state.params["seed"]
        )


class PipelineError(RuntimeError):
    pass


class CliPipelineWorkload:
    """``gen -> train -> compress -> attend -> ddim`` through ``cli.main``.

    Every iteration writes into the same directory, so artifacts and
    captured output must repeat byte for byte.
    """

    metric = "pipeline_s"
    units = 1

    def __init__(self, name, clusters=8, dim=16, points=256, steps=5, n_anchors=64,
                 proj_dim=16, ddim_steps=50, ddim_dim=64, warmup=1):
        self.name = name
        self.sizes = dict(clusters=clusters, dim=dim, points=points, steps=steps,
                          anchors=n_anchors, proj_dim=proj_dim, ddim_steps=ddim_steps,
                          ddim_dim=ddim_dim)
        self.warmup = warmup

    def setup(self, seed: int, workdir: Path) -> State:
        d = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        s = self.sizes
        seed_arg = ["--seed", str(seed)]
        mix, ckpt = str(d / "mix"), str(d / "net.ckpt")
        argvs = (
            ["gen", "--mixture", "--clusters", str(s["clusters"]), "--dim", str(s["dim"]),
             "--points", str(s["points"]), "--out", mix, *seed_arg],
            ["train", "--input", mix + ".vlt", "--steps", str(s["steps"]), "--log-every", "5",
             "--anchors", str(s["anchors"]), "--checkpoint", ckpt,
             "--report", str(d / "report.csv"), *seed_arg],
            ["compress", "--input", mix + ".vlt", "--checkpoint", ckpt,
             "--out-r", str(d / "r.vlt"), "--out-c", str(d / "c.vlt"), *seed_arg],
            ["attend", "--input", mix + ".vlt", "--mode", "anchor",
             "--anchors-file", str(d / "c.vlt"), "--proj-dim", str(s["proj_dim"]),
             "--out", str(d / "attn.vlt"), *seed_arg],
            ["ddim", "--steps", str(s["ddim_steps"]), "--predictor", "linear",
             "--dim", str(s["ddim_dim"]), "--guidance", "2.0", "--dump", str(d / "traj"),
             *seed_arg],
        )
        return State(tuple(" ".join(a) for a in argvs), dict(argvs=argvs), d)

    def run(self, state: State):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            for argv in state.params["argvs"]:
                code = cli.main(list(argv))
                if code != cli.EXIT_OK:
                    raise PipelineError(f"`{argv[0]}` exited {code}: {captured.getvalue()[-500:]}")
        return captured.getvalue()

    def outputs(self, state: State, result) -> tuple:
        files = sorted(p for p in state.workdir.rglob("*") if p.is_file())
        blobs = [np.frombuffer(p.read_bytes(), dtype=np.uint8) for p in files]
        names = "\n".join(str(p.relative_to(state.workdir)) for p in files)
        return (np.frombuffer(names.encode(), dtype=np.uint8),
                np.frombuffer(result.encode(), dtype=np.uint8), *blobs)

    def check(self, state: State, outputs: tuple) -> list[str]:
        d = state.workdir
        z = core.load_tokens(d / "mix.vlt").data
        r = core.load_array(d / "r.vlt")
        anchors = core.load_array(d / "c.vlt")
        attended = core.load_tokens(d / "attn.vlt").data
        problems = []
        # artifacts store float32, so the tolerances are float32 ones
        if not np.allclose(r.sum(axis=0), 1.0, rtol=0, atol=1e-5):
            problems.append("stored assignments are not column-stochastic")
        if not np.allclose(anchors, r @ z, rtol=1e-4, atol=1e-4):
            problems.append("stored anchors differ from R @ Z")
        if attended.shape != (z.shape[0], self.sizes["proj_dim"]) or not np.isfinite(attended).all():
            problems.append(f"attention output has shape {attended.shape} or is not finite")
        n_states = len(list((d / "traj").glob("state_*.vlt")))
        if n_states != self.sizes["ddim_steps"] + 1:
            problems.append(f"ddim wrote {n_states} states")
        if "ratio=" not in bytes(outputs[1]).decode():
            problems.append("compress printed no oracle ratio")
        return problems

    def close(self, state: State) -> None:
        shutil.rmtree(state.workdir, ignore_errors=True)


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload("train-a512", n_anchors=512, steps=1, warmup=1),
        TrainWorkload("train-a8", n_anchors=8, steps=2, warmup=4),
        InferWorkload("infer-m8192"),
        FullAttentionWorkload("full-m8192"),
        CliPipelineWorkload("cli-pipeline"),
    )
}
