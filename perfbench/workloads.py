"""The two workloads: their inputs, their program set-up, their timed
operations and the checks on the program's outputs.

Inputs (`make_inputs`) are built from the seed by the benchmark's own code
and need only numpy and ``reference``. Everything else drives ``kgs``
through its public API: the config is built from dotted keys with
``config_from_dict``, training goes through ``train_loop`` and its
``on_checkpoint`` hook, rendering through ``render``.
"""
from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

import reference as ref

SIZE_TRAIN = 48           # blur_train image side, px
FRAMES = 8                # frames in the clip, t_j = (j + 0.5) / FRAMES
EXPOSURE_SAMPLES = 8      # sharp renders averaged into one blurred target
ITERATIONS = 40           # the fixed training budget of one round

SIZE_EVAL = 96            # eval_sweep image side, px
EVAL_SPLATS = 6000
EVAL_DYNAMIC_SHARE = 0.4
SWEEP_TIMES = 8           # eval frames in one sweep, t_i = (i + 0.5) / SWEEP_TIMES

# blur_train passes when the final holdout PSNR beats the initial scene's by
# this much; time_to_psnr_s times the climb to initial + PSNR_TARGET_GAIN_DB.
PSNR_MARGIN_DB = 1.0
PSNR_TARGET_GAIN_DB = 6.0
# Central differences along one unit direction per parameter group pass when
# |fd - analytic| <= FD_RTOL * max(|fd|, |analytic|) + FD_ATOL. The objective
# is only piecewise smooth: it jumps by about 1e-10 where a pixel leaves a
# splat's footprint, where transmittance crosses its cutoff, and where a
# splat's speed crosses kin.velocity_floor (1e-6). At the start every speed is
# 0, and a step of 1e-6 along the output heads switches refinement on, so the
# steps are small. A central difference that straddles a jump is retried
# with forward and backward differences at FD_STEP_RETRY; one of them then
# lies on the smooth side.
FD_STEP = 1e-8
FD_STEP_RETRY = 1e-9
FD_RTOL = 1e-4
FD_ATOL = 1e-7
# Largest |kgs eval frame - reference frame| per pixel channel.
EVAL_REF_TOL = 1e-9


def blur_config():
    """Dotted config keys of blur_train: short schedules, so that densify,
    prune, partition evaluation, LOD advance and neighbour refresh all fire
    inside the 40-iteration budget. The program's own seed (its random
    start and its noise) is fixed: the benchmark's seed varies the clip."""
    return {
        "seed": 0, "iterations": ITERATIONS, "batch": 1,
        "decomp.warmup": 12, "decomp.repeat": 12, "decomp.samples": 8,
        # the default tau (2e-5) is above every score this short a run
        # reaches, which would leave no dynamic splat after iteration 12
        "decomp.tau": 2e-6,
        "cf.refresh": 10, "field.hidden": 32, "lod.l_max": 3,
        "densify.start": 10, "densify.interval": 5, "densify.end": 15,
        "densify.grad_threshold": 3e-3, "densify.max_gaussians": 1000,
        "densify.reset_iteration": 10 ** 9,
        "init.count": 400, "init.bound": 1.0, "init.scale": 0.08,
        "init.opacity": 0.1,
        "noise.sigma_init": 0.05, "noise.k_delay": 5,
        "lr.position": 5e-3, "lr.position_final": 2e-4, "lr.scale": 0.002,
        "lr.opacity": 0.1, "lr.color": 0.05, "lr.field": 4e-4, "lr.field_final": 1e-5,
        "eval.holdout_every": 4,
    }


def eval_config():
    return {"seed": 0, "field.hidden": 32, "lod.l_max": 3,
            "render.background": [0.1, 0.1, 0.1]}


def camera(size):
    from kgs.gaussians import Camera
    f = 1.7 * size
    return Camera.look_at([0.0, 0.0, -3.0], [0.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                          f, f, size / 2, size / 2, size, size)


def frame_times():
    return (np.arange(FRAMES) + 0.5) / FRAMES


def holdout_frames(holdout_every):
    return [j for j in range(FRAMES) if j % holdout_every == holdout_every // 2]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_inputs(workload, seed):
    """Arrays the workload consumes, as a dict for np.savez."""
    rng = np.random.default_rng([seed, 0 if workload == "blur_train" else 1])
    if workload == "blur_train":
        return _blur_inputs(rng)
    return _eval_inputs(rng)


def _blur_inputs(rng):
    oracle = ref.make_oracle(rng)
    cam = camera(SIZE_TRAIN)
    bg = np.zeros(3)                 # blur_train keeps the default black background
    times = frame_times()
    hold = holdout_frames(blur_config()["eval.holdout_every"])
    blurred = np.stack([ref.blurred_frame(oracle, cam, t, 1.0 / FRAMES,
                                          EXPOSURE_SAMPLES, bg) for t in times])
    sharp = np.stack([ref.render(ref.oracle_splats(oracle, t), cam, bg)
                      for t in times])
    out = {"blurred": blurred, "sharp": sharp, "holdout": np.array(hold)}
    out.update({f"oracle_{k}": v for k, v in oracle.items()})
    return out


def _eval_inputs(rng):
    n = EVAL_SPLATS
    positions = np.column_stack([rng.uniform(-1.1, 1.1, n), rng.uniform(-1.1, 1.1, n),
                                 rng.uniform(-0.6, 0.9, n)])
    return {
        "positions": positions,
        "quaternions": rng.normal(size=(n, 4)),
        "log_scales": np.log(rng.uniform(0.03, 0.09, (n, 3))),
        "opacity_logits": rng.uniform(1.5, 4.0, n),
        "colors": rng.uniform(0.0, 1.0, (n, 3)),
        "levels": rng.integers(1, 4, n),
        "dynamic": rng.uniform(size=n) < EVAL_DYNAMIC_SHARE,
        "field_seed": rng.integers(2 ** 31),
    }


def oracle_from_inputs(inputs):
    return {k[len("oracle_"):]: inputs[k] for k in inputs if k.startswith("oracle_")}


# ---------------------------------------------------------------------------
# blur_train
# ---------------------------------------------------------------------------

class BlurClip:
    """The dataset train_loop consumes: blurred train frames plus the
    frame interval that sets the exposure."""

    def __init__(self, inputs):
        self.cam = camera(SIZE_TRAIN)
        self.times = frame_times()
        self.holdout = [int(j) for j in inputs["holdout"]]
        self.train = [j for j in range(FRAMES) if j not in self.holdout]
        self.blurred = inputs["blurred"]
        self.sharp = inputs["sharp"]

    def train_frames(self):
        return [(self.cam, self.blurred[j], self.times[j]) for j in self.train]

    def frame_interval(self):
        return 1.0 / FRAMES


class BlurTrain:
    """Training from a random low-opacity start on the blur oracle. One
    operation is one training iteration; one round is the whole budget."""

    def __init__(self, seed, inputs):
        import kgs.train as kt
        from kgs.config import config_from_dict
        self.kt = kt
        self.seed = seed
        self.inputs = inputs
        self.cfg = config_from_dict(blur_config())
        self.settings = self.cfg.render_settings()
        self.weights = self.cfg.loss_weights()
        self.clip = BlurClip(inputs)
        self.state = self.initial_state()
        self.rounds = []          # per round: op seconds, logged losses, final splat count
        self.psnr_curve = None    # (iteration, holdout psnr) from 0 to the target
        self.initial_psnr = None

    def initial_state(self):
        from kgs.decomposition import all_dynamic_partition
        from kgs.deform import build_neighbor_table, init_field_params
        from kgs.scene import random_scene
        cfg = self.cfg
        rng = np.random.default_rng([cfg.seed, 2])
        scene = random_scene(rng, cfg.init_count, cfg.init_bound, cfg.init_scale,
                             cfg.init_opacity)
        fieldp = init_field_params(rng, scene.n, cfg.hidden, cfg.time_bands,
                                   cfg.pos_bands, cfg.feature_dim)
        return self.kt.TrainState(
            scene=scene, fieldp=fieldp, partition=all_dynamic_partition(scene.n),
            neighbor_table=build_neighbor_table(scene.positions, cfg.k_neighbors),
            adam=self.kt.make_adam(scene, fieldp), rng=np.random.default_rng([cfg.seed, 3]))

    def holdout_psnr(self, state):
        from kgs.losses import psnr
        from kgs.renderer import render
        vals = []
        for j in self.clip.holdout:
            frame = render(state.scene, state.partition, state.fieldp, self.clip.cam,
                           self.clip.times[j], self.settings, mode="eval",
                           neighbor_table=state.neighbor_table)
            vals.append(psnr(frame.image, self.clip.sharp[j]))
        return float(np.mean(vals))

    def run_round(self, tracer=None):
        """Train the whole budget once; returns the wall time of each
        iteration, measured from outside through on_checkpoint."""
        state = self.state if self.state is not None else self.initial_state()
        self.state = None
        if self.initial_psnr is None:
            self.initial_psnr = self.holdout_psnr(state)
        cfg = self.cfg
        op_s, log_rows = [], []
        target = self.initial_psnr + PSNR_TARGET_GAIN_DB
        curve = [(0, self.initial_psnr)] if self.psnr_curve is None else None
        mark = [0.0]

        def on_checkpoint(st):
            op_s.append(time.perf_counter() - mark[0])
            if tracer:
                tracer.end_op()
            # holdout evaluation stays off the training clock
            if curve is not None and curve[-1][1] < target:
                curve.append((st.iteration, self.holdout_psnr(st)))
            if tracer:
                tracer.begin_op()
            mark[0] = time.perf_counter()

        if tracer:
            tracer.begin_op()
        mark[0] = time.perf_counter()
        self.kt.train_loop(state, self.clip, cfg, self.settings, self.weights,
                           cfg.densify(), cfg.noise_schedule(), log_rows,
                           on_checkpoint=on_checkpoint)
        if tracer:
            tracer.abandon_op()
        if curve is not None:
            self.psnr_curve = curve
        self.rounds.append({"op_s": op_s, "losses": [r["loss"] for r in log_rows],
                            "n_final": state.scene.n})
        self.final_state = state
        return op_s

    def iters_to_psnr(self):
        target = self.initial_psnr + PSNR_TARGET_GAIN_DB
        for k, p in self.psnr_curve:
            if p >= target:
                return k
        return None

    def time_to_psnr(self, op_s):
        """Training time until the holdout PSNR reaches the target, with the
        crossing placed inside its iteration by linear interpolation."""
        k = self.iters_to_psnr()
        (_, before), (_, after) = self.psnr_curve[k - 1], self.psnr_curve[k]
        frac = (self.initial_psnr + PSNR_TARGET_GAIN_DB - before) / (after - before)
        return sum(op_s[:k - 1]) + frac * op_s[k - 1]

    def end_metrics(self):
        # A run that never reaches the target fails its check; it then
        # reports the whole budget, a lower bound on the time to the target.
        if self.iters_to_psnr():
            ttp = float(np.median([self.time_to_psnr(r["op_s"]) for r in self.rounds]))
        else:
            ttp = float(np.median([sum(r["op_s"]) for r in self.rounds]))
        return {"time_to_psnr_s": ttp,
                "holdout_psnr_db": self.final_psnr}

    def layer_metrics(self):
        return {"train.n_gaussians_final": float(np.median([r["n_final"] for r in self.rounds])),
                "train.iters_to_psnr": float(self.iters_to_psnr() or ITERATIONS)}

    def check(self):
        """Checks on the program's outputs; returns a list of failures."""
        problems = []
        self.final_psnr = self.holdout_psnr(self.final_state)
        # targets are the mean of the reference compositor's sharp renders
        oracle = oracle_from_inputs(self.inputs)
        j = self.clip.train[0]
        again = ref.blurred_frame(oracle, self.clip.cam, self.clip.times[j],
                                  1.0 / FRAMES, EXPOSURE_SAMPLES, np.zeros(3))
        if not np.array_equal(again, self.clip.blurred[j]):
            problems.append("blurred target differs from the mean of sharp renders")
        for i, r in enumerate(self.rounds):
            if len(r["losses"]) != ITERATIONS or not np.all(np.isfinite(r["losses"])):
                problems.append(f"round {i}: missing or non-finite logged loss")
            if r["losses"] != self.rounds[0]["losses"]:
                problems.append(f"round {i}: loss trajectory differs from round 0")
        if not self.final_psnr >= self.initial_psnr + PSNR_MARGIN_DB:
            problems.append(f"holdout PSNR {self.final_psnr:.3f} dB does not beat the "
                            f"initial {self.initial_psnr:.3f} dB by {PSNR_MARGIN_DB} dB")
        if self.iters_to_psnr() is None:
            problems.append("holdout PSNR never reached the time_to_psnr target")
        for label, state in (("start", self.initial_state()), ("end", self.final_state)):
            problems += [f"{label}: {p}" for p in self.gradient_check(state)]
        return problems

    def gradient_check(self, state):
        """Central-difference directional derivative of the full objective
        against the analytic gradient, one direction per parameter group, at
        a noise-free train frame."""
        kt = self.kt
        cam, target, t = self.clip.train_frames()[0]
        dt = self.clip.frame_interval()

        def objective(st):
            terms, grads, _ = kt.frame_loss_and_grads(st, cam, target, t, dt, 0.0,
                                                      self.settings, self.weights)
            return terms["loss"], grads

        _, grads = objective(state)
        rng = np.random.default_rng([self.seed, 4])
        problems = []
        for name, g in grads.scene_items() + grads.field_items():
            r = rng.normal(size=g.shape)
            d = r / np.linalg.norm(r)
            gn = np.linalg.norm(g)
            if gn > 0:
                d = d + g / gn
                d /= np.linalg.norm(d)
            analytic = float(np.sum(g * d))

            def at(step):
                return objective(_perturbed(state, name, step * d))[0]

            fd = [(at(FD_STEP) - at(-FD_STEP)) / (2.0 * FD_STEP)]
            if not _agrees(fd[0], analytic):
                f0, h = objective(state)[0], FD_STEP_RETRY
                fd += [(at(h) - f0) / h, (f0 - at(-h)) / h]
            if not any(_agrees(x, analytic) for x in fd):
                problems.append(f"gradient of {name}: differences {fd} vs analytic "
                                f"{analytic:.9g}")
        return problems


def _agrees(fd, analytic):
    return abs(fd - analytic) <= FD_RTOL * max(abs(fd), abs(analytic)) + FD_ATOL


def _perturbed(state, name, delta):
    """A shallow copy of the train state with one parameter array moved."""
    scene, fieldp = replace(state.scene), replace(state.fieldp)
    holder = scene if name in scene.per_gaussian_arrays() else fieldp
    setattr(holder, name, getattr(holder, name) + delta)
    return replace(state, scene=scene, fieldp=fieldp)


# ---------------------------------------------------------------------------
# eval_sweep
# ---------------------------------------------------------------------------

class EvalSweep:
    """Eval-mode renders of a fixed scene across a sweep of times. One
    operation is one frame; one round is one sweep."""

    def __init__(self, seed, inputs):
        from kgs.config import config_from_dict
        self.seed = seed
        self.inputs = inputs
        self.cfg = config_from_dict(eval_config())
        self.settings = self.cfg.render_settings()
        self.cam = camera(SIZE_EVAL)
        self.times = (np.arange(SWEEP_TIMES) + 0.5) / SWEEP_TIMES
        self.rounds = []
        self.frames = []
        self.program = self.build()

    def build(self):
        """Scene, field, partition and neighbour table as the program holds
        them; rebuilt for every round."""
        from kgs.decomposition import classify
        from kgs.deform import build_neighbor_table, init_field_params
        from kgs.scene import make_scene
        cfg, x = self.cfg, self.inputs
        scene = make_scene(x["positions"], x["quaternions"], x["log_scales"],
                           x["opacity_logits"], x["colors"], x["levels"])
        rng = np.random.default_rng(int(x["field_seed"]))
        fieldp = init_field_params(rng, scene.n, cfg.hidden, cfg.time_bands,
                                   cfg.pos_bands, cfg.feature_dim)
        for head in (fieldp.w2, fieldp.b2, fieldp.fine_w2, fieldp.fine_b2):
            head[...] = rng.normal(0.0, 0.02, head.shape)
        fieldp.features[...] = rng.normal(0.0, 0.5, fieldp.features.shape)
        partition = classify(x["dynamic"].astype(float), 0.5)
        table = build_neighbor_table(scene.positions[partition.dynamic_indices],
                                     cfg.k_neighbors)
        return scene, partition, fieldp, table

    def render(self, program, t):
        """One eval frame. The tape is asked for so that a traced run can
        count pairs from its tile lists; it holds what the forward pass
        computes anyway."""
        from kgs.renderer import render
        scene, partition, fieldp, table = program
        frame, _ = render(scene, partition, fieldp, self.cam, t, self.settings,
                          mode="eval", neighbor_table=table, want_tape=True)
        return frame

    def run_round(self, tracer=None):
        program = self.program if self.program is not None else self.build()
        self.program = None
        op_s, images = [], []
        for t in self.times:
            if tracer:
                tracer.begin_op()
            t0 = time.perf_counter()
            frame = self.render(program, t)
            op_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_op()
            images.append(frame.image)
        self.rounds.append({"op_s": op_s})
        self.frames.append(images)
        self.last_program = program
        return op_s

    def end_metrics(self):
        """Every eval frame is at its final quality, so the time to reach
        it is the time to the first frame of a sweep; the holdout images
        are the reference compositor's renders of the canonical splats."""
        return {"time_to_psnr_s": float(np.median([r["op_s"][0] for r in self.rounds])),
                "holdout_psnr_db": self.reference_psnr}

    def layer_metrics(self):
        """The scene's splat count, and no training: every frame is at its
        final quality from the first iteration on."""
        return {"train.n_gaussians_final": float(self.last_program[0].n),
                "train.iters_to_psnr": 0.0}

    def check(self):
        problems = []
        for i, images in enumerate(self.frames):
            if not all(np.all(np.isfinite(im)) for im in images):
                problems.append(f"sweep {i}: non-finite frame")
        again = self.render(self.last_program, self.times[0]).image
        if not np.array_equal(again, self.frames[0][0]):
            problems.append("re-rendering the first frame is not bit-identical")
        err, self.reference_psnr = self.reference_error()
        if not err <= EVAL_REF_TOL:
            problems.append(f"eval frame with zeroed heads differs from the reference "
                            f"compositor by {err:.3g}")
        return problems

    def reference_error(self):
        """Zero the field's output heads and move every splat to the finest
        level: the eval frame must then be the canonical splats, projected
        and composited by the benchmark's own code."""
        scene, partition, fieldp, table = self.build()
        for head in (fieldp.w2, fieldp.b2, fieldp.fine_w2, fieldp.fine_b2):
            head[...] = 0.0
        scene.levels[:] = self.cfg.lod_l_max
        image = self.render((scene, partition, fieldp, table), 0.3).image
        splats = {"positions": scene.positions, "quats": scene.quaternions,
                  "scales": np.exp(scene.log_scales),
                  "opacities": 1.0 / (1.0 + np.exp(-scene.opacity_logits)),
                  "colors": scene.colors}
        from kgs.losses import psnr
        want = ref.render(splats, self.cam, np.asarray(self.cfg.background))
        return float(np.max(np.abs(image - want))), psnr(image, want)


WORKLOADS = {"blur_train": BlurTrain, "eval_sweep": EvalSweep}
