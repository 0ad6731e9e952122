"""Traced runs: spans around calls into each kgs module, recorded from
outside the program.

`Tracer.install` replaces a module-level function by a wrapper that records
a span, under the name the calling module imported it by (the renderer's
``predict_offsets_batch`` is ``kgs.renderer.predict_offsets_batch``). A
span keeps its name, start, end, parent span, the round and operation it
fell in, and the minor page faults taken while it ran. Spans stay in memory
until `write`. A function that a later version of the program no longer
has is skipped and listed in `missing`. Every metric is a number: a layer
that a workload does not call reads 0 (no time, no calls, no rows).
"""
from __future__ import annotations

import functools
import json
import resource
import time

import numpy as np

# (calling module, function, span name). Several functions may share a span
# name; their times add up.
WRAPS = [
    ("kgs.train", "render", "renderer.render"),
    ("kgs.renderer", "render", "renderer.render"),
    ("kgs.train", "render_backward", "renderer.render_backward"),
    ("kgs.renderer", "predict_offsets_batch", "deform.predict_offsets_batch"),
    ("kgs.renderer", "predict_offsets_backward", "deform.predict_offsets_backward"),
    ("kgs.renderer", "fine_offsets_batch", "deform.fine_offsets_batch"),
    ("kgs.renderer", "fine_offsets_backward", "deform.fine_offsets_backward"),
    ("kgs.renderer", "coarse_offsets_batch", "deform.coarse_offsets"),
    ("kgs.renderer", "coarse_offsets_backward", "deform.coarse_offsets"),
    ("kgs.deform", "build_neighbor_table", "deform.build_neighbor_table"),
    ("kgs.train", "build_neighbor_table", "deform.build_neighbor_table"),
    ("kgs.renderer", "kinematic_frames_cached", "kinematics.kinematic_frames_cached"),
    ("kgs.renderer", "kinematic_frames_backward", "kinematics.kinematic_frames_backward"),
    ("kgs.renderer", "quat_normalize", "gaussians.so3"),
    ("kgs.renderer", "quat_to_rotmat", "gaussians.so3"),
    ("kgs.renderer", "exp_map_so3", "gaussians.so3"),
    ("kgs.renderer", "dexp_map_so3", "gaussians.so3"),
    ("kgs.renderer", "drotmat_dquat", "gaussians.so3"),
    ("kgs.renderer", "covariance_from_matrix", "gaussians.so3"),
    ("kgs.train", "image_loss", "losses.image_loss"),
    ("kgs.train", "image_loss_backward", "losses.image_loss_backward"),
    ("kgs.train", "reg_loss", "losses.reg_ani"),
    ("kgs.train", "reg_loss_backward", "losses.reg_ani"),
    ("kgs.train", "ani_loss", "losses.reg_ani"),
    ("kgs.train", "ani_loss_backward", "losses.reg_ani"),
    ("kgs.train", "frame_loss_and_grads", "train.frame_loss_and_grads"),
    ("kgs.train", "apply_step", "train.apply_step"),
    ("kgs.train", "densify_and_prune", "train.densify_and_prune"),
    ("kgs.train", "recompute_partition", "train.recompute_partition"),
    ("kgs.train", "advance_scene_level", "train.advance_scene_level"),
    ("kgs.train", "rebuild_neighbors", "train.rebuild_neighbors"),
    ("kgs.train", "compute_scores", "decomposition.compute_scores"),
    ("kgs.train", "advance_level", "lod.advance_level"),
    ("kgs.train", "densify_candidates", "lod.densify_candidates"),
    ("kgs.train", "split_parameters", "lod.split_parameters"),
]

# Per-frame work: summed over the calls inside one operation, median over
# operations. (metric, span, field)
PER_OP = [
    ("renderer.render.self_ms", "renderer.render", "self_ms"),
    ("renderer.render.minflt", "renderer.render", "minflt"),
    ("renderer.render_backward.self_ms", "renderer.render_backward", "self_ms"),
    ("renderer.render_backward.minflt", "renderer.render_backward", "minflt"),
    ("deform.predict_offsets_batch.ms", "deform.predict_offsets_batch", "ms"),
    ("deform.predict_offsets_backward.ms", "deform.predict_offsets_backward", "ms"),
    ("deform.fine_offsets_batch.ms", "deform.fine_offsets_batch", "ms"),
    ("deform.fine_offsets_backward.ms", "deform.fine_offsets_backward", "ms"),
    ("deform.coarse_offsets.ms", "deform.coarse_offsets", "ms"),
    ("kinematics.kinematic_frames_cached.ms", "kinematics.kinematic_frames_cached", "ms"),
    ("kinematics.kinematic_frames_backward.ms", "kinematics.kinematic_frames_backward", "ms"),
    ("gaussians.so3.ms", "gaussians.so3", "ms"),
    ("losses.image_loss.ms", "losses.image_loss", "ms"),
    ("losses.image_loss_backward.ms", "losses.image_loss_backward", "ms"),
    ("losses.reg_ani.ms", "losses.reg_ani", "ms"),
    ("train.frame_loss_and_grads.ms", "train.frame_loss_and_grads", "ms"),
    ("train.apply_step.ms", "train.apply_step", "ms"),
]

# Work done on a schedule (at a few iterations, or once per set-up): summed
# over one round, median over rounds, since a per-call median would read the
# calls that do nothing.
PER_ROUND = [
    ("deform.build_neighbor_table.ms", "deform.build_neighbor_table", "ms"),
    ("deform.build_neighbor_table.calls", "deform.build_neighbor_table", "calls"),
    ("train.densify_and_prune.ms", "train.densify_and_prune", "ms"),
    ("train.densify_and_prune.events", "train.densify_and_prune", "events"),
    ("train.recompute_partition.ms", "train.recompute_partition", "ms"),
    ("train.advance_scene_level.ms", "train.advance_scene_level", "ms"),
    ("train.rebuild_neighbors.ms", "train.rebuild_neighbors", "ms"),
    ("decomposition.compute_scores.ms", "decomposition.compute_scores", "ms"),
    ("lod.advance_level.ms", "lod.advance_level", "ms"),
    ("lod.densify_candidates.ms", "lod.densify_candidates", "ms"),
    ("lod.split_parameters.ms", "lod.split_parameters", "ms"),
]

# Counts read from a call's result: median over the calls inside operations.
PER_CALL = [
    ("renderer.pairs", "renderer.render", "pairs"),
    ("renderer.touched", "renderer.render", "touched"),
    ("deform.rows", "deform.predict_offsets_batch", "rows"),
    ("kinematics.refined_rows", "kinematics.kinematic_frames_cached", "rows"),
]

UNITS = {"ms": "ms", "self_ms": "ms", "minflt": "count", "calls": "count",
         "events": "count", "pairs": "count", "touched": "count", "rows": "count"}


def _faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _tape_counts(result):
    """Pixel x splat pairs and touched splats of one frame, from the tape's
    per-tile splat lists."""
    if not (isinstance(result, tuple) and len(result) == 2):
        return {}
    tape = result[1]
    try:
        tiles, cam, tile = tape.tiles, tape.cam, tape.settings.tile
        ntx = (cam.width + tile - 1) // tile
        pairs = 0
        for tid, idx in enumerate(tiles):
            ty, tx = divmod(tid, ntx)
            w = min(tile, cam.width - tx * tile)
            h = min(tile, cam.height - ty * tile)
            pairs += w * h * len(idx)
        return {"pairs": pairs, "touched": int(np.count_nonzero(tape.touched))}
    except AttributeError:
        return {}


def _rows(result):
    try:
        return {"rows": int(result[0].shape[0])}
    except (TypeError, AttributeError, IndexError):
        return {}


COUNTERS = {"renderer.render": _tape_counts, "deform.predict_offsets_batch": _rows,
            "kinematics.kinematic_frames_cached": _rows,
            "train.densify_and_prune": lambda result: {"events": int(bool(result))}}


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []       # dicts, appended when a span closes
        self.stack = []
        self.ops = []         # per operation: round, start, end, rusage deltas
        self.round = None     # index of the current round, None outside rounds
        self.op = None        # index of the open operation, None between them
        self.missing = []
        self._op_start = None
        self._ids = 0

    # -- installation ------------------------------------------------------

    def install(self):
        import importlib
        for module_name, attr, span in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, span, COUNTERS.get(span)))

    def _wrap(self, fn, span, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if counter is not None:
                rec["counts"] = counter(result)
            return result
        return traced

    def _open(self, name):
        self._ids += 1
        rec = {"id": self._ids, "name": name,
               "parent": self.stack[-1]["id"] if self.stack else None,
               "round": self.round, "op": self.op, "flt0": _faults(),
               "start": time.perf_counter(), "child_s": 0.0}
        self.stack.append(rec)
        return rec

    def _close(self, rec):
        rec["end"] = time.perf_counter()
        rec["minflt"] = _faults() - rec.pop("flt0")
        self.stack.pop()
        if self.stack:
            self.stack[-1]["child_s"] += rec["end"] - rec["start"]
        self.spans.append(rec)

    # -- operations --------------------------------------------------------

    def begin_op(self):
        ru = resource.getrusage(resource.RUSAGE_SELF)
        self._op_start = (time.perf_counter(), ru)
        self.op = len(self.ops)

    def end_op(self):
        start, ru0 = self._op_start
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        self.ops.append({
            "round": self.round, "start": start, "end": time.perf_counter(),
            "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
            "sys_s": ru1.ru_stime - ru0.ru_stime,
            "minflt": ru1.ru_minflt - ru0.ru_minflt})
        self.op = None

    def abandon_op(self):
        """Drop an operation opened after the last one that ran."""
        self.op = None

    # -- results -----------------------------------------------------------

    def metrics(self, extra):
        """Per-layer metrics; `extra` holds the ones the workload reports
        itself. A span with no calls inside operations reads 0."""
        out = {}
        n_ops = len(self.ops)
        rounds = sorted({op["round"] for op in self.ops})
        by_name = {}
        for s in self.spans:
            by_name.setdefault(s["name"], []).append(s)

        def value(s, field):
            if field == "ms":
                return 1e3 * (s["end"] - s["start"])
            if field == "self_ms":
                return 1e3 * (s["end"] - s["start"] - s["child_s"])
            if field == "minflt":
                return s["minflt"]
            if field == "calls":
                return 1
            return s.get("counts", {}).get(field)

        for metric, span, field in PER_OP:
            calls = [s for s in by_name.get(span, []) if s["op"] is not None]
            per_op = np.zeros(n_ops)
            for s in calls:
                per_op[s["op"]] += value(s, field)
            out[metric] = float(np.median(per_op))
        for metric, span, field in PER_ROUND:
            calls = [s for s in by_name.get(span, []) if s["round"] is not None]
            per_round = {r: 0.0 for r in rounds}
            for s in calls:
                v = value(s, field)
                per_round[s["round"]] = per_round.get(s["round"], 0.0) + (v or 0)
            out[metric] = float(np.median(list(per_round.values())))
        for metric, span, field in PER_CALL:
            vals = [value(s, field) for s in by_name.get(span, []) if s["op"] is not None]
            vals = [v for v in vals if v is not None]
            out[metric] = float(np.median(vals)) if vals else 0.0
        for field in ("cpu_s", "sys_s", "minflt"):
            out[f"process.{field}"] = float(np.median([op[field] for op in self.ops]))
        out.update(extra)
        return out

    def write(self, path, meta):
        spans = [{"id": s["id"], "name": s["name"], "parent": s["parent"],
                  "round": s["round"], "op": s["op"],
                  "start_s": s["start"] - self.t0, "end_s": s["end"] - self.t0,
                  "self_s": s["end"] - s["start"] - s["child_s"],
                  "minflt": s["minflt"], **s.get("counts", {})}
                 for s in sorted(self.spans, key=lambda s: s["id"])]
        ops = [{**op, "start": op["start"] - self.t0, "end": op["end"] - self.t0}
               for op in self.ops]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "missing": self.missing, "ops": ops,
                       "spans": spans}, fh)


def layer_units():
    """Every per-layer metric with its unit, in report order."""
    units = {m: UNITS[f] for m, _, f in PER_OP + PER_ROUND + PER_CALL}
    units.update({"process.cpu_s": "s", "process.sys_s": "s", "process.minflt": "count",
                  "train.n_gaussians_final": "count", "train.iters_to_psnr": "count"})
    return units
