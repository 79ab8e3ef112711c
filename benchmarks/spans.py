"""In-memory spans around calls into attnmine's public functions.

`Tracer.install` replaces each traced function in the module or class
where its caller looks it up (``train`` imports ``run_am`` by name, so
the ``train`` module's binding is the one replaced), and `restore` puts
every original back.  Spans are kept in a list and written out only
when the run ends.  The program is single-threaded, so spans nest
strictly and a span's self time is its duration minus its direct
children's durations.

A wrapper records only values it can read off the call's arguments and
result.  The sizes of the files a call wrote are looked up by `settle`,
once the iteration's timed stages have ended, so that no ``stat`` the
program never makes is charged to an open parent span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time

from attnmine import autodiff, cli, evalloc, mining, model, train

# (span name, whether it has enough calls to report p50_ms and tail_ms)
PIPELINE_SPANS = [
    ("cli.train", False),
    ("cli.mine", False),
    ("cli.eval", False),
    ("synthetic.load_dataset", False),
    ("autodiff.backward", True),
    ("autodiff.sgd_step", True),
    ("model.forward_features", True),
    ("model.classification_loss", True),
    ("model.checkpoint_io", False),
    ("kp.frozen_forward", True),
    ("kp.loss", True),
    ("train.train_baseline", False),
    ("train.am_finetune", False),
    ("train.masks_for_batch", True),
    ("train.mine_final_heatmaps", False),
    ("train.predict_logits", False),
    ("mining.run_am", True),
    ("mining.flood_fill.mining", True),
    ("mining.flood_fill.evalloc", True),
    ("mining.aggregate", True),
    ("mining.pgm_write", True),
    ("evalloc.extract_bboxes", True),
    ("evalloc.evaluate_report", False),
    ("evalloc.jsonl_io", False),
]
# spans that only set-up runs, reported per set-up
SETUP_SPANS = [
    ("synthetic.generate_dataset", False),
    ("synthetic.save_dataset", False),
]
NAME, START, END, PARENT, ITERATION, ATTRS = range(6)


def _tree_size(root):
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


def _forward_name(args):
    # the drift regularizer's snapshot is the only network whose
    # parameters carry no gradient
    net = args[0]
    frozen = not next(iter(net.params.values())).requires_grad
    return "kp.frozen_forward" if frozen else "model.forward_features"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, iteration, attrs]
        self.iteration = None
        self._open = []
        self._patches = []
        self._settled = 0

    def _begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.iteration, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index):
        self.spans[index][END] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _wrap(self, owner, attr, name, attrs=None):
        original = getattr(owner, attr)
        begin, end, spans = self._begin, self._end, self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = begin(name(args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                end(index)
            if attrs is not None:
                spans[index][ATTRS] = attrs(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self):
        w = self._wrap

        def run_attrs(args, run):
            return {"steps": run.steps_completed, "requested": args[2].num_steps}

        w(cli, "generate_dataset", "synthetic.generate_dataset")
        w(cli, "save_dataset", "synthetic.save_dataset", lambda a, r: {"tree": str(a[0])})
        w(cli, "load_dataset", "synthetic.load_dataset")
        w(model.Network, "forward_features", _forward_name)
        w(model.Network, "classification_loss", "model.classification_loss")
        w(cli, "save_checkpoint", "model.checkpoint_io")
        w(cli, "load_checkpoint", "model.checkpoint_io")
        w(autodiff.Tensor, "backward", "autodiff.backward")
        w(autodiff, "sgd_step", "autodiff.sgd_step")
        for fn in ("kp_layer_loss", "kp_total_loss", "combined_loss"):
            w(train, fn, "kp.loss")
        w(cli, "train_baseline", "train.train_baseline")
        w(cli, "am_finetune", "train.am_finetune")
        w(train, "masks_for_batch", "train.masks_for_batch",
          lambda a, r: {"samples": a[1].shape[0]})
        w(cli, "mine_final_heatmaps", "train.mine_final_heatmaps")
        w(cli, "predict_logits", "train.predict_logits")
        w(train, "run_am", "mining.run_am", run_attrs)
        w(cli, "run_am", "mining.run_am", lambda a, r: {**run_attrs(a, r), "caller": "cli"})
        w(mining, "flood_fill_component", "mining.flood_fill.mining")
        w(evalloc, "flood_fill_component", "mining.flood_fill.evalloc")
        w(train, "aggregate_final_heatmap", "mining.aggregate")
        w(cli, "write_heatmap_pgm", "mining.pgm_write",
          lambda a, r: {"files": [str(a[0]), f"{a[0]}.json"]})
        w(cli, "write_mask_pgm", "mining.pgm_write", lambda a, r: {"files": [str(a[0])]})
        w(cli, "extract_bboxes", "evalloc.extract_bboxes", lambda a, r: {"boxes": len(r[0])})
        w(cli, "evaluate_report", "evalloc.evaluate_report")
        for owner, fn in (
            (cli, "write_predictions"),
            (cli, "read_predictions"),
            (cli, "read_ground_truth"),
            (evalloc, "read_ground_truth"),  # looked up by synthetic.load_dataset
        ):
            w(owner, fn, "evalloc.jsonl_io")

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def settle(self):
        """Size the files that spans recorded since the last call.

        Call it after a traced iteration or set-up, before its outputs
        are deleted and outside any timed stage.
        """
        for s in self.spans[self._settled:]:
            attrs = s[ATTRS] or {}
            if "files" in attrs:
                attrs["bytes"] = sum(os.path.getsize(f) for f in attrs.pop("files"))
            elif "tree" in attrs:
                attrs["bytes"] = _tree_size(attrs.pop("tree"))
        self._settled = len(self.spans)

    def write(self, path):
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                       "parent": s[PARENT], "iteration": s[ITERATION], "attrs": s[ATTRS]}
                f.write(json.dumps(rec) + "\n")

    def by_iteration(self):
        """{iteration: [(span, self seconds), ...]} over every closed span."""
        self_s = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                self_s[s[PARENT]] -= s[END] - s[START]
        out = {}
        for s, t in zip(self.spans, self_s):
            out.setdefault(s[ITERATION], []).append((s, t))
        return out


def tail(samples):
    """(label, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 20:
        return f"max (n={n} < 20)", max(samples)
    per_mille = min(999, int(1000 * (1 - 10 / n)))
    cut = statistics.quantiles(samples, n=1000, method="inclusive")
    return f"p{per_mille / 10:g}", cut[per_mille - 1]


def layer_metrics(tracer, setups, iterations, am_denominator):
    """Per-layer metrics: name -> (value, detail) over set-ups or pipeline iterations.

    Counts and self times are per iteration (median over the traced
    iterations); p50 and tail pool every call of every traced iteration.
    """
    groups = tracer.by_iteration()
    metrics = {}

    def per_unit(units, fn):
        return statistics.median(fn(groups.get(u, [])) for u in units)

    def span_metrics(table, units, kind):
        for name, with_quantiles in table:
            metrics[f"{name}.self_s"] = (
                per_unit(units, lambda g: sum(t for s, t in g if s[NAME] == name)),
                f"median of {len(units)} {kind}",
            )
            calls = [sum(1 for s, _ in groups.get(u, []) if s[NAME] == name) for u in units]
            metrics[f"{name}.calls"] = (
                statistics.median(calls),
                f"per {kind[:-1]}" + ("" if len(set(calls)) == 1 else f", NOT REPEATED: {calls}"),
            )
            if not with_quantiles:
                continue
            ms = [
                (s[END] - s[START]) * 1e3
                for u in units for s, _ in groups.get(u, []) if s[NAME] == name
            ]
            if not ms:
                metrics[f"{name}.p50_ms"] = metrics[f"{name}.tail_ms"] = (0.0, "no calls")
                continue
            label, value = tail(ms)
            metrics[f"{name}.p50_ms"] = (statistics.median(ms), f"n={len(ms)} calls")
            metrics[f"{name}.tail_ms"] = (value, f"{label}, n={len(ms)} calls")

    span_metrics(SETUP_SPANS, setups, "set-ups")
    span_metrics(PIPELINE_SPANS, iterations, "iterations")

    def attr_sum(g, name, key):
        return sum(s[ATTRS][key] for s, _ in g if s[NAME] == name)

    metrics["synthetic.bytes_written"] = (
        per_unit(setups, lambda g: attr_sum(g, "synthetic.save_dataset", "bytes")), "per set-up")
    steps = per_unit(iterations, lambda g: attr_sum(g, "mining.run_am", "steps"))
    requested = per_unit(iterations, lambda g: attr_sum(g, "mining.run_am", "requested"))
    metrics["mining.steps_completed"] = (steps, "per iteration")
    metrics["mining.step_yield"] = (
        steps / requested if requested else 0.0, f"{steps} of {requested} steps requested")
    metrics["mining.pgm_write.bytes"] = (
        per_unit(iterations, lambda g: attr_sum(g, "mining.pgm_write", "bytes")), "per iteration")
    metrics["evalloc.boxes"] = (
        per_unit(iterations, lambda g: attr_sum(g, "evalloc.extract_bboxes", "boxes")),
        "per iteration")
    am = per_unit(iterations, lambda g: attr_sum(g, "train.masks_for_batch", "samples"))
    metrics["kp.am_share"] = (
        am / am_denominator if am_denominator else 0.0,
        f"{am} AM samples of {am_denominator} fine-tune samples")
    metrics["cli.mine.rerun_am.calls"] = (
        per_unit(iterations, lambda g: sum(
            1 for s, _ in g
            if s[NAME] == "mining.run_am" and s[ATTRS].get("caller") == "cli")),
        "per iteration")
    return metrics
