"""In-memory span tracer that wraps the public functions of ``mra_sync``.

Spans are recorded from the benchmark's side of each call: the library is
not modified, its functions are replaced for the duration of a traced run
and restored afterwards. Every alias a caller imported is patched too, so
``mra_sync.sync.procrustes_project`` is traced as well as
``mra_sync.procrustes.procrustes_project``.

A span records its name, start, end, parent span, the instance it belongs
to and the estimator method of the enclosing ``run_grid`` call (spans
outside ``run_grid`` carry no method). Self time is a span's duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name). The span name is "<layer>.<function>".
FUNCTIONS = (
    ("mra_sync.model", "build_row_covariance", "model.build_row_covariance"),
    ("mra_sync.model", "sample_channel", "model.sample_channel"),
    ("mra_sync.model", "sample_pose_set", "model.sample_pose_set"),
    ("mra_sync.model", "apply_precoding", "model.apply_precoding"),
    ("mra_sync.model", "observe", "model.observe"),
    ("mra_sync.model", "split_triplet_tiles", "model.split_triplet_tiles"),
    ("mra_sync.procrustes", "procrustes_project", "procrustes.project"),
    ("mra_sync.graph", "lattice_edges", "graph.lattice_edges"),
    ("mra_sync.graph", "build_triplet_tiling", "graph.build_triplet_tiling"),
    ("mra_sync.sync", "run_grid", "sync.run_grid"),
    ("mra_sync.sync", "estimate_pair", "sync.estimate_pair"),
    ("mra_sync.sync", "estimate_triplet_direct", "sync.estimate_triplet_direct"),
    ("mra_sync.sync", "negated_noisy_inverse", "sync.negated_noisy_inverse"),
    ("mra_sync.sync", "residual_noise_sigma", "sync.residual_noise_sigma"),
    ("mra_sync.sync", "denoise_given_poses", "sync.denoise_given_poses"),
    ("mra_sync.oracle", "ideal_sync_mse_db", "oracle.ideal_sync_mse_db"),
    ("mra_sync.oracle", "single_channel_mse_db", "oracle.single_channel_mse_db"),
    ("mra_sync.experiment", "emit_csv", "experiment.emit_csv"),
    ("mra_sync.experiment", "emit_summary", "experiment.emit_summary"),
)

# (module, class, method, span name) for methods traced as spans.
METHODS = (("mra_sync.model", "RowCovariance", "submatrix", "model.submatrix"),)

ROTATION_VALIDATIONS = "procrustes.rotation_validations"
DEGENERATE_PROJECTIONS = "procrustes.project.degenerate"
TRIPLET_ESTIMATES = "sync.triplet.estimates"
TRIPLET_SWEEPS = "sync.triplet.sweeps"
TRIPLET_CONVERGED = "sync.triplet.converged"


class Tracer:
    """Collects spans and counters in memory.

    ``instance`` is set by the caller to the id of the problem instance
    being worked on; spans and counts opened meanwhile carry it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.instance = -1
        # One row per span: [name, start, end, parent index, instance, method].
        self.spans = []
        # (counter name, method) -> count
        self.counts = Counter()
        self._stack = []

    def _method(self):
        return self.spans[self._stack[-1]][5] if self._stack else None

    def open(self, name, method=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, self.clock(), None, parent, self.instance, method or self._method()]
        )
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {index} closed while span {top} is open")
        self.spans[index][2] = self.clock()

    def count(self, name, amount=1):
        self.counts[(name, self._method())] += amount

    def self_times(self):
        """Self time of every span: its duration minus what its children cover."""
        children = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(index)
        out = []
        for index, (_, start, end, *_rest) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for child in sorted(children[index], key=lambda c: self.spans[c][1]):
                lo = max(self.spans[child][1], reach)
                hi = min(self.spans[child][2], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def table(self, where=None):
        """(span name, method) -> {"calls", "total_s", "self_s"}.

        ``where``, if given, selects the span rows to include.
        """
        rows = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, self_s in zip(self.spans, self.self_times()):
            if where is not None and not where(span):
                continue
            row = rows[(span[0], span[5])]
            row["calls"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += self_s
        return dict(rows)

    def write(self, path):
        """Write every span as one JSON line to a gzip file."""
        self_s = self.self_times()
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, (span, own) in enumerate(zip(self.spans, self_s)):
                name, start, end, parent, instance, method = span
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "self": own,
                            "parent": parent,
                            "instance": instance,
                            "method": method,
                        }
                    )
                    + "\n"
                )


def _traced(tracer, name, fn, after=None, method_arg=False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        method = None
        if method_arg:
            method = kwargs["method"] if "method" in kwargs else args[0]
        index = tracer.open(name, method)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(result)
        return result

    return wrapper


class Patches:
    """Replaces library attributes with traced wrappers; ``restore`` undoes it."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def replace_everywhere(self, original, new):
        """Point every ``mra_sync`` module attribute bound to ``original`` at ``new``."""
        for name, module in list(sys.modules.items()):
            if name != "mra_sync" and not name.startswith("mra_sync."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, new)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(tracer):
    """Wrap the traced functions and methods of ``mra_sync``; returns the patches."""
    patches = Patches()

    def after_project(rotation):
        tracer.count(DEGENERATE_PROJECTIONS, int(rotation.degenerate))

    def after_triplet(estimate):
        tracer.count(TRIPLET_ESTIMATES)
        tracer.count(TRIPLET_SWEEPS, estimate.sweeps)
        tracer.count(TRIPLET_CONVERGED, int(estimate.converged))

    after = {
        "procrustes.project": after_project,
        "sync.estimate_triplet_direct": after_triplet,
    }
    try:
        for module_name, fn_name, span in FUNCTIONS:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = _traced(
                tracer, span, original, after.get(span), span == "sync.run_grid"
            )
            patches.replace_everywhere(original, wrapper)
        for module_name, cls_name, fn_name, span in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            patches.replace(cls, fn_name, _traced(tracer, span, getattr(cls, fn_name)))

        rotation = sys.modules["mra_sync.procrustes"].Rotation
        validate = rotation.__post_init__

        @functools.wraps(validate)
        def counted_validate(self):
            tracer.count(ROTATION_VALIDATIONS)
            validate(self)

        patches.replace(rotation, "__post_init__", counted_validate)
    except BaseException:
        patches.restore()
        raise
    return patches
