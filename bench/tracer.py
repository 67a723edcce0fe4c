"""Span tracer for the benchmark's traced run.

The tracer wraps named functions of ``ccsched`` (and three ``numpy.linalg``
kernels) from the outside.  A name that a module imported with ``from ...
import`` is bound in several namespaces, so every ``ccsched`` module that
binds the original object is patched.  Spans stay in memory as parallel
arrays (name, start, end, parent, operation, failed) and are written out
once, when the run ends.  Per-layer figures are derived from the spans of
one pass: ``calls``, ``busy_s`` (outermost spans of the name only, so
recursion is not double counted), ``self_s`` (span time minus the time of
its child spans) and ``failed`` (spans that ended in an exception).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path

# (module, attribute path) of every traced function; the metric prefix is
# the pair joined by a dot, with the "ccsched." package prefix dropped.
TARGETS = (
    ("ccsched.symmetric", "build_base_partition"),
    ("ccsched.symmetric", "regroup"),
    ("ccsched.asymmetric", "schedule_asymmetric"),
    ("ccsched.asymmetric", "balanced_greedy"),
    ("ccsched.asymmetric", "linear_feasible_check"),
    ("ccsched.asymmetric", "assemble_table"),
    ("ccsched.dof", "asymmetric_region"),
    ("ccsched.dof", "windowed_pattern_table"),
    ("ccsched.dof", "clique_window_table"),
    ("ccsched.verifier", "decodability_check"),
    ("ccsched.verifier", "ChannelRealization.draw"),
    ("ccsched.verifier", "ChannelRealization.haar_combiner_pool"),
    ("ccsched.verifier", "nullspace_basis"),
    ("ccsched.verifier", "build_beamformers"),
    ("ccsched.verifier", "effective_matrix"),
    ("ccsched.verifier", "verify_numeric"),
    ("ccsched.verifier", "verify_table_numeric"),
    ("ccsched.rates", "snr_sweep"),
    ("ccsched.rates", "stream_coefficients"),
    ("ccsched.rates", "sinrs_from_coefficients"),
    ("ccsched.rates", "column_rate"),
    ("ccsched.model", "table_to_json"),
    ("ccsched.model", "table_from_json"),
    ("ccsched.model", "ScheduleTable.validate"),
    ("ccsched.cli", "main"),
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "qr"),
    ("numpy.linalg", "inv"),
)
NAMES = tuple(f"{module.removeprefix('ccsched.')}.{path}" for module, path in TARGETS)
# functions whose exceptions are a layer outcome (a failed attempt), not a bug
FAILURE_COUNTED = (
    "asymmetric.schedule_asymmetric",
    "asymmetric.balanced_greedy",
    "verifier.build_beamformers",
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
        if name in FAILURE_COUNTED:
            units[f"{name}.failed"] = "count"
    units["asymmetric.schedule_asymmetric.success_ratio"] = "ratio"
    units["symmetric.build_base_partition.repeat_calls"] = "count"
    units["verifier.nullspace_reuse_ratio"] = "ratio"
    units["trace_overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Records a span per call of every target while installed and recording;
    spans are timed with ``clock``, a function returning seconds."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.recording = False
        self.op = -1  # index of the CLI invocation the spans belong to
        self._name = array("H")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._op = array("l")
        self._failed = array("b")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._origin = clock()
        self._pass_counts = {"beamformer_groups": 0, "partition_repeats": 0}
        self._partition_shapes: set[tuple] = set()

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Patch every target in every namespace that binds it."""
        packages = [m for n, m in sys.modules.items() if n == "ccsched" or n.startswith("ccsched.")]
        hooks = {
            "verifier.build_beamformers": self._count_beamformer_groups,
            "symmetric.build_base_partition": self._count_partition_repeat,
        }
        for idx, (module_name, path) in enumerate(TARGETS):
            module = sys.modules[module_name]
            hook = hooks.get(NAMES[idx])
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    self._patch(owner, attr, staticmethod(self._wrap(idx, raw.__func__, hook)))
                else:
                    self._patch(owner, attr, self._wrap(idx, raw, hook))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(idx, original, hook)
            namespaces = {id(m): m for m in [module, *packages]}
            for namespace in namespaces.values():
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, idx: int, fn, hook):
        stack = self._stack
        clock = self.clock
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments)
            sid = len(self._start)
            self._name.append(idx)
            self._parent.append(stack[-1])
            self._op.append(self.op)
            self._failed.append(0)
            self._end.append(0.0)
            stack.append(sid)
            self._start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self._failed[sid] = 1
                raise
            finally:
                self._end[sid] = clock()
                stack.pop()

        return traced

    def _count_beamformer_groups(self, arguments) -> None:
        self._pass_counts["beamformer_groups"] += len(set(arguments["column"].groups))

    def _count_partition_repeat(self, arguments) -> None:
        shape = (arguments["omega"], arguments["t"])
        if shape in self._partition_shapes:
            self._pass_counts["partition_repeats"] += 1
        self._partition_shapes.add(shape)

    # -- per-pass figures ---------------------------------------------

    def begin_pass(self) -> int:
        """Reset the per-pass counters; returns the first span id of the pass."""
        self._pass_counts = dict.fromkeys(self._pass_counts, 0)
        self._partition_shapes = set()
        return len(self._start)

    def pass_metrics(self, first: int, scale: float) -> dict[str, float]:
        """Per-layer figures of the spans recorded since ``begin_pass``, with
        times multiplied by ``scale``."""
        last = len(self._start)
        n = len(NAMES)
        calls = [0] * n
        busy = [0.0] * n
        own = [0.0] * n
        failed = [0] * n
        child_time = [0.0] * (last - first)
        for sid in range(first, last):
            parent = self._parent[sid]
            if parent >= first:
                child_time[parent - first] += self._end[sid] - self._start[sid]
        for sid in range(first, last):
            idx = self._name[sid]
            duration = self._end[sid] - self._start[sid]
            calls[idx] += 1
            own[idx] += duration - child_time[sid - first]
            failed[idx] += self._failed[sid]
            if not self._has_ancestor_named(sid, idx):
                busy[idx] += duration
        metrics: dict[str, float] = {}
        for idx, name in enumerate(NAMES):
            metrics[f"{name}.calls"] = calls[idx]
            metrics[f"{name}.busy_s"] = busy[idx] * scale
            metrics[f"{name}.self_s"] = own[idx] * scale
            if name in FAILURE_COUNTED:
                metrics[f"{name}.failed"] = failed[idx]
        sched = NAMES.index("asymmetric.schedule_asymmetric")
        metrics["asymmetric.schedule_asymmetric.success_ratio"] = (
            (calls[sched] - failed[sched]) / calls[sched] if calls[sched] else 0.0
        )
        metrics["symmetric.build_base_partition.repeat_calls"] = self._pass_counts[
            "partition_repeats"
        ]
        groups = self._pass_counts["beamformer_groups"]
        nullspace_calls = calls[NAMES.index("verifier.nullspace_basis")]
        metrics["verifier.nullspace_reuse_ratio"] = 1.0 - nullspace_calls / groups if groups else 0.0
        return metrics

    def _has_ancestor_named(self, sid: int, idx: int) -> bool:
        parent = self._parent[sid]
        while parent >= 0:
            if self._name[parent] == idx:
                return True
            parent = self._parent[parent]
        return False

    # -- output -------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """Write the spans as JSON lines: a header naming the fields and the
        traced functions, then one array per span (times in seconds from
        tracer creation on its clock, parent -1 for a root span); returns the count."""
        header = {"fields": ["id", "name", "start", "end", "parent", "op", "failed"], "names": NAMES}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid in range(len(self._start)):
                start = round(self._start[sid] - self._origin, 7)
                end = round(self._end[sid] - self._origin, 7)
                fh.write(
                    f"[{sid},{self._name[sid]},{start},{end},{self._parent[sid]},"
                    f"{self._op[sid]},{self._failed[sid]}]\n"
                )
        return len(self._start)
