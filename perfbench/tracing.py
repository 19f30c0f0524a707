"""Spans, kernel counters and Spark job-group counters for a traced run.

Everything here lives in the benchmark: the library is never edited. A
traced run records

* a span (name, start, end, parent, attributes) around every call into a
  layer's public function — the calls the workload makes itself, plus the
  nested ones (``g_nuclei``, ``grow_candidates``, ``mc_triangle_counts``,
  ``w_nuclei``, ``ell_nuclei``) reached by patching the module attribute that
  their caller looks up at call time;
* call counts, time and Σc² operation counts of the prob-layer kernels
  (``kappa_dp``, ``kappa_ap``, the AP fallback ``pb_tail`` and the core and
  truss kernels), patched where their callers look them up;
* Spark job, stage and task counts per job group, read right after a call.

Spans stay in memory and are written out once, when the run ends.
"""
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: (module, attribute, counter) for each prob-layer kernel the traced run
#: wraps. ``repro.nucleus.local`` holds the scorers of the local peel;
#: ``repro.prob.approx.pb_tail`` is reached only by the AP fallback.
KERNELS = (
    ("repro.nucleus.local", "kappa_dp", "prob.dp"),
    ("repro.nucleus.local", "kappa_ap", "prob.ap"),
    ("repro.prob.approx", "pb_tail", "prob.ap_fallback"),
    ("repro.prob.core", "pb_tail", "core.dp"),
    ("repro.prob.truss", "kappa_dp", "truss.dp"),
)

#: (module, attribute, span name) for layer functions reached from inside
#: other layer functions; the workload's own calls are spanned directly.
NESTED = (
    ("repro.nucleus.global_", "g_nuclei", "fg.g_nuclei"),
    ("repro.nucleus.global_", "grow_candidates", "fg.grow"),
    ("repro.nucleus.global_", "mc_triangle_counts", "fg.mc"),
    ("repro.nucleus.global_", "ell_nuclei", "local.extract"),
    ("repro.nucleus.weakly", "w_nuclei", "wg.w_nuclei"),
    ("repro.nucleus.weakly", "mc_triangle_counts", "wg.mc"),
    ("repro.nucleus.weakly", "ell_nuclei", "local.extract"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class KernelCounter:
    """Calls, seconds inside the kernel and Σc² over its inputs."""

    __slots__ = ("calls", "seconds", "ops")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.ops = 0


def _kernel_wrapper(fn, counter: KernelCounter):
    clock = time.perf_counter

    def wrapped(*args, **kwargs):
        # every wrapped kernel takes the clique/edge probability list as the
        # argument right after p_tri (kappa_*) or first (pb_tail)
        qs = args[1] if len(args) > 1 else args[0]
        t = clock()
        out = fn(*args, **kwargs)
        counter.seconds += clock() - t
        counter.calls += 1
        counter.ops += len(qs) ** 2
        return out

    return wrapped


def result_attrs(name: str, args, kwargs, out) -> dict:
    """Counts read off a layer call's arguments and result."""
    if name == "fg.mc" or name == "wg.mc":
        cands = args[1] if len(args) > 1 else kwargs["candidates"]
        n = args[3] if len(args) > 3 else kwargs["n"]
        return {"candidates": len(cands), "worlds": len(cands) * n}
    if name == "fg.grow":
        return {"candidates": len(out)}
    if name in ("fg.g_nuclei", "wg.w_nuclei", "local.extract"):
        return {"nuclei": len(out), "triangles": sum(len(h.tids) for h in out)}
    return {}


class Tracer:
    """Span recorder plus the module patches of one traced run."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[Span] = []
        self.kernels = {name: KernelCounter() for _, _, name in KERNELS}
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._groups = 0

    # -- spans -------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent=parent, attrs=attrs)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, fn, name: str):
        def wrapped(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            s.attrs.update(result_attrs(name, args, kwargs, out))
            return out

        return wrapped

    def kernel_snapshot(self) -> dict:
        return {
            n: (c.calls, c.seconds, c.ops) for n, c in self.kernels.items()
        }

    # -- patches -------------------------------------------------------------
    def install(self) -> None:
        """Wrap every kernel and nested layer function where it is looked up."""
        import importlib

        for mod, attr, counter in KERNELS:
            m = importlib.import_module(mod)
            orig = getattr(m, attr)
            self._patches.append((m, attr, orig))
            setattr(m, attr, _kernel_wrapper(orig, self.kernels[counter]))
        for mod, attr, name in NESTED:
            m = importlib.import_module(mod)
            orig = getattr(m, attr)
            self._patches.append((m, attr, orig))
            setattr(m, attr, self._span_wrapper(orig, name))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    # -- Spark counters --------------------------------------------------------
    def start_group(self, layer: str) -> str:
        self._groups += 1
        group = f"{layer}#{self._groups}"
        self.sc.setJobGroup(group, layer)
        return group

    def end_group(self, group: str) -> dict:
        """Jobs, stages that ran, tasks and failed tasks of one job group."""
        self.sc.setLocalProperty("spark.jobGroup.id", None)
        tracker = self.sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(group)
        stage_ids = set()
        for j in jobs:
            info = tracker.getJobInfo(j)
            if info is not None:
                stage_ids.update(info.stageIds)
        stages = tasks = failed = 0
        for sid in stage_ids:
            st = tracker.getStageInfo(sid)
            if st is None or st.numCompletedTasks + st.numFailedTasks == 0:
                continue  # skipped: its shuffle output was reused
            stages += 1
            tasks += st.numCompletedTasks
            failed += st.numFailedTasks
        return {"jobs": len(jobs), "stages": stages, "tasks": tasks, "failed_tasks": failed}

    # -- reporting -------------------------------------------------------------
    def self_time(self, idx: int) -> float:
        """Span duration minus the time its direct children cover."""
        s = self.spans[idx]
        kids = sum(c.duration for c in self.spans if c.parent == idx)
        return s.duration - kids

    def descendants(self, idx: int) -> list[Span]:
        out, todo = [], [idx]
        while todo:
            p = todo.pop()
            for i, c in enumerate(self.spans):
                if c.parent == p:
                    out.append(c)
                    todo.append(i)
        return out

    def dump(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "self": self.self_time(i),
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for i, s in enumerate(self.spans)
        ]
