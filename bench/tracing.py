"""Outside-in spans around the public functions of each hvdcopf layer.

`Tracer` replaces module attributes with timing wrappers while it is
installed and puts the originals back on `uninstall`. Names are patched in
every module that looks them up (the package imports names directly, e.g.
`studies` calls its own `solve_minlp`), and `scipy.sparse.bmat` /
`scipy.sparse.linalg.splu` are wrapped only as `ipm` reaches them, through
proxies for the `sp` / `spla` names in `hvdcopf.ipm`. Nothing in the package
itself changes.

A span is (name, start, end, parent, pass id); the layer is the part of the
name before the first dot. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import scipy.sparse
import scipy.sparse.linalg

import hvdcopf.builder
import hvdcopf.engine
import hvdcopf.grid
import hvdcopf.io
import hvdcopf.ipm
import hvdcopf.nlp
import hvdcopf.studies

# (span name, modules whose attribute is patched, attribute name)
_FUNCTIONS = (
    ("io.load_grid", (hvdcopf.io,), "load_grid"),
    ("grid.validate", (hvdcopf.io, hvdcopf.grid), "validate"),
    ("builder.build_opf", (hvdcopf.builder, hvdcopf.studies), "build_opf"),
    ("builder.build_scopf", (hvdcopf.builder, hvdcopf.studies), "build_scopf"),
    ("tableau.assemble_tableau", (hvdcopf.builder,), "assemble_tableau"),
    ("converters.station_constraints", (hvdcopf.builder,), "station_constraints"),
    ("ipm.solve_multistart", (hvdcopf.ipm, hvdcopf.engine), "solve_multistart"),
    ("ipm.solve", (hvdcopf.ipm,), "solve"),
    ("ipm.check_kkt", (hvdcopf.ipm,), "check_kkt"),
    ("engine.solve_minlp", (hvdcopf.engine, hvdcopf.studies), "solve_minlp"),
    ("engine.enumerate_assignments", (hvdcopf.engine,), "enumerate_assignments"),
    ("engine.nls_guard", (hvdcopf.engine,), "nls_guard"),
    ("studies.run_study", (hvdcopf.studies,), "run_study"),
    ("studies.run_nls", (hvdcopf.studies,), "run_nls"),
    ("studies.run_scopf", (hvdcopf.studies,), "run_scopf"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "attrs", "children_s")

    def __init__(self, name, start, parent, pass_id):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.pass_id = pass_id
        self.attrs = {}
        self.children_s = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class _ModuleProxy:
    """Stands in for a module inside `hvdcopf.ipm`, overriding some names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Patches:
    """Attributes replaced on modules or classes until `restore`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def __bool__(self) -> bool:
        return bool(self._saved)

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Records spans while installed; `pass_id` tags each new span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = -1
        self._stack: list[int] = []
        self._patches = Patches()

    # -- span bookkeeping ----------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.pass_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration

    def parent_of(self, span: Span) -> Span | None:
        return None if span.parent is None else self.spans[span.parent]

    def _wrap(self, name: str, fn):
        on_exit = _ON_EXIT.get(name)
        recorded = _RECORDED_ARGS.get(name)
        signature = inspect.signature(fn) if recorded else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs[recorded] = bound.arguments[recorded]
            if on_exit is not None:
                on_exit(self, span, result)
            return result

        return traced

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        patch = self._patches
        if patch:
            raise RuntimeError("tracer already installed")
        for name, modules, attr in _FUNCTIONS:
            wrapped = self._wrap(name, getattr(modules[0], attr))
            for module in modules:
                patch.set(module, attr, wrapped)
        patch.set(hvdcopf.nlp.ProblemBuilder, "build",
                  self._wrap("nlp.freeze", hvdcopf.nlp.ProblemBuilder.build))
        patch.set(hvdcopf.ipm, "sp",
                  _ModuleProxy(scipy.sparse, bmat=self._wrap("ipm.bmat", scipy.sparse.bmat)))
        patch.set(hvdcopf.ipm, "spla",
                  _ModuleProxy(scipy.sparse.linalg, splu=self._wrap("ipm.splu", scipy.sparse.linalg.splu)))

    def uninstall(self) -> None:
        self._patches.restore()

    def write(self, path: Path, t0: float) -> None:
        """One JSON object per line: id, name, start, end (s since t0), parent, pass."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                                     "parent": s.parent, "pass": s.pass_id}) + "\n")


# -- per-span attributes taken from results -----------------------------------


def _on_solve(tracer: Tracer, span: Span, sol) -> None:
    span.attrs.update(iterations=sol.iterations, status=sol.status)
    parent = tracer.parent_of(span)
    if parent is not None and parent.name == "ipm.solve_multistart":
        parent.attrs.setdefault("results", []).append(sol)


def _on_multistart(tracer: Tracer, span: Span, best) -> None:
    results = span.attrs.pop("results", [])
    span.attrs["solves"] = len(results)
    span.attrs["perturbed"] = max(0, len(results) - 1)
    span.attrs["perturbed_won"] = any(r is best for r in results[1:])


def _on_splu(tracer: Tracer, span: Span, lu) -> None:
    span.attrs["fill_nnz"] = lu.L.nnz + lu.U.nnz


def _on_build(tracer: Tracer, span: Span, result) -> None:
    parent = tracer.parent_of(span)
    span.attrs["n_vars"] = result[0].n_vars
    # a build with fixed binaries made by a study runner re-creates a program
    # the engine has already built and solved
    span.attrs["rebuild"] = span.attrs["binaries"] is not None and parent is not None and parent.layer == "studies"


def _on_minlp(tracer: Tracer, span: Span, res) -> None:
    span.attrs.update(
        explored=res.explored,
        complete=sum(1 for rec in res.table if rec.assignment.is_complete()),
        pruned=sum(1 for rec in res.table if rec.status == "pruned-by-bound"),
    )


# argument recorded on the span, by span name
_RECORDED_ARGS = {
    "builder.build_opf": "binaries",
    "builder.build_scopf": "binaries",
    "engine.solve_minlp": "strategy",
}


_ON_EXIT = {
    "ipm.solve": _on_solve,
    "ipm.solve_multistart": _on_multistart,
    "ipm.splu": _on_splu,
    "builder.build_opf": _on_build,
    "builder.build_scopf": _on_build,
    "engine.solve_minlp": _on_minlp,
}


# -- per-layer metrics -----------------------------------------------------------

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples (exact for p in tenths)."""
    return max(1, -(-round(p * 10) * n // 1000))


def percentile(values, p: float) -> float:
    return sorted(values)[_rank(p, len(values)) - 1]


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, or the median when there are too few samples."""
    for p in TAIL_LADDER:
        if len(values) - _rank(p, len(values)) >= 10:
            return p, percentile(values, p)
    return 50.0, percentile(values, 50.0)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def setup_metrics(spans: list[Span]) -> dict:
    """Median per set-up repetition of the top-level load and validate spans."""
    top = lambda name: [s.duration for s in spans if s.name == name and s.parent is None]
    median = lambda xs: statistics.median(xs) if xs else 0.0
    return {"io.load_grid_s": median(top("io.load_grid")), "grid.validate_s": median(top("grid.validate"))}


def pass_metrics(spans: list[Span]) -> dict:
    """Per-layer counts and times of one workload pass."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    total = lambda *names: sum((s.duration for n in names for s in by[n]), 0.0)
    solves, multistart = by["ipm.solve"], by["ipm.solve_multistart"]
    builds = by["builder.build_opf"] + by["builder.build_scopf"]
    minlp = by["engine.solve_minlp"]
    returned = [s for s in minlp if "raised" not in s.attrs]
    bnb = [s for s in returned if s.attrs["strategy"] == "branch-and-bound"]
    iterations = sum(s.attrs.get("iterations", 0) for s in solves)
    factorizations = len(by["ipm.splu"])
    explored = sum(s.attrs["explored"] for s in bnb)
    pruned = sum(s.attrs["pruned"] for s in bnb)
    perturbed = sum(s.attrs["perturbed"] for s in multistart)
    return {
        "builder.build_calls": len(builds),
        "builder.build_s": total("builder.build_opf", "builder.build_scopf"),
        "builder.rebuilds_after_solve": sum(1 for s in builds if s.attrs.get("rebuild")),
        "builder.max_n_vars": max((s.attrs["n_vars"] for s in builds if "n_vars" in s.attrs), default=0),
        "tableau.assemble_s": total("tableau.assemble_tableau"),
        "nlp.freeze_s": total("nlp.freeze"),
        "ipm.solves": len(solves),
        "ipm.solve_s": total("ipm.solve"),
        "ipm.iterations": iterations,
        "ipm.iter_ms": 1000.0 * _ratio(total("ipm.solve"), iterations),
        "ipm.failed_solves": sum(1 for s in solves if s.attrs.get("status") != "optimal"),
        "ipm.check_kkt_s": total("ipm.check_kkt"),
        "ipm.self_s": sum((s.self_s for s in solves + multistart), 0.0),
        "ipm.kkt_assemblies": len(by["ipm.bmat"]),
        "ipm.kkt_assembly_s": total("ipm.bmat"),
        "ipm.factorizations": factorizations,
        "ipm.factor_s": total("ipm.splu"),
        "ipm.factor_fill_nnz": sum(s.attrs.get("fill_nnz", 0) for s in by["ipm.splu"]),
        "ipm.factor_per_iter": _ratio(factorizations, iterations),
        "engine.minlp_s": total("engine.solve_minlp"),
        "engine.self_s": sum((s.self_s for s in spans if s.layer == "engine"), 0.0),
        "engine.assignments": sum(s.attrs["complete"] for s in returned),
        "engine.nodes_explored": explored,
        "engine.nodes_pruned": pruned,
        "engine.prune_ratio": _ratio(pruned, explored),
        "engine.bnb_fallbacks": sum(1 for s in minlp if s.attrs.get("raised") == "EnumerationCapExceeded"),
        "engine.multistart_calls": len(multistart),
        "engine.solves_per_assignment": _ratio(sum(s.attrs["solves"] for s in multistart), len(multistart)),
        "engine.multistart_win_ratio": _ratio(sum(s.attrs["perturbed_won"] for s in multistart), perturbed),
        "studies.self_s": sum((s.self_s for s in spans if s.layer == "studies"), 0.0),
    }


def self_time_by(spans: list[Span], key) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[key(s)] += s.self_s
    return dict(sorted(out.items()))
