"""Per-layer tracing for the benchmark's traced runs.

Run as a child process in place of ``python -m hdbprep.cli``:

    python bench/layertrace.py TRACE.json run --config ... --out-dir ...

It wraps the functions that ``hdbprep.cli``, ``hdbprep.pipeline`` and
``hdbprep.aggregate`` call through their module namespaces, runs the CLI,
keeps spans and counters in memory, and writes them to TRACE.json when the
CLI returns. Untraced benchmark runs never import this file.

Coarse calls (a whole read, a whole write) become spans with a parent.
Per-person functions become per-name counters of calls and seconds, never
one span per call. A wrapped name that no longer exists is listed under
``missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time

SPAN, PULL, COUNT = "span", "pull", "count"


def _ingest_attrs(args, result) -> dict:
    """Persons returned, bytes of the files read and the RSS high-water mark
    at the moment the read returns."""
    paths = []
    for arg in args:
        sources = arg if isinstance(arg, (list, tuple)) else [arg]
        paths.extend(s.path for s in sources if hasattr(s, "path"))
    return {
        "persons": len(result) if hasattr(result, "__len__") else None,
        "bytes_in": sum(os.path.getsize(p) for p in paths),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


#: (module, attribute, kind, trace name[, span attributes]). Several
#: attributes may feed one trace name.
WRAPS = (
    ("hdbprep.cli", "run_pipeline", SPAN, "pipeline.run"),
    ("hdbprep.cli", "run_identify", SPAN, "pipeline.run"),
    ("hdbprep.pipeline", "read_column_sources", SPAN, "ingest.read", _ingest_attrs),
    ("hdbprep.pipeline", "read_table", SPAN, "ingest.read", _ingest_attrs),
    ("hdbprep.pipeline", "make_household_key", COUNT, "identity.key"),
    ("hdbprep.pipeline", "income_from_letter", COUNT, "recode.letter"),
    ("hdbprep.pipeline", "aggregate_all", PULL, "aggregate.fold"),
    ("hdbprep.pipeline", "format_number", COUNT, "pipeline.format"),
    ("hdbprep.pipeline", "write_household_table", SPAN, "pipeline.table_write"),
    ("hdbprep.aggregate", "parse_age", COUNT, "aggregate.parse_age"),
    ("hdbprep.aggregate", "parse_gender", COUNT, "aggregate.parse_gender"),
    ("hdbprep.aggregate", "oxford_weight", COUNT, "scales.weight"),
    ("hdbprep.aggregate", "faofam_weight", COUNT, "scales.weight"),
)


class Span:
    """One coarse call, or every pull from one iterator.

    ``busy_s`` is the time spent inside the call (for an iterator, the sum
    of its pulls); ``child_s`` the part of it that wrapped calls made below
    it took. Self time is the difference.
    """

    __slots__ = ("name", "parent", "start", "end", "busy_s", "child_s", "attrs")

    def __init__(self, name: str, parent: int | None, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.busy_s = 0.0
        self.child_s = 0.0
        self.attrs = {}

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self.missing: list[dict] = []
        self._stack: list[Span] = []

    def install(self, wraps=WRAPS) -> None:
        """Replace each listed module attribute by its traced wrapper."""
        kinds = {SPAN: self._span, PULL: self._pull, COUNT: self._count}
        for module_name, attr, kind, name, *extra in wraps:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append({"function": f"{module_name}.{attr}", "name": name})
                continue
            setattr(module, attr, functools.wraps(fn)(kinds[kind](name, fn, *extra)))

    def _open(self, name: str) -> Span:
        parent = self.spans.index(self._stack[-1]) if self._stack else None
        span = Span(name, parent, time.perf_counter())
        self.spans.append(span)
        return span

    def _charge_parent(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1].child_s += seconds

    def _span(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
                span.busy_s = span.end - span.start
                self._charge_parent(span.busy_s)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result
        return wrapper

    def _pull(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._pulled(name, iter(fn(*args, **kwargs)))
        return wrapper

    def _pulled(self, name, iterator):
        span = self._open(name)
        items = 0
        while True:
            start = time.perf_counter()
            self._stack.append(span)
            try:
                item = next(iterator)
            except StopIteration:
                break
            finally:
                self._stack.pop()
                seconds = time.perf_counter() - start
                span.busy_s += seconds
                self._charge_parent(seconds)
            items += 1
            yield item
        span.end = time.perf_counter()
        span.attrs = {"items": items}

    def _count(self, name, fn):
        counter = self.counters.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                counter[0] += 1
                counter[1] += seconds
                if stack:
                    stack[-1].child_s += seconds
        return wrapper

    def as_dict(self) -> dict:
        return {
            "spans": [span.as_dict() for span in self.spans],
            "counters": self.counters,
            "missing": self.missing,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle)


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from hdbprep.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
