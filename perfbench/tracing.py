"""Spans around bifrac's layers, recorded from outside the package.

`Tracer.install()` replaces every public function of the six bifrac
modules by a timing wrapper, wherever the function is reachable as a
module attribute: in its own module, under names other modules bound
at import time (`bifrac.classifier.rank`, `bifrac.cli.classify_bilinear`,
...), and as values of module-level dicts (`bifrac.cli._COMMANDS`).
The `values` method of every witness descriptor class is wrapped too;
only the outermost call is a span, so `Dilated`/`Translated` re-entry
is neither counted nor timed twice.  `uninstall()` restores everything.

Spans are kept in memory as (id, parent, request, name, start, end),
where request is the id of the outermost span (one CLI invocation), and
written as JSON lines by `write_jsonl`.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Dict, List

LAYERS = ("cli", "exponents", "matrices", "classifier", "functions",
          "operators")
MAX_SPANS = 100_000   # spans kept for the trace file; the figures count all
VALUES_SPAN = "functions.values"
EVAL_SPAN = "operators.eval_bilinear"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, name) for name in LAYERS]
        self.spans: List[tuple] = []
        self.dropped = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.values_points = 0
        self.eval_points = 0      # descriptor points evaluated inside eval
        self._stack: List[list] = []
        self._next_id = 1
        self._in_values = False
        self._eval_depth = 0
        self._patches: List[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> list:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        request = self._stack[0][0] if self._stack else sid
        frame = [sid, parent, request, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[4] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, parent, request, name, start, child = frame
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.durations[name].append(dur)
        if self._stack:
            self._stack[-1][5] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent, request, name, start, end))
        else:
            self.dropped += 1

    def _wrap_function(self, name: str, fn):
        tracer = self
        is_eval = name == EVAL_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            if is_eval:
                tracer._eval_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if is_eval:
                    tracer._eval_depth -= 1
                tracer._exit(frame)
        return wrapper

    def _wrap_values(self, method):
        tracer = self

        @functools.wraps(method)
        def values(obj, y):
            if tracer._in_values:
                return method(obj, y)
            shape = getattr(y, "shape", ())
            points = shape[0] if len(shape) >= 2 else 1
            tracer.values_points += points
            if tracer._eval_depth:
                tracer.eval_points += points
            frame = tracer._enter(VALUES_SPAN)
            tracer._in_values = True
            try:
                return method(obj, y)
            finally:
                tracer._in_values = False
                tracer._exit(frame)
        return values

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def install(self) -> None:
        targets = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {key: self._wrap_function(name, obj)
                    for key, (obj, name) in targets.items()}
        for owner in self.modules + [self.package]:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and obj is targets[id(obj)][0]:
                    self._set(owner, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers and val is targets[id(val)][0]:
                            self._set(obj, key, wrappers[id(val)])
        functions = self.package.functions
        for obj in vars(functions).values():
            if (inspect.isclass(obj)
                    and issubclass(obj, functions.TestFunction)
                    and "values" in vars(obj)):
                self._set(obj, "values", self._wrap_values(vars(obj)["values"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans),
                                     dropped=self.dropped)) + "\n")
            for sid, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "request": request, "name": name,
                                     "start": start, "end": end}) + "\n")
