"""Span tracing from outside the program.

``Tracer.install`` wraps every public function and every public plain
method of the listed ``ecgkit`` modules. A module-level function is
replaced in every ``ecgkit`` namespace that holds it, because callers bind
names at import (``cli`` does ``from .gan import gan_train``) and a call
goes through whichever name the caller looks up. Methods are replaced on
their class. ``Tensor.__init__`` is wrapped to count tensor constructions
only, without a span.

Spans (name, start, end, span id, parent span id, tensors built inside)
are kept in flat arrays and written out once, by ``save``, when the run
ends. Nothing under ``src/`` is modified; ``uninstall`` restores every
replaced attribute.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("wfdb_io", "beats", "tensor", "models", "training", "gan",
          "metrics", "ensemble", "gradcam", "checkpoint", "report", "config",
          "cli")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tensors = array("q")
        self.stack = [-1]
        self.tensor_count = [0]
        self.next_id = [0]
        self.counters = {}
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _id_of(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, observe=None):
        """A callable that records one span per call of fn.

        observe(args, result, seconds) may return {counter: increment}; it
        runs only when the call returned normally.
        """
        nid = self._id_of(name)
        stack, next_id, tensor_count = self.stack, self.next_id, \
            self.tensor_count
        span_id, parent, name_id = self.span_id, self.parent, self.name_id
        start, end, tensors = self.start, self.end, self.tensors
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next_id[0]
            next_id[0] = sid + 1
            caller = stack[-1]
            stack.append(sid)
            built = tensor_count[0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_id.append(sid)
                parent.append(caller)
                name_id.append(nid)
                start.append(t0)
                end.append(t1)
                tensors.append(tensor_count[0] - built)
            if observe is not None:
                for key, value in observe(args, result, t1 - t0).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return traced

    # -- installing wrappers -------------------------------------------------

    def _replace(self, owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def install(self, observers=None):
        observers = observers or {}
        modules = {layer: importlib.import_module(f"ecgkit.{layer}")
                   for layer in LAYERS}
        namespaces = [module for name, module in sys.modules.items()
                      if name == "ecgkit" or name.startswith("ecgkit.")]
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or \
                        getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    name = f"{layer}.{attr}"
                    traced = self.wrap(name, value, observers.get(name))
                    for namespace in namespaces:
                        for alias, held in list(vars(namespace).items()):
                            if held is value:
                                self._replace(namespace, alias, traced)
                elif inspect.isclass(value):
                    self._install_methods(layer, value, observers)
        tensor_class = modules["tensor"].Tensor
        original_init = tensor_class.__init__
        count = self.tensor_count

        def counting_init(self_, *args, **kwargs):
            count[0] += 1
            original_init(self_, *args, **kwargs)

        self._replace(tensor_class, "__init__", counting_init)

    def _install_methods(self, layer, cls, observers):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            self._replace(cls, attr, self.wrap(name, value,
                                               observers.get(name)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def save(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            span_id=np.asarray(self.span_id), parent=np.asarray(self.parent),
            name_id=np.asarray(self.name_id), start=np.asarray(self.start),
            end=np.asarray(self.end), tensors=np.asarray(self.tensors))
        return path


class Spans:
    """Recorded spans as arrays, with the queries the bench reports."""

    def __init__(self, tracer):
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self.name_id = np.asarray(tracer.name_id, dtype=np.int64)
        self.duration = (np.asarray(tracer.end, dtype=np.float64)
                         - np.asarray(tracer.start, dtype=np.float64))
        self.tensors = np.asarray(tracer.tensors, dtype=np.int64)
        n = len(self.duration)
        span_id = np.asarray(tracer.span_id, dtype=np.int64)
        parent = np.asarray(tracer.parent, dtype=np.int64)
        row_of = np.full(tracer.next_id[0] + 1, -1, dtype=np.int64)
        row_of[span_id] = np.arange(n)
        # a span still open when recording stopped has no row; treat its
        # children as roots
        self.parent_row = np.where(parent >= 0, row_of[parent], -1)
        has_parent = self.parent_row >= 0
        covered = np.bincount(self.parent_row[has_parent],
                              weights=self.duration[has_parent], minlength=n)
        self.self_time = self.duration - covered
        # a span directly inside one of its own name is not counted again
        # in busy time
        self.outer = np.ones(n, dtype=bool)
        self.outer[has_parent] = (self.name_id[self.parent_row[has_parent]]
                                  != self.name_id[has_parent])
        self.parent_name_id = np.where(
            has_parent, self.name_id[np.maximum(self.parent_row, 0)], -1)

    def rows(self, name, parent=None):
        nid = self._ids.get(name, -2)
        mask = self.name_id == nid
        if parent is not None:
            mask &= self.parent_name_id == self._ids.get(parent, -2)
        return np.flatnonzero(mask)

    def calls(self, name):
        return len(self.rows(name))

    def busy(self, name):
        rows = self.rows(name)
        return float(self.duration[rows][self.outer[rows]].sum())

    def tensors_in(self, name):
        rows = self.rows(name)
        return int(self.tensors[rows][self.outer[rows]].sum())

    def durations(self, name, parent=None):
        return self.duration[self.rows(name, parent)]

    def layer_self_time(self):
        """Self seconds per layer: span time that no child span covers,
        summed over every span whose name starts with the layer."""
        totals = {}
        for name, nid in self._ids.items():
            layer = name.split(".", 1)[0]
            seconds = float(self.self_time[self.name_id == nid].sum())
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals
