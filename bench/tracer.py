"""Span tracer that instruments the package from outside it.

The tracer replaces module attributes (functions, methods, the problem's
gradient callables) with wrappers that record one span per call: a name, a
start and end time, and the span that was open when the call began. Spans
are kept in memory in compact columns and written once, when the traced run
ends, so recording never touches the disk inside the timed region.

Self time is derived from the spans afterwards: a span's duration minus the
durations of its direct children. Nothing in the package is edited; every
patched attribute is put back by ``restore``.
"""

import time
from array import array

import numpy as np


class Tracer:
    """Records spans for one run and owns the attributes it patched."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched = []

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, on_result=None, on_error=None, errors=()):
        """Return fn wrapped so each call records a span called name.

        on_result(value) sees every return value. An exception of a type in
        errors is passed to on_error(exc) and then re-raised unchanged.
        """
        nid = self._id(name)
        stack = self._stack
        push_name, push_parent = self.name_id.append, self.parent.append
        push_start, push_end = self.start.append, self.end.append
        ends = self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(ends)
            push_name(nid)
            push_parent(stack[-1])
            push_end(0.0)
            stack.append(i)
            push_start(clock())
            try:
                out = fn(*args, **kwargs)
            except errors as exc:
                on_error(exc)
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def patch(self, owner, attr, wrapper):
        """Set owner.attr to wrapper, remembering the original for restore."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_everywhere(self, fn, name, modules, **hooks):
        """Wrap every module attribute in modules that is fn; returns how many.

        Modules import functions by name, so one function can be reachable
        through several module attributes; all of them get the same wrapper.
        """
        wrapper = self.wrap(fn, name, **hooks)
        hits = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, wrapper)
                    hits += 1
        return hits

    def restore(self):
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def spans(self):
        """The recorded spans as numpy columns (times in seconds).

        The columns are views of the recording buffers, which cannot grow
        while a view exists.
        """
        cols = {"name_id": (self.name_id, np.uint16),
                "parent": (self.parent, np.int32),
                "start": (self.start, np.float64),
                "end": (self.end, np.float64)}
        return {k: np.frombuffer(buf, dtype=t) if len(buf) else np.zeros(0, t)
                for k, (buf, t) in cols.items()}

    def write(self, path):
        """Write spans, the name table and the run id to an .npz file."""
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 **self.spans())


def self_times(parent, start, end):
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent],
                           minlength=dur.size)
    return dur - children


def within(parent, mask):
    """True for each span that has an ancestor for which mask is True."""
    out = np.zeros(parent.size, dtype=bool)
    idx = np.arange(parent.size, dtype=np.int32)
    anc = parent.copy()
    while idx.size:
        live = anc >= 0
        idx, anc = idx[live], anc[live]
        out[idx] |= mask[anc]
        anc = parent[anc]
    return out
