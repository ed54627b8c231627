"""Span recorder and binding-complete instrumentation of the saltpde package.

Only the traced benchmark run installs this.  It wraps, from outside the
package:

* every package-level ``numpy.fft`` transform entry point (FFT counter);
* every public function defined in the layer modules, at every module-level
  binding (``from ... import`` copies and dict registries such as
  ``solver._STEPPERS`` and ``cli._COMMANDS`` included);
* the public methods of the ``*Ops`` classes and ``ModelState.__init__`` at
  class level;
* ``open`` for writing inside ``saltpde.cli`` (the inline ``stats.txt`` and
  ``converge.txt`` writers).

Each call becomes one span: name, parent span, start, end, and for FFTs the
transform size.  Spans live in flat arrays and are reduced to per-layer
metrics with numpy when a repetition ends.
"""

import builtins
import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("spectral", "lie", "noise", "models", "solver", "estimates", "cli")

FFT_ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft",
                    "rfft", "irfft", "fft2", "ifft2")

# complex128 read + write per transform point
FFT_BYTES_PER_POINT = 16 * 2

WRITE_OPEN = "cli.open(w)"

# results kept from traced calls: each member's stop reason
KEEP = {"run_path": lambda rec: rec.stop_reason}


class Recorder:
    """Spans in flat arrays; the parent of a span always has a lower index."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._undo = []
        self.reset()

    def reset(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self._stack = [-1]
        self.results = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.points.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name):
        """Context manager recording one span from the benchmark's own code."""
        return _Span(self, self._id(name))

    def wrap(self, name, fn, keep=None):
        """Span-recording wrapper; keep(result) is stored under results[name]."""
        nid = self._id(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                closed(idx)
            if keep is not None:
                self.results.setdefault(name, []).append(keep(out))
            return out
        return traced

    def wrap_fft(self, name, fn):
        nid = self._id(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                closed(idx)
            a = args[0] if args else kwargs.get("a")
            # c2c: in == out; r2c: the real input; c2r: the real output
            self.points[idx] = max(np.size(a), out.size)
            return out
        return traced

    # -- patching -------------------------------------------------------

    def _set(self, container, key, value):
        if isinstance(container, dict):
            had = key in container
            self._undo.append(("dict", container, key, container.get(key), had))
            container[key] = value
        else:
            self._undo.append(("attr", container, key, getattr(container, key), True))
            setattr(container, key, value)

    def uninstall(self):
        for kind, container, key, old, had in reversed(self._undo):
            if kind == "attr":
                setattr(container, key, old)
            elif had:
                container[key] = old
            else:
                del container[key]
        self._undo = []

    def install(self):
        """Wrap numpy.fft and the saltpde layers; undo with uninstall()."""
        for fname in FFT_ENTRY_POINTS:
            self._set(np.fft, fname,
                      self.wrap_fft("numpy.fft." + fname, getattr(np.fft, fname)))

        package = [m for name, m in sorted(sys.modules.items())
                   if name == "saltpde" or name.startswith("saltpde.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules["saltpde." + layer]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap("%s.%s" % (layer, obj.__name__),
                                             obj, keep=KEEP.get(obj.__name__))
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod.__dict__, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrapped:
                            self._set(obj, key, wrapped[val])

        models = sys.modules["saltpde.models"]
        for cname, cls in vars(models).items():
            if inspect.isclass(cls) and cname.endswith("Ops"):
                for attr, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and not attr.startswith("_"):
                        self._set(cls, attr,
                                  self.wrap("models.%s.%s" % (cname, attr), obj))
        state = models.ModelState
        self._set(state, "__init__",
                  self.wrap("models.ModelState.__init__", state.__init__))

        cli = sys.modules["saltpde.cli"]
        self._set(cli.__dict__, "open", self._write_open())

    def _write_open(self):
        nid = self._id(WRITE_OPEN)

        def traced_open(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            return _WriteSpan(self, nid, fh) if "r" not in mode else fh
        return traced_open


class _Span:
    def __init__(self, recorder, nid):
        self.recorder = recorder
        self.nid = nid

    def __enter__(self):
        self.idx = self.recorder._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.recorder._close(self.idx)
        return False


class _WriteSpan(_Span):
    """A file opened for writing; the span covers the ``with`` block."""

    def __init__(self, recorder, nid, fh):
        super().__init__(recorder, nid)
        self.fh = fh

    def __enter__(self):
        super().__enter__()
        return self.fh.__enter__()

    def __exit__(self, *exc):
        try:
            return self.fh.__exit__(*exc)
        finally:
            super().__exit__(*exc)


class SpanTable:
    """numpy view of one recording, with the queries the metrics need."""

    def __init__(self, recorder):
        self.names = list(recorder.names)
        self.name_id = np.frombuffer(recorder.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(recorder.parent, dtype=np.int32).copy()
        start = np.frombuffer(recorder.start, dtype=np.float64)
        end = np.frombuffer(recorder.end, dtype=np.float64)
        self.dur = end - start
        self.points = np.frombuffer(recorder.points, dtype=np.int64).copy()
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent],
                            weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child
        self.results = recorder.results

    def mask(self, match):
        """Spans whose name satisfies match(name) (a callable)."""
        ok = np.array([bool(match(n)) for n in self.names], dtype=bool)
        return ok[self.name_id]

    def named(self, *names):
        wanted = set(names)
        return self.mask(lambda n: n in wanted)

    def parent_in(self, parent_mask):
        out = np.zeros(len(self.parent), dtype=bool)
        has = self.parent >= 0
        out[has] = parent_mask[self.parent[has]]
        return out

    def ancestor_in(self, anc_mask):
        """True where some (strict) ancestor of the span is in anc_mask."""
        out = np.zeros(len(self.parent), dtype=bool)
        p = self.parent.copy()
        live = p >= 0
        while live.any():
            out[live] |= anc_mask[p[live]]
            p[live] = self.parent[p[live]]
            live = p >= 0
        return out

    def outermost(self, m):
        """Spans in m with no ancestor in m (nested calls counted once)."""
        return m & ~self.ancestor_in(m)

    def count(self, m):
        return int(np.count_nonzero(m))

    def total(self, m):
        return float(np.sum(self.dur[m]))

    def calls_by_name(self):
        counts = np.bincount(self.name_id, minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, counts)}
