"""Outside-in span tracing: timing wrappers swapped into sitsformer's modules.

Nothing in the package is edited. ``Tracer.install`` replaces a public
function by a wrapper in every ``sitsformer`` module namespace that holds it,
so calls made through ``from .tensor import matmul`` style imports, through
``T.gelu`` and through ``Tensor`` operator sugar (which looks the primitive up
as a ``tensor`` module global) are all seen. ``restore`` puts every original
object back. Spans are kept in memory as ``[name, start, end, parent]`` and
written out once the run is over.
"""

import contextlib
import functools
import sys
import time
from array import array


class Tracer:
    """Span recorder plus the attribute swaps that feed it.

    Spans are stored column-wise in flat arrays rather than as one list per
    span: hundreds of thousands of small lists would make the garbage
    collector's full passes, and so the traced run, slower and slower.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, or -1
        self.marks = {}  # name -> values sampled on entry to that span
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    @property
    def spans(self):
        """``[name, start, end, parent]`` per span, in order of opening."""
        return [list(span) for span in
                zip(self.names, self.starts, self.ends, self.parents)]

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx):
        self.ends[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, on_enter=None):
        """``fn`` recording one span per call; ``on_enter()`` values go to marks."""
        marks = self.marks.setdefault(name, []) if on_enter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                marks.append(on_enter())
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self, targets):
        """Swap in wrappers for ``(span name, module, attribute path, on_enter)``.

        A dotted attribute path such as ``ConfusionMatrix.update`` patches the
        class; a plain name is replaced in every ``sitsformer`` module whose
        namespace holds the same object.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and n.split(".")[0] == "sitsformer"]
        for name, module_name, path, on_enter in targets:
            owner = sys.modules[module_name]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, on_enter)
            if owner_path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets):
        try:
            self.install(targets)
            yield self
        finally:
            self.restore()

    def write(self, path):
        """Dump spans as ``index,name,start,end,parent`` CSV lines."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,name,start,end,parent\n")
            for i, span in enumerate(zip(self.names, self.starts, self.ends,
                                         self.parents)):
                f.write("%d,%s,%r,%r,%d\n" % (i, *span))


def self_times(spans):
    """Each span's duration minus the time its direct child spans cover.

    Spans of one thread nest and siblings do not overlap, so the covered
    time is the sum of the children's durations.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_self_times(spans):
    """Self time summed per layer, the layer being the span name's prefix."""
    totals = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals
