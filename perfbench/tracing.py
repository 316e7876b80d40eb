"""Spans and counters recorded from outside qlab.

Each public qlab function is wrapped at every module attribute that names
it, so a call is caught at the name its caller resolves (`qlab.cli.read_arrangement`
as well as `qlab.fileio.read_arrangement`). A few class attributes and the
numpy.linalg solvers qlab calls are wrapped the same way. Nested calls
therefore nest as spans, and a span's self time is its duration minus the
time its children cover. The hot per-index `screens` methods are wrapped only
in the count-only pass, so their wrapper cost never lands in a span.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import sys
import time

import numpy as np

# Class attributes wrapped in both kinds of pass: (module, class, attribute).
METHODS = (
    ("qlab.tensor", "DenseOperatorTensor", "__init__"),
    ("qlab.transforms", "BasisTransformation", "__init__"),
    ("qlab.transforms", "BasisTransformation", "screen_permutation"),
    ("qlab.arrangement", "ExperimentalArrangement", "potentia_table"),
    ("qlab.arrangement", "GeneralProjector", "__init__"),
)
# Called once per index or record; counted, never timed.
HOT_METHODS = tuple(("qlab.screens", "ScreenConfiguration", m) for m in ("flat_index", "multi_index", "check_index"))
KERNELS = ("eigvalsh", "eigh", "svd", "qr")


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _method_name(module: str, cls: str, attr: str) -> str:
    return f"{_layer(module)}.{cls}" if attr == "__init__" else f"{_layer(module)}.{attr}"


def _targets(hot: bool) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for everything one kind of pass wraps."""
    out = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "qlab" and not mod_name.startswith("qlab."):
            continue
        for attr, value in vars(mod).items():
            if inspect.isfunction(value) and value.__module__.startswith("qlab.") and not value.__name__.startswith("_"):
                out.append((mod, attr, f"{_layer(value.__module__)}.{value.__name__}"))
    for mod_name, cls, attr in METHODS + (HOT_METHODS if hot else ()):
        out.append((getattr(sys.modules[mod_name], cls), attr, _method_name(mod_name, cls, attr)))
    out += [(np.linalg, k, f"kernel.{k}") for k in KERNELS]
    return out


@contextlib.contextmanager
def installed(make_wrapper, hot: bool):
    """Replace every target with make_wrapper(name, original); restore on exit."""
    saved = []
    wrappers: dict[int, object] = {}
    try:
        for owner, attr, name in _targets(hot):
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if id(fn) not in wrappers:
                wrappers[id(fn)] = make_wrapper(name, fn)
            new = wrappers[id(fn)]
            saved.append((owner, attr, raw))
            setattr(owner, attr, classmethod(new) if isinstance(raw, classmethod) else new)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


class Recorder:
    """Spans of the traced passes, kept in memory until the run ends.

    A span is [name, start_ns, end_ns, parent, pass]; parent is the index of
    the enclosing span or -1. Spans are recorded only while `active`.
    """

    def __init__(self) -> None:
        self.active = False
        self.pass_index = -1
        self.spans: list[list] = []
        self._stack = [-1]

    def _open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1], self.pass_index])
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrapper(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            i = rec._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(i)

        return traced

    def self_ns(self) -> list[int]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _kernel_work(name: str, a: np.ndarray) -> tuple[float, float]:
    """Computed (not measured) real FLOPs and compulsory bytes of one solver call.

    Textbook counts (Golub and Van Loan): Hermitian eigenvalues 4/3 n^3,
    with vectors 9 n^3; thin SVD 6 m k^2 + 20 k^3; thin QR with Q formed
    4 m k^2 - 4/3 k^3. A complex multiply-add costs four real ones. Bytes are
    the input read once plus the outputs written once.
    """
    a = np.asarray(a)
    m, n = a.shape[-2:]
    batch = int(np.prod(a.shape[:-2]))
    k = min(m, n)
    cplx = np.iscomplexobj(a)
    item = a.itemsize
    real_item = item // 2 if cplx else item
    if name == "eigvalsh":
        flops, out = 4 / 3 * n**3, n * real_item
    elif name == "eigh":
        flops, out = 9 * n**3, n * real_item + n * n * item
    elif name == "svd":
        flops, out = 6 * max(m, n) * k**2 + 20 * k**3, (m * k + k * n) * item + k * real_item
    else:
        flops, out = 4 * max(m, n) * k**2 - 4 / 3 * k**3, (m * k + k * n) * item
    return batch * flops * (4 if cplx else 1), batch * (m * n * item + out)


class Counter:
    """Call counts plus bytes, records and computed kernel work, while `active`."""

    def __init__(self) -> None:
        self.active = False
        self.counts: collections.Counter = collections.Counter()

    def _after(self, name: str, args: tuple, result: object) -> None:
        c = self.counts
        if name in ("fileio.parse_arrangement", "fileio.parse_state"):
            c["fileio.bytes_read"] += len(args[0].encode())
            c["fileio.records_read"] += args[0].count('"re":')
        elif name in ("fileio.serialize_arrangement", "fileio.serialize_state"):
            c["fileio.bytes_written"] += len(result.encode())
            c["fileio.records_written"] += result.count('"re":')
        elif name == "viz.render_arrangement_svg":
            c["viz.svg_bytes"] += len(result.encode())

    def wrapper(self, name: str, fn):
        counter = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not counter.active:
                return fn(*args, **kwargs)
            counter.counts[name + ".calls"] += 1
            if name.startswith("kernel."):
                flops, nbytes = _kernel_work(name[7:], args[0])
                counter.counts["kernel.flop_computed"] += flops
                counter.counts["kernel.bytes_computed"] += nbytes
            result = fn(*args, **kwargs)
            counter._after(name, args, result)
            return result

        return counted
