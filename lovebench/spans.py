"""Spans around the calls through which one lovelab module uses another.

A Tracer replaces each boundary function, in every lovelab module that
holds a reference to it (``from .quadrature import _tanh_sinh`` makes one
per importing module), by a wrapper that records a span; ``uninstall``
puts the originals back.  The package's files are not touched.

A span is ``[command, name, start, end, parent, count, call]``: the
command id set by the benchmark, the boundary name, perf_counter times,
the index of the enclosing span (for spans opened on a worker thread, the
command's root span), a per-boundary work count, and the call's arguments
(kept only where a later replay needs them).  Spans stay in memory until
the benchmark writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time

# (span name, owning module, attribute, what the span counts)
#   nodes:  len(result.nodes), the solve's N
#   evals:  abscissae passed to the integrand
#   panels: len(edges) - 1
#   elems:  size of the first argument
BOUNDARIES = (
    ("cli.main", "cli", "main", None),
    ("love.solve_love", "love", "solve_love", "nodes"),
    ("love.observables", "love", "observables", None),
    ("love.weak_coupling_fit", "love", "weak_coupling_fit", None),
    ("asymptotics.epsilon_of_gamma", "asymptotics", "epsilon_of_gamma", None),
    ("asymptotics.outer_subtracted", "asymptotics", "_outer_subtracted", None),
    ("capacitor2d.cumulative_phi", "capacitor2d", "cumulative_phi", None),
    ("capacitor2d.cumulative_phi_log", "capacitor2d", "cumulative_phi_log", None),
    ("capacitor2d.phi_prime_polylog_integral", "capacitor2d",
     "phi_prime_polylog_integral", None),
    ("conjectures.verify_gamma0", "conjectures", "verify_gamma0", None),
    ("conjectures.verify_gamma1", "conjectures", "verify_gamma1", None),
    ("conjectures.verify_gamma2", "conjectures", "verify_gamma2", None),
    ("conjectures.verify_integral4", "conjectures", "verify_integral4", None),
    ("conjectures.verify_polylog_claim", "conjectures", "verify_polylog_claim", None),
    ("conjectures.residue_identity", "conjectures", "residue_identity", None),
    ("quadrature.tanh_sinh", "quadrature", "_tanh_sinh", "evals"),
    ("quadrature.panel_sum", "quadrature", "_panel_sum", "panels"),
    ("quadrature.fit_log_tail", "quadrature", "fit_log_tail", None),
    ("quadrature.gauss_legendre", "quadrature", "gauss_legendre", None),
    ("specfun.w_upper", "specfun", "_w_upper_from_offset", "elems"),
    ("specfun.polylog_exp_neg", "specfun", "_polylog_exp_neg", None),
    ("specfun.dk", "specfun", "_dk_vec", "elems"),
)

PACKAGE = "lovelab"
_MARK = "__lovebench_span__"
COMMAND, NAME, START, END, PARENT, COUNT, CALL = range(7)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def wrapped() -> list[str]:
    """Every 'module.attribute' of lovelab that holds a span wrapper."""
    return sorted(f"{m.__name__}.{attr}" for m in _package_modules()
                  for attr, value in vars(m).items() if hasattr(value, _MARK))


class Tracer:
    """Records spans at the boundaries while installed."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans: list[list] = []
        self.absent: list[str] = []     # boundaries not found in the package
        self.command = None
        self._root = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    # -- installing -----------------------------------------------------

    def install(self) -> "Tracer":
        self.absent = []
        for name, module, attr, counter in self.boundaries:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                owner = None
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(name, original, counter)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return self

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._root
        span = [self.command, name, 0.0, 0.0, parent, 0, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
            if parent is None:
                self._root = index
        stack.append(index)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        stack = self._local.stack
        index = stack.pop()
        if span[PARENT] is None:
            with self._lock:
                if self._root == index:
                    self._root = None

    def _wrap(self, name: str, func, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                if counter == "evals":
                    f = args[0]

                    def counted(x):
                        span[COUNT] += len(x)
                        return f(x)

                    args = (counted,) + args[1:]
                elif counter == "panels":
                    span[COUNT] = len(args[1]) - 1
                elif counter == "elems":
                    span[COUNT] = int(getattr(args[0], "size", 1))
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter == "nodes":
                span[COUNT] = len(result.nodes)
                span[CALL] = (args, kwargs)
            return result

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = func
        return wrapper

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """One JSON line per span; ``parent`` indexes the line order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "command": span[COMMAND], "name": span[NAME],
                    "start": span[START], "end": span[END],
                    "parent": span[PARENT], "count": span[COUNT]}) + "\n")


def totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per boundary name: calls, summed duration s, summed self time self_s,
    and summed count.  Self time is a span's duration minus the part of it
    its children cover (children on two threads may overlap)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = out.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                            "count": 0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - covered
        entry["count"] += span[COUNT]
    return out
