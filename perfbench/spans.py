"""Span recorder for the traced benchmark run.

Spans are recorded from outside the library: each traced public function is
replaced, at every module that binds it, by a wrapper that records a span
(name, start, end, parent span, round). ``from .linalg import eig_hermitian``
copies the function reference into the importing module, so patching
``linalg`` alone would miss the calls made from ``metrics``, ``transport``
and ``divergences``. Each ``eig_hermitian`` span also records the layer that
asked for it: the first calling module outside ``linalg``, so the spectral
calls ``herm_log`` and ``herm_power`` make for ``divergences`` are charged to
``divergences``.

Spans stay in memory (typed arrays, about 30 bytes each) until the run ends;
self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name): the public functions of each layer whose
# cost a ROADMAP item is expected to move.
TRACED_FUNCTIONS = (
    ("qpathdiv.linalg", "eig_hermitian", "linalg.eig_hermitian"),
    ("qpathdiv.linalg", "herm_power", "linalg.herm_power"),
    ("qpathdiv.linalg", "herm_log", "linalg.herm_log"),
    ("qpathdiv.states", "validate_density", "states.validate_density"),
    ("qpathdiv.states", "random_density", "states.random_density"),
    ("qpathdiv.metrics", "kernel_matrix", "metrics.kernel_matrix"),
    ("qpathdiv.metrics", "fisher_info_mixture", "metrics.fisher_info_mixture"),
    ("qpathdiv.transport", "solve_direction", "transport.solve_direction"),
    ("qpathdiv.transport", "e_transport", "transport.e_transport"),
    ("qpathdiv.divergences", "m_divergence", "divergences.m_divergence"),
    ("qpathdiv.divergences", "m_divergence_detail", "divergences.m_divergence_detail"),
    ("qpathdiv.divergences", "e_divergence_quadrature", "divergences.e_divergence_quadrature"),
    ("qpathdiv.divergences", "e_divergence_closed", "divergences.e_divergence_closed"),
    ("qpathdiv.channels", "apply_channel", "channels.apply_channel"),
    ("qpathdiv.channels", "partial_trace", "channels.partial_trace"),
    ("qpathdiv.channels", "sandwich_pvm", "channels.sandwich_pvm"),
    ("qpathdiv.serialize", "load_state", "serialize.load_state"),
)
MOMENT_SPAN = "transport.MomentFunction"  # MomentFunction.__call__: one mu evaluation
QUADRATURE_SPAN = "divergences.adaptive_gauss_legendre"
LEGGAUSS_SPAN = "divergences.leggauss"  # numpy's leggauss, called only from divergences
# spans opened by the benchmark around its own calls into the library
DRIVER_SPANS = ("harness.run_claim", "cli.main")

SPAN_NAMES = (
    tuple(name for _, _, name in TRACED_FUNCTIONS)
    + (MOMENT_SPAN, QUADRATURE_SPAN, LEGGAUSS_SPAN)
    + DRIVER_SPANS
)
EIG_SPAN = "linalg.eig_hermitian"
EIG_CALLERS = ("metrics", "transport", "divergences", "channels", "harness")
EIG_DIMS = (2, 4, 16)
QUADRATURE_COUNTERS = ("integrand_evals", "returned_nodes", "refined", "failed")


class SpanRecorder:
    """Records spans into flat arrays; ``summary`` aggregates them."""

    def __init__(self) -> None:
        self.names: list[str] = list(SPAN_NAMES)
        self.callers: list[str] = [""]
        self._name_ids = {n: i for i, n in enumerate(self.names)}
        self._caller_ids = {"": 0}
        self.name_id = array("i")
        self.caller_id = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(QUADRATURE_COUNTERS, 0)
        self.current_round = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _caller(self, home: str) -> int:
        """Id of the first calling module outside ``home`` and this file."""
        frame = sys._getframe(2)
        while frame is not None and frame.f_globals.get("__name__") in (home, __name__):
            frame = frame.f_back
        caller = frame.f_globals.get("__name__", "").rpartition(".")[2] if frame else ""
        if caller not in self._caller_ids:
            self._caller_ids[caller] = len(self.callers)
            self.callers.append(caller)
        return self._caller_ids[caller]

    def open(self, name: str, tag: int = 0, caller: int = 0) -> int:
        idx = len(self.start)
        self.name_id.append(self._name_ids[name])
        self.caller_id.append(caller)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.tag.append(tag)
        self.round.append(self.current_round)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, tag=None):
        """``fn`` wrapped so that each call records one span; with ``tag``,
        the span also keeps ``tag(args)`` and its calling layer."""
        home = fn.__module__

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if tag is None:
                idx = self.open(name)
            else:
                idx = self.open(name, tag(args), self._caller(home))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return spanned

    def _quadrature(self, fn):
        signature = inspect.signature(fn)
        counters = self.counters

        def counted_quadrature(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            integrand = bound.arguments["f"]

            def counted(t):
                counters["integrand_evals"] += 1
                return integrand(t)

            bound.arguments["f"] = counted
            try:
                value, nodes = fn(*bound.args, **bound.kwargs)
            except Exception:
                counters["failed"] += 1
                raise
            counters["returned_nodes"] += nodes
            counters["refined"] += nodes > 2 * bound.arguments["config"].nodes
            return value, nodes

        return self.span(QUADRATURE_SPAN, functools.wraps(fn)(counted_quadrature))

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function at each package module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("qpathdiv") and m]
        targets = [(sys.modules[mod], attr, name) for mod, attr, name in TRACED_FUNCTIONS]
        divergences = sys.modules["qpathdiv.divergences"]
        targets.append((divergences, "adaptive_gauss_legendre", QUADRATURE_SPAN))
        for home, attr, name in targets:
            original = getattr(home, attr)
            if name == QUADRATURE_SPAN:
                wrapped = self._quadrature(original)
            elif name == EIG_SPAN:
                wrapped = self.span(name, original, tag=_leading_dim)
            else:
                wrapped = self.span(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        moment = sys.modules["qpathdiv.transport"].MomentFunction
        self._patch(moment, "__call__", self.span(MOMENT_SPAN, moment.__call__))
        legendre = np.polynomial.legendre
        self._patch(legendre, "leggauss", self.span(LEGGAUSS_SPAN, legendre.leggauss))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- aggregation -------------------------------------------------------

    def _arrays(self):
        name = np.asarray(self.name_id)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return name, dur, dur - child

    def summary(self, rounds: int) -> dict[str, float]:
        """Per-round calls and self seconds of every span name, plus the
        quadrature counters and the per-dimension eig_hermitian cost."""
        name, dur, self_time = self._arrays()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        out: dict[str, float] = {}
        per_round = 1.0 / max(rounds, 1)
        for i, span_name in enumerate(self.names):
            out[f"{span_name}.calls"] = float(calls[i]) * per_round
            out[f"{span_name}.self_s"] = float(self_s[i]) * per_round
        is_eig = name == self._name_ids[EIG_SPAN]
        tags = np.asarray(self.tag)
        for d in EIG_DIMS:
            sel = is_eig & (tags == d)
            out[f"{EIG_SPAN}.us_per_call.d{d}"] = float(dur[sel].mean() * 1e6) if sel.any() else 0.0
        callers = np.asarray(self.caller_id)
        for caller in EIG_CALLERS:
            cid = self._caller_ids.get(caller, -1)
            out[f"{EIG_SPAN}.calls_from.{caller}"] = float(np.sum(is_eig & (callers == cid))) * per_round
        c = self.counters
        quad_calls = calls[self._name_ids[QUADRATURE_SPAN]]
        out[f"{QUADRATURE_SPAN}.integrand_evals"] = c["integrand_evals"] * per_round
        out[f"{QUADRATURE_SPAN}.useful_node_ratio"] = (
            c["returned_nodes"] / c["integrand_evals"] if c["integrand_evals"] else 0.0
        )
        out[f"{QUADRATURE_SPAN}.refined_share"] = c["refined"] / quad_calls if quad_calls else 0.0
        out[f"{QUADRATURE_SPAN}.failed"] = c["failed"] * per_round
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (name, caller, round, parent, start, end, tag)."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[self.name_id[i]],
                            "caller": self.callers[self.caller_id[i]],
                            "round": self.round[i],
                            "parent": self.parent[i],
                            "start": self.start[i],
                            "end": self.end[i],
                            "tag": self.tag[i],
                        }
                    )
                    + "\n"
                )


def _leading_dim(args) -> int:
    return len(args[0])
