"""Span recorder for the traced run.

The recorder wraps the public functions of each ``supportlab`` layer from the
outside: it rebinds every module attribute that refers to the original
function, so calls through ``from .x import f`` bindings are traced too, and
``restore`` puts the originals back.  Nothing in the package changes.

A span is ``(span_id, parent_id, name, start, end, thread_id, op_id)``.  Spans
live in memory until the run writes them out.  A span opened on a worker
thread with no open span of its own takes as parent the innermost open span of
the client thread, which is the call that handed it the work.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, layer name, result counter).  A counter maps the call's
# result to {counter name: amount}.  Attributes missing from the program are
# skipped and reported, so a later refactor that deletes one is visible.
TARGETS = [
    ("rng", "stream", "rng.stream", None),
    ("model", "build_projector", "model.build_projector", None),
    ("decoder", "decode_exhaustive", "decoder.decode",
     lambda r: {"decoder.candidates": r.candidates_scored}),
    ("decoder", "score_support", "decoder.score_support", None),
    # The exhaustive decoder scores each candidate through this private
    # helper rather than score_support; both are the per-candidate layer.
    ("decoder", "_score_columns", "decoder.score_support", None),
    ("bounds", "exact_quadratic_log_mgf", "bounds.log_mgf", None),
    ("bounds", "projection_energy", "bounds.projection_energy", None),
    ("bounds", "union_error_bound_sum", "bounds.union", None),
    ("bounds", "union_error_bound_closed_form", "bounds.union", None),
    ("bounds", "regime_table", "bounds.regime", None),
    ("montecarlo", "run_pairwise", "montecarlo.run",
     lambda r: {"montecarlo.trials": r.trials, "montecarlo.errors": r.error_count}),
    ("montecarlo", "run_full_recovery", "montecarlo.run",
     lambda r: {"montecarlo.trials": r.trials, "montecarlo.errors": r.error_count}),
    ("cli", "main", "cli.main", None),
]
VERIFY_CHECKS = {
    "check_chernoff_constants": "chernoff_constants",
    "check_rate_relaxation": "rate_relaxation",
    "check_eigen_pairs": "eigen_pairs",
    "check_quadratic_identities": "quadratic_identities",
    "check_exact_mgf_sampling": "exact_mgf_sampling",
    "check_chi_square_mgf": "chi_square_mgf",
    "check_chain_ordering": "chain_ordering",
    "check_f_curve_derivatives": "f_curve_derivatives",
    "check_curvature_boundary_max": "curvature_boundary_max",
}


def _verify_passed(result) -> dict:
    return {"verify.checks_passed": int(bool(result.passed))}


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id: int | None = None
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack: list[int] = []
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bind_client_thread(self) -> None:
        """Mark the calling thread as the client whose open spans adopt worker spans."""
        self._client_stack = self._stack()

    def wrap(self, name: str, fn, counter=None):
        rec = self
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            outer = stack or rec._client_stack
            parent = outer[-1] if outer else None
            sid = next(rec._ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # list.append is atomic under the interpreter lock.
                rec.spans.append((sid, parent, name, start, end, ident(), rec.op_id))
            if counter is not None:
                amounts = counter(result)
                with rec._lock:
                    for key, amount in amounts.items():
                        rec.counts[key] += amount
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the loaded ``supportlab`` modules."""
        targets = list(TARGETS)
        targets += [("verify", attr, f"verify.{short}", _verify_passed)
                    for attr, short in VERIFY_CHECKS.items()]
        for module_name, attr, name, counter in targets:
            module = sys.modules.get(f"supportlab.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "supportlab" and not mod_name.startswith("supportlab."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def restore(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def layer_times(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per layer name: calls, busy (union of its spans), summed and self time.

    Self time of a span is its duration minus the part of its interval that
    its child spans cover, on any thread; busy time counts an instant once
    even when spans of the layer run on two threads at that instant.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "sum_s": 0.0, "self_s": 0.0,
                                                    "intervals": []})
    for sid, _, name, start, end, _, _ in spans:
        entry = by_name[name]
        entry["calls"] += 1
        entry["sum_s"] += end - start
        entry["intervals"].append((start, end))
        inside = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ())]
        entry["self_s"] += (end - start) - _covered([iv for iv in inside if iv[1] > iv[0]])
    return {
        name: {"calls": e["calls"], "busy_s": _covered(e["intervals"]),
               "sum_s": e["sum_s"], "self_s": e["self_s"]}
        for name, e in by_name.items()
    }
