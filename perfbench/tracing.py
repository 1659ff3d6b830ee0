"""Spans around slicegb's public functions, installed from outside.

``Installed(recorder)`` replaces each traced function by a wrapper in
every slicegb module that holds it (``eliminate`` is looked up in
``sections``, ``families`` and ``hough`` as well as in ``groebner``),
and its ``uninstall`` puts the originals back.  Spans nest: a span's self
time is its duration minus that of the spans directly inside it, and a
name's total time counts only its outermost calls.  Exceptions pass
through unchanged.  Worker processes forked while the wrappers are in
place call straight through, so only the parent process is traced; its
side of the process fan-out is measured by wrapping
``slicegb.sections.ProcessPoolExecutor``.
"""

import functools
import importlib
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, attribute); "Class.method" patches the class
TARGETS = {
    "cli.main": ("slicegb.cli", "main"),
    "parsing.parse_polynomial": ("slicegb.parsing", "parse_polynomial"),
    "parsing.format_polynomial": ("slicegb.parsing", "format_polynomial"),
    "poly.substitute": ("slicegb.poly", "Polynomial.substitute"),
    "poly.compose": ("slicegb.poly", "compose"),
    "groebner.buchberger": ("slicegb.groebner", "buchberger"),
    "groebner.reduce_basis": ("slicegb.groebner", "reduce_basis"),
    "groebner.eliminate": ("slicegb.groebner", "eliminate"),
    "groebner.normal_form": ("slicegb.groebner", "normal_form"),
    "groebner.exact_divide": ("slicegb.groebner", "exact_divide"),
    "ratfunc.polynomial_gcd": ("slicegb.ratfunc", "polynomial_gcd"),
    "sections.implicitize": ("slicegb.sections", "implicitize"),
    "sections.slice_elim": ("slicegb.sections", "_slice_curve_job"),
    "sections.common_lifting": ("slicegb.sections", "common_lifting"),
    "sections.lagrange": ("slicegb.sections", "lagrange_coefficients"),
    "sections.reconstruct_basis": ("slicegb.sections", "reconstruct_basis"),
    "families.family_basis": ("slicegb.families", "family_basis"),
    "families.coefficient_scheme": ("slicegb.families", "coefficient_scheme"),
    "families.family_section": ("slicegb.families", "family_section"),
    "hough.detect": ("slicegb.hough", "detect"),
    "hough.reconstruct_surface": ("slicegb.hough", "reconstruct_surface"),
    "hough.generic_hough_dimension": ("slicegb.hough", "generic_hough_dimension"),
}


def _coeff_bits(c):
    if hasattr(c, "numerator") and isinstance(c.numerator, int):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    # a rational function: the widest coefficient of either side
    return max(_coeff_bits(v) for side in (c.num, c.den) for v in side.terms.values())


def _observe_basis(rec, result):
    rec.observed["basis_len"].append(len(result))
    rec.observed["coeff_bits"].append(
        max((_coeff_bits(c) for g in result for c in g.terms.values()), default=0)
    )


def _observe_slice(rec, args, elapsed):
    _, _, sub_pairs, pivot_image, _, gamma = args[0]
    rec.slice_seconds[_slice_key(sub_pairs, pivot_image, gamma)] = elapsed


def _slice_key(sub_pairs, pivot_image, gamma):
    pairs = tuple((name, tuple(sorted(img.terms.items()))) for name, img in sub_pairs)
    return pairs, tuple(sorted(pivot_image.terms.items())), gamma


class Recorder:
    """Calls, total and self seconds per span name, for one pass."""

    def __init__(self, slice_reference=None):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.depth = Counter()
        self.stack = []
        self.observed = defaultdict(list)
        self.slice_seconds = {}
        # seconds of each slice elimination from an in-process pass,
        # to price the slices dispatched to workers
        self.slice_reference = slice_reference or {}
        self.pool = {"start_s": 0.0, "batches": 0, "wait_s": 0.0, "jobs": 0, "dispatched": []}

    def span(self, name, fn, pid):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            rec.calls[name] += 1
            rec.depth[name] += 1
            children = [0.0]
            rec.stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                rec.stack.pop()
                rec.depth[name] -= 1
                if not rec.depth[name]:
                    rec.total[name] += elapsed
                rec.self_time[name] += elapsed - children[0]
                if rec.stack:
                    rec.stack[-1][0] += elapsed
            if name == "sections.slice_elim":
                _observe_slice(rec, args, elapsed)
            elif name == "sections.common_lifting":
                rec.observed["lifted_slices"].append(len(args[1]))
            elif name == "groebner.buchberger":
                _observe_basis(rec, result)
            return result

        return traced

    def pool_class(self, base):
        rec = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                start = perf_counter()
                super().__init__(*args, **kwargs)
                rec.pool["start_s"] += perf_counter() - start
                rec.pool["jobs"] = max(rec.pool["jobs"], self._max_workers)

            def map(self, fn, *iterables, **kwargs):
                work = [list(it) for it in iterables]
                start = perf_counter()
                try:
                    results = list(super().map(fn, *work, **kwargs))
                finally:
                    rec.pool["wait_s"] += perf_counter() - start
                    rec.pool["batches"] += 1
                    rec.pool["dispatched"].extend(work[0])
                return iter(results)

        return TracedPool


class Installed:
    """The wrappers of one recorder, in place until ``uninstall``."""

    def __init__(self, recorder):
        self.undo = []
        pid = os.getpid()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "slicegb" or n.startswith("slicegb."))]
        for name, (module_name, attr) in TARGETS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._swap(cls, meth, recorder.span(name, getattr(cls, meth), pid))
                continue
            original = getattr(module, attr)
            wrapper = recorder.span(name, original, pid)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._swap(m, key, wrapper)
        sections = importlib.import_module("slicegb.sections")
        self._swap(sections, "ProcessPoolExecutor",
                   recorder.pool_class(sections.ProcessPoolExecutor))

    def _swap(self, owner, key, value):
        self.undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self.undo):
            setattr(owner, key, value)
        self.undo = []


def layer_metrics(rec):
    """The per-layer metrics of one traced pass."""
    c, t = rec.calls, rec.total
    slices = sorted(rec.slice_seconds.values()) or [0.0]
    pool = rec.pool
    reference = rec.slice_reference or rec.slice_seconds
    dispatched = [_slice_key(w[2], w[3], w[5]) for w in pool["dispatched"]]
    fanout_slice_s = sum((reference.get(k, 0.0) for k in dispatched), 0.0)
    wait = pool["wait_s"]
    out = {
        "groebner.buchberger.calls": c["groebner.buchberger"],
        "groebner.buchberger.s": t["groebner.buchberger"],
        "groebner.reduce_basis.s": t["groebner.reduce_basis"],
        "groebner.eliminate.calls": c["groebner.eliminate"],
        "groebner.eliminate.s": t["groebner.eliminate"],
        "groebner.basis_len.max": max(rec.observed["basis_len"], default=0),
        "groebner.coeff_bits.max": max(rec.observed["coeff_bits"], default=0),
        "groebner.normal_form.calls": c["groebner.normal_form"],
        "groebner.normal_form.s": t["groebner.normal_form"],
        "groebner.exact_divide.calls": c["groebner.exact_divide"],
        "groebner.exact_divide.s": t["groebner.exact_divide"],
        "ratfunc.polynomial_gcd.calls": c["ratfunc.polynomial_gcd"],
        "ratfunc.polynomial_gcd.s": t["ratfunc.polynomial_gcd"],
        "sections.slices.computed": c["sections.slice_elim"] + len(dispatched),
        "sections.slices.kept": sum(rec.observed["lifted_slices"]),
        "sections.lifting_rounds": c["sections.common_lifting"],
        "sections.slice_elim_s.min": slices[0],
        "sections.slice_elim_s.median": statistics.median(slices),
        "sections.slice_elim_s.max": slices[-1],
        "sections.fanout.pool_start_s": pool["start_s"],
        "sections.fanout.batches": pool["batches"],
        "sections.fanout.wait_s": wait,
        "sections.fanout.slice_s": fanout_slice_s,
        "sections.fanout.efficiency": fanout_slice_s / (pool["jobs"] * wait) if wait else 0.0,
        "sections.common_lifting.s": t["sections.common_lifting"],
        "sections.lagrange.calls": c["sections.lagrange"],
        "sections.lagrange.s": t["sections.lagrange"],
        "sections.reconstruct_basis.s": t["sections.reconstruct_basis"],
        "poly.substitute.calls": c["poly.substitute"],
        "poly.substitute.s": t["poly.substitute"],
        "poly.compose.calls": c["poly.compose"],
        "poly.compose.s": t["poly.compose"],
        "hough.detect.calls": c["hough.detect"],
        "hough.detect.s": t["hough.detect"],
        "hough.reconstruct_surface.s": t["hough.reconstruct_surface"],
        "hough.generic_hough_dimension.s": t["hough.generic_hough_dimension"],
        "families.family_basis.s": t["families.family_basis"],
        "families.coefficient_scheme.s": t["families.coefficient_scheme"],
        "families.family_section.s": t["families.family_section"],
        "parsing.parse_polynomial.s": t["parsing.parse_polynomial"],
        "parsing.format_polynomial.s": t["parsing.format_polynomial"],
        "cli.main.calls": c["cli.main"],
    }
    return out


def spans(rec):
    """Calls, total and self seconds of every span name."""
    return {name: {"calls": rec.calls[name], "total_s": rec.total[name],
                   "self_s": rec.self_time[name]}
            for name in sorted(rec.calls)}
