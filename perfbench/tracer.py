"""Span tracing for the benchmark's traced run.

The engine's modules import each other's functions by name, so a function is
wrapped at every place it is looked up: the tracer scans every loaded
`kappainv` module for the function object and replaces each reference, and
patches methods (`Poly.mul`, `Field.all_nth_roots`, ...) on their class.
`uninstall()` puts every original back.

A span is [name, start_ns, end_ns, parent index, case id].  Spans of the
running case stay in memory; `end_case()` folds them into per-name call
counts and self times (duration minus the time covered by child spans; the
engine is single-threaded, so children never overlap).  The spans of the
first traced pass are also kept, packed into an int64 array, and written
out at the end as gzipped tab-separated lines.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

# (home module, attribute, span name); "Class.method" patches the class
TARGETS = [
    ("kappainv.cli", "main", "cli.main"),
    ("kappainv.poly", "parse_polynomial", "parse.polynomial"),
    ("kappainv.poly", "weierstrass_validate", "parse.validate"),
    ("kappainv.kappa", "compute_kappa", "kappa.compute"),
    ("kappainv.kappa", "prepare_polyhedron", "kappa.prepare"),
    ("kappainv.kappa", "binomialize_modulo", "kappa.binomialize"),
    ("kappainv.polyhedron", "weighted_projected_polyhedron", "polyhedron.project"),
    ("kappainv.polyhedron", "hull_vertices", "polyhedron.hull"),
    ("kappainv.polyhedron", "member", "polyhedron.member"),
    ("kappainv.polyhedron", "polyhedron_leq", "polyhedron.leq"),
    ("kappainv.poly", "substitute", "poly.substitute"),
    ("kappainv.poly", "power_substitute", "poly.power_substitute"),
    ("kappainv.poly", "normal_form", "poly.normal_form"),
    ("kappainv.poly", "Poly.mul", "poly.mul"),
    ("kappainv.poly", "exact_div", "poly.exact_div"),
    ("kappainv.quasiord", "classify", "quasiord.classify"),
    ("kappainv.quasiord", "discriminant_z", "quasiord.disc"),
    ("kappainv.quasiord", "determinant", "quasiord.det"),
    ("kappainv.quasiord", "is_monomial_times_unit", "quasiord.monomial_unit"),
    ("kappainv.ring", "Field.all_nth_roots", "ring.roots"),
    ("kappainv.ring", "Field.root_extension_degree", "ring.root_ext"),
    ("kappainv.ring", "Field.__init__", "ring.field_init"),
    ("kappainv.deform", "lift_presentation", "deform.lift"),
    ("kappainv.deform", "ghost_monomials", "deform.ghosts"),
    ("kappainv.deform", "eliminate_to_hypersurface", "deform.eliminate"),
    ("kappainv.deform", "initial_forms_weighted", "deform.initial"),
    ("kappainv.deform", "default_tropical_weight", "deform.weight"),
]

SPAN_INDEX = {name: i for i, (_, _, name) in enumerate(TARGETS)}


def _count(counters, key, amount=1):
    counters[key] = counters.get(key, 0) + amount


def _observe_hull(counters, args, result):
    points = args[0]
    _count(counters, "polyhedron.hull.points", len(points) if hasattr(points, "__len__") else 0)
    _count(counters, "polyhedron.hull.vertices", len(result.vertices))


def _observe_mul(counters, args, result):
    _count(counters, "poly.mul.term_pairs", len(args[0].terms) * len(args[1].terms))


def _observe_det(counters, args, result):
    size = len(args[0])
    _count(counters, "quasiord.det.size_sum", size)
    counters["quasiord.det.size_max"] = max(counters.get("quasiord.det.size_max", 0), size)


def _observe_binomialize(counters, args, result):
    if type(result[0]).__name__ == "BinomialPower":
        _count(counters, "kappa.binomialize.hits")


def _observe_prepare(counters, args, result):
    _count(counters, "kappa.eliminations", result.eliminations)


def _observe_compute(counters, args, result):
    _count(counters, "kappa.stages", len(result.invariant.vertices))


def _observe_ghosts(counters, args, result):
    _count(counters, "deform.hypersurface_terms", len(result.hypersurface.terms))
    _count(counters, "deform.ghosts", len(result.ghosts))


COUNTERS = {"polyhedron.hull.points", "polyhedron.hull.vertices", "poly.mul.term_pairs",
            "quasiord.det.size_sum", "quasiord.det.size_max", "kappa.binomialize.hits",
            "kappa.eliminations", "kappa.stages", "deform.hypersurface_terms", "deform.ghosts"}

OBSERVERS = {
    "polyhedron.hull": _observe_hull,
    "poly.mul": _observe_mul,
    "quasiord.det": _observe_det,
    "kappa.binomialize": _observe_binomialize,
    "kappa.prepare": _observe_prepare,
    "kappa.compute": _observe_compute,
    "deform.ghosts": _observe_ghosts,
}


class Tracer:
    def __init__(self):
        self.spans = []        # spans of the running case
        self.kept = array("q")  # first traced pass: name, start, end, parent, case
        self.keep = False
        self.case_ids = []
        self.stack = []
        self.case_id = None
        self.calls = {}
        self.self_ns = {}
        self.top_ns = 0        # time covered by top-level spans
        self.counters = {}
        self._undo = []

    # -- patching ------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, perf_counter_ns
        observe = OBSERVERS.get(name)
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, tracer.case_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "kappainv" or key.startswith("kappainv."))]
        for home, attr, name in TARGETS:
            owner = sys.modules[home]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- per-case folding ------------------------------------------------------

    def begin_case(self, case_id):
        self.case_id = case_id
        if self.keep:
            self.case_ids.append(case_id)
        self.spans.clear()
        self.stack.clear()

    def end_case(self):
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
            else:
                self.top_ns += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + (end - start - child_ns[i])
        if self.keep:
            case = len(self.case_ids) - 1
            base = len(self.kept) // 5
            for name, start, end, parent, _ in spans:
                self.kept.extend((SPAN_INDEX[name], start, end,
                                  parent + base if parent >= 0 else -1, case))
        spans.clear()

    @property
    def span_count(self) -> int:
        return sum(self.calls.values())

    def write_spans(self, path):
        """One line per span: name, start_ns, end_ns, parent line (-1: none), case id."""
        names = list(SPAN_INDEX)
        kept = self.kept
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tcase\n")
            for i in range(0, len(kept), 5):
                fh.write(f"{names[kept[i]]}\t{kept[i + 1]}\t{kept[i + 2]}\t"
                         f"{kept[i + 3]}\t{self.case_ids[kept[i + 4]]}\n")
