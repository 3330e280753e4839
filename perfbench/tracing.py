"""Layer tracing from outside the program, for the traced run.

``Tracer.install`` replaces every public function of the library's modules
with a wrapper that records a span (name, start, end, parent), in every
namespace that binds it: ``sgr.berezinian`` is a binding of its own, separate
from ``supermatrix.berezinian``, and both must be wrapped.  ``uninstall``
puts the originals back.

The Grassmann layer is different: its operations run millions of times per
pass, so they are counted and timed in aggregate instead of as spans.  The
time of an outermost Lambda operation is charged to the grassmann layer and
removed from the enclosing span's self time, exactly as a child span would be.

A span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import importlib
import inspect
import io
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List

import numpy as np

from supercurves.grassmann import GrassmannScalar, random_element

LAYERS = ("grassmann", "supermatrix", "theta", "jacobian", "sgr", "elliptic", "cli")
_SPAN_MODULES = tuple(f"supercurves.{m}" for m in LAYERS[1:])
# namespaces holding bindings of those functions
_NAMESPACES = _SPAN_MODULES + ("supercurves.acceptance", "supercurves")
_PRIVATE_SPANS = {("supercurves.cli", "_emit")}
_METHOD_SPANS = (("supercurves.theta", "SuperThetaFunction", "evaluate"),)
_LEAF_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
             "__truediv__", "invert", "exp", "substitute")

# per-layer metric -> the spans it sums
SPAN_GROUPS = {
    "supermatrix.berezinian": ("supermatrix.berezinian", "supermatrix.berezinian_star"),
    "supermatrix.det_even": ("supermatrix.det_even", "supermatrix.det_even_laplace"),
    "supermatrix.invert": ("supermatrix.invert_matrix", "supermatrix.invert_even"),
    "supermatrix.quasideterminant": ("supermatrix.quasideterminant",),
    "supermatrix.solve_cramer": ("supermatrix.solve_cramer",),
    "supermatrix.oracle_solve": ("supermatrix.oracle_solve",),
    "supermatrix.solve_via_inverse": ("supermatrix.solve_via_inverse",),
    "theta.theta": ("theta.theta",),
    "theta.check_multipliers": ("theta.check_multipliers",),
    "elliptic.tau_closed_form": ("elliptic.tau_closed_form",),
    "elliptic.ber_check_residual": ("elliptic.ber_check_residual",),
    "sgr.exp_band_apply": ("sgr.exp_band_apply",),
    "sgr.big_cell_test": ("sgr.big_cell_test",),
    "sgr.tau": ("sgr.tau",),
    "sgr.baker_vectors": ("sgr.baker_vectors",),
    "sgr.baker_tau_quotient_check": ("sgr.baker_tau_quotient_check",),
    "jacobian.connecting_map": ("jacobian.connecting_map",),
    "jacobian.dual_cohomology": ("jacobian.dual_cohomology",),
    "jacobian.bilinear_check": ("jacobian.bilinear_check",),
    "cli.parse": ("cli.build_parser", "cli.parse_args"),
    "cli.emit": ("cli._emit",),
}
CALL_GROUPS = ("supermatrix.berezinian", "supermatrix.det_even", "supermatrix.invert",
               "supermatrix.quasideterminant", "supermatrix.solve_cramer",
               "supermatrix.oracle_solve", "supermatrix.solve_via_inverse", "theta.theta",
               "sgr.exp_band_apply", "sgr.big_cell_test", "sgr.tau", "sgr.baker_vectors",
               "sgr.baker_tau_quotient_check")


def _disjoint_pairs(ta, tb) -> int:
    if len(ta) * len(tb) <= 64:
        return sum(1 for sa in ta for sb in tb if not sa & sb)
    ma = np.fromiter(ta, dtype=np.int64, count=len(ta))
    mb = np.fromiter(tb, dtype=np.int64, count=len(tb))
    return int(np.count_nonzero((ma[:, None] & mb[None, :]) == 0))


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.spans: List[list] = []          # [id, parent, name, start, end, child_s]
        self.counts: Counter = Counter()
        self.grassmann_s = 0.0
        self._stack: List[list] = []
        self._leaf_depth = 0
        self._saved: List[tuple] = []        # (owner, attribute, original)
        self._hook_table = self._hooks()

    # -- spans ----------------------------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1][0] if self._stack else -1, name,
               time.perf_counter(), 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        self._stack.pop()
        rec[4] = time.perf_counter()
        if self._stack:
            self._stack[-1][5] += rec[4] - rec[3]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _span_wrapper(self, name: str, fn):
        hook = self._hook_table.get(name)

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        traced.__wrapped__ = fn
        return traced

    # -- per-call counters taken at span boundaries -------------------------------------------
    def _hooks(self) -> Dict:
        def lattice(args):
            self.counts["theta.lattice_point_evals"] += len(args[0].lattice())

        def frame_fill(args):
            frame = args[0]
            cells = [e for row in frame.entries for e in row]
            self.counts["sgr.frame_entries"] += len(cells)
            self.counts["sgr.frame_nonzero"] += sum(1 for e in cells if e.terms)

        def cli_bytes(args):
            self.counts["cli.bytes_in"] += len(" ".join(args[0]))
            if isinstance(sys.stdin, io.StringIO):
                self.counts["cli.bytes_in"] += len(sys.stdin.getvalue())

        hooks = {"theta.theta": lattice, "cli.main": cli_bytes}
        for name in ("tau", "baker_vectors", "baker_tau_quotient_check", "big_cell_test"):
            hooks[f"sgr.{name}"] = frame_fill
        return hooks

    def _emit_wrapper(self, fn):
        def emit(obj):
            start = sys.stdout.tell() if isinstance(sys.stdout, io.StringIO) else 0
            fn(obj)
            if isinstance(sys.stdout, io.StringIO):
                self.counts["cli.bytes_out"] += sys.stdout.tell() - start
        return emit

    def _parser_wrapper(self, fn):
        """build_parser, with parse_args of the parser it returns traced too."""
        def build_parser():
            parser = fn()
            parser.parse_args = self._span_wrapper("cli.parse_args", parser.parse_args)
            return parser
        return build_parser

    # -- the grassmann layer -------------------------------------------------------------------
    def _leaf_wrapper(self, op: str, fn):
        is_mul = op == "__mul__"
        counts = self.counts

        def traced(a, *rest):
            if is_mul and isinstance(rest[0], GrassmannScalar):
                ta, tb = a.terms, rest[0].terms
                counts["grassmann.mul.calls"] += 1
                counts["grassmann.mul.term_pairs"] += len(ta) * len(tb)
                counts["grassmann.mul.useful_pairs"] += _disjoint_pairs(ta, tb)
            if self._leaf_depth:
                return fn(a, *rest)
            self._leaf_depth = 1
            start = time.perf_counter()
            try:
                return fn(a, *rest)
            finally:
                self._leaf_depth = 0
                dt = time.perf_counter() - start
                self.grassmann_s += dt
                if self._stack:
                    self._stack[-1][5] += dt
        return traced

    def _init_wrapper(self, fn):
        counts = self.counts

        def init(self_, *args, **kwargs):
            counts["grassmann.objects"] += 1
            fn(self_, *args, **kwargs)
        return init

    # -- install / uninstall ---------------------------------------------------------------------
    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrappers: Dict[int, object] = {}
        for ns_name in _NAMESPACES:
            ns = importlib.import_module(ns_name)
            for attr, obj in list(vars(ns).items()):
                if not inspect.isfunction(obj) or obj.__module__ not in _SPAN_MODULES:
                    continue
                if attr.startswith("_") and (obj.__module__, obj.__name__) not in _PRIVATE_SPANS:
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    if name == "cli._emit":
                        wrapper = self._span_wrapper(name, self._emit_wrapper(obj))
                    elif name == "cli.build_parser":
                        wrapper = self._span_wrapper(name, self._parser_wrapper(obj))
                    else:
                        wrapper = self._span_wrapper(name, obj)
                    wrappers[id(obj)] = wrapper
                self._replace(ns, attr, wrapper)
        for mod_name, cls_name, meth in _METHOD_SPANS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            layer = mod_name.rsplit(".", 1)[1]
            self._replace(cls, meth, self._span_wrapper(f"{layer}.{meth}", cls.__dict__[meth]))
        for op in _LEAF_OPS:
            self._replace(GrassmannScalar, op, self._leaf_wrapper(op, GrassmannScalar.__dict__[op]))
        self._replace(GrassmannScalar, "__init__", self._init_wrapper(GrassmannScalar.__init__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------------------------
    def span_rows(self) -> List[dict]:
        return [{"id": s[0], "parent": s[1], "name": s[2], "start_s": s[3], "end_s": s[4],
                 "self_s": s[4] - s[3] - s[5]} for s in self.spans]

    def _ancestor_flags(self, name: str) -> List[bool]:
        """flags[i]: span i is, or runs inside, a span called ``name``."""
        flags: List[bool] = []
        for _, parent, sname, *_ in self.spans:
            flags.append(sname == name or (parent >= 0 and flags[parent]))
        return flags

    def metrics(self) -> Dict[str, float]:
        calls: Counter = Counter()
        self_s: Dict[str, float] = defaultdict(float)
        layer_s: Dict[str, float] = defaultdict(float)
        for _, _, name, start, end, child in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child
            layer_s[name.split(".", 1)[0]] += end - start - child
        layer_s["grassmann"] = self.grassmann_s

        out: Dict[str, float] = {}
        c = self.counts
        out["grassmann.mul.calls"] = c["grassmann.mul.calls"]
        out["grassmann.mul.term_pairs"] = c["grassmann.mul.term_pairs"]
        out["grassmann.mul.useful_frac"] = (c["grassmann.mul.useful_pairs"]
                                            / max(c["grassmann.mul.term_pairs"], 1))
        out["grassmann.objects"] = c["grassmann.objects"]
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_ms"] = layer_s[layer] * 1e3
        for group, members in SPAN_GROUPS.items():
            if group in CALL_GROUPS:
                out[f"{group}.calls"] = sum(calls[m] for m in members)
            out[f"{group}.ms"] = sum(self_s[m] for m in members) * 1e3
        out["cli.main.ms"] = sum(s for name, s in self_s.items()
                                 if name == "cli.main" or name.startswith("cli.cmd_")) * 1e3
        out["cli.bytes_in"] = c["cli.bytes_in"]
        out["cli.bytes_out"] = c["cli.bytes_out"]

        in_cramer = self._ancestor_flags("supermatrix.solve_cramer")
        inversions = sum(1 for s in self.spans if in_cramer[s[0]]
                         and s[2] in SPAN_GROUPS["supermatrix.invert"])
        out["supermatrix.inversions_per_cramer"] = (
            inversions / max(calls["supermatrix.solve_cramer"], 1))
        in_evaluate = self._ancestor_flags("theta.evaluate")
        nested = sum(1 for s in self.spans if in_evaluate[s[0]] and s[2] == "theta.theta")
        out["theta.theta_calls_per_evaluate"] = nested / max(calls["theta.evaluate"], 1)
        out["theta.lattice_point_evals"] = c["theta.lattice_point_evals"]
        out["sgr.frame_fill_frac"] = c["sgr.frame_nonzero"] / max(c["sgr.frame_entries"], 1)
        return out


def dense_mul_us(n: int, reps: int, seed: int = 0) -> float:
    """Median time of one product of two dense elements of Lambda_n, in microseconds."""
    rng = np.random.default_rng([seed, n])
    a = random_element(rng, n)
    b = random_element(rng, n)
    if n <= 8:
        a * b   # builds the lazily cached sign table outside the timing
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        a * b
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def kernel_probe(seed: int) -> Dict[str, float]:
    """One dense Lambda product at n = 4, 8 and 12 (above 8 there is no sign table)."""
    return {"grassmann.dense_mul_us.n4": dense_mul_us(4, 201, seed),
            "grassmann.dense_mul_us.n8": dense_mul_us(8, 11, seed),
            "grassmann.dense_mul_us.n12": dense_mul_us(12, 1, seed)}
