"""Spans and counters around the public functions of each toepblocks layer.

The tracer lives in the benchmark, outside the package: ``install`` replaces
each traced function in every ``toepblocks`` module namespace that holds it
(modules import functions by name, so patching the defining module alone
would miss most calls), and wraps the callables a symbol carries as
``cli.build_symbol`` returns it.  Spans are kept in memory as
``[name, start, end, parent]`` and written once, when the traced run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import time


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) >= 2 else 1


def _points(tracer, name, args, kwargs, result):
    tracer.count(name + ".points", _rows(args[0]))


def _calls(tracer, name, args, kwargs, result):
    tracer.count(name + ".calls", 1)


def _radial_rule(tracer, name, args, kwargs, result):
    p, kappa, spec = args[:3]
    lam = args[3] if len(args) > 3 else kwargs.get("lam")
    lam = spec.lam if lam is None else lam
    tracer.count(name + ".calls", 1)
    tracer.distinct.add((p.k, tuple(int(v) for v in kappa),
                         spec.radial_nodes, float(lam)))


def _sphere_nodes(tracer, name, args, kwargs, result):
    # complex_sphere_rule calls the positive and torus rules: count the
    # nodes of the outermost rule only
    if not tracer.inside(name):
        tracer.count(name + ".nodes", len(result[0]))


def _haar_one(tracer, name, args, kwargs, result):
    tracer.count(name + ".unitaries", 1)


def _haar_batch(tracer, name, args, kwargs, result):
    tracer.count(name + ".unitaries", int(args[1]))


def _oracle_samples(tracer, name, args, kwargs, result):
    n = args[6] if len(args) > 6 else kwargs.get("n_samples")
    if n is None:
        spec = args[4] if len(args) > 4 else kwargs["spec"]
        n = spec.ball_samples
    tracer.count(name + ".samples", int(n))


def _entries(tracer, name, args, kwargs, result):
    tracer.count(name + ".entries", int(result.size))


def _ball_points(tracer, name, args, kwargs, result):
    tracer.count(name + ".points", int(args[2]))


def _noop(tracer, name, args, kwargs, result):
    pass


# (module, function) -> (span name, counter).  Several functions may share a
# span name: their self times add up under it.
TARGETS = {
    ("cli", "load_config"): ("cli.load_config", _noop),
    ("cli", "cmd_build"): ("cli.write", _noop),
    ("cli", "cmd_verify"): ("cli.write", _noop),
    ("mindex", "enumerate_kappas"): ("mindex.enumerate", _calls),
    ("mindex", "enumerate_basis"): ("mindex.enumerate", _calls),
    ("mindex", "enumerate_multiindices"): ("mindex.enumerate", _calls),
    ("quad", "radial_rule"): ("quad.radial_rule", _radial_rule),
    ("quad", "complex_sphere_rule"): ("quad.sphere_rule", _sphere_nodes),
    ("quad", "positive_sphere_rule"): ("quad.sphere_rule", _sphere_nodes),
    ("quad", "torus_rule"): ("quad.sphere_rule", _sphere_nodes),
    ("quad", "sample_ball"): ("quad.sample_ball", _ball_points),
    ("quad", "haar_unitary"): ("quad.haar", _haar_one),
    ("quad", "haar_unitary_batch"): ("quad.haar", _haar_batch),
    ("quad", "haar_uk_sample"): ("quad.haar", _noop),
    ("toeplitz", "mblock_f"): ("toeplitz.mblock_f", _calls),
    ("toeplitz", "mblock_g"): ("toeplitz.mblock_g", _calls),
    ("toeplitz", "toeplitz_block_f"): ("toeplitz.embed", _noop),
    ("toeplitz", "toeplitz_block_g"): ("toeplitz.embed", _noop),
    ("toeplitz", "gamma_quasi_radial"): ("toeplitz.gamma_quasi_radial", _noop),
    ("toeplitz", "oracle_matrix"): ("toeplitz.oracle_matrix", _oracle_samples),
    ("toeplitz", "toeplitz_block_oracle"): ("toeplitz.oracle_matrix", _noop),
    ("toeplitz", "orthonormal_rows"): ("toeplitz.orthonormal_rows", _entries),
    ("toeplitz", "unitary_action_matrix"):
        ("toeplitz.unitary_action_matrix", _noop),
    ("toeplitz", "operator_to_json"): ("toeplitz.operator_to_json", _noop),
    ("structure", "offblock_leakage"): ("structure.offblock_leakage", _noop),
    ("structure", "equivariance_check"):
        ("structure.equivariance_check", _noop),
    ("structure", "extract_M"): ("structure.tensor_commutator", _noop),
    ("structure", "commutator"): ("structure.tensor_commutator", _noop),
    ("structure", "block_traces"): ("structure.tensor_commutator", _noop),
    ("structure", "trace_identity_check"):
        ("structure.trace_identity_check", _calls),
    ("structure", "trace_integral"): ("structure.trace_integral", _calls),
}

# counted without a span: too cheap and too frequent to time
COUNTED = {("quad", "substream"): ("quad.substream", _calls)}

# callables a symbol carries; the kernels call them directly
SYMBOL_FIELDS = {
    "evaluator": "symbols.evaluator",
    "f_payload": "symbols.f_payload",
    "g_payload": "symbols.g_payload",
    "radial_profile": "symbols.radial_profile",
}

MODULES = ("cli", "mindex", "quad", "symbols", "toeplitz", "structure")


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.stack: list = []
        self.counters: dict = {}
        self.distinct: set = set()

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        """True when an enclosing span (not the current one) has this name."""
        return any(self.spans[i][0] == name for i in self.stack[:-1])

    def wrap(self, name: str, fn, counter=_noop, span: bool = True):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not span:
                result = fn(*args, **kwargs)
                counter(self, name, args, kwargs, result)
                return result
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
            try:
                counter(self, name, args, kwargs, result)
            finally:
                self.stack.pop()
            return result

        return traced

    def wrap_symbol(self, sym):
        fields = {f: self.wrap(name, getattr(sym, f), _points)
                  for f, name in SYMBOL_FIELDS.items()
                  if getattr(sym, f) is not None}
        return dataclasses.replace(sym, **fields)

    def install(self, package) -> None:
        modules = [package] + [getattr(package, m) for m in MODULES]
        plan = [(key, name, counter, True)
                for key, (name, counter) in TARGETS.items()]
        plan += [(key, name, counter, False)
                 for key, (name, counter) in COUNTED.items()]
        for (mod, fn), name, counter, span in plan:
            original = getattr(getattr(package, mod), fn)
            _replace(modules, original, self.wrap(name, original, counter,
                                                 span))
        build_symbol = package.cli.build_symbol

        def traced_build_symbol(*args, **kwargs):
            return self.wrap_symbol(build_symbol(*args, **kwargs))

        _replace(modules, build_symbol, traced_build_symbol)

    def summary(self) -> dict:
        """Self time per span name, counters and ratios for this process."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
        calls = self.counters.get("quad.radial_rule.calls", 0)
        counters = dict(self.counters)
        counters["quad.radial_rule.distinct_ratio"] = (
            len(self.distinct) / calls if calls else 0.0)
        return {"self_s": self_s, "counters": counters,
                "inclusive_s": self._inclusive(
                    {"structure.trace_integral",
                     "structure.trace_identity_check"}),
                "spans": len(self.spans)}

    def _inclusive(self, names: set) -> float:
        """Wall time under the outermost spans with one of these names."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total


def _replace(modules, original, replacement) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
