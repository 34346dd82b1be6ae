"""Batch driver: parse a run configuration, build operators, run checks.

Configurations are JSON documents with a versioned schema; unknown keys are
rejected so stale configs fail loudly.  Exit codes: 0 when everything
requested passed, 1 when a verification check failed, 2 on configuration or
I/O errors.  Checks marked as expected failures (negative controls) are
reported but never flip the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import structure as st
from .mindex import Partition, dim_P, enumerate_kappas
from .quad import QuadratureSpec, RadialRuleError, haar_uk_sample, substream
from .symbols import (
    GENERAL,
    QUASI_RADIAL,
    RADIAL,
    SEPARATELY_RADIAL,
    TM_INVARIANT,
    Symbol,
    block_hermitian,
    constant_symbol,
    noncommuting_pair,
    phi_factor,
    pseudo_factor,
    radial_poly,
    xi_monomial,
    zpoly,
)
from .toeplitz import (
    assembly_path,
    operator_to_json,
    oracle_operators,
    toeplitz_operator,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Raised for malformed run configurations."""


@dataclass
class RunConfig:
    partition: Partition
    lambdas: list
    degree: int
    symbols: list
    spec: QuadratureSpec
    checks: list
    seed: int
    output_dir: str
    extras: dict
    resolved: dict


def _require_keys(doc: dict, allowed: set, required: set, where: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _is_int(value) -> bool:
    """A JSON integer; booleans are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A JSON number; booleans are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value, where: str) -> complex:
    if _is_real(value):
        return complex(value)
    if (isinstance(value, list) and len(value) == 2
            and all(_is_real(v) for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im] pair")


def _nonneg_int(doc: dict, key: str, default=None) -> int:
    value = doc.get(key, default)
    if not _is_int(value) or value < 0:
        raise ConfigError(f"{key} must be a nonnegative integer")
    return value


def _as_int(value, where: str) -> int:
    if not _is_int(value):
        raise ConfigError(f"{where}: expected an integer")
    return value


def _as_int_list(value, where: str) -> tuple:
    if not isinstance(value, list) or not all(_is_int(v) for v in value):
        raise ConfigError(f"{where}: expected a list of integers")
    return tuple(value)


def _parse_radial_terms(value, where: str):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a non-empty list of terms")
    terms = []
    for i, term in enumerate(value):
        _require_keys(term, {"coeff", "powers"}, {"coeff", "powers"},
                      f"{where}[{i}]")
        coeff = _as_complex(term["coeff"], f"{where}[{i}].coeff")
        terms.append((coeff, _as_int_list(term["powers"],
                                          f"{where}[{i}].powers")))
    return terms


_CLASS_NAMES = {
    "general": GENERAL,
    "tm": TM_INVARIANT,
    "sep_radial": SEPARATELY_RADIAL,
    "quasi_radial": QUASI_RADIAL,
    "radial": RADIAL,
}


def build_symbol(p: Partition, doc: dict) -> Symbol:
    """Construct a shipped parametric symbol from its config entry."""
    if not isinstance(doc, dict):
        raise ConfigError("symbol entries must be objects")
    kind = doc.get("kind")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("every symbol needs a non-empty string 'name'")
    where = f"symbol {name!r}"
    try:
        if kind == "constant":
            _require_keys(doc, {"kind", "name", "value"}, {"value"}, where)
            sym = constant_symbol(p, _as_complex(doc["value"], f"{where}.value"))
        elif kind == "radial_poly":
            _require_keys(doc, {"kind", "name", "terms"}, {"terms"}, where)
            sym = radial_poly(p, _parse_radial_terms(doc["terms"],
                                                     f"{where}.terms"))
        elif kind == "phi":
            _require_keys(doc, {"kind", "name", "j", "p", "q", "radial"},
                          {"j", "p", "q"}, where)
            radial = (_parse_radial_terms(doc["radial"], f"{where}.radial")
                      if "radial" in doc else None)
            sym = phi_factor(p, _as_int(doc["j"], f"{where}.j"),
                             _as_int_list(doc["p"], f"{where}.p"),
                             _as_int_list(doc["q"], f"{where}.q"),
                             radial_terms=radial)
        elif kind == "pseudo":
            _require_keys(doc, {"kind", "name", "j", "s_powers", "t_exp",
                                "radial"}, {"j", "s_powers", "t_exp"}, where)
            radial = (_parse_radial_terms(doc["radial"], f"{where}.radial")
                      if "radial" in doc else None)
            sym = pseudo_factor(p, _as_int(doc["j"], f"{where}.j"),
                                _as_int_list(doc["s_powers"],
                                             f"{where}.s_powers"),
                                _as_int_list(doc["t_exp"], f"{where}.t_exp"),
                                radial_terms=radial)
        elif kind == "block_hermitian":
            _require_keys(doc, {"kind", "name", "matrix"}, {"matrix"}, where)
            rows = doc["matrix"]
            if (not isinstance(rows, list) or len(rows) != p.n
                    or any(not isinstance(r, list) or len(r) != p.n
                           for r in rows)):
                raise ConfigError(f"{where}.matrix: expected an n x n array")
            H = np.array([[_as_complex(v, f"{where}.matrix") for v in r]
                          for r in rows])
            sym = block_hermitian(p, H)
        elif kind == "xi_monomial":
            _require_keys(doc, {"kind", "name", "j", "p", "q"},
                          {"j", "p", "q"}, where)
            sym = xi_monomial(p, _as_int(doc["j"], f"{where}.j"),
                              _as_int_list(doc["p"], f"{where}.p"),
                              _as_int_list(doc["q"], f"{where}.q"))
        elif kind == "zpoly":
            _require_keys(doc, {"kind", "name", "terms", "declared_class"},
                          {"terms", "declared_class"}, where)
            cls = doc["declared_class"]
            if not isinstance(cls, str) or cls not in _CLASS_NAMES:
                raise ConfigError(
                    f"{where}.declared_class: one of {sorted(_CLASS_NAMES)}")
            terms = []
            if not isinstance(doc["terms"], list) or not doc["terms"]:
                raise ConfigError(f"{where}.terms: non-empty list required")
            for i, term in enumerate(doc["terms"]):
                _require_keys(term, {"coeff", "z", "zbar"},
                              {"coeff", "z", "zbar"}, f"{where}.terms[{i}]")
                terms.append((
                    _as_complex(term["coeff"], f"{where}.terms[{i}].coeff"),
                    _as_int_list(term["z"], f"{where}.terms[{i}].z"),
                    _as_int_list(term["zbar"], f"{where}.terms[{i}].zbar"),
                ))
            sym = zpoly(p, terms, _CLASS_NAMES[cls])
        else:
            raise ConfigError(f"{where}: unknown kind {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return replace(sym, name=name)


_QUAD_KEYS = {"radial_nodes", "torus_nodes", "sphere_nodes", "ball_samples",
              "haar_samples"}
_EXTRA_KEYS = {"trace_kappas", "equivariance_rotations", "sequence_max_kappa"}


def parse_config(doc: dict, seed_override: int | None = None,
                 out_override: str | None = None) -> RunConfig:
    allowed = {"schema_version", "n", "partition", "lambdas", "degree",
               "symbols", "quadrature", "checks", "seed", "output_dir"}
    allowed |= _EXTRA_KEYS
    _require_keys(doc, allowed,
                  {"schema_version", "partition", "lambdas", "degree",
                   "symbols"}, "config")
    version = doc["schema_version"]
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version!r}; "
            f"this build understands {SCHEMA_VERSION}")
    part = doc["partition"]
    if (not isinstance(part, list) or not part
            or not all(_is_int(v) and v >= 1 for v in part)):
        raise ConfigError("partition must be a list of positive integers")
    p = Partition(tuple(part))
    if "n" in doc and (not _is_int(doc["n"]) or doc["n"] != p.n):
        raise ConfigError(
            f"partition entries sum to {p.n} but n = {doc['n']} was declared")
    lambdas = doc["lambdas"]
    if (not isinstance(lambdas, list) or not lambdas
            or not all(_is_real(v) for v in lambdas)):
        raise ConfigError("lambdas must be a non-empty list of numbers")
    if any(not math.isfinite(v) for v in lambdas):
        raise ConfigError("every lambda must be finite")
    if any(not v > -1 for v in lambdas):
        raise ConfigError("every lambda must be > -1")
    degree = _nonneg_int(doc, "degree")
    seed = _nonneg_int(doc, "seed", 0)
    if seed_override is not None:
        seed = _nonneg_int({"seed": seed_override}, "seed")
    quad_doc = doc.get("quadrature", {})
    _require_keys(quad_doc, _QUAD_KEYS, set(), "quadrature")
    for key, value in quad_doc.items():
        if not _is_int(value) or value < 1:
            raise ConfigError(f"quadrature.{key} must be a positive integer")
    spec = QuadratureSpec(seed=seed, **quad_doc)
    checks = doc.get("checks", list(CHECKS))
    if (not isinstance(checks, list)
            or not all(isinstance(c, str) for c in checks)):
        raise ConfigError("checks must be a list of strings")
    for c in checks:
        if c not in CHECKS:
            raise ConfigError(f"unknown check {c!r}; known: {tuple(CHECKS)}")
    symbol_docs = doc["symbols"]
    if not isinstance(symbol_docs, list) or not symbol_docs:
        raise ConfigError("symbols must be a non-empty list")
    symbols = [build_symbol(p, s) for s in symbol_docs]
    names = [s.name for s in symbols]
    if len(set(names)) != len(names):
        raise ConfigError("symbol names must be unique")
    out_dir = doc.get("output_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output_dir must be a non-empty string")
    if out_override is not None:
        if not isinstance(out_override, str) or not out_override:
            raise ConfigError("--out must be a non-empty string")
        out_dir = out_override
    files = [_output_path("", "op", s.name, lam, ".json")
             for s in symbols for lam in lambdas]
    if len(set(files)) != len(files):
        raise ConfigError(
            "two (symbol, lambda) pairs would share an output file: names "
            "must differ outside the characters written as '_', and lambdas "
            "in their first 6 significant digits")
    extras = {"equivariance_rotations":
              _nonneg_int(doc, "equivariance_rotations", 2),
              "sequence_max_kappa": _nonneg_int(doc, "sequence_max_kappa", 10)}
    if "trace_kappas" in doc:
        # the run's operators hold only the slices with |kappa| <= degree
        tk = doc["trace_kappas"]
        if not isinstance(tk, list):
            raise ConfigError("trace_kappas must be a list of kappa vectors")
        tk = [_as_int_list(v, "trace_kappas") for v in tk]
        if any(len(v) != p.m for v in tk):
            raise ConfigError(f"trace_kappas entries must have length {p.m}")
        if any(min(v) < 0 or sum(v) > degree for v in tk):
            raise ConfigError("trace_kappas entries must be nonnegative "
                              f"with sum <= degree = {degree}")
        extras["trace_kappas"] = tk
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "partition": list(p.k),
        "lambdas": [float(v) for v in lambdas],
        "degree": degree,
        "symbols": symbol_docs,
        "quadrature": {k: getattr(spec, k) for k in sorted(_QUAD_KEYS)},
        "checks": checks,
        "seed": seed,
        "output_dir": str(out_dir),
        **{k: v for k, v in doc.items() if k in _EXTRA_KEYS},
    }
    return RunConfig(p, [float(v) for v in lambdas], degree, symbols, spec,
                     checks, seed, str(out_dir), extras, resolved)


def load_config(path, seed_override=None, out_override=None) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc, seed_override, out_override)


def _output_path(out_dir, prefix: str, name: str, lam: float,
                 suffix: str) -> Path:
    """<out_dir>/<prefix>_<name>_lam<lam:g><suffix> for one (symbol, lambda).

    Characters of the name outside [A-Za-z0-9._-] are written as '_';
    ``parse_config`` rejects a config in which two pairs share a file.
    """
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", name)
    return Path(out_dir) / f"{prefix}_{safe}_lam{lam:g}{suffix}"


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_build(cfg: RunConfig) -> int:
    """Write one operator file per (symbol, lambda).

    Every oracle-path operator of a lambda comes from one shared draw
    (``oracle_operators``); each other operator is built on its own.
    """
    out = Path(cfg.output_dir)
    oracle = [s for s in cfg.symbols if assembly_path(s) == "oracle"]

    def path(sym, lam):
        return _output_path(out, "op", sym.name, lam, ".json")

    def write(sym, lam, T):
        doc = operator_to_json(T)
        doc["meta"]["resolved_config"] = cfg.resolved
        _write_atomic(path(sym, lam), json.dumps(doc))

    for lam in cfg.lambdas:
        for sym, T in zip(oracle, oracle_operators(oracle, cfg.degree, lam,
                                                   cfg.spec)):
            write(sym, lam, T)
    for sym in cfg.symbols:
        if assembly_path(sym) != "oracle":
            for lam in cfg.lambdas:
                write(sym, lam,
                      toeplitz_operator(sym, cfg.degree, lam, cfg.spec))
    for sym in cfg.symbols:
        for lam in cfg.lambdas:
            print(f"wrote {path(sym, lam)}")
    return EXIT_OK


def _tm_symbols(cfg: RunConfig) -> list:
    """The symbols declared block-torus invariant."""
    return [s for s in cfg.symbols if s.klass.implies(TM_INVARIANT)]


class _Plan:
    """One lambda's quantities that several checks read, each computed once,
    on first use: the operators (``operator``), the exact trace right sides
    (``exact_traces``) and, when ``offblock`` runs, the slice traces of its
    draw (``lhs``), which ``trace_identity`` reads."""

    def __init__(self, cfg: RunConfig, lam: float, kappas: list):
        self.cfg, self.lam, self.kappas = cfg, lam, kappas
        self.trace_kappas = cfg.extras.get("trace_kappas", kappas)
        self.lhs = None  # symbol name -> offblock's traces on trace_kappas
        self._ops: dict = {}
        self._exact: dict = {}

    def operator(self, sym):
        if sym.name not in self._ops:
            self._ops[sym.name] = toeplitz_operator(sym, self.cfg.degree,
                                                    self.lam, self.cfg.spec)
        return self._ops[sym.name]

    def exact_traces(self, sym):
        """``trace_integral`` of sym on the trace slices, or None on the
        oracle path, where each check keeps its own Haar stream."""
        if assembly_path(sym) == "oracle":
            return None
        if sym.name not in self._exact:
            self._exact[sym.name] = st.trace_integral(
                sym, self.trace_kappas, self.lam, self.cfg.spec)
        return self._exact[sym.name]


# A check picks the symbols, pairs and slices (of the plan's ``kappas``) it
# visits at the plan's lambda; ``structure`` builds and judges each report.


def _check_offblock(cfg, plan):
    # offblock runs before trace_identity, which reads this draw's traces
    reports, traces = st.offblock_leakage(cfg.symbols, cfg.degree, plan.lam,
                                          cfg.spec,
                                          trace_kappas=plan.trace_kappas)
    plan.lhs = {sym.name: t for sym, t in zip(cfg.symbols, traces)}
    return reports


def _check_tensor(cfg, plan):
    for sym in _tm_symbols(cfg):
        yield st.tensor_constancy_check(plan.operator(sym), sym, plan.kappas)


def _check_commutators(cfg, plan):
    det = [s for s in cfg.symbols if assembly_path(s) != "oracle"]
    for i, a in enumerate(det):
        for b in det[i + 1:]:
            yield st.commutator_check(plan.operator(a), a, plan.operator(b), b)


def _check_trace_identity(cfg, plan):
    symbols = _tm_symbols(cfg)
    lhs = (None if plan.lhs is None
           else [plan.lhs[sym.name] for sym in symbols])
    return st.trace_identity_check(
        symbols, plan.trace_kappas, plan.lam, cfg.spec, lhs=lhs,
        rhs=[plan.exact_traces(sym) for sym in symbols])


def _check_trace_integral(cfg, plan):
    for sym in _tm_symbols(cfg):
        exact = plan.exact_traces(sym)
        for i, kappa in enumerate(plan.trace_kappas):
            yield st.trace_integral_check(
                plan.operator(sym), sym, kappa, cfg.spec,
                integral=None if exact is None else exact[i])


def _check_equivariance(cfg, plan):
    kappas, lam = plan.kappas, plan.lam
    target = kappas[1] if len(kappas) > 1 else kappas[0]
    symbols = _tm_symbols(cfg)
    rngs = [substream(cfg.spec.seed, "equivariance-rot", sym.name, repr(lam))
            for sym in symbols]
    rotations = [[haar_uk_sample(cfg.partition, rng)
                  for _ in range(cfg.extras["equivariance_rotations"])]
                 for rng in rngs]
    return st.equivariance_check([plan.operator(s) for s in symbols],
                                 symbols, rotations, target, cfg.spec)


def _check_sequence(cfg, plan):
    for sym in _tm_symbols(cfg):
        yield st.sequence_report(sym, plan.lam,
                                 cfg.extras["sequence_max_kappa"], cfg.spec)


#: config name -> check, in report order
CHECKS = {
    "offblock": _check_offblock,
    "tensor": _check_tensor,
    "commutators": _check_commutators,
    "trace_identity": _check_trace_identity,
    "trace_integral": _check_trace_integral,
    "equivariance": _check_equivariance,
    "sequence": _check_sequence,
}


def _run_checks(cfg: RunConfig) -> list:
    kappas = enumerate_kappas(cfg.partition, cfg.degree)
    names = [name for name in CHECKS if name in cfg.checks]
    if "sequence" in names and cfg.partition.m != 1:
        names.remove("sequence")
        print("skipping check 'sequence': it needs the single-block "
              "partition k = (n), m = 1", file=sys.stderr)
    reports = []
    for lam in cfg.lambdas:
        plan = _Plan(cfg, lam, kappas)
        reports += [rep for name in names for rep in CHECKS[name](cfg, plan)]
    return reports


def cmd_verify(cfg: RunConfig) -> int:
    out = Path(cfg.output_dir)
    reports = _run_checks(cfg)
    gating = [r for r in reports if not r.expected_fail]
    ok = all(r.passed for r in gating)
    doc = {
        "resolved_config": cfg.resolved,
        "seed": cfg.seed,
        "passed": ok,
        "reports": [r.to_dict() for r in reports],
    }
    _write_atomic(out / "verify_report.json", json.dumps(doc))
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        if r.expected_fail:  # a control did its job when it failed
            status = ("control vacuous" if r.metrics.get("vacuous")
                      else "control failed as expected"
                      if r.metrics["failed_as_expected"]
                      else "CONTROL DID NOT FAIL")
        label = r.provenance.get("symbol") or \
            f"{r.provenance.get('a')}/{r.provenance.get('b')}"
        print(f"{r.check:<20} {label}: {status}")
    print(f"verify: {'all checks passed' if ok else 'FAILURES detected'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _eligible_symbols(cfg: RunConfig, what: str) -> list:
    """The block-torus invariant symbols; a note for each one skipped."""
    eligible = _tm_symbols(cfg)
    for sym in cfg.symbols:
        if sym not in eligible:
            print(f"skipping {sym.name!r}: {what} need block-torus "
                  f"invariant symbols", file=sys.stderr)
    if not eligible:
        raise ConfigError("no block-torus invariant symbols in the config")
    return eligible


def cmd_trace_table(cfg: RunConfig) -> int:
    out = Path(cfg.output_dir)
    p, spec = cfg.partition, cfg.spec
    eligible = _eligible_symbols(cfg, "trace tables")
    kappas = enumerate_kappas(p, cfg.degree)
    for lam in cfg.lambdas:
        for sym in eligible:
            lines = ["kappa,dim,trace_re,trace_im,normalized_re,"
                     "normalized_im,stderr"]
            if assembly_path(sym) != "oracle":  # exact: dim * gamma
                rows = st.trace_integral(sym, kappas, lam, spec)
            else:
                rng = substream(spec.seed, "trace-table", sym.name, repr(lam))
                [rows] = st.oracle_traces([sym], kappas, lam, spec, rng)
            for kappa, (tr, se) in zip(kappas, rows):
                d = dim_P(p, kappa)
                norm = tr / d
                lines.append(
                    f"{';'.join(map(str, kappa))},{d},{tr.real!r},"
                    f"{tr.imag!r},{norm.real!r},{norm.imag!r},{se!r}")
            path = _output_path(out, "trace", sym.name, lam, ".csv")
            _write_atomic(path, "\n".join(lines) + "\n")
            print(f"wrote {path}")
    return EXIT_OK


def cmd_sequence(cfg: RunConfig) -> int:
    if cfg.partition.m != 1:
        raise ConfigError("sequence diagnostics need the single-block "
                          "partition k = (n)")
    out = Path(cfg.output_dir)
    K = cfg.extras["sequence_max_kappa"]
    eligible = _eligible_symbols(cfg, "trace sequences")
    for lam in cfg.lambdas:
        for sym in eligible:
            seq = st.sequence_ST(sym, lam, K, cfg.spec)
            doc = {"symbol": sym.name, "lambda": lam,
                   "resolved_config": cfg.resolved, **seq.to_dict()}
            path = _output_path(out, "sequence", sym.name, lam, ".json")
            _write_atomic(path, json.dumps(doc))
            print(f"wrote {path}")
    return EXIT_OK


def cmd_witness(cfg: RunConfig) -> int:
    """Exhibit the designed non-commuting pair on the first big block."""
    p = cfg.partition
    big = next((j for j, kj in enumerate(p.k, start=1) if kj >= 2), None)
    if big is None:
        raise ConfigError("the non-commutativity witness needs a block of "
                          "size >= 2")
    out = Path(cfg.output_dir)
    a, b = noncommuting_pair(p, big)
    lam = cfg.lambdas[0]
    Ta, Tb = (toeplitz_operator(s, cfg.degree, lam, cfg.spec) for s in (a, b))
    rep = st.commutator_check(Ta, a, Tb, b)  # one block: a control
    worst = rep.metrics["max_frobenius"]
    found = rep.metrics["failed_as_expected"]
    doc = {
        "resolved_config": cfg.resolved,
        "pair": [a.name, b.name],
        "lambda": lam,
        "per_kappa": {",".join(map(str, k)): v
                      for k, v in rep.per_kappa.items()},
        "max_frobenius": worst,
        "witness_found": found,
    }
    _write_atomic(out / "witness.json", json.dumps(doc))
    print(f"non-commutativity witness: max commutator norm {worst:.4e} "
          f"({'found' if found else 'NOT found'})")
    return EXIT_OK if found else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    # SUPPRESS keeps a subcommand parser from clobbering flags that were
    # already consumed before the subcommand name
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--config", help="run config (JSON)")
    shared.add_argument("--out", help="output directory")
    shared.add_argument("--seed", type=int, help="override the config seed")
    parser = argparse.ArgumentParser(
        prog="toepblocks",
        parents=[shared],
        description="Build truncated block Toeplitz operators and verify "
                    "their structure.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("build", "assemble and serialize the operators"),
        ("verify", "run the verification suite"),
        ("trace-table", "emit per-block trace CSVs"),
        ("sequence", "normalized-trace sequence diagnostics"),
        ("witness", "exhibit the designed non-commuting pair"),
    ):
        sub.add_parser(name, parents=[shared], help=help_text)
    args = parser.parse_args(argv)
    config = getattr(args, "config", None)
    out = getattr(args, "out", None)
    seed = getattr(args, "seed", None)
    try:
        if config is None:
            raise ConfigError("--config is required")
        cfg = load_config(config, seed, out)
        return {"build": cmd_build, "verify": cmd_verify,
                "trace-table": cmd_trace_table, "sequence": cmd_sequence,
                "witness": cmd_witness}[args.command](cfg)
    except (ConfigError, RadialRuleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
