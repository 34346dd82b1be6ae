"""Run configurations for the benchmark workloads.

Each workload is one ``toepblocks`` subcommand on one generated config.  The
workload seed is written into the config; the program sees nothing else.
"""

from __future__ import annotations

# The README example symbols; ``ctrl`` is the negative control.
README_SYMBOLS = [
    {"name": "one", "kind": "constant", "value": 1.0},
    {"name": "rad", "kind": "radial_poly",
     "terms": [{"coeff": 1.0, "powers": [1, 0]}]},
    {"name": "phi1", "kind": "phi", "j": 1, "p": [1, 0], "q": [0, 1]},
    {"name": "psi2", "kind": "pseudo", "j": 2, "s_powers": [2, 0],
     "t_exp": [1, -1]},
    {"name": "ctrl", "kind": "xi_monomial", "j": 1, "p": [1, 0],
     "q": [0, 0]},
]

README_CHECKS = ["offblock", "tensor", "commutators", "trace_identity",
                 "trace_integral", "equivariance"]

# Symbols with no radial profile and no payload: the CLI assembles them with
# the Monte Carlo oracle only.
ORACLE_SYMBOLS = [
    README_SYMBOLS[4],
    {"name": "herm", "kind": "block_hermitian",
     "matrix": [[1.0, [0.5, 0.25], 0.0, 0.0],
                [[0.5, -0.25], -0.5, 0.0, 0.0],
                [0.0, 0.0, 0.75, [0.0, 0.5]],
                [0.0, 0.0, [0.0, -0.5], 0.25]]},
    {"name": "ztm", "kind": "zpoly", "declared_class": "tm",
     "terms": [{"coeff": 1.0, "z": [1, 0, 0, 0], "zbar": [0, 1, 0, 0]},
               {"coeff": [0.0, 0.5], "z": [0, 0, 1, 0],
                "zbar": [0, 0, 0, 1]}]},
]


# Sizes: one invocation takes a few seconds on one core, so a run of
# BENCHMARK.json's run_seconds holds several invocations.  verify-trace keeps
# the README verify's symbols, checks and shape (degree 2, lambda 2.5, the
# trace checks at kappa (0,0) and (1,1)) at under 1/50 of its cost: 100000
# ball and 5000 Haar samples, and 12 radial nodes, which still integrate
# these polynomial symbols exactly.
BUILD_QUAD_DEGREE = 3
BUILD_ORACLE_DEGREE = 3
VERIFY_QUADRATURE = {"ball_samples": 100000, "haar_samples": 5000,
                     "radial_nodes": 12}
VERIFY_TRACE_KAPPAS = [[0, 0], [1, 1]]

WORKLOADS = ("build-quad", "build-oracle", "verify-trace")


def _base(seed: int, degree: int, lambdas, symbols, quadrature=None) -> dict:
    doc = {"schema_version": 1, "partition": [2, 2], "lambdas": lambdas,
           "degree": degree, "seed": seed, "symbols": symbols}
    if quadrature:
        doc["quadrature"] = quadrature
    return doc


def config(workload: str, seed: int) -> tuple[str, dict]:
    """(subcommand, config document) for a workload and seed."""
    if workload == "build-quad":
        return "build", _base(seed, BUILD_QUAD_DEGREE, [0.0],
                              README_SYMBOLS[:4])
    if workload == "build-oracle":
        return "build", _base(seed, BUILD_ORACLE_DEGREE, [0.0],
                              ORACLE_SYMBOLS, {"ball_samples": 200000})
    if workload == "verify-trace":
        doc = _base(seed, 2, [2.5], README_SYMBOLS, VERIFY_QUADRATURE)
        doc["checks"] = README_CHECKS
        doc["trace_kappas"] = VERIFY_TRACE_KAPPAS
        return "verify", doc
    raise KeyError(workload)
