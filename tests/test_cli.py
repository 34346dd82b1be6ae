"""CLI: config validation, build determinism, verify semantics, exports."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from toepblocks import structure, toeplitz
from toepblocks.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    _run_checks,
    build_symbol,
    main,
    parse_config,
)
from toepblocks.mindex import Partition, enumerate_multiindices, kappa_of
from toepblocks.quad import sample_ball, substream
from toepblocks.symbols import TM_INVARIANT
from toepblocks.toeplitz import load_operator


def base_config(**overrides):
    doc = {
        "schema_version": 1,
        "partition": [1, 2],
        "lambdas": [0.0],
        "degree": 2,
        "seed": 99,
        "quadrature": {"ball_samples": 15000, "haar_samples": 200,
                       "radial_nodes": 10, "sphere_nodes": 10,
                       "torus_nodes": 8},
        "symbols": [
            {"name": "one", "kind": "constant", "value": 1.0},
            {"name": "phi", "kind": "phi", "j": 2, "p": [1, 0], "q": [0, 1]},
        ],
        "checks": ["offblock", "tensor", "commutators"],
        "trace_kappas": [[1, 1]],
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestConfigValidation:
    def test_round_trip(self):
        cfg = parse_config(base_config())
        assert cfg.partition == Partition((1, 2))
        assert cfg.seed == 99
        assert [s.name for s in cfg.symbols] == ["one", "phi"]

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(base_config(bogus=1))

    def test_unknown_symbol_key(self):
        doc = base_config()
        doc["symbols"][0]["mystery"] = 2
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(doc)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(base_config(schema_version=2))

    def test_partition_n_mismatch(self):
        with pytest.raises(ConfigError, match="sum to"):
            parse_config(base_config(n=4))

    def test_bad_lambda(self):
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(base_config(lambdas=[-1.0]))

    @pytest.mark.parametrize("lam", [1e6, 1e300, float("inf")],
                             ids=["1e6", "1e300", "Infinity"])
    def test_unusable_lambda_exit_config(self, tmp_path, capsys, lam):
        # 1e6 made all-NaN radial rules (and NaN blocks with exit 0), 1e300
        # and Infinity a traceback from the Gauss-Jacobi eigensolver
        doc = base_config(output_dir=str(tmp_path / "o"), lambdas=[lam])
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "build"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err and "lambda" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    SINGLE_BLOCK = {"partition": [2], "lambdas": [1e6],
                    "sequence_max_kappa": 3, "trace_kappas": [[1]],
                    "quadrature": {"ball_samples": 2000, "haar_samples": 50,
                                   "radial_nodes": 8}}

    @pytest.mark.parametrize("command", ["verify", "trace-table", "sequence"])
    def test_unusable_lambda_exit_config_any_command(self, tmp_path, capsys,
                                                     command):
        # every command that builds a radial rule turns its overflow into a
        # config error where the rule is built
        doc = base_config(output_dir=str(tmp_path / "o"), **self.SINGLE_BLOCK,
                          symbols=[{"name": "one", "kind": "constant",
                                    "value": 1.0}],
                          checks=["trace_identity"])
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), command]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err and "lambda" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["trace-table", "sequence"])
    def test_large_lambda_oracle_traces(self, tmp_path, command):
        # oracle traces build no radial rule, so a large lambda is usable
        doc = base_config(output_dir=str(tmp_path / "o"), **self.SINGLE_BLOCK,
                          symbols=[{"name": "x", "kind": "zpoly",
                                    "declared_class": "tm", "terms": [
                                        {"coeff": 1.0, "z": [1, 0],
                                         "zbar": [1, 0]}]}])
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), command]) == EXIT_OK
        [out] = (tmp_path / "o").iterdir()
        if command == "trace-table":
            rows = csv.DictReader(out.read_text().splitlines())
            values = [float(r["trace_re"]) for r in rows]
        else:
            values = [v[0] for v in json.loads(out.read_text())["values"]]
        assert np.all(np.isfinite(values))
        # at kappa = 0 the trace is E|z_1|^2 = 1/(lambda + 2)
        assert values[0] == pytest.approx(1e-6, rel=0.1)

    def test_large_lambda_oracle_build(self, tmp_path):
        # an oracle-only build builds no radial rule, so it is not rejected
        doc = base_config(output_dir=str(tmp_path / "o"), lambdas=[1e6],
                          quadrature={"ball_samples": 2000}, symbols=[
                              {"name": "x", "kind": "xi_monomial", "j": 2,
                               "p": [1, 0], "q": [0, 0]}])
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "build"]) == EXIT_OK
        T = load_operator(tmp_path / "o" / "op_x_lam1e+06.json")
        assert all(np.all(np.isfinite(B)) for B in T.blocks.values())

    def test_large_lambda_oracle_build_of_one_is_the_identity(self, tmp_path):
        # the monomial norms are exact at lambda 1e14, so T_1 = I within 5
        # sigma on every slice up to degree 3
        doc = base_config(output_dir=str(tmp_path / "o"), partition=[1, 1],
                          lambdas=[1e14], degree=3,
                          quadrature={"ball_samples": 20000}, symbols=[
                              {"name": "one", "kind": "zpoly",
                               "declared_class": "tm", "terms": [
                                   {"coeff": 1.0, "z": [0, 0],
                                    "zbar": [0, 0]}]}])
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "build"]) == EXIT_OK
        T = load_operator(tmp_path / "o" / "op_one_lam1e+14.json")
        assert T.provenance == "oracle" and len(T.blocks) == 10
        for kappa, B in T.blocks.items():
            eye = np.eye(len(B))
            assert np.all(np.abs(B - eye) <= 5 * T.block_stderr[kappa]), kappa

    def test_underflowing_monomial_norm_exit_config(self, tmp_path, capsys):
        # at lambda 1e307 the degree-2 norms underflow to zero: a config
        # error, not blocks of NaN
        doc = base_config(output_dir=str(tmp_path / "o"), lambdas=[1e307],
                          quadrature={"ball_samples": 2000}, symbols=[
                              {"name": "x", "kind": "xi_monomial", "j": 2,
                               "p": [1, 0], "q": [0, 0]}])
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "build"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "lambda is too large for double precision" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("symbol", [
        {"kind": "xi_monomial", "j": 2, "p": [-1, 0], "q": [0, 0]},
        {"kind": "xi_monomial", "j": 2, "p": [1, 0], "q": [0, -1]},
        {"kind": "zpoly", "declared_class": "tm", "terms": [
            {"coeff": 1.0, "z": [0, -2, 0], "zbar": [0, 0, 0]}]},
        {"kind": "zpoly", "declared_class": "general", "terms": [
            {"coeff": 1.0, "z": [1, 0, 0], "zbar": [0, 0, -1]}]},
    ], ids=["xi_monomial-p", "xi_monomial-q", "zpoly-z", "zpoly-zbar"])
    def test_negative_exponents_exit_config(self, tmp_path, capsys, symbol):
        doc = base_config(output_dir=str(tmp_path / "o"),
                          symbols=[{"name": "s", **symbol}])
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "build"]) == EXIT_CONFIG
        assert ("config error: symbol 's': exponents must be nonnegative"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_phi_balance_enforced(self):
        doc = base_config()
        doc["symbols"][1]["q"] = [0, 0]
        with pytest.raises(ConfigError, match="p.*q|q.*p"):
            parse_config(doc)

    def test_pseudo_zero_sum_enforced(self):
        doc = base_config(symbols=[
            {"name": "ps", "kind": "pseudo", "j": 2, "s_powers": [1, 1],
             "t_exp": [1, 0]}])
        with pytest.raises(ConfigError, match="sum to zero"):
            parse_config(doc)

    def test_duplicate_names(self):
        doc = base_config()
        doc["symbols"].append(dict(doc["symbols"][0]))
        with pytest.raises(ConfigError, match="unique"):
            parse_config(doc)

    def test_unknown_check(self):
        with pytest.raises(ConfigError, match="unknown check"):
            parse_config(base_config(checks=["nonsense"]))

    @pytest.mark.parametrize("command, overrides", [
        ("verify", {"degree": 1, "trace_kappas": [[2, 2]],
                    "checks": ["trace_integral"]}),
        ("verify", {"trace_kappas": [[-1, 0]], "checks": ["trace_identity"]}),
        ("verify", {"equivariance_rotations": "two",
                    "checks": ["equivariance"]}),
        ("sequence", {"sequence_max_kappa": -2}),
        ("sequence", {"sequence_max_kappa": "x"}),
    ], ids=["kappa-above-degree", "negative-kappa", "rotations-not-int",
            "negative-max-kappa", "max-kappa-not-int"])
    def test_bad_extras_exit_config(self, tmp_path, capsys, command,
                                    overrides):
        doc = base_config(output_dir=str(tmp_path / "o"), **overrides)
        if command == "sequence":
            doc.update(partition=[2], trace_kappas=[[1]], symbols=[
                {"name": "one", "kind": "constant", "value": 1.0}])
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), command]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides", [
        {"partition": [True, 2]},
        {"partition": [1], "n": True, "trace_kappas": [[1]], "symbols": [
            {"name": "one", "kind": "constant", "value": 1.0}]},
        {"lambdas": [True]},
        {"quadrature": {"ball_samples": True}},
        {"symbols": [{"name": "one", "kind": "constant", "value": True}]},
    ], ids=["partition", "n", "lambdas", "ball-samples", "constant-value"])
    def test_booleans_are_not_numbers(self, tmp_path, capsys, overrides):
        doc = base_config(output_dir=str(tmp_path / "o"), **overrides)
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "build"]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"output_dir": ["x", "y"]}, "output_dir"),
        ({"output_dir": 5}, "output_dir"),
        ({"output_dir": ""}, "output_dir"),
        ({"schema_version": True}, "schema_version"),
        ({"schema_version": 1.0}, "schema_version"),
    ], ids=["dir-list", "dir-int", "dir-empty", "version-bool",
            "version-float"])
    def test_mistyped_keys_exit_config(self, tmp_path, capsys, monkeypatch,
                                       overrides, message):
        # a list output_dir was written to a directory named "['x', 'y']"
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, base_config(**overrides))
        assert main(["--config", str(cfg), "build"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err and message in err
        assert [f.name for f in tmp_path.iterdir()] == [cfg.name]

    def test_empty_out_exits_config(self, tmp_path, capsys, monkeypatch):
        # --out "" took the working directory as the output directory
        monkeypatch.chdir(tmp_path)
        doc = base_config(partition=[1], trace_kappas=[[1]], symbols=[
            {"name": "one", "kind": "constant", "value": 1.0}])
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "--out", "", "build"]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err and "--out" in err
        assert [f.name for f in tmp_path.iterdir()] == [cfg.name]

    @pytest.mark.parametrize("overrides", [
        {"symbols": [{"name": "a b", "kind": "constant", "value": 1.0},
                     {"name": "a_b", "kind": "constant", "value": 2.0}]},
        {"lambdas": [2.5, 2.5000001]},
    ], ids=["names", "lambdas"])
    def test_colliding_output_files(self, tmp_path, capsys, overrides):
        # both pairs would write op_a_b_lam0.json / op_one_lam2.5.json twice
        doc = base_config(output_dir=str(tmp_path / "o"), **overrides)
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "build"]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("symbol", [
        {"kind": "zpoly", "declared_class": "tm", "terms": [5]},
        {"kind": "zpoly", "declared_class": "tm", "terms": [None]},
        {"kind": "zpoly", "declared_class": ["tm"], "terms": [
            {"coeff": 1.0, "z": [1, 0, 0, 0], "zbar": [1, 0, 0, 0]}]},
        {"kind": "block_hermitian", "matrix": [1, 2, 3, 4]},
    ], ids=["zpoly-term-number", "zpoly-term-null", "zpoly-class-list",
            "matrix-rows-not-lists"])
    def test_malformed_symbol_entries(self, tmp_path, capsys, symbol):
        doc = base_config(output_dir=str(tmp_path / "o"), partition=[2, 2],
                          symbols=[{"name": "s", **symbol}])
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "build"]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(output_dir=str(tmp_path / "o")))
        assert main(["--config", str(cfg), "--seed", "-5", "build"]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: seed must be a nonnegative integer" in err
        assert not (tmp_path / "o").exists()

    def test_build_symbol_kinds(self):
        p = Partition((2, 2))
        h = np.eye(4).tolist()
        for doc in (
            {"name": "c", "kind": "constant", "value": [1.0, 0.5]},
            {"name": "r", "kind": "radial_poly",
             "terms": [{"coeff": 1.0, "powers": [1, 0]}]},
            {"name": "f", "kind": "phi", "j": 1, "p": [1, 0], "q": [0, 1]},
            {"name": "g", "kind": "pseudo", "j": 1, "s_powers": [1, 1],
             "t_exp": [1, -1]},
            {"name": "h", "kind": "block_hermitian", "matrix": h},
            {"name": "x", "kind": "xi_monomial", "j": 1, "p": [1, 0],
             "q": [0, 0]},
            {"name": "z", "kind": "zpoly", "declared_class": "tm",
             "terms": [{"coeff": [1, 0], "z": [1, 0, 0, 0],
                        "zbar": [1, 0, 0, 0]}]},
        ):
            sym = build_symbol(p, doc)
            assert sym.name == doc["name"]


class TestBuild:
    def test_build_writes_operators(self, tmp_path):
        cfg = write_config(tmp_path, base_config(output_dir=str(tmp_path / "o")))
        assert main(["--config", str(cfg), "build"]) == EXIT_OK
        out = tmp_path / "o"
        ops = sorted(f.name for f in out.glob("op_*.json"))
        assert ops == ["op_one_lam0.json", "op_phi_lam0.json"]
        T = load_operator(out / "op_one_lam0.json")
        for kappa in T.kappas():
            B = T.blocks[kappa]
            assert np.max(np.abs(B - np.eye(B.shape[0]))) < 1e-10

    def test_build_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, base_config(output_dir=str(tmp_path / "o")))
        main(["--config", str(cfg), "build"])
        first = (tmp_path / "o" / "op_phi_lam0.json").read_bytes()
        main(["--config", str(cfg), "build"])
        second = (tmp_path / "o" / "op_phi_lam0.json").read_bytes()
        assert first == second

    def test_seed_override_changes_oracle_output(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path / "o"), symbols=[
            {"name": "x", "kind": "xi_monomial", "j": 2, "p": [1, 0],
             "q": [0, 0]}])
        cfg = write_config(tmp_path, doc)
        main(["--config", str(cfg), "build"])
        first = load_operator(tmp_path / "o" / "op_x_lam0.json")
        main(["--config", str(cfg), "build", "--seed", "123"])
        second = load_operator(tmp_path / "o" / "op_x_lam0.json")
        kappa = first.kappas()[1]
        assert not np.array_equal(first.blocks[kappa], second.blocks[kappa])
        # but equal within the joint sampling band
        se = np.hypot(first.block_stderr[kappa], second.block_stderr[kappa])
        diff = np.abs(first.blocks[kappa] - second.blocks[kappa])
        assert np.all(diff <= 5 * np.maximum(se, 1e-300))

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "build"]) \
            == EXIT_CONFIG

    def test_malformed_partition_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, base_config(n=7))
        assert main(["--config", str(cfg), "build"]) == EXIT_CONFIG


class TestVerify:
    def test_green_suite_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(output_dir=str(tmp_path / "o")))
        assert main(["--config", str(cfg), "verify"]) == EXIT_OK
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert report["passed"] is True
        assert report["resolved_config"]["seed"] == 99
        assert any(r["check"] == "offblock-leakage" for r in report["reports"])

    def test_negative_control_does_not_flip_exit(self, tmp_path, capsys):
        doc = base_config(output_dir=str(tmp_path / "o"))
        doc["symbols"].append({"name": "ctrl", "kind": "xi_monomial", "j": 2,
                               "p": [1, 0], "q": [0, 0]})
        doc["checks"] = ["offblock"]
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "verify"]) == EXIT_OK
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        ctrl = [r for r in report["reports"]
                if r["provenance"].get("symbol") == "ctrl"]
        assert ctrl and ctrl[0]["expected_fail"] is True
        assert ctrl[0]["passed"] is False  # it leaked, as designed
        assert ctrl[0]["metrics"]["failed_as_expected"] is True
        assert "ctrl: control failed as expected" in capsys.readouterr().out

    def test_commutator_controls_record_failed_as_expected(self, tmp_path,
                                                           capsys):
        # three block-1 symbols: swap = xi_1 conj(xi_2) does not commute with
        # n1 = |xi_1|^2; n1 and n2 = |xi_2|^2 are diagonal and commute
        doc = base_config(
            output_dir=str(tmp_path / "o"), partition=[2, 2],
            trace_kappas=[[1, 1]], checks=["commutators"], symbols=[
                {"name": "swap", "kind": "phi", "j": 1, "p": [1, 0],
                 "q": [0, 1]},
                {"name": "n1", "kind": "phi", "j": 1, "p": [1, 0],
                 "q": [1, 0]},
                {"name": "n2", "kind": "phi", "j": 1, "p": [0, 1],
                 "q": [0, 1]}])
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "verify"]) == EXIT_OK
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        pairs = {(r["provenance"]["a"], r["provenance"]["b"]): r
                 for r in report["reports"]}
        witness, commuting = pairs[("swap", "n1")], pairs[("n1", "n2")]
        for r in (witness, commuting):
            assert r["expected_fail"] is True
            assert r["metrics"]["should_commute"] is False
        # passed is the statement under test: the pair commutes
        assert witness["passed"] is False
        assert witness["metrics"]["failed_as_expected"] is True
        assert commuting["passed"] is True
        assert commuting["metrics"]["failed_as_expected"] is False
        out = capsys.readouterr().out
        assert "swap/n1: control failed as expected" in out
        assert "n1/n2: CONTROL DID NOT FAIL" in out

    def test_equivariance_reads_the_run_operator(self, tmp_path, monkeypatch):
        # one oracle block per rotation of phi: the rotated symbol's; T_a is
        # the operator the run built, shared with the other checks.  The
        # quasi-radial one's rotated side is exact and samples nothing
        calls = []
        oracle = structure.toeplitz_block_oracle

        def counting(symbols, *args):
            calls.append([a.name for a in symbols])
            return oracle(symbols, *args)

        monkeypatch.setattr(structure, "toeplitz_block_oracle", counting)
        doc = base_config(output_dir=str(tmp_path / "o"),
                          checks=["equivariance"], equivariance_rotations=3)
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "verify"]) == EXIT_OK
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert [r["check"] for r in report["reports"]] == ["equivariance"] * 6
        assert calls == [["rot(phi)"]] * 3
        for r in report["reports"]:
            exact = r["provenance"]["symbol"] == "one"
            assert r["provenance"]["rotated_path"] == (
                "diagonal-gamma" if exact else "oracle")
            assert r["provenance"]["samples"] == (0 if exact else 15000)

    def test_equivariance_rotations_draw_their_own_samples(self, tmp_path):
        # each rotation estimates the rotated block of phi on its own
        # stream; a shared stream gives oracle blocks that differ only by the
        # rotation, so close sigma-ratios would not show it
        doc = base_config(output_dir=str(tmp_path / "o"),
                          checks=["equivariance"], equivariance_rotations=2)
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "verify"]) == EXIT_OK
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        ratios = [r["metrics"]["sigma_ratio"] for r in report["reports"]
                  if r["provenance"]["symbol"] == "phi"]
        assert len(ratios) == 2
        assert ratios[0] != pytest.approx(ratios[1], rel=1e-6)

    def test_one_ball_draw_per_check_and_lambda(self, tmp_path, monkeypatch):
        # offblock draws once per lambda for all its symbols, and
        # trace-identity reads that draw's traces; equivariance draws once
        # per rotation index; no operator here is on the oracle path, so
        # every draw is a check's
        drawn = []

        def counting(n, lam, size, rng):
            drawn.append(size)
            return sample_ball(n, lam, size, rng)

        monkeypatch.setattr(toeplitz, "sample_ball", counting)
        doc = base_config(output_dir=str(tmp_path / "o"), lambdas=[0.0, 2.5],
                          checks=["offblock", "trace_identity",
                                  "equivariance"],
                          trace_kappas=[[0, 0], [1, 1]],
                          equivariance_rotations=3)
        doc["symbols"].append({"name": "ctrl", "kind": "xi_monomial", "j": 2,
                               "p": [1, 0], "q": [0, 0]})
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "verify"]) == EXIT_OK
        assert sum(drawn) == 2 * (1 + 3) * 15000

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_jobs_flag_is_rejected(self, tmp_path, command):
        # no subcommand takes --jobs: build runs in one process
        cfg = write_config(tmp_path, base_config(output_dir=str(tmp_path / "o")))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), command, "--jobs", "2"])
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_all_checks_in_registry_order(self, tmp_path, capsys):
        # symbols on every path: diagonal-gamma (one, rad), f-form (phi, n1:
        # a non-commuting pair), g-form (psi), oracle (herm, and the
        # control ctrl, which is not torus invariant)
        checks = ["offblock", "tensor", "commutators", "trace_identity",
                  "trace_integral", "equivariance", "sequence"]
        reports, outs = [], []
        for name, order in (("fwd", checks), ("rev", checks[::-1])):
            doc = base_config(
                output_dir=str(tmp_path / name), partition=[3], degree=2,
                checks=order, trace_kappas=[[1]], equivariance_rotations=1,
                sequence_max_kappa=3,
                quadrature={"ball_samples": 4000, "haar_samples": 100,
                            "radial_nodes": 6, "sphere_nodes": 6,
                            "torus_nodes": 6},
                symbols=[
                    {"name": "one", "kind": "constant", "value": 1.0},
                    {"name": "rad", "kind": "radial_poly",
                     "terms": [{"coeff": 1.0, "powers": [1]}]},
                    {"name": "phi", "kind": "phi", "j": 1, "p": [1, 0, 0],
                     "q": [0, 1, 0]},
                    {"name": "n1", "kind": "phi", "j": 1, "p": [1, 0, 0],
                     "q": [1, 0, 0]},
                    {"name": "psi", "kind": "pseudo", "j": 1,
                     "s_powers": [1, 0, 0], "t_exp": [1, -1, 0]},
                    {"name": "herm", "kind": "block_hermitian",
                     "matrix": [[1.0, [0.5, 0.25], 0.0],
                                [[0.5, -0.25], -0.5, 0.0],
                                [0.0, 0.0, 0.75]]},
                    {"name": "ctrl", "kind": "xi_monomial", "j": 1,
                     "p": [1, 0, 0], "q": [0, 0, 0]},
                ])
            cfg = write_config(tmp_path, doc, f"{name}.json")
            assert main(["--config", str(cfg), "verify"]) == EXIT_OK
            reports.append(json.loads(
                (tmp_path / name / "verify_report.json").read_text())["reports"])
            outs.append(capsys.readouterr().out.splitlines())
        assert list(dict.fromkeys(r["check"] for r in reports[0])) == [
            "offblock-leakage", "tensor-constancy", "commutator",
            "trace-identity", "trace-integral", "equivariance", "sequence"]
        assert reports[0] == reports[1]
        assert {r["provenance"]["haar_path"] for r in reports[0]
                if r["check"] == "trace-integral"} == {
            "diagonal-gamma", "f-form", "g-form", "oracle"}
        assert {r["check"] for r in reports[0] if r["expected_fail"]} == {
            "offblock-leakage", "tensor-constancy", "commutator"}
        # one gate: every verdict is its tolerance ratio; a control's line
        # reads the failed_as_expected its report records
        for r in reports[0]:
            m = r["metrics"]
            if r["check"] != "sequence":
                assert r["passed"] == (m["tolerance_ratio"] <= 1.0)
            if r["expected_fail"]:
                status = ("control vacuous" if m.get("vacuous")
                          else "control failed as expected"
                          if m["failed_as_expected"]
                          else "CONTROL DID NOT FAIL")
                label = r["provenance"].get("symbol") or "/".join(
                    (r["provenance"]["a"], r["provenance"]["b"]))
                assert f"{r['check']:<20} {label}: {status}" in outs[0]

    def test_zero_width_band_at_degree_zero(self, tmp_path):
        # one slice: no off-block pair, and 1 x 1 tensor and commutator blocks
        doc = base_config(
            output_dir=str(tmp_path / "o"), partition=[2, 2], degree=0,
            checks=["offblock", "tensor", "commutators", "trace_identity",
                    "trace_integral", "equivariance"],
            quadrature={"ball_samples": 3000, "haar_samples": 40,
                        "radial_nodes": 6, "sphere_nodes": 6,
                        "torus_nodes": 6},
            symbols=[
                {"name": "one", "kind": "constant", "value": 1.0},
                {"name": "phi1", "kind": "phi", "j": 1, "p": [1, 0],
                 "q": [0, 1]},
                {"name": "psi2", "kind": "pseudo", "j": 2, "s_powers": [2, 0],
                 "t_exp": [1, -1]},
                {"name": "ctrl", "kind": "xi_monomial", "j": 1, "p": [1, 0],
                 "q": [0, 0]},
            ])
        del doc["trace_kappas"]
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "verify"]) == EXIT_OK
        reports = json.loads(
            (tmp_path / "o" / "verify_report.json").read_text())["reports"]
        offblock = [r for r in reports if r["check"] == "offblock-leakage"]
        assert len(offblock) == 4
        for r in offblock:
            assert r["metrics"]["pairs"] == 0
            assert r["metrics"]["tolerance_ratio"] == 0.0

    def test_controls_that_cannot_fail_are_vacuous(self, tmp_path, capsys):
        # at degree 0 the offblock control has no pair and every slice of
        # the tensor control (herm, torus invariant only) is one factor; at
        # degree 1 both can fail again and record no vacuous key
        symbols = [
            {"name": "ctrl", "kind": "xi_monomial", "j": 1, "p": [1, 0],
             "q": [0, 0]},
            {"name": "herm", "kind": "block_hermitian",
             "matrix": np.diag([1.0, 0.5, -0.25, 0.75]).tolist()},
        ]
        vacuous = {}
        for degree in (0, 1):
            out = tmp_path / str(degree)
            doc = base_config(
                output_dir=str(out), partition=[2, 2], degree=degree,
                checks=["offblock", "tensor"], symbols=symbols,
                quadrature={"ball_samples": 3000})
            del doc["trace_kappas"]
            cfg = write_config(tmp_path, doc, f"{degree}.json")
            assert main(["--config", str(cfg), "verify"]) == EXIT_OK
            stdout = capsys.readouterr().out
            reports = json.loads((out / "verify_report.json").read_text())
            assert reports["passed"] is True
            controls = {(r["check"], r["provenance"]["symbol"]): r["metrics"]
                        for r in reports["reports"] if r["expected_fail"]}
            assert set(controls) == {("offblock-leakage", "ctrl"),
                                     ("tensor-constancy", "herm")}
            vacuous[degree] = {key: m.get("vacuous", False)
                               for key, m in controls.items()}
            for (check, name), m in controls.items():
                line = f"{check:<20} {name}: control vacuous"
                assert (line in stdout) == vacuous[degree][(check, name)]
                if degree == 0:
                    assert m["failed_as_expected"] is False
        assert all(vacuous[0].values())
        assert not any(vacuous[1].values())

    def test_trace_reports_record_the_haar_effort(self, tmp_path):
        # the README symbols; ctrl is not block-torus invariant and skipped
        doc = base_config(
            output_dir=str(tmp_path / "o"), partition=[2, 2],
            checks=["trace_identity", "trace_integral"],
            quadrature={"ball_samples": 3000, "haar_samples": 40,
                        "radial_nodes": 6, "sphere_nodes": 6,
                        "torus_nodes": 6},
            symbols=[
                {"name": "one", "kind": "constant", "value": 1.0},
                {"name": "rad", "kind": "radial_poly",
                 "terms": [{"coeff": 1.0, "powers": [1, 0]}]},
                {"name": "phi1", "kind": "phi", "j": 1, "p": [1, 0],
                 "q": [0, 1]},
                {"name": "psi2", "kind": "pseudo", "j": 2, "s_powers": [2, 0],
                 "t_exp": [1, -1]},
                {"name": "ctrl", "kind": "xi_monomial", "j": 1, "p": [1, 0],
                 "q": [0, 0]},
                {"name": "herm", "kind": "block_hermitian",
                 "matrix": np.diag([1.0, 0.5, -0.25, 0.75]).tolist()},
            ])
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "verify"]) == EXIT_OK
        reports = json.loads(
            (tmp_path / "o" / "verify_report.json").read_text())["reports"]
        paths = {"one": "diagonal-gamma", "rad": "diagonal-gamma",
                 "phi1": "f-form", "psi2": "g-form", "herm": "oracle"}
        seen = set()
        for r in reports:
            prov = r["provenance"]
            seen.add((r["check"], prov["symbol"]))
            assert prov["haar_path"] == paths[prov["symbol"]]
            assert r["passed"] == (r["metrics"]["tolerance_ratio"] <= 1.0)
            if r["check"] == "trace-identity":
                # only the oracle path samples its Haar side
                sampled = prov["haar_path"] == "oracle"
                assert prov["haar_samples"] == (40 if sampled else 0)
                assert (r["metrics"]["gamma_stderr"] > 0.0) == sampled
        assert seen == {(c, name) for c in ("trace-identity", "trace-integral")
                        for name in paths}

    def test_sequence_skipped_on_multi_block_with_note(self, tmp_path,
                                                       capsys):
        # one stderr note per run; stdout, reports and exit code are those
        # of the same run without the sequence check
        runs = []
        for name, checks in (("seq", ["offblock", "sequence"]),
                             ("plain", ["offblock"])):
            doc = base_config(output_dir=str(tmp_path / name),
                              partition=[2, 2], lambdas=[0.0, 1.0],
                              checks=checks)
            cfg = write_config(tmp_path, doc, f"{name}.json")
            code = main(["--config", str(cfg), "verify"])
            report = json.loads(
                (tmp_path / name / "verify_report.json").read_text())
            runs.append((code, report["passed"], report["reports"],
                         capsys.readouterr()))
        (code, passed, reports, out), (code0, passed0, reports0, out0) = runs
        assert (code, passed, reports) == (code0, passed0, reports0)
        assert out.out == out0.out and out0.err == ""
        assert out.err.count("skipping check 'sequence'") == 1
        assert "m = 1" in out.err

    def test_genuine_failure_flips_exit(self, tmp_path):
        # declaring an unbalanced direction monomial torus-invariant is a lie
        # the offblock check must catch
        doc = base_config(output_dir=str(tmp_path / "o"))
        doc["symbols"] = [
            {"name": "liar", "kind": "zpoly", "declared_class": "tm",
             "terms": [{"coeff": [1, 0], "z": [0, 1, 0], "zbar": [0, 0, 0]}]},
        ]
        doc["checks"] = ["offblock"]
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "verify"]) == EXIT_CHECK_FAILED


class TestTables:
    def test_trace_table_values(self, tmp_path):
        doc = {
            "schema_version": 1,
            "partition": [1],
            "lambdas": [0.0],
            "degree": 6,
            "symbols": [{"name": "r2", "kind": "radial_poly",
                         "terms": [{"coeff": 1.0, "powers": [1]}]}],
            "output_dir": str(tmp_path / "o"),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "trace-table"]) == EXIT_OK
        with (tmp_path / "o" / "trace_r2_lam0.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        for kap, row in enumerate(rows):
            want = (kap + 1) / (kap + 2)
            assert float(row["normalized_re"]) == pytest.approx(want, abs=1e-9)
            assert float(row["dim"]) == 1

    def test_trace_table_oracle_rows_are_numbers(self, tmp_path):
        doc = {
            "schema_version": 1,
            "partition": [1, 1],
            "lambdas": [0.0],
            "degree": 1,
            "quadrature": {"ball_samples": 4000},
            "symbols": [{"name": "z", "kind": "zpoly", "declared_class": "tm",
                         "terms": [{"coeff": 1.0, "z": [1, 0],
                                    "zbar": [1, 0]}]}],
            "output_dir": str(tmp_path / "o"),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "trace-table"]) == EXIT_OK
        with (tmp_path / "o" / "trace_z_lam0.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            for key in ("trace_re", "trace_im", "normalized_re",
                        "normalized_im"):
                float(row[key])
            assert float(row["stderr"]) > 0  # sampled by the oracle
        # <|z_1|^2 e_0, e_0> = E|z_1|^2 = 1/3 on the unweighted ball of C^2
        first = rows[0]
        assert abs(float(first["trace_re"]) - 1 / 3) \
            <= 5 * float(first["stderr"])

    @staticmethod
    def _payload_config(tmp_path, partition, **extra):
        # an f-form phi with a radial key and a g-form pseudo, both with
        # traces that are not zero
        m = len(partition)
        symbols = [
            {"name": "phi", "kind": "phi", "j": 1, "p": [1, 0], "q": [1, 0],
             "radial": [{"coeff": 1.0, "powers": [0] * m},
                        {"coeff": 0.5, "powers": [1] * m}]},
            {"name": "psi", "kind": "pseudo", "j": 1, "s_powers": [1, 1],
             "t_exp": [0, 0]}]
        doc = {"schema_version": 1, "partition": partition,
               "lambdas": [0.5], "degree": 2, "symbols": symbols,
               "output_dir": str(tmp_path / "o"), **extra}
        return write_config(tmp_path, doc), parse_config(doc)

    def test_trace_table_payload_rows_are_exact(self, tmp_path):
        cfg, run = self._payload_config(tmp_path, [2, 2])
        assert [toeplitz.assembly_path(s) for s in run.symbols] \
            == ["f-form", "g-form"]
        assert main(["--config", str(cfg), "trace-table"]) == EXIT_OK
        for sym in run.symbols:
            with (tmp_path / "o" / f"trace_{sym.name}_lam0.5.csv").open() as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 6
            kappas = [tuple(int(v) for v in row["kappa"].split(";"))
                      for row in rows]
            wants = structure.trace_integral(sym, kappas, 0.5, run.spec)
            for row, (want, se) in zip(rows, wants):
                got = complex(float(row["trace_re"]), float(row["trace_im"]))
                assert float(row["stderr"]) == 0.0 and se == 0.0
                assert abs(want) > 0.1
                assert got == want

    def test_sequence_payload_values_within_5_sigma(self, tmp_path):
        cfg, run = self._payload_config(
            tmp_path, [2], sequence_max_kappa=6,
            quadrature={"ball_samples": 40000})
        assert main(["--config", str(cfg), "sequence"]) == EXIT_OK
        for sym in run.symbols:
            data = json.loads((tmp_path / "o" /
                               f"sequence_{sym.name}_lam0.5.json").read_text())
            assert len(data["values"]) == 7
            wants = structure.trace_integral(sym, [(k,) for k in range(7)],
                                             0.5, run.spec)
            for k, (v, se) in enumerate(zip(data["values"], data["stderr"])):
                want = wants[k][0]
                assert 0 < se
                assert abs(complex(*v) - want / (k + 1)) <= 5 * se

    def test_sequence_command(self, tmp_path):
        doc = {
            "schema_version": 1,
            "partition": [2],
            "lambdas": [0.0],
            "degree": 2,
            "sequence_max_kappa": 5,
            "symbols": [{"name": "one", "kind": "constant", "value": 1.0}],
            "output_dir": str(tmp_path / "o"),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "sequence"]) == EXIT_OK
        data = json.loads(
            (tmp_path / "o" / "sequence_one_lam0.json").read_text())
        assert all(abs(v[0] - 1.0) < 1e-10 for v in data["values"])

    def test_sequence_skips_non_invariant_symbols(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "partition": [2],
            "lambdas": [0.0],
            "degree": 2,
            "sequence_max_kappa": 2,
            "symbols": [{"name": "one", "kind": "constant", "value": 1.0},
                        {"name": "ctrl", "kind": "xi_monomial", "j": 1,
                         "p": [1, 0], "q": [0, 0]}],
            "output_dir": str(tmp_path / "o"),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "sequence"]) == EXIT_OK
        assert "skipping 'ctrl'" in capsys.readouterr().err
        assert sorted(f.name for f in (tmp_path / "o").iterdir()) \
            == ["sequence_one_lam0.json"]

    def test_sequence_rejects_multi_block(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        assert main(["--config", str(cfg), "sequence"]) == EXIT_CONFIG

    def test_witness(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path / "o"),
                          partition=[2, 2], degree=2)
        doc["symbols"] = [{"name": "one", "kind": "constant", "value": 1.0}]
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "witness"]) == EXIT_OK
        data = json.loads((tmp_path / "o" / "witness.json").read_text())
        assert data["witness_found"] is True
        assert data["max_frobenius"] > 1e-2

    def test_trace_table_draws_once_per_symbol_and_lambda(self, tmp_path,
                                                          monkeypatch):
        drawn = []

        def counting(n, lam, size, rng):
            drawn.append(size)
            return sample_ball(n, lam, size, rng)

        monkeypatch.setattr(toeplitz, "sample_ball", counting)
        doc = {
            "schema_version": 1,
            "partition": [1, 1],
            "lambdas": [0.0, 2.5],
            "degree": 2,
            "quadrature": {"ball_samples": 3000},
            "symbols": [{"name": "z", "kind": "zpoly", "declared_class": "tm",
                         "terms": [{"coeff": 1.0, "z": [1, 0],
                                    "zbar": [1, 0]}]}],
            "output_dir": str(tmp_path / "o"),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "trace-table"]) == EXIT_OK
        # six slices per table, one sample set per (symbol, lambda)
        assert sum(drawn) == 2 * 3000


def test_readme_example_passes_verify(tmp_path):
    # the README's run configuration, extracted as CI extracts it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = tmp_path / "readme.json"
    cfg.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_OK
    doc = json.loads((out / "verify_report.json").read_text())
    gating = [r for r in doc["reports"] if not r["expected_fail"]]
    assert doc["passed"] is True and gating
    assert all(r["passed"] for r in gating)


def test_build_twice_writes_identical_files(tmp_path):
    # the same config and seed reproduce every operator file byte for byte
    doc = base_config(output_dir=str(tmp_path / "o"), lambdas=[0.0, 1.5])
    doc["symbols"].append({"name": "x", "kind": "xi_monomial", "j": 2,
                           "p": [1, 0], "q": [0, 0]})
    cfg = write_config(tmp_path, doc)
    texts = []
    for _ in range(2):
        assert main(["--config", str(cfg), "build"]) == EXIT_OK
        texts.append({f.name: f.read_bytes()
                      for f in (tmp_path / "o").glob("op_*.json")})
    assert len(texts[0]) == 2 * len(doc["symbols"])
    assert texts[0] == texts[1]


def test_oracle_build_files_and_provenance(tmp_path):
    oracle = {"name": "x", "kind": "xi_monomial", "j": 2, "p": [1, 0],
              "q": [0, 0]}
    out = tmp_path / "o"
    doc = base_config(output_dir=str(out), lambdas=[0.0, 1.5],
                      symbols=[oracle, base_config()["symbols"][1]])
    cfg = write_config(tmp_path, doc)
    assert main(["--config", str(cfg), "build"]) == EXIT_OK
    assert sorted(f.name for f in out.glob("op_*.json")) == [
        "op_phi_lam0.json", "op_phi_lam1.5.json", "op_x_lam0.json",
        "op_x_lam1.5.json"]
    assert load_operator(out / "op_x_lam1.5.json").provenance == "oracle"
    assert load_operator(out / "op_phi_lam1.5.json").provenance == "f-form"


def test_one_build_per_lambda_writes_the_same_operators(tmp_path):
    # the README's way to use more cores: one build per lambda, each on its
    # own config; oracle streams are keyed per lambda, so only the recorded
    # config differs
    oracle = {"name": "x", "kind": "xi_monomial", "j": 2, "p": [1, 0],
              "q": [0, 0]}
    doc = base_config(lambdas=[0.0, 1.5],
                      symbols=[oracle, base_config()["symbols"][1]])

    def build(name, lambdas):
        out = tmp_path / name
        cfg = write_config(tmp_path, {**doc, "lambdas": lambdas,
                                      "output_dir": str(out)}, f"{name}.json")
        assert main(["--config", str(cfg), "build"]) == EXIT_OK
        docs = {}
        for f in out.glob("op_*.json"):
            docs[f.name] = json.loads(f.read_text())
            del docs[f.name]["meta"]["resolved_config"]
        return docs

    per_lambda = {**build("lam0", [0.0]), **build("lam1.5", [1.5])}
    assert build("all", [0.0, 1.5]) == per_lambda
    assert len(per_lambda) == 4


class TestSharedOracleBuild:
    """build draws the ball samples once per lambda for its oracle symbols."""

    ORACLE = [
        {"name": "x", "kind": "xi_monomial", "j": 2, "p": [1, 0],
         "q": [0, 0]},
        {"name": "h", "kind": "block_hermitian",
         "matrix": [[1.0, 0.0, 0.0], [0.0, 0.5, [0.0, 0.5]],
                    [0.0, [0.0, -0.5], 0.25]]},
        {"name": "z", "kind": "zpoly", "declared_class": "tm",
         "terms": [{"coeff": 1.0, "z": [0, 1, 0], "zbar": [0, 0, 1]}]},
    ]
    LAMBDAS = [0.0, 1.5]

    @pytest.fixture
    def drawn(self, monkeypatch):
        drawn = []
        sample_ball = toeplitz.sample_ball

        def counting(n, lam, size, rng):
            drawn.append((lam, size))
            return sample_ball(n, lam, size, rng)

        monkeypatch.setattr(toeplitz, "sample_ball", counting)
        return drawn

    def _build(self, tmp_path, name, symbols, capsys):
        out = tmp_path / name
        doc = base_config(output_dir=str(out), lambdas=self.LAMBDAS,
                          symbols=symbols)
        cfg = write_config(tmp_path, doc, f"{name}.json")
        capsys.readouterr()
        assert main(["--config", str(cfg), "build"]) == EXIT_OK
        return parse_config(doc), out, capsys.readouterr().out

    def test_one_draw_per_lambda(self, tmp_path, drawn, capsys):
        symbols = self.ORACLE + [base_config()["symbols"][1]]  # phi: f-form
        cfg, out, stdout = self._build(tmp_path, "all", symbols, capsys)
        # one draw set per lambda, not per symbol: the chunks of each
        # lambda's draw add up to ball_samples
        assert {lam for lam, _ in drawn} == set(self.LAMBDAS)
        for lam in self.LAMBDAS:
            assert sum(size for at, size in drawn
                       if at == lam) == cfg.spec.ball_samples
        # one line per (symbol, lambda), symbols outermost, as configured
        assert stdout.splitlines() == [
            f"wrote {out / f'op_{s}_lam{lam:g}.json'}"
            for s in ("x", "h", "z", "phi") for lam in self.LAMBDAS]

    def test_operators_are_the_ones_built_alone(self, tmp_path, capsys):
        cfg, out, _ = self._build(tmp_path, "all", self.ORACLE, capsys)
        for doc, sym in zip(self.ORACLE, cfg.symbols):
            _, alone_out, _ = self._build(tmp_path, sym.name, [doc], capsys)
            for lam in self.LAMBDAS:
                name = f"op_{sym.name}_lam{lam:g}.json"
                T = load_operator(out / name)
                refs = [load_operator(alone_out / name),
                        toeplitz.toeplitz_operator(sym, cfg.degree, lam,
                                                   cfg.spec)]
                for ref in refs:
                    assert T.provenance == ref.provenance == "oracle"
                    assert T.kappas() == ref.kappas()
                    for kappa in T.kappas():
                        assert np.array_equal(T.blocks[kappa],
                                              ref.blocks[kappa])
                        assert np.array_equal(T.block_stderr[kappa],
                                              ref.block_stderr[kappa])


def test_runs_without_scipy(tmp_path):
    # the package needs numpy only: with scipy unimportable, build and
    # verify run the diagonal-gamma (one, rad), f-form (phi1), g-form (psi2)
    # and oracle (ctrl) paths and every check of the README config
    doc = base_config(
        partition=[2, 2], output_dir=str(tmp_path / "o"),
        quadrature={"ball_samples": 4000, "haar_samples": 100,
                    "radial_nodes": 8, "sphere_nodes": 8, "torus_nodes": 6},
        symbols=[
            {"name": "one", "kind": "constant", "value": 1.0},
            {"name": "rad", "kind": "radial_poly",
             "terms": [{"coeff": 1.0, "powers": [1, 0]}]},
            {"name": "phi1", "kind": "phi", "j": 1, "p": [1, 0], "q": [0, 1]},
            {"name": "psi2", "kind": "pseudo", "j": 2, "s_powers": [2, 0],
             "t_exp": [1, -1]},
            {"name": "ctrl", "kind": "xi_monomial", "j": 1, "p": [1, 0],
             "q": [0, 0]},
        ],
        checks=["offblock", "tensor", "commutators", "trace_identity",
                "trace_integral", "equivariance"],
        trace_kappas=[[1, 1]], equivariance_rotations=1)
    cfg = write_config(tmp_path, doc)
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from toepblocks import cli\n"
        "for command in ('build', 'verify'):\n"
        "    rc = cli.main(['--config', sys.argv[1], command])\n"
        "    if rc:\n"
        "        sys.exit(f'{command} exited {rc}')\n"
        "assert [m for m in sys.modules if m.startswith('scipy')] == ['scipy']\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script, str(cfg)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
    assert {r["check"] for r in report["reports"]} == {
        "offblock-leakage", "tensor-constancy", "commutator",
        "trace-identity", "trace-integral", "equivariance"}


class TestVerifyPlan:
    """verify computes each quantity of a lambda once: offblock's draw gives
    trace-identity's left sides, and each exact trace right side serves
    both trace checks."""

    SYMBOLS = [
        {"name": "one", "kind": "constant", "value": 1.0},
        {"name": "rad", "kind": "radial_poly",
         "terms": [{"coeff": 1.0, "powers": [1, 0]}]},
        {"name": "phi1", "kind": "phi", "j": 1, "p": [1, 0], "q": [0, 1]},
        {"name": "psi2", "kind": "pseudo", "j": 2, "s_powers": [2, 0],
         "t_exp": [1, -1]},
        {"name": "herm", "kind": "block_hermitian",
         "matrix": np.diag([1.0, 0.5, -0.25, 0.75]).tolist()},
        {"name": "ctrl", "kind": "xi_monomial", "j": 1, "p": [1, 0],
         "q": [0, 0]},
    ]

    def config(self, checks):
        return parse_config(base_config(
            partition=[2, 2], lambdas=[0.0, 2.5], symbols=self.SYMBOLS,
            checks=checks, trace_kappas=[[0, 0], [1, 1], [2, 0]],
            quadrature={"ball_samples": 3000, "haar_samples": 40,
                        "radial_nodes": 6, "sphere_nodes": 6,
                        "torus_nodes": 6}))

    @staticmethod
    def tm(cfg):
        return [s for s in cfg.symbols if s.klass.implies(TM_INVARIANT)]

    @staticmethod
    def of(reports, check, lam):
        return [r for r in reports
                if r.check == check and r.provenance["lambda"] == lam]

    def test_trace_identity_reads_offblocks_draw(self, monkeypatch):
        calls = []
        monkeypatch.setattr(structure, "oracle_traces",
                            lambda *args, **kw: calls.append(args))
        reports = _run_checks(self.config(["offblock", "trace_identity"]))
        assert calls == []
        ti = [r for r in reports if r.check == "trace-identity"]
        assert len(ti) == 2 * 5 * 3
        assert {r.provenance["ball_stream"] for r in ti} == {"offblock"}

    def test_left_sides_are_the_offblock_gram_diagonal(self):
        # the trace of a slice is the sum of the Gram's diagonal over the
        # slice, on offblock's stream; the offblock reports are those of
        # the check run alone, bit for bit
        cfg = self.config(["offblock", "trace_identity"])
        reports = _run_checks(cfg)
        p, spec = cfg.partition, cfg.spec
        alphas = enumerate_multiindices(p.n, cfg.degree)
        symbols = self.tm(cfg)
        for lam in cfg.lambdas:
            alone = structure.offblock_leakage(cfg.symbols, cfg.degree, lam,
                                               spec)
            assert [r.to_dict() for r in self.of(reports, "offblock-leakage",
                                                 lam)] == [
                r.to_dict() for r in alone]
            grams = toeplitz.oracle_matrix(
                symbols, alphas, [len(alphas)], lam, spec,
                substream(spec.seed, "offblock", repr(lam)))
            ti = iter(self.of(reports, "trace-identity", lam))
            for [(G, _)] in grams:
                for kappa in cfg.extras["trace_kappas"]:
                    rows = [i for i, al in enumerate(alphas)
                            if kappa_of(al, p) == kappa]
                    want = complex(np.trace(G[np.ix_(rows, rows)]))
                    rep = next(ti)
                    assert list(rep.per_kappa) == [kappa]
                    assert rep.metrics["block_trace"] == pytest.approx(
                        want, rel=1e-12, abs=1e-12)

    def test_without_offblock_the_check_draws_its_own(self):
        # the left sides of one oracle_traces call on the check's stream,
        # as when trace_identity_check is called alone
        cfg = self.config(["trace_identity"])
        reports = _run_checks(cfg)
        kappas = cfg.extras["trace_kappas"]
        symbols = self.tm(cfg)
        for lam in cfg.lambdas:
            got = self.of(reports, "trace-identity", lam)
            alone = structure.trace_identity_check(symbols, kappas, lam,
                                                   cfg.spec)
            assert [r.to_dict() for r in got] == [r.to_dict() for r in alone]
            traces = structure.oracle_traces(
                symbols, kappas, lam, cfg.spec,
                substream(cfg.spec.seed, "trace-identity", repr(lam)))
            assert [(r.metrics["block_trace"],
                     r.metrics["block_trace_stderr"]) for r in got] == [
                pair for rows in traces for pair in rows]
            assert {r.provenance["ball_stream"] for r in got} == {
                "trace-identity"}

    def test_one_exact_right_side_per_symbol_and_lambda(self, monkeypatch):
        calls = []
        trace_integral = structure.trace_integral

        def spy(a, kappas, lam, *args):
            calls.append((a.name, lam))
            return trace_integral(a, kappas, lam, *args)

        monkeypatch.setattr(structure, "trace_integral", spy)
        cfg = self.config(["offblock", "trace_identity", "trace_integral"])
        reports = _run_checks(cfg)
        # herm (oracle path) keeps its own Haar streams: one call in
        # trace-identity and one per slice in trace-integral
        want = {(s.name, lam): 1 for s in self.tm(cfg) for lam in cfg.lambdas}
        for lam in cfg.lambdas:
            want["herm", lam] = 1 + 3
        assert {key: calls.count(key) for key in set(calls)} == want
        for lam in cfg.lambdas:
            ti = self.of(reports, "trace-identity", lam)
            tint = self.of(reports, "trace-integral", lam)
            assert len(ti) == len(tint) == 5 * 3
            for a, b in zip(ti, tint):
                if a.provenance["haar_path"] != "oracle":
                    assert (a.metrics["dim_times_gamma"]
                            == b.metrics["integral_u1"])

    def test_oracle_path_right_sides_are_unchanged(self):
        cfg = self.config(["offblock", "trace_identity", "trace_integral"])
        reports = _run_checks(cfg)
        [herm] = [s for s in cfg.symbols if s.name == "herm"]
        kappas = cfg.extras["trace_kappas"]
        for lam in cfg.lambdas:
            ti = [r for r in self.of(reports, "trace-identity", lam)
                  if r.provenance["symbol"] == "herm"]
            tint = [r for r in self.of(reports, "trace-integral", lam)
                    if r.provenance["symbol"] == "herm"]
            own = structure.trace_integral(herm, kappas, lam, cfg.spec,
                                           substream(cfg.spec.seed,
                                                     "trace-identity", "herm",
                                                     repr(lam)))
            assert [r.metrics["dim_times_gamma"] for r in ti] == [
                v for v, _ in own]
            for kappa, r in zip(kappas, tint):
                [(v, se)] = structure.trace_integral(herm, [kappa], lam,
                                                     cfg.spec)
                assert se > 0.0
                assert r.metrics["integral_u1"] == v
