"""CLI: config validation, build determinism, verify semantics, exports."""

import csv
import json

import numpy as np
import pytest

from toepblocks import structure
from toepblocks.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    build_symbol,
    main,
    parse_config,
)
from toepblocks.mindex import Partition
from toepblocks.quad import sample_ball
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

    def test_negative_control_does_not_flip_exit(self, tmp_path):
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

    def test_jobs_is_a_build_flag(self, tmp_path):
        cfg = write_config(tmp_path, base_config(output_dir=str(tmp_path / "o")))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "verify", "--jobs", "2"])
        assert exc.value.code == EXIT_CONFIG

    def test_all_checks_in_registry_order(self, tmp_path):
        checks = ["offblock", "tensor", "commutators", "trace_identity",
                  "trace_integral", "equivariance", "sequence"]
        reports = []
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
                ])
            cfg = write_config(tmp_path, doc, f"{name}.json")
            assert main(["--config", str(cfg), "verify"]) == EXIT_OK
            reports.append(json.loads(
                (tmp_path / name / "verify_report.json").read_text())["reports"])
        assert list(dict.fromkeys(r["check"] for r in reports[0])) == [
            "offblock-leakage", "tensor-constancy", "commutator",
            "trace-identity", "trace-integral", "equivariance", "sequence"]
        assert reports[0] == reports[1]

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
            ])
        cfg = write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "verify"]) == EXIT_OK
        reports = json.loads(
            (tmp_path / "o" / "verify_report.json").read_text())["reports"]
        paths = {"one": "diagonal-gamma", "rad": "diagonal-gamma",
                 "phi1": "f-form", "psi2": "g-form"}
        seen = set()
        for r in reports:
            prov = r["provenance"]
            seen.add((r["check"], prov["symbol"]))
            assert prov["haar_path"] == paths[prov["symbol"]]
            exact = prov["haar_path"] == "diagonal-gamma"
            if r["check"] == "trace-identity":
                assert prov["haar_samples"] == (0 if exact else 40)
                assert (r["metrics"]["gamma_stderr"] == 0.0) == exact
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

        monkeypatch.setattr(structure, "sample_ball", counting)
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


def test_build_parallel_matches_serial(tmp_path):
    doc = base_config(output_dir=str(tmp_path / "serial"),
                      lambdas=[0.0, 1.5])
    cfg = write_config(tmp_path, doc, "serial.json")
    main(["--config", str(cfg), "build"])
    doc2 = base_config(output_dir=str(tmp_path / "par"), lambdas=[0.0, 1.5])
    cfg2 = write_config(tmp_path, doc2, "par.json")
    main(["--config", str(cfg2), "build", "--jobs", "3"])
    for name in ("op_one_lam0.json", "op_phi_lam1.5.json"):
        a = (tmp_path / "serial" / name).read_text()
        b = (tmp_path / "par" / name).read_text()
        assert a.replace(str(tmp_path / "serial"), "") \
            == b.replace(str(tmp_path / "par"), "")


def test_oracle_build_independent_of_jobs(tmp_path):
    oracle = {"name": "x", "kind": "xi_monomial", "j": 2, "p": [1, 0],
              "q": [0, 0]}
    texts = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        doc = base_config(output_dir=str(out), lambdas=[0.0, 1.5],
                          symbols=[oracle, base_config()["symbols"][1]])
        cfg = write_config(tmp_path, doc, f"jobs{jobs}.json")
        assert main(["--config", str(cfg), "build", "--jobs", jobs]) == EXIT_OK
        texts[jobs] = {f.name: f.read_text().replace(str(out), "")
                       for f in out.glob("op_*.json")}
    assert sorted(texts["1"]) == ["op_phi_lam0.json", "op_phi_lam1.5.json",
                                  "op_x_lam0.json", "op_x_lam1.5.json"]
    assert texts["1"] == texts["2"]
    assert load_operator(tmp_path / "jobs2" / "op_x_lam1.5.json").provenance \
        == "oracle"
