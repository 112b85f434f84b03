import json
import math
import os

import numpy as np
import pytest

from rankmix import artifacts
from rankmix.cli import main
from rankmix.fitting import FitConfig, fit
from rankmix.model import ModelSpec

from conftest import make_data


SIM_CONFIG = {
    "items": ["A", "B", "C"],
    "n": 300,
    "seed": 9,
    "classes": [
        {"prob": 0.6, "worths": [0.5, 0.3, 0.2]},
        {"prob": 0.4, "worths": [0.15, 0.25, 0.6]},
    ],
    "covariates": [
        {"name": "grp", "type": "factor", "levels": ["a", "b"],
         "probs": [0.5, 0.5]}
    ],
}


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def fit_config(tmp_path, input_csv, **overrides):
    cfg = {
        "input": str(input_csv),
        "items": ["A", "B", "C"],
        "covariates": [{"name": "grp", "type": "factor"}],
        "terms": ["grp"],
        "classes": 2,
        "fit": {"n_starts": 3, "seed": 4},
        "se_method": "raw",
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return write_json(tmp_path / "run.json", cfg)


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    cfg = dict(SIM_CONFIG)
    cfg["out"] = str(tmp / "sim.csv")
    path = tmp / "sim.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 0
    return tmp / "sim.csv"


class TestSimulate:
    def test_writes_csv_and_truth(self, sim_csv):
        lines = sim_csv.read_text().splitlines()
        assert lines[0] == "A,B,C,grp"
        assert len(lines) == 301
        truth = json.loads((sim_csv.parent / "sim.truth.json").read_text())
        assert truth["n"] == 300
        for entry in truth["class_worths_by_set"]:
            assert sum(entry["worths"]) == pytest.approx(1.0, abs=1e-9)

    def test_zero_respondents_edge(self, tmp_path):
        cfg = dict(SIM_CONFIG, n=0, out=str(tmp_path / "empty.csv"))
        assert main(["simulate", "--config", write_json(tmp_path / "c.json", cfg)]) == 0
        assert (tmp_path / "empty.csv").read_text() == "A,B,C,grp\n"
        assert json.loads((tmp_path / "empty.truth.json").read_text())["n"] == 0

    def test_seed_reproducible_bytes(self, tmp_path):
        cfg = dict(SIM_CONFIG, n=50, out=str(tmp_path / "a.csv"))
        main(["simulate", "--config", write_json(tmp_path / "a.json", cfg)])
        cfg["out"] = str(tmp_path / "b.csv")
        main(["simulate", "--config", write_json(tmp_path / "b.json", cfg)])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestFit:
    def test_fit_writes_artifacts(self, tmp_path, sim_csv):
        cfg = fit_config(tmp_path, sim_csv, crosstab=["grp"])
        assert main(["fit", "--config", cfg]) == 0
        out = tmp_path / "out"
        for name in ("fit.json", "worths.csv", "classes.csv", "se.csv",
                     "crosstab.csv", "logodds.csv"):
            assert (out / name).exists(), name
        doc = json.loads((out / "fit.json").read_text())
        assert doc["schema_version"] == artifacts.SCHEMA_VERSION
        assert doc["fit"]["converged"] is True
        assert doc["model"]["classes"] == 2
        # config defaults echoed
        assert doc["config"]["max_iter"] == 500
        assert doc["config"]["tol"] == 0.001

    def test_rerun_same_seed_byte_identical(self, tmp_path, sim_csv):
        cfg = fit_config(tmp_path, sim_csv)
        assert main(["fit", "--config", cfg]) == 0
        first = (tmp_path / "out" / "fit.json").read_bytes()
        assert main(["fit", "--config", cfg]) == 0
        assert (tmp_path / "out" / "fit.json").read_bytes() == first

    def test_tied_ranking_exits_one_citing_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B,C,grp\n1,2,3,a\n2,2,3,b\n")
        cfg = fit_config(tmp_path, bad)
        assert main(["fit", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 3" in err

    def test_non_finite_rank_exits_one_with_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B,C,grp\n1,2,3,a\ninf,2,3,b\n")
        cfg = fit_config(tmp_path, bad)
        assert main(["fit", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "line 3" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_continuous_covariate_exits_one_citing_line(
        self, tmp_path, capsys, cell
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"A,B,C,x\n1,2,3,0.5\n2,1,3,{cell}\n3,1,2,1.5\n")
        cfg = fit_config(
            tmp_path, bad,
            covariates=[{"name": "x", "type": "continuous"}],
            terms=["x"], classes=1,
        )
        assert main(["fit", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "line 3" in err
        assert "Warning" not in err

    def test_undeclared_level_exits_one_citing_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B,C,g\n,,,a\n1,2,3,a\n2,1,3,z\n")
        cfg = fit_config(
            tmp_path, bad,
            covariates=[{"name": "g", "type": "factor", "levels": ["a", "b"]}],
            terms=["g"], classes=1,
        )
        assert main(["fit", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "line 4" in err

    def test_capacity_error_for_too_many_items(self, tmp_path, sim_csv, capsys):
        cfg = fit_config(tmp_path, sim_csv,
                         items=[f"i{k}" for k in range(9)])
        assert main(["fit", "--config", cfg]) == 1
        assert "factorial" in capsys.readouterr().err

    def test_nonconvergence_exits_two_with_artifacts(self, tmp_path, sim_csv,
                                                     capsys):
        cfg = fit_config(tmp_path, sim_csv,
                         fit={"n_starts": 2, "seed": 4, "max_iter": 1})
        assert main(["fit", "--config", cfg]) == 2
        assert (tmp_path / "out" / "fit.json").exists()
        doc = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert doc["fit"]["converged"] is False

    def test_flag_overrides(self, tmp_path, sim_csv):
        cfg = fit_config(tmp_path, sim_csv)
        assert main(["fit", "--config", cfg, "--classes", "1",
                     "--seed", "11", "--starts", "2"]) == 0
        doc = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert doc["model"]["classes"] == 1
        assert doc["config"]["seed"] == 11

    def test_unknown_fit_option_rejected(self, tmp_path, sim_csv, capsys):
        cfg = fit_config(tmp_path, sim_csv, fit={"warp": 9})
        assert main(["fit", "--config", cfg]) == 1
        assert "warp" in capsys.readouterr().err

    def test_corrected_se_csv(self, tmp_path, sim_csv):
        cfg = fit_config(tmp_path, sim_csv, classes=1, se_method="corrected")
        assert main(["fit", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "se.csv").read_text().splitlines()
        assert lines[0] == "term,estimate,se_raw,se_corrected,se_hessian,lr_drop"
        first = lines[1].split(",")
        assert first[3] != ""
        assert float(first[5]) > 0

    def test_continuous_covariate_reports_raw_scale(self, tmp_path):
        sim_cfg = {
            "items": ["A", "B", "C"],
            "n": 500,
            "seed": 21,
            "classes": [{"prob": 1.0, "worths": [0.45, 0.35, 0.2]}],
            "covariates": [
                {"name": "x", "type": "continuous",
                 "values": [-1.0, 0.0, 1.0, 2.0],
                 "probs": [0.25, 0.25, 0.25, 0.25],
                 "slopes": [0.25, 0.0, 0.0]}
            ],
            "out": str(tmp_path / "cont.csv"),
        }
        assert main(["simulate", "--config",
                     write_json(tmp_path / "s.json", sim_cfg)]) == 0
        cfg = fit_config(
            tmp_path, tmp_path / "cont.csv",
            covariates=[{"name": "x", "type": "continuous"}],
            terms=["x"], classes=1,
        )
        assert main(["fit", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "out" / "fit.json").read_text())
        slope_rows = [e for e in doc["estimates"] if e["kind"] == "continuous"]
        assert slope_rows
        for entry in slope_rows:
            scale = doc["data"]["continuous_scale"]["x"]["scale"]
            assert entry["estimate_raw_scale"] == pytest.approx(
                entry["estimate"] / scale
            )

    def test_crosstab_expected_rows_match_group_sizes(self, tmp_path, sim_csv):
        cfg = fit_config(tmp_path, sim_csv, crosstab=["grp"])
        assert main(["fit", "--config", cfg]) == 0
        rows = (tmp_path / "out" / "crosstab.csv").read_text().splitlines()[1:]
        import csv as _csv
        sizes = {}
        with open(sim_csv) as fh:
            for rec in _csv.DictReader(fh):
                sizes[rec["grp"]] = sizes.get(rec["grp"], 0) + 1
        for line in rows:
            parts = line.split(",")
            total = sum(float(x) for x in parts[1:])
            assert total == pytest.approx(sizes[parts[0]], abs=1e-6)


class TestSearch:
    def test_class_sweep_comparison(self, tmp_path, sim_csv):
        cfg = fit_config(tmp_path, sim_csv)
        assert main(["search", "--config", cfg, "--class-range", "1", "3"]) == 0
        lines = (tmp_path / "out" / "comparison.csv").read_text().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        n_cells = 6 * 2  # patterns x covariate sets
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            gap = float(row["bic"]) - float(row["minus_two_loglik"])
            assert gap == pytest.approx(
                int(row["parameters"]) * math.log(n_cells), abs=1e-6
            )
        doc = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert "search" in doc
        assert doc["model"]["classes"] == 2  # generated from two classes

    def test_term_sweep_comparison(self, tmp_path, sim_csv):
        cfg = fit_config(tmp_path, sim_csv,
                         models=[{"label": "null", "terms": []},
                                 {"label": "grp", "terms": ["grp"]}],
                         classes=1)
        assert main(["search", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "comparison.csv").read_text().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["null", "grp"]

    def test_search_without_range_or_models_errors(self, tmp_path, sim_csv,
                                                   capsys):
        cfg = fit_config(tmp_path, sim_csv)
        assert main(["search", "--config", cfg]) == 1
        assert "class range" in capsys.readouterr().err


class TestReport:
    def test_prints_worths_and_shares(self, tmp_path, sim_csv, capsys):
        cfg = fit_config(tmp_path, sim_csv)
        main(["fit", "--config", cfg])
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out" / "fit.json")]) == 0
        text = capsys.readouterr().out
        assert "worths" in text
        assert "class shares" in text
        assert "BIC" in text

    def test_single_class_report_has_no_share_block(self, tmp_path, sim_csv,
                                                    capsys):
        cfg = fit_config(tmp_path, sim_csv, classes=1)
        main(["fit", "--config", cfg])
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out" / "fit.json")]) == 0
        text = capsys.readouterr().out
        assert "class shares" not in text
        assert "worths" in text

    def test_missing_artifact_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope" / "fit.json")
        assert main(["report", missing]) == 1
        assert missing in capsys.readouterr().err

    def test_schema_version_checked(self, tmp_path, capsys):
        bad = tmp_path / "fit.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        assert main(["report", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "99" in err and str(artifacts.SCHEMA_VERSION) in err

    def test_six_class_document_renders_every_class(self):
        # one EM sweep is enough to produce a well-formed document
        data = make_data(4, np.arange(1, 25))
        spec = ModelSpec(("A", "B", "C", "D"), (), 6)
        config = FitConfig(n_starts=1, seed=0, max_iter=1)
        result = fit(spec, data, config)
        from rankmix.posthoc import class_summary, worth_table

        doc = artifacts.fit_document(
            result, data, config,
            worth_rows=worth_table(result, data),
            class_shares=class_summary(result, data),
        )
        text = artifacts.render_report(doc)
        for r in range(1, 7):
            assert f"class {r}" in text
        assert "patterns" in text and "respondents" in text
