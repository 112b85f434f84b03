import csv
import io
import json
import math
import os
import warnings

import numpy as np
import pytest

from rankmix import artifacts
from rankmix.cli import main
from rankmix.data import AggregatedData, CovariateDecl, read_ranking_csv
from rankmix.fitting import FitConfig, fit, search_classes
from rankmix.model import ModelSpec
from rankmix.posthoc import assign_classes
from rankmix.rankings import enumerate_transitive_patterns

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

    @pytest.mark.parametrize("field, value", [
        ("items", "ABC"), ("n", 20.7), ("seed", "9"),
        ("classes", {"prob": 1.0, "worths": [0.5, 0.3, 0.2]}), ("covariates", ["grp"]),
    ])
    def test_config_value_of_wrong_type_exits_one(self, tmp_path, capsys, field,
                                                  value):
        cfg = dict(SIM_CONFIG, out=str(tmp_path / "sim.csv"), **{field: value})
        assert main(["simulate", "--config", write_json(tmp_path / "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert f"'{field}'" in err
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("change, named", [
        ({"classes": [{"worths": [0.5, 0.3, 0.2]}]},
         "config 'classes' entry 1 has no 'prob'"),
        ({"covariates": [{"name": "g", "levels": ["x", "y"]}]},
         "config 'covariates' entry 1 has no 'probs'"),
        ({"classes": [{"prob": "1", "worths": [0.5, 0.3, 0.2]}]},
         "config 'classes' entry 1 'prob' must be a finite number, got '1'"),
        ({"n": -5}, "n must be an integer >= 0, got -5"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"covariates": [{"name": "g", "levels": ["x", "y"], "probs": [0.5, 0.5],
                          "effects": {"q": [1.0, 0.0, 0.0]}}]},
         "covariate 'g': effect for undeclared level 'q'"),
    ], ids=["class_without_prob", "covariate_without_probs", "prob_as_string",
            "negative_n", "negative_seed", "effect_for_undeclared_level"])
    def test_bad_truth_entry_exits_one_naming_it(self, tmp_path, capsys, change,
                                                 named):
        cfg = {"items": ["a", "b", "c"], "n": 10,
               "classes": [{"prob": 1.0, "worths": [0.5, 0.3, 0.2]}],
               "out": str(tmp_path / "sim.csv"), **change}
        assert main(["simulate", "--config", write_json(tmp_path / "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert named in err
        assert not (tmp_path / "sim.csv").exists()

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

    @pytest.mark.parametrize("huge", [
        {0: "1e300"},
        # the one low value lies 3.4e308 below the mean: the difference overflows
        {i: "-1.7e308" if i == 0 else "1.7e308" for i in range(60)},
    ])
    def test_huge_continuous_covariate_fits_or_names_it(self, tmp_path, capsys,
                                                        huge):
        rng = np.random.default_rng(3)
        lines = ["A,B,C,x"] + [
            ",".join([*map(str, rng.permutation(3) + 1),
                      huge.get(i, f"{rng.normal():.3f}")])
            for i in range(60)]
        (tmp_path / "huge.csv").write_text("\n".join(lines) + "\n")
        cfg = fit_config(
            tmp_path, tmp_path / "huge.csv",
            covariates=[{"name": "x", "type": "continuous"}],
            terms=["x"], classes=1,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fit", "--config", cfg])
        assert caught == []
        err = capsys.readouterr().err
        if code == 0:
            doc = json.loads((tmp_path / "out" / "fit.json").read_text())
            scale = doc["data"]["continuous_scale"]["x"]
            assert math.isfinite(scale["mean"]) and math.isfinite(scale["scale"])
        else:
            assert code == 1 and err.startswith("error:")
            assert len(err.strip().splitlines()) == 1
            assert ":x" in err

    @pytest.mark.parametrize("rows, terms, classes, seed", [
        # an EM chain's Newton system
        (["3,4,1,2,y", "2,1,4,3,y", "2,4,1,3,x", "3,2,4,1,y", "3,2,1,4,y",
          "3,2,4,1,y"], ["g"], 2, 7),
        # a corrected-SE refit's complete-data information
        (["3,1,2,4,x", "4,3,2,1,x", "2,4,1,3,y", "1,3,4,2,y", "1,3,2,4,x",
          "3,4,2,1,y"], [], 7, 0),
    ], ids=["em_newton_solve", "refit_decrement"])
    def test_system_that_numpy_finds_singular_fails_its_chain(
            self, tmp_path, capsys, rows, terms, classes, seed):
        # the system passes the Cholesky test, but numpy's LU solve finds a
        # zero pivot: that chain fails, and the fit goes on or names why
        (tmp_path / "tiny.csv").write_text("a,b,c,d,g\n" + "\n".join(rows) + "\n")
        cfg = fit_config(
            tmp_path, tmp_path / "tiny.csv", items=["a", "b", "c", "d"],
            covariates=[{"name": "g", "type": "factor"}], terms=terms,
            classes=classes, fit={"n_starts": 4, "seed": seed}, se_method="all",
        )
        code = main(["fit", "--config", cfg])
        err = capsys.readouterr().err
        if code == 1:
            assert err.startswith("error:")
            assert len(err.strip().splitlines()) == 1
            assert "Singular matrix" not in err
        else:
            assert code in (0, 2)
            for name in ("fit.json", "worths.csv", "classes.csv", "se.csv"):
                assert (tmp_path / "out" / name).exists(), name

    def test_full_rank_design_is_not_called_rank_deficient(self, tmp_path, capsys):
        # four rows and nine classes: every chain's information goes singular
        # as its classes empty, though the design has full rank; a declared
        # level that no respondent has is refused as aliased before any chain
        (tmp_path / "tiny.csv").write_text(
            "a,b,c,d,g\n1,2,3,4,x\n2,1,4,3,y\n4,3,2,1,x\n3,4,1,2,y\n")
        for levels, terms, aliased in ((None, [], False),
                                       (["x", "y", "z"], ["g"], True)):
            cfg = fit_config(
                tmp_path, tmp_path / "tiny.csv", items=["a", "b", "c", "d"],
                covariates=[{"name": "g", "type": "factor", "levels": levels}],
                terms=terms, classes=9, fit={"n_starts": 4, "seed": 0},
                se_method="all",
            )
            assert main(["fit", "--config", cfg]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1
            if aliased:
                assert err.strip().endswith("aliased columns: a:g=z, b:g=z, c:g=z")
            else:
                assert "rank deficient" not in err

    def test_degenerate_returned_start_is_named(self, tmp_path, capsys):
        # input B of the numpy-singular test: every chain's class offset runs
        # away, so the fit returns the best degenerate chain; the warning and
        # the report's status line say which and why
        (tmp_path / "tiny.csv").write_text("a,b,c,d,g\n" + "\n".join(
            ["3,1,2,4,x", "4,3,2,1,x", "2,4,1,3,y", "1,3,4,2,y", "1,3,2,4,x",
             "3,4,2,1,y"]) + "\n")
        cfg = fit_config(
            tmp_path, tmp_path / "tiny.csv", items=["a", "b", "c", "d"],
            covariates=[{"name": "g", "type": "factor"}], terms=[], classes=7,
            fit={"n_starts": 4, "seed": 0}, se_method="all",
        )
        assert main(["fit", "--config", cfg]) == 2
        err = capsys.readouterr().err
        doc = json.loads((tmp_path / "out" / "fit.json").read_text())
        best = doc["fit"]["best_start"]
        (chain,) = [c for c in doc["chains"] if c["label"] == best]
        assert chain["degenerate"] and chain["message"]
        assert err.strip() == (
            f"warning: EM did not converge; the returned start {best} "
            f"degenerated: {chain['message']}; artifacts written")
        assert main(["report", str(tmp_path / "out" / "fit.json")]) == 0
        status = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("NOT converged")]
        assert status == [f"NOT converged after {chain['iterations']} iterations "
                          f"(best start {best}, 4 starts; it degenerated: "
                          f"{chain['message']})"]

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

    @pytest.mark.parametrize("field, value", [
        ("n_starts", "3"), ("tol", "abc"), ("max_iter", 2.5), ("seed", 1.5),
        ("start_scale", "x"), ("irls_max_iter", 0), ("irls_tol", 1e-8),
    ])
    def test_bad_fit_option_exits_one_naming_it(self, tmp_path, sim_csv, capsys,
                                                field, value):
        cfg = fit_config(tmp_path, sim_csv, fit={"n_starts": 2, field: value})
        assert main(["fit", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert field in err

    def assert_one_error_line(self, argv, capsys, *words):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        for word in words:
            assert word in err

    def test_config_that_is_not_an_object_is_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", [1, 2])
        self.assert_one_error_line(["fit", "--config", cfg], capsys, "JSON object")

    def test_fit_options_that_are_not_an_object_are_rejected(self, tmp_path,
                                                             sim_csv, capsys):
        cfg = fit_config(tmp_path, sim_csv, fit=[1, 2])
        self.assert_one_error_line(["fit", "--config", cfg], capsys, "'fit'")

    def test_levels_that_are_not_a_list_are_rejected(self, tmp_path, sim_csv,
                                                     capsys):
        cfg = fit_config(tmp_path, sim_csv,
                         covariates=[{"name": "grp", "type": "factor", "levels": 5}])
        self.assert_one_error_line(["fit", "--config", cfg], capsys, "levels")

    def test_fractional_class_count_is_rejected(self, tmp_path, sim_csv, capsys):
        cfg = fit_config(tmp_path, sim_csv, classes=2.7)
        self.assert_one_error_line(["fit", "--config", cfg], capsys, "'classes'")

    def test_fractional_class_range_is_rejected(self, tmp_path, sim_csv, capsys):
        cfg = fit_config(tmp_path, sim_csv, class_range=[1, 2.7])
        self.assert_one_error_line(["search", "--config", cfg], capsys,
                                   "class_range")

    def test_items_that_are_not_a_list_are_rejected(self, tmp_path, sim_csv,
                                                    capsys):
        cfg = fit_config(tmp_path, sim_csv, items="ABC")
        self.assert_one_error_line(["fit", "--config", cfg], capsys, "'items'")

    @pytest.mark.parametrize("items", [
        ["A", "B", 5], ["A", "B", {"column": "C"}], ["A", "B", {"label": 3}],
    ])
    def test_malformed_item_entry_is_rejected(self, tmp_path, sim_csv, capsys,
                                              items):
        cfg = fit_config(tmp_path, sim_csv, items=items)
        self.assert_one_error_line(["fit", "--config", cfg], capsys, "'items'")

    @pytest.mark.parametrize("covariates", [
        ["grp"], [{"type": "factor"}], {"name": "grp"},
    ])
    def test_malformed_covariate_entry_is_rejected(self, tmp_path, sim_csv,
                                                   capsys, covariates):
        cfg = fit_config(tmp_path, sim_csv, covariates=covariates)
        self.assert_one_error_line(["fit", "--config", cfg], capsys,
                                   "'covariates'")

    def test_zero_classes_flag_is_not_ignored(self, tmp_path, sim_csv, capsys):
        cfg = fit_config(tmp_path, sim_csv)  # a 2-class config
        self.assert_one_error_line(["fit", "--config", cfg, "--classes", "0"],
                                   capsys, "n_classes must be >= 1")
        assert not (tmp_path / "out" / "fit.json").exists()

    def test_field_past_the_csv_size_limit_exits_one(self, tmp_path, capsys):
        # an unclosed quote on line 2 makes one field of the 160 000
        # characters after it, past csv.field_size_limit()
        path = tmp_path / "quote.csv"
        path.write_text("A,B,C,grp\n" + '1,2,3,"a\n' + "1,2,3,a\n" * 20000)
        cfg = fit_config(tmp_path, path)
        self.assert_one_error_line(["fit", "--config", cfg], capsys,
                                   "quote.csv", "field limit")
        assert not (tmp_path / "out" / "fit.json").exists()

    @pytest.mark.parametrize("command, overrides, field", [
        ("search", {"models": ["x"]}, "'models'"),
        ("search", {"models": [{"label": "m", "terms": "grp"}]}, "'models'"),
        ("fit", {"out": 3}, "'out'"),
        ("fit", {"input": 3}, "'input'"),
        ("fit", {"count_masses": "false"}, "'count_masses'"),
        ("fit", {"continuity_correction": "false"}, "'continuity_correction'"),
        ("fit", {"terms": "grp"}, "'terms'"),
        ("search", {"terms": "grp", "class_range": [1, 2]}, "'terms'"),
        ("fit", {"crosstab": "grp"}, "'crosstab'"),
        ("fit", {"max_items": 2.5}, "'max_items'"),
    ])
    def test_config_value_of_wrong_type_exits_one(self, tmp_path, sim_csv, capsys,
                                                  command, overrides, field):
        cfg = fit_config(tmp_path, sim_csv, **overrides)
        self.assert_one_error_line([command, "--config", cfg], capsys, field)
        assert not (tmp_path / "out" / "fit.json").exists()

    def test_classes_csv_matches_csv_writer(self, tmp_path, sim_csv):
        cfg = fit_config(tmp_path, sim_csv)
        assert main(["fit", "--config", cfg]) == 0
        # reference: the same fit, one csv.writer row per respondent
        ingest = read_ranking_csv(sim_csv, enumerate_transitive_patterns(3),
                                  ("A", "B", "C"), [CovariateDecl("grp", "factor")])
        result = fit(ModelSpec(("A", "B", "C"), ("grp",), 2), ingest.data,
                     FitConfig(n_starts=3, seed=4))
        table = assign_classes(result, ingest.data)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["respondent", "set", "pattern", "assigned_class", "posterior"])
        writer.writerows(
            [i + 1, int(table.set_index[i]), int(table.pattern_index[i]),
             int(table.assigned[i]), f"{table.posterior[i]:.10g}"]
            for i in range(table.assigned.size))
        assert (tmp_path / "out" / "classes.csv").read_text() == buf.getvalue()
        assert table.assigned.size == 300

    def test_fit_and_search_never_build_the_dense_table(self, tmp_path, sim_csv,
                                                         monkeypatch):
        def dense_table(data):
            raise AssertionError("the dense (set, pattern) table was built")

        monkeypatch.setattr(AggregatedData, "counts", property(dense_table))
        cfg = fit_config(tmp_path, sim_csv, crosstab=["grp"])
        assert main(["fit", "--config", cfg, "--se-method", "all"]) == 0
        data = read_ranking_csv(sim_csv, enumerate_transitive_patterns(3),
                                ("A", "B", "C"), [CovariateDecl("grp", "factor")]).data
        search = search_classes(ModelSpec(("A", "B", "C"), ("grp",), 1), data,
                                FitConfig(n_starts=2, seed=1), [1, 2])
        assert search.best_key in (1, 2)

    def test_fit_never_sorts_python_objects(self, tmp_path, sim_csv, monkeypatch):
        def guarded(sort):
            def call(a, *args, **kwargs):
                if np.asarray(a).dtype == object:
                    raise AssertionError(f"numpy.{sort.__name__} sorted Python objects")
                return sort(a, *args, **kwargs)
            return call

        for name in ("unique", "sort"):
            monkeypatch.setattr(np, name, guarded(getattr(np, name)))
        cfg = fit_config(tmp_path, sim_csv, crosstab=["grp"])
        assert main(["fit", "--config", cfg, "--se-method", "all"]) == 0

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

    def test_crosstab_absent_field_is_the_empty_category(self, tmp_path):
        # the last row is short: its country is absent, like the blank cell above it
        rows = ["1,2,3,AT", "2,1,3,DE", "3,2,1,AT", "1,3,2,", "2,1,3"]
        (tmp_path / "short.csv").write_text("A,B,C,country\n" + "\n".join(rows) + "\n")
        cfg = fit_config(tmp_path, tmp_path / "short.csv", covariates=[], terms=[],
                         classes=1, crosstab=["country"])
        assert main(["fit", "--config", cfg]) == 0
        table = (tmp_path / "out" / "crosstab.csv").read_text().splitlines()[1:]
        assert sorted(line.split(",")[0] for line in table) == ["", "AT", "DE"]


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
