"""Scenario configs, run/ensemble reports, and the command-line interface."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjreg
from hjreg import experiment
from hjreg.cli import main
from hjreg.degiorgi import LemmaVerdict
from hjreg.experiment import (
    CHECK_NAMES,
    SCHEMA_VERSION,
    ChainSettings,
    ConfigError,
    EnsembleReport,
    ExperimentConfig,
    RunReport,
    bundled_scenarios,
    ensemble,
    parse_config,
    run,
    scenario_path,
)
from hjreg.grid import GridSpec, to_json
from hjreg.oscillation import build_constant_chain
from hjreg.rescale import HolderEstimate, OscillationRecord, TheoremReport


GRID = {
    "dimension": 2,
    "half_width": 1.25,
    "cells_per_axis": 8,
    "t_start": 0.0,
    "t_end": 0.5,
    "dt": 0.125,
}
ROUGH = {"kind": "rough-coefficient", "p": 1.5, "lambda": 2.0, "eta": 0.25}


def minimal_dict(**overrides):
    data = {
        "scenario": "unit-test",
        "grid": dict(GRID),
        "hamiltonian": {"kind": "power-law", "p": 1.5},
    }
    data.update(overrides)
    return data


def checked_dict(**overrides):
    """A config whose grid satisfies every check's coverage window."""
    data = minimal_dict(
        grid={
            "dimension": 2,
            "half_width": 1.25,
            "cells_per_axis": 20,
            "t_start": -2.0,
            "t_end": 2.0,
            "dt": 0.05,
        },
    )
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def output_tree(run_dir):
    """Every file under ``run_dir`` by relative path: bytes, or for a
    ``report.json`` the parsed report without ``timings``."""
    out = {}
    for path in sorted(run_dir.rglob("*")):
        if not path.is_file():
            continue
        if path.name == "report.json":
            report = json.loads(path.read_text())
            report.pop("timings", None)
            out[path.relative_to(run_dir).as_posix()] = report
        else:
            out[path.relative_to(run_dir).as_posix()] = path.read_bytes()
    return out


def count_solves(monkeypatch):
    """Route ``experiment.solve`` through a counter; returns its call list."""
    calls = []
    original = experiment.solve

    def solve(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "solve", solve)
    return calls


def refuted_empirical_dict():
    """refuted-fixture in empirical chain mode: lemma1 does not read the
    chain, so every candidate is refuted."""
    data = json.loads(scenario_path("refuted-fixture").read_text())
    data["chain"] = {"mode": "empirical"}
    return data


class TestConfigParsing:
    def test_minimal_defaults(self):
        cfg = ExperimentConfig.from_json_dict(minimal_dict())
        assert cfg.scenario == "unit-test"
        assert cfg.envelope.lam == 1.0
        assert cfg.envelope.p == 1.5
        assert cfg.initial_data.name == "zero"
        assert cfg.initial_data.seed == 0
        assert cfg.chain.mode == "fixed"
        assert cfg.chain.alpha == 1.0
        assert cfg.checks == ()
        assert cfg.solve.sigma_mode == "adaptive"
        assert cfg.cascade.levels == 4
        assert cfg.oracle is None
        assert cfg.sweep is None

    def test_round_trip(self):
        data = checked_dict(
            checks=["lemma1", "lemma2"],
            envelope={"lambda": 1.0, "p": 1.5},
            tolerances={"delta": 0.01},
        )
        cfg = ExperimentConfig.from_json_dict(data)
        again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg
        assert again.to_json_dict() == cfg.to_json_dict()

    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_bundled_scenario_round_trip(self, name):
        cfg = parse_config(scenario_path(name))
        assert ExperimentConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_values_are_read_by_their_annotations(self):
        cfg = ExperimentConfig.from_json_dict(minimal_dict(
            grid={**GRID, "half_width": 2, "cells_per_axis": 8.0},
            cascade={"base_point": [0, 1]},
            tolerances={"delta": 1},
        ))
        assert cfg.grid.half_width == 2.0 and type(cfg.grid.half_width) is float
        assert type(cfg.grid.cells_per_axis) is int
        assert cfg.cascade.base_point == (0.0, 1.0)
        assert type(cfg.tolerances["delta"]) is float

    @pytest.mark.parametrize(
        "section, match",
        [
            ({"grid": {**GRID, "cells_per_axis": True}}, "cells_per_axis"),
            ({"grid": {**GRID, "t_end": float("inf")}}, "t_end must be finite"),
            ({"grid": {k: v for k, v in GRID.items() if k != "dt"}}, "needs 'dt'"),
            ({"hamiltonian": {**ROUGH, "table": {"dimension": 1}}},
             "hamiltonian.table needs"),
            ({"scenario": 5}, "scenario must be a string"),
            ({"checks": ["lemma1", 2]}, r"checks\[1\]"),
            ({"sweep": {"parameter": "eta", "values": ["x"]}}, r"values\[0\]"),
        ],
    )
    def test_coercion_faults_name_the_key(self, section, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_json_dict(minimal_dict(**section))

    def test_empirical_chain_drops_alpha(self):
        cfg = ExperimentConfig.from_json_dict(
            minimal_dict(chain={"mode": "empirical", "alpha": 2.0})
        )
        assert cfg.chain.alpha is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="'foo'"):
            ExperimentConfig.from_json_dict(minimal_dict(foo=1))

    def test_unknown_check_lists_valid_names(self):
        with pytest.raises(ConfigError, match="lemma1"):
            ExperimentConfig.from_json_dict(
                checked_dict(checks=["not-a-check"])
            )

    def test_envelope_exponent_must_match(self):
        with pytest.raises(ConfigError, match="does not match"):
            ExperimentConfig.from_json_dict(
                minimal_dict(envelope={"lambda": 1.0, "p": 2.0})
            )

    def test_truncation_needs_p_below_dimension(self):
        data = checked_dict(
            hamiltonian={"kind": "power-law", "p": 2.0},
            checks=["lemma1"],
        )
        with pytest.raises(ConfigError, match="p < N"):
            ExperimentConfig.from_json_dict(data)

    def test_check_window_must_fit_the_grid(self):
        data = minimal_dict(checks=["lemma2"])
        with pytest.raises(ConfigError, match="time range"):
            ExperimentConfig.from_json_dict(data)

    def test_check_ball_needs_padding(self):
        data = checked_dict(checks=["lemma1"])
        data["grid"]["half_width"] = 1.1
        with pytest.raises(ConfigError, match="padding"):
            ExperimentConfig.from_json_dict(data)

    def test_oracle_requires_the_plain_power_law(self):
        data = minimal_dict(
            hamiltonian={"kind": "rough-coefficient", "p": 1.5,
                         "lambda": 2.0, "eta": 0.25},
            oracle={"refinements": 1},
        )
        with pytest.raises(ConfigError, match="power law"):
            ExperimentConfig.from_json_dict(data)

    def test_oracle_window_range(self):
        with pytest.raises(ConfigError, match="window"):
            ExperimentConfig.from_json_dict(
                minimal_dict(oracle={"window": 1.5})
            )

    def test_eta_sweep_requires_rough_coefficients(self):
        data = minimal_dict(sweep={"parameter": "eta", "values": [0.25]})
        with pytest.raises(ConfigError, match="rough-coefficient"):
            ExperimentConfig.from_json_dict(data)

    def test_unsweepable_parameter(self):
        data = minimal_dict(sweep={"parameter": "dt", "values": [0.1]})
        with pytest.raises(ConfigError, match="sweepable"):
            ExperimentConfig.from_json_dict(data)

    def test_chain_candidates_sort_descending(self):
        data = minimal_dict(
            chain={"mode": "empirical", "candidates": [0.5, 2.0, 1.0]}
        )
        cfg = ExperimentConfig.from_json_dict(data)
        assert cfg.chain.candidates == (2.0, 1.0, 0.5)

    def test_fixed_chain_needs_positive_alpha(self):
        with pytest.raises(ConfigError, match="alpha"):
            ExperimentConfig.from_json_dict(
                minimal_dict(chain={"alpha": -1.0})
            )

    def test_unknown_chain_mode(self):
        with pytest.raises(ConfigError, match="chain mode"):
            ExperimentConfig.from_json_dict(
                minimal_dict(chain={"mode": "adaptive"})
            )

    @pytest.mark.parametrize("section", ["cascade", "theorem"])
    def test_unknown_zoom_mode(self, section):
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig.from_json_dict(
                minimal_dict(**{section: {"mode": "extrapolate"}})
            )

    def test_theorem_delta_time_inside_the_grid(self):
        data = checked_dict(checks=["theorem"],
                            theorem={"delta_time": 5.0})
        with pytest.raises(ConfigError, match="delta_time"):
            ExperimentConfig.from_json_dict(data)

    def test_cascade_base_point_dimension(self):
        data = checked_dict(checks=["cascade"],
                            cascade={"base_point": [0.0]})
        with pytest.raises(ConfigError, match="coordinates"):
            ExperimentConfig.from_json_dict(data)

    def test_cascade_base_point_off_the_boundary(self):
        data = checked_dict(checks=["cascade"],
                            cascade={"base_point": [1.2, 0.0]})
        with pytest.raises(ConfigError, match="boundary"):
            ExperimentConfig.from_json_dict(data)

    def test_grid_errors_are_config_errors(self):
        data = minimal_dict()
        data["grid"]["dt"] = 0.3
        with pytest.raises(ConfigError, match="grid"):
            ExperimentConfig.from_json_dict(data)

    def test_solve_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="solve"):
            ExperimentConfig.from_json_dict(
                minimal_dict(solve={"sigma_mode": "turbo"})
            )

    def test_initial_data_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="initial_data"):
            ExperimentConfig.from_json_dict(
                minimal_dict(initial_data={"name": "mystery"})
            )

    def test_unknown_tolerance_key(self):
        with pytest.raises(ConfigError, match="rigor"):
            ExperimentConfig.from_json_dict(
                minimal_dict(tolerances={"rigor": 1.0})
            )

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)


JSON_VALUES = st.recursive(
    st.one_of(
        st.integers(), st.floats(), st.sampled_from(["nan", "inf", "-inf"]),
        st.text(max_size=8), st.none(), st.booleans(),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=8), inner, max_size=3),
    ),
    max_leaves=6,
)


def key_paths(node, prefix=()):
    """Every dict key and list index of a JSON tree, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


class TestConfigFuzz:
    @pytest.mark.parametrize("name", bundled_scenarios())
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_replaced_value_parses_or_is_a_config_error(self, name, data):
        config = json.loads(scenario_path(name).read_text())
        path = data.draw(st.sampled_from(sorted(key_paths(config), key=repr)))
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(JSON_VALUES)
        try:
            ExperimentConfig.from_json_dict(config)
        except ConfigError:
            pass


class TestConfigFiles:
    def test_parse_file(self, tmp_path):
        path = write_config(tmp_path, minimal_dict())
        cfg = parse_config(path)
        assert cfg.scenario == "unit-test"

    def test_bundled_name_fallback(self):
        cfg = parse_config("refuted-fixture")
        assert cfg.scenario == "refuted-fixture"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("no-such-config.json")

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario": }')
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            parse_config(path)

    def test_all_bundled_scenarios_parse(self):
        names = bundled_scenarios()
        assert len(names) >= 7
        for name in names:
            cfg = parse_config(scenario_path(name))
            assert cfg.scenario == name

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError, match="no bundled scenario"):
            scenario_path("missing")


class TestReportSerialization:
    def _report(self, checks):
        return RunReport(
            version=SCHEMA_VERSION,
            scenario="unit-test",
            status="pass",
            config={},
            chain=None,
            chain_search=None,
            checks=checks,
            artifacts=(),
            error=None,
            timings={"total": 0.25},
        )

    def test_non_finite_floats_become_null(self):
        report = self._report(
            ({"check": "c", "status": "pass", "value": math.inf,
              "also": float("nan")},)
        )
        entry = report.to_json_dict()["checks"][0]
        assert entry["value"] is None
        assert entry["also"] is None

    def test_numpy_scalars_become_plain_json(self):
        report = self._report(
            ({"check": "c", "status": "pass",
              "mix": (np.float64(1.5), np.int32(2), np.bool_(True))},)
        )
        entry = report.to_json_dict()["checks"][0]
        assert entry["mix"] == [1.5, 2, True]
        json.dumps(entry)

    def test_stable_bytes_drop_timings(self):
        report = self._report(())
        data = json.loads(report.stable_bytes())
        assert "timings" not in data
        assert data["version"] == SCHEMA_VERSION


_CHAIN_KEYS = [
    "barrier_height", "barrier_slope", "decay_ratio", "dimension",
    "holder_exponent", "invariant_slacks", "invariants_ok", "ladder_depth",
    "lambda", "middle_threshold", "p", "prezoom_scale",
    "prezoom_time_exponent", "shrink_above", "shrink_below", "zoom_ratio",
    "zoom_time_exponent",
]


def _chain_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["chain", "--N", "2", "--p", "1.5", "--lambda", "1",
                     "--alpha", "1"]) == 0
    return json.loads(out.getvalue())


# Each key list is copied from the reports and stdout the parent commit wrote.
@pytest.mark.parametrize("build, keys", [
    pytest.param(lambda: to_json(HolderEstimate(
        alpha_est=math.inf, c_est=0.0, fit_residual=0.0, scale_range=(0.0, 0.0),
        points_used=0, degenerate=True, alpha_theory=1e-6,
    )), [
        "alpha_est", "alpha_theory", "c_est", "degenerate", "fit_residual",
        "points_used", "scale_range",
    ], id="HolderEstimate"),
    pytest.param(lambda: to_json(TheoremReport(
        delta_time=1.0, gauged=False, alpha_theory=1e-6, entries=(),
        alpha_min=math.inf, max_quotient=0.0, n_degenerate=0, n_unsatisfied=0,
    )), [
        "alpha_min", "alpha_theory", "delta_time", "entries", "gauged",
        "max_quotient", "n_degenerate", "n_unsatisfied",
    ], id="TheoremReport"),
    pytest.param(lambda: to_json(OscillationRecord(
        level=0, radius=0.5, t_depth=1.0, osc_measured=0.0, osc_bound=4.0,
        recenter=0.0, satisfied=True, tolerance=0.0,
    )), [
        "level", "osc_bound", "osc_measured", "radius", "recenter",
        "satisfied", "t_depth", "tolerance",
    ], id="OscillationRecord"),
    pytest.param(lambda: to_json(GridSpec(**GRID)), [
        "cells_per_axis", "dimension", "dt", "half_width", "t_end", "t_start",
    ], id="GridSpec"),
    pytest.param(lambda: to_json(RunReport(
        version=SCHEMA_VERSION, scenario="s", status="pass", config={},
        chain=None, chain_search=None, checks=(), artifacts=(), error=None,
        timings={},
    )), [
        "artifacts", "chain", "chain_search", "checks", "config", "error",
        "scenario", "status", "timings", "version",
    ], id="RunReport"),
    pytest.param(lambda: to_json(EnsembleReport(
        version=SCHEMA_VERSION, scenario="s", status="pass", config={},
        count=0, seed=0, member_seeds=(), counts={}, chain_search=None,
        members=(), artifacts=(), timings={},
    )), [
        "artifacts", "chain_search", "config", "count", "counts",
        "member_seeds", "members", "scenario", "seed", "status", "timings",
        "version",
    ], id="EnsembleReport"),
    pytest.param(lambda: LemmaVerdict(
        name="n", preconditions={}, hypothesis_values={},
        hypothesis_thresholds={}, hypothesis_satisfied=True,
        conclusion_values={}, conclusion_thresholds={},
        conclusion_satisfied=True, tolerances={}, cell_width=0.1,
    ).to_json_dict(), [
        "cell_width", "conclusion_satisfied", "conclusion_thresholds",
        "conclusion_values", "diagnostics", "hypothesis_satisfied",
        "hypothesis_thresholds", "hypothesis_values", "name", "preconditions",
        "status", "tolerances",
    ], id="LemmaVerdict"),
    pytest.param(
        lambda: build_constant_chain(2, 1.5, 1.0, 1.0).to_json_dict(),
        _CHAIN_KEYS, id="ConstantChain",
    ),
    pytest.param(_chain_stdout, _CHAIN_KEYS, id="chain-stdout"),
])
def test_json_keys_match_the_written_reports(build, keys):
    assert sorted(build()) == keys


@pytest.fixture()
def quiet_run_config():
    return ExperimentConfig.from_json_dict(
        checked_dict(
            checks=["lemma1", "lemma2", "osc_above", "osc_below"],
            initial_data={
                "name": "random-trig",
                "parameters": {"amplitude": 0.0008, "offset": -0.003},
                "seed": 0,
            },
        )
    )


class TestRun:
    def test_small_amplitude_run_passes(self, tmp_path, quiet_run_config):
        report = run(quiet_run_config, out_dir=tmp_path)
        assert report.version == SCHEMA_VERSION
        assert report.status == "pass"
        assert [c["check"] for c in report.checks] == [
            "lemma1", "lemma2", "osc_above", "osc_below"
        ]
        assert all(c["status"] in ("pass", "vacuous") for c in report.checks)
        run_dir = tmp_path / "unit-test-seed0"
        assert (run_dir / "report.json").is_file()
        assert (run_dir / "chain.json").is_file()
        assert "chain.json" in report.artifacts
        assert any(a.startswith("snapshots/") for a in report.artifacts)
        assert all(not a.startswith("/") for a in report.artifacts)

    def test_rerun_is_byte_identical(self, tmp_path, quiet_run_config):
        first = run(quiet_run_config, out_dir=tmp_path / "a")
        second = run(quiet_run_config, out_dir=tmp_path / "b")
        assert first.stable_bytes() == second.stable_bytes()

    def test_refuted_fixture_refutes(self, tmp_path):
        report = run(parse_config("refuted-fixture"), out_dir=tmp_path)
        assert report.status == "refuted"
        lemma = report.checks[0]
        assert lemma["check"] == "lemma1"
        assert lemma["status"] == "refuted"

    def test_solver_abort_reports_the_stage(self, tmp_path):
        report = run(parse_config("solver-abort-fixture"), out_dir=tmp_path)
        assert report.status == "error"
        assert report.error is not None
        assert report.error["stage"] == "solve"
        assert isinstance(report.error["step_index"], int)
        run_dir = tmp_path / "solver-abort-fixture-seed0"
        assert (run_dir / "report.json").is_file()

    def test_seed_override_lands_in_the_run_directory(self, tmp_path,
                                                      quiet_run_config):
        report = run(quiet_run_config, out_dir=tmp_path, seed=5)
        assert report.config["initial_data"]["seed"] == 5
        assert (tmp_path / "unit-test-seed5" / "report.json").is_file()

    def test_resolution_override_rescales_dt(self, tmp_path):
        cfg = ExperimentConfig.from_json_dict(minimal_dict())
        report = run(cfg, out_dir=tmp_path, resolution=4)
        assert report.config["grid"]["cells_per_axis"] == 4
        assert report.config["grid"]["dt"] == pytest.approx(0.25)

    def test_empirical_alpha_takes_the_first_survivor(self, tmp_path,
                                                      monkeypatch):
        solves = count_solves(monkeypatch)
        data = checked_dict(
            checks=["lemma2"],
            chain={"mode": "empirical", "candidates": [4.0, 1.0]},
        )
        cfg = ExperimentConfig.from_json_dict(data)
        report = run(cfg, out_dir=tmp_path)
        assert report.chain_search == ({"alpha": 4.0, "status": "pass"},)
        assert report.config["chain"] == {"mode": "fixed", "alpha": 4.0}
        # the chosen trial is the run: it is not solved again
        assert len(solves) == 1

    def test_all_refuted_search_keeps_the_last_trial(self, tmp_path, monkeypatch):
        solves = count_solves(monkeypatch)
        cfg = ExperimentConfig.from_json_dict(refuted_empirical_dict())
        report = run(cfg, out_dir=tmp_path)
        assert report.status == "refuted"
        assert [t["alpha"] for t in report.chain_search] == list(
            cfg.chain.candidates)
        assert all(t["status"] == "refuted" for t in report.chain_search)
        assert report.config["chain"] == {"mode": "fixed",
                                          "alpha": min(cfg.chain.candidates)}
        assert len(solves) == len(cfg.chain.candidates)

    @pytest.mark.parametrize("which", ["first-survivor", "all-refuted"])
    def test_empirical_run_writes_the_fixed_run_at_its_alpha(self, tmp_path,
                                                             which):
        if which == "first-survivor":
            data = checked_dict(
                checks=["lemma1", "lemma2", "osc_above", "osc_below"],
                initial_data={
                    "name": "random-trig",
                    "parameters": {"amplitude": 0.0008, "offset": -0.003},
                },
                chain={"mode": "empirical", "candidates": [4.0, 1.0]},
            )
        else:
            data = refuted_empirical_dict()
        searched = run(ExperimentConfig.from_json_dict(data),
                       out_dir=tmp_path / "searched")
        data["chain"] = searched.config["chain"]
        assert data["chain"]["mode"] == "fixed"
        run(ExperimentConfig.from_json_dict(data), out_dir=tmp_path / "fixed")
        name = f"{searched.scenario}-seed0"
        got = output_tree(tmp_path / "searched" / name)
        want = output_tree(tmp_path / "fixed" / name)
        assert len(got) >= 5
        assert set(got) == set(want)
        got_report, want_report = got.pop("report.json"), want.pop("report.json")
        # every artifact is byte-identical
        assert got == want
        assert got_report.pop("chain_search") == list(searched.chain_search)
        assert want_report.pop("chain_search") is None
        assert got_report == want_report

    def test_uncaught_failure_writes_nothing(self, tmp_path, monkeypatch,
                                             quiet_run_config):
        def solve(*args, **kwargs):
            raise MemoryError("no room for the trajectory")

        monkeypatch.setattr(experiment, "solve", solve)
        with pytest.raises(MemoryError):
            run(quiet_run_config, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["interpolate", "resolve"])
    def test_cascade_check_matches_the_theorem_entry_at_its_point(
        self, tmp_path, mode
    ):
        zoom = {"levels": 3, "mode": mode, "working_cells": 24,
                "working_slices": 32}
        data = checked_dict(
            initial_data={"name": "random-trig",
                          "parameters": {"amplitude": 0.5}, "seed": 5},
            checks=["cascade", "theorem"],
            cascade={**zoom, "base_time": 1.0, "base_point": [-0.625, -0.625]},
            theorem={**zoom, "delta_time": 1.0, "points_per_axis": 1},
        )
        # the draw is steep enough that dt = 0.05 breaks monotonicity
        data["grid"]["dt"] = 0.01
        report = run(ExperimentConfig.from_json_dict(data), out_dir=tmp_path)
        cascade, theorem = report.checks
        (entry,) = theorem["entries"]
        assert entry["t0"] == cascade["base_time"]
        assert entry["x0"] == cascade["base_point"]
        for key in ("gamma", "tau", "rho"):
            assert entry[key] == cascade[key]
        records = cascade["records"]
        assert entry["n_records"] == len(records) == 4
        assert entry["n_unsatisfied"] == sum(not r["satisfied"] for r in records)
        assert not cascade["estimate"]["degenerate"]
        assert {k: entry[k] for k in cascade["estimate"]} == cascade["estimate"]


def tiny_ensemble_dict():
    # dt well under the CFL limit for the random draws' slopes
    return minimal_dict(
        grid={
            "dimension": 2,
            "half_width": 1.25,
            "cells_per_axis": 8,
            "t_start": 0.0,
            "t_end": 0.25,
            "dt": 0.03125,
        },
        initial_data={
            "name": "random-trig",
            "parameters": {"amplitude": 0.05},
        },
    )


@pytest.fixture()
def tiny_ensemble_config():
    return ExperimentConfig.from_json_dict(tiny_ensemble_dict())


class TestEnsemble:
    def test_members_run_in_seed_order(self, tmp_path, tiny_ensemble_config):
        report = ensemble(tiny_ensemble_config, 3, 9, out_dir=tmp_path)
        assert report.count == 3
        assert report.status == "pass"
        assert report.counts == {"pass": 3, "vacuous": 0, "refuted": 0,
                                 "error": 0}
        children = np.random.SeedSequence(9).spawn(3)
        expected = tuple(int(c.generate_state(1, np.uint64)[0])
                         for c in children)
        assert report.member_seeds == expected
        for i, member in enumerate(report.members):
            assert member["config"]["initial_data"]["seed"] == expected[i]
            assert "timings" not in member
        ens_dir = tmp_path / "unit-test-ensemble-seed9-n3"
        assert (ens_dir / "report.json").is_file()
        for i in range(3):
            assert (ens_dir / "members" / f"m{i:03d}" / "report.json").is_file()

    def test_parallel_matches_serial(self, tmp_path, tiny_ensemble_config):
        empirical = ExperimentConfig.from_json_dict(
            {**tiny_ensemble_dict(), "chain": {"mode": "empirical"}}
        )
        members = "unit-test-ensemble-seed4-n2/members"
        for mode, cfg in (("fixed", tiny_ensemble_config),
                          ("empirical", empirical)):
            serial = ensemble(cfg, 2, 4, out_dir=tmp_path / mode / "s",
                              workers=1)
            parallel = ensemble(cfg, 2, 4, out_dir=tmp_path / mode / "p",
                                workers=2)
            assert serial.stable_bytes() == parallel.stable_bytes()
            assert (serial.chain_search is None) is (mode == "fixed")
            tree = output_tree(tmp_path / mode / "s" / members)
            # two members, each with its report and two snapshot pairs
            assert len(tree) == 10
            assert tree == output_tree(tmp_path / mode / "p" / members)

    def test_empirical_ensemble_solves_each_member_once(self, tmp_path,
                                                        monkeypatch,
                                                        quiet_run_config):
        solves = count_solves(monkeypatch)
        cfg = replace(quiet_run_config,
                      chain=ChainSettings(mode="empirical",
                                          candidates=(4.0, 1.0)))
        report = ensemble(cfg, 2, 1, out_dir=tmp_path, workers=1)
        assert report.chain_search == ({"alpha": 4.0, "status": "pass"},)
        assert len(solves) == 2
        members = tmp_path / "unit-test-ensemble-seed1-n2" / "members"
        for i in range(2):
            assert (members / f"m{i:03d}" / "chain.json").is_file()

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True, "2"])
    def test_worker_count_must_be_a_positive_integer(
        self, tmp_path, tiny_ensemble_config, workers
    ):
        with pytest.raises(ConfigError, match="workers must be a positive integer"):
            ensemble(tiny_ensemble_config, 2, 4, out_dir=tmp_path,
                     workers=workers)
        assert list(tmp_path.iterdir()) == []

    def test_worker_count_env_var(self, tmp_path, monkeypatch,
                                  tiny_ensemble_config):
        monkeypatch.setenv("HJREG_WORKERS", "2")
        report = ensemble(tiny_ensemble_config, 2, 4, out_dir=tmp_path)
        assert report.status == "pass"

    def test_count_must_be_positive(self, tmp_path, tiny_ensemble_config):
        with pytest.raises(ConfigError, match="count"):
            ensemble(tiny_ensemble_config, 0, 1, out_dir=tmp_path)

    def test_seed_must_not_be_negative(self, tmp_path, tiny_ensemble_config):
        with pytest.raises(ConfigError, match="seed"):
            ensemble(tiny_ensemble_config, 1, -1, out_dir=tmp_path)


class TestCli:
    def test_run_pass_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_dict())
        code = main(["run", "--config", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "status: pass" in out
        assert "report:" in out

    def test_run_refuted_exit_one(self, tmp_path, capsys):
        code = main(["run", "--config", "refuted-fixture", "--out",
                     str(tmp_path)])
        assert code == 1
        assert "status: refuted" in capsys.readouterr().out

    def test_bad_config_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_dict(foo=1))
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["../../escape", "nested/label", "..", ".", ""])
    def test_scenario_label_cannot_leave_the_output_root(self, tmp_path, capsys, label):
        path = write_config(tmp_path, minimal_dict(scenario=label))
        out = tmp_path / "a" / "b"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert "single path component" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "overrides, args, workers",
        [(*case, None) for case in [
            ({}, ["--resolution", "0"]),
            ({}, ["--resolution", "2"]),
            ({"chain": {"alpha": "big"}}, []),
            ({"cascade": {"levels": -1}}, []),
            ({"theorem": {"working_slices": 0}}, []),
            ({"grid": []}, []),
            ({"initial_data": {"name": "random-trig",
                               "parameters": {"amplitude": "NaN"}}}, []),
            ({"tolerances": {"delta": "nan"}}, []),
            ({"tolerances": {"delta": -1}}, []),
            ({"checks": 5}, []),
            ({"grid": {**GRID, "t_end": "inf"}}, []),
            ({"grid": {**GRID, "cells_per_axis": 8.7}}, []),
            ({"grid": {**GRID, "dimension": 10**9}}, []),
            ({"grid": {**GRID, "t_end": 1e308}}, []),
            ({"grid": {**GRID, "half_width": 10**400}}, []),
            ({"hamiltonian": ROUGH, "sweep": {"parameter": "eta", "values": "12"}},
             []),
            ({"hamiltonian": ROUGH, "sweep": {"parameter": "eta", "values": [-1]}},
             []),
            ({"oracle": {"min_order": "-inf"}}, []),
            ({"oracle": {"max_error": "nan"}}, []),
            ({"oracle": {"time": 99}}, []),
            ({"oracle": {"window": 0.001}}, []),
            ({"grid": {**GRID, "cells_per_axis": 9}, "oracle": {"window": 0.001}},
             []),
            ({"oracle": {"refinements": 60}}, []),
            ({"chain": {"alpha": "nan"}}, []),
            ({"envelope": {"lambda": "nan"}}, []),
            ({"initial_data": {"seed": -1}}, []),
            ({}, ["--seed", "-1"]),
            ({"solve": {"max_steps": 0}}, []),
            ({"solve": {"max_steps": -1}}, []),
            ({"solve": {"sigma_mode": "fixed", "sigma_bound": -1}}, []),
            ({"hamiltonian": {"kind": "power-law", "p": "inf"}}, []),
        ]] + [({}, [], w) for w in ("abc", "2.5", "0", "-3", "")],
        ids=["resolution-0", "resolution-2", "alpha-big", "levels-negative",
             "working-slices-zero", "grid-list", "amplitude-nan", "delta-nan",
             "delta-negative", "checks-int", "t-end-inf", "cells-fractional",
             "dimension-huge", "steps-overflow", "half-width-overflow",
             "sweep-values-string", "sweep-eta-negative",
             "min-order-minus-inf", "max-error-nan", "oracle-time-past-t-end",
             "oracle-window-empty", "oracle-window-empty-when-refined",
             "oracle-refinements-huge",
             "alpha-nan", "envelope-lambda-nan", "seed-negative",
             "seed-override-negative", "max-steps-zero", "max-steps-negative",
             "sigma-bound-negative", "p-inf", "workers-word",
             "workers-fraction", "workers-zero", "workers-negative",
             "workers-empty"],
    )
    def test_configuration_faults_exit_two(self, tmp_path, capsys, monkeypatch,
                                           overrides, args, workers):
        path = write_config(tmp_path, minimal_dict(**overrides))
        out = tmp_path / "out"
        if workers is None:
            argv = ["run", "--config", str(path), "--out", str(out), *args]
        else:
            monkeypatch.setenv("HJREG_WORKERS", workers)
            monkeypatch.setenv("HJREG_OUT_DIR", str(out))
            argv = ["ensemble", "--config", str(path), "--count", "2",
                    "--seed", "0", *args]
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_solver_abort_exit_three(self, tmp_path, capsys):
        code = main(["run", "--config", "solver-abort-fixture", "--out",
                     str(tmp_path)])
        assert code == 3
        assert "status: error" in capsys.readouterr().out

    def test_ensemble_command(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HJREG_OUT_DIR", str(tmp_path))
        path = write_config(tmp_path, tiny_ensemble_dict())
        code = main(["ensemble", "--config", str(path), "--count", "2",
                     "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "members: 2" in out
        assert "status: pass" in out

    def test_chain_command_prints_json(self, capsys):
        code = main(["chain", "--N", "2", "--p", "1.5", "--lambda", "1.0",
                     "--alpha", "1.0"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ladder_depth"] == 13

    def test_chain_command_rejects_p_at_dimension(self, capsys):
        code = main(["chain", "--N", "2", "--p", "2.5", "--lambda", "1.0",
                     "--alpha", "1.0"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    # Settings whose small alpha rounds decay_ratio to 1.0 and
    # zoom_time_exponent to p, so the zoom_ratio identity is undefined.
    @pytest.mark.parametrize("alpha", ["0.25", "0.1"])
    @pytest.mark.parametrize("n, p, lam", [
        ("2", "1.5", "1"), ("3", "2", "2"), ("3", "1.5", "1"), ("3", "2", "1"),
    ])
    def test_chain_whose_zoom_exponent_rounds_to_p_exits_two(
            self, capsys, n, p, lam, alpha):
        code = main(["chain", "--N", n, "--p", p, "--lambda", lam,
                     "--alpha", alpha])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: chain re-verification failed" in err
        assert "zoom_ratio: slack=-inf" in err
        assert "Traceback" not in err

    def test_run_with_an_unbuildable_chain_reports_the_chain_stage(
            self, tmp_path, capsys):
        data = json.loads(scenario_path("oscillation-improvement").read_text())
        data["chain"] = {"mode": "fixed", "alpha": 0.25}
        out = tmp_path / "out"
        code = main(["run", "--config", str(write_config(tmp_path, data)),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "config error: chain alpha 0.25" in err
        assert "zoom_ratio" in err
        assert not out.exists()

    def test_cli_import_leaves_scipy_and_the_process_pool_unloaded(self):
        # serial runs never start a pool, and no module needs scipy
        code = (
            "import sys, hjreg.cli\n"
            "from hjreg.experiment import parse_config\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m == 'concurrent.futures.process'))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(hjreg.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_list_scenarios(self, capsys):
        code = main(["list-scenarios"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert tuple(lines) == bundled_scenarios()
        assert "zero-initial-data" in lines

    def test_check_names_are_frozen(self):
        assert CHECK_NAMES == ("lemma1", "lemma2", "osc_above", "osc_below",
                               "cascade", "theorem")
