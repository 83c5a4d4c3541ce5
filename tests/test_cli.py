"""Command line interface tests.

Each test drives main() in process with an argv list; SystemExit from
argparse itself is folded into the returned code so every invocation
reduces to (exit_code, stdout, stderr).
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from repsq import _kernels, harness
from repsq import artifact as art_mod
from repsq.artifact import partition_from_payload
from repsq.cli import _json_text, build_parser, main
from repsq._kernels import RANGE_TERM_MODES
from repsq.harness import CampaignConfig, initiator


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse error path
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAlpha:
    def test_wide_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "alpha", "--gamma", "0.1", "--c", "0.05", "--beta", "0.1"
        )
        assert code == 0
        assert "0.189474" in out
        assert "0.194737" in out
        assert "feasible" in out

    def test_tracking_contract_tolerance(self, capsys):
        code, out, _ = run_cli(
            capsys, "alpha", "--gamma", "0.04", "--c", "0.05", "--beta", "0.1"
        )
        assert code == 0
        assert "0.0778947" in out

    def test_loose_contract_is_feasible(self, capsys):
        code, out, _ = run_cli(
            capsys, "alpha", "--gamma", "0.1", "--c", "0.2", "--beta", "0.5"
        )
        assert code == 0
        assert "feasible: (1 - c)^2 = 0.64 >= 1 - beta = 0.5" in out

    def test_infeasible_contract_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "alpha", "--gamma", "0.1", "--c", "0.01", "--beta", "0.01"
        )
        assert code == 2
        assert "infeasible" in err

    def test_unparseable_flag_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "alpha", "--gamma", "0.1", "--c", "nope", "--beta", "0.1"
        )
        assert code == 1
        assert "invalid float" in err


class TestInitReplicate:
    def test_init_writes_all_outputs(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "init", "--config", "zero_variance", "--out", str(out)
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "artifact.json",
            "manifest.json",
            "result.json",
        ]
        result = json.loads((out / "result.json").read_text())
        assert result["n"] == 88
        assert result["terminated"] is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "init"
        for name, digest in manifest["outputs"].items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "kernel_backend": _kernels.ACTIVE_BACKEND,
        }

    def test_result_file_holds_the_exact_numbers(self, capsys, tmp_path):
        out = tmp_path / "run"
        run_cli(capsys, "init", "--config", "zero_variance", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        config = CampaignConfig.from_dict(manifest["invocation"]["resolved"])
        result = json.loads((out / "result.json").read_text())
        assert result == initiator(config)[1].to_dict()
        assert isinstance(result["quantized_estimate"], float)

    def test_json_writer_refuses_non_finite_numbers(self):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                _json_text({"x": value})

    def test_rerun_is_byte_identical_excluding_timestamps(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "init", "--config", "zero_variance", "--out", str(a))
        run_cli(capsys, "init", "--config", "zero_variance", "--out", str(b))
        assert (a / "artifact.json").read_bytes() == (b / "artifact.json").read_bytes()
        assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        for m in (ma, mb):
            m.pop("created_utc")
            m.pop("wall_time_s")
        assert ma == mb

    def test_replicate_returns_midpoints_of_the_shared_partition(
        self, capsys, tmp_path
    ):
        init_dir, rep_dir = tmp_path / "init", tmp_path / "rep"
        run_cli(capsys, "init", "--config", "zero_variance", "--out", str(init_dir))
        code, _, _ = run_cli(
            capsys,
            "replicate",
            "--artifact",
            str(init_dir / "artifact.json"),
            "--seed",
            "424242",
            "--out",
            str(rep_dir),
        )
        assert code == 0
        art = json.loads((init_dir / "artifact.json").read_text())
        interval = art["config"]["interval"]
        part = partition_from_payload(art["grid"], interval["m_low"], interval["m_high"])
        for path in (init_dir / "result.json", rep_dir / "result.json"):
            res = json.loads(path.read_text())
            assert res["quantized_estimate"] == part.midpoint(res["cell"])

    def test_tampered_artifact_exits_4_without_outputs(self, capsys, tmp_path):
        init_dir = tmp_path / "init"
        run_cli(capsys, "init", "--config", "zero_variance", "--out", str(init_dir))
        art = json.loads((init_dir / "artifact.json").read_text())
        art["config"]["n_max"] = art["config"]["n_max"] + 1
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(art))
        rep_dir = tmp_path / "rep"
        code, _, err = run_cli(
            capsys,
            "replicate",
            "--artifact",
            str(bad),
            "--seed",
            "1",
            "--out",
            str(rep_dir),
        )
        assert code == 4
        assert "artifact" in err
        assert not rep_dir.exists()

    def test_resealed_bad_content_exits_4_without_outputs(self, capsys, tmp_path):
        """Content rejected after the checksum passes leaves no output
        directory either: the replicator runs before it is made."""
        init_dir = tmp_path / "init"
        run_cli(capsys, "init", "--config", "zero_variance", "--out", str(init_dir))
        art = json.loads((init_dir / "artifact.json").read_text())
        art["grid"]["n_cells"] += 1
        art["checksum"] = art_mod.artifact_checksum(art)
        bad = tmp_path / "resealed.json"
        bad.write_text(json.dumps(art))
        rep_dir = tmp_path / "rep"
        code, _, err = run_cli(
            capsys,
            "replicate",
            "--artifact",
            str(bad),
            "--seed",
            "1",
            "--out",
            str(rep_dir),
        )
        assert code == 4
        assert "cell count" in err
        assert not rep_dir.exists()

    def test_replicate_verifies_the_artifact_once(self, capsys, tmp_path, monkeypatch):
        init_dir = tmp_path / "init"
        run_cli(capsys, "init", "--config", "zero_variance", "--out", str(init_dir))
        calls = []
        verify = art_mod.verify_artifact

        def counted(art):
            calls.append(art)
            return verify(art)

        for module in (art_mod, harness):
            monkeypatch.setattr(module, "verify_artifact", counted)
        code, _, _ = run_cli(
            capsys,
            "replicate",
            "--artifact",
            str(init_dir / "artifact.json"),
            "--seed",
            "1",
            "--out",
            str(tmp_path / "rep"),
        )
        assert code == 0
        assert len(calls) == 1

    def test_seed_override_lands_in_manifest(self, capsys, tmp_path):
        out = tmp_path / "run"
        run_cli(
            capsys,
            "init",
            "--config",
            "rare_event_acceptance",
            "--out",
            str(out),
            "--seed",
            "99",
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["invocation"]["resolved"]["seed"] == 99

    def test_missing_config_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "init", "--config", "/no/such/file.json", "--out", str(tmp_path)
        )
        assert code == 1
        assert "config not found" in err

    @pytest.mark.parametrize("field", ["n_min", "n_max", "seed"])
    def test_non_integral_count_exits_1(self, capsys, tmp_path, field):
        src = resources.files("repsq") / "configs" / "zero_variance.json"
        raw = json.loads(src.read_text())
        raw[field] = 3.7
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        code, _, err = run_cli(capsys, "init", "--config", str(path), "--out", str(out))
        assert code == 1
        assert f"{field} must be an integer, got 3.7" in err

    def test_config_path_form_works(self, capsys, tmp_path):
        # a filesystem path is honored before bundled-name lookup
        text = (
            resources.files("repsq") / "configs" / "zero_variance.json"
        ).read_text()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, "init", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert (out / "artifact.json").exists()


class TestPairwise:
    def test_rare_config_small_report(self, capsys, tmp_path):
        out = tmp_path / "pw"
        code, _, _ = run_cli(
            capsys,
            "pairwise",
            "--config",
            "rare_event_acceptance",
            "--out",
            str(out),
            "--pairs",
            "3",
        )
        assert code == 0
        with (out / "pairs.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert set(rows[0]) == {
            "pair_id",
            "arm",
            "raw_estimate",
            "quantized_estimate",
            "n",
            "evaluated_n",
            "sigma_hat",
            "repeat",
        }
        assert all(r["repeat"] == "true" for r in rows)
        report = json.loads((out / "report.json").read_text())
        assert report["repeat_rate"] == 1.0
        assert len(report["partition_checksum"]) == 64

    def test_n_max_override_exits_3_without_outputs(self, capsys, tmp_path):
        out = tmp_path / "pw"
        code, _, err = run_cli(
            capsys,
            "pairwise",
            "--config",
            "moderate_cellular",
            "--out",
            str(out),
            "--pairs",
            "2",
            "--n-max",
            "300",
        )
        assert code == 3
        assert "n_max" in err
        assert not out.exists()


class TestEffort:
    def test_zero_variance_table(self, capsys, tmp_path):
        out = tmp_path / "eff"
        code, _, _ = run_cli(
            capsys, "effort", "--config", "zero_variance", "--out", str(out)
        )
        assert code == 0
        with (out / "effort.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 88
        terminating = [r for r in rows if r["terminated_by"]]
        assert len(terminating) == 1
        assert terminating[0]["n"] == "88"
        assert terminating[0]["terminated_by"] == "bernstein"
        report = json.loads((out / "report.json").read_text())
        assert report["n_terminated"] == 88
        assert report["required_n_hoeffding"] == 185

    def test_radius_columns_empty_below_floor(self, capsys, tmp_path):
        out = tmp_path / "eff"
        run_cli(capsys, "effort", "--config", "zero_variance", "--out", str(out))
        with (out / "effort.csv").open() as fh:
            first = next(csv.DictReader(fh))
        assert first["n"] == "1"
        assert first["bernstein_radius"] == ""
        assert first["hoeffding_radius"] == ""


def zero_variance_config(seed: int) -> CampaignConfig:
    raw = json.loads((resources.files("repsq") / "configs" / "zero_variance.json").read_text())
    return CampaignConfig.from_dict({**raw, "seed": seed})


class TestManifestContract:
    """Every command writes exactly the files its manifest checksums,
    records the config that ran, and writes nothing when it fails."""

    COMMANDS = ["init", "replicate", "pairwise", "effort"]

    @staticmethod
    def argv(capsys, tmp_path, command):
        """The command's arguments for a zero_variance run at seed 99;
        replicate's artifact comes from an init run at the bundled seed."""
        if command == "replicate":
            init_dir = tmp_path / "source"
            assert run_cli(capsys, "init", "--config", "zero_variance", "--out", str(init_dir))[0] == 0
            return ["--artifact", str(init_dir / "artifact.json"), "--seed", "99"]
        extra = ["--pairs", "2"] if command == "pairwise" else []
        return ["--config", "zero_variance", "--seed", "99", *extra]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_manifest_lists_every_output_and_the_resolved_config(self, capsys, tmp_path, command):
        argv = self.argv(capsys, tmp_path, command)
        out = tmp_path / command
        assert run_cli(capsys, command, *argv, "--out", str(out))[0] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*manifest["outputs"], "manifest.json"]
        )
        for name, digest in manifest["outputs"].items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()
        resolved = CampaignConfig.from_dict(manifest["invocation"]["resolved"])
        assert resolved == zero_variance_config(99)

    @pytest.mark.parametrize("command", ["init", "pairwise", "effort"])
    def test_budget_exhausted_run_leaves_no_directory(self, capsys, tmp_path, command):
        extra = ["--pairs", "2"] if command == "pairwise" else []
        out = tmp_path / command
        code, _, err = run_cli(
            capsys, command, "--config", "moderate_cellular", "--n-max", "100",
            "--out", str(out), *extra,
        )
        assert code == 3
        assert "n_max" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,record",
        [
            ("init", harness.TrialResult),
            ("replicate", harness.TrialResult),
            ("pairwise", harness.RepeatabilityReport),
            ("effort", harness.EffortComparison),
        ],
    )
    def test_render_failure_leaves_no_directory(self, capsys, tmp_path, monkeypatch, command, record):
        argv = self.argv(capsys, tmp_path, command)
        monkeypatch.setattr(record, "to_dict", lambda self: {"x": math.nan})
        out = tmp_path / command
        code, _, err = run_cli(capsys, command, *argv, "--out", str(out))
        assert code == 1
        assert "JSON" in err
        assert not out.exists()


# sha256 of result files; a dropped, renamed or re-typed key, or a moved
# number, changes a digest. Re-recorded when chunks came to be sized from
# the stopping rule (evaluated_n and chunks moved) and range_term_sound
# and the evaluated_n spreads and column were added; effort.csv and
# every other value kept their bytes.
OUTPUT_DIGESTS = {
    "init/result.json": "b518e4714dc161f73cd89aec8f459847a270d0d48a09c38697c2e0992e817034",
    "rep/result.json": "b518e4714dc161f73cd89aec8f459847a270d0d48a09c38697c2e0992e817034",
    "pair/pairs.csv": "fe2fd2b043c9f98d866f3b84cefd23dde6875455d2bf6bac1da3367f867d6788",
    "pair/report.json": "a502324b7670fa905a407d0674798c4c0b2697978caea3f3e846e1089d157291",
    "effort/effort.csv": "fcc319c8867da9f38e068fb7d1a729f2d93175e05ff33061bf344c5909932053",
    "effort/report.json": "c369e89de670c1bb8b06dc533e59072563cb9e108888118d0a4faf769a17a1f4",
}


class TestStopRuleManifest:
    """Every manifest names the radius mode that ran and whether its
    range term is sound; a run whose range term is not also warns, once,
    on stderr."""

    @staticmethod
    def stop_rule(out):
        return json.loads((out / "manifest.json").read_text())["stop_rule"]

    @staticmethod
    def warnings(err):
        return [line for line in err.splitlines() if "warning:" in line]

    @pytest.mark.parametrize(
        "command,extra", [("init", []), ("pairwise", ["--pairs", "2"]), ("effort", [])]
    )
    def test_paper_exact_below_p_one_is_unsound(self, capsys, tmp_path, command, extra):
        out = tmp_path / command
        code, _, err = run_cli(
            capsys, command, "--config", "rare_event_acceptance", "--out", str(out), *extra
        )
        assert code == 0
        assert self.stop_rule(out) == {
            "range_term_mode": "paper-exact",
            "range_term_sound": False,
        }
        assert len(self.warnings(err)) == 1

    def test_replicate_of_an_unsound_artifact_warns(self, capsys, tmp_path):
        init_dir, rep_dir = tmp_path / "init", tmp_path / "rep"
        run_cli(capsys, "init", "--config", "rare_event_acceptance", "--out", str(init_dir))
        code, _, err = run_cli(
            capsys, "replicate", "--artifact", str(init_dir / "artifact.json"),
            "--seed", "5", "--out", str(rep_dir),
        )
        assert code == 0
        assert self.stop_rule(rep_dir)["range_term_sound"] is False
        assert len(self.warnings(err)) == 1

    def test_replicate_that_exits_3_still_warns(self, capsys, tmp_path):
        init_dir, rep_dir = tmp_path / "init", tmp_path / "rep"
        run_cli(capsys, "init", "--config", "rare_event_acceptance", "--out", str(init_dir))
        art = json.loads((init_dir / "artifact.json").read_text())
        art["config"]["n_max"] = 10
        art["checksum"] = art_mod.artifact_checksum(art)
        resealed = tmp_path / "resealed.json"
        resealed.write_text(json.dumps(art))
        code, _, err = run_cli(
            capsys, "replicate", "--artifact", str(resealed),
            "--seed", "5", "--out", str(rep_dir),
        )
        assert code == 3
        assert "n_max" in err
        assert len(self.warnings(err)) == 1
        assert not rep_dir.exists()

    def test_linear_range_at_the_same_bound_is_sound(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, _, err = run_cli(
            capsys, "init", "--config", "rare_event_acceptance", "--out", str(out),
            "--range-term-mode", "linear-range",
        )
        assert code == 0
        assert self.stop_rule(out) == {
            "range_term_mode": "linear-range",
            "range_term_sound": True,
        }
        assert self.warnings(err) == []

    @pytest.mark.parametrize(
        "name", ["moderate_cellular", "displacement_star", "zero_variance", "tracking_ais"]
    )
    def test_bundled_configs_declaring_p_at_least_one_are_sound(self, capsys, tmp_path, name):
        out = tmp_path / name
        code, _, err = run_cli(capsys, "init", "--config", name, "--out", str(out))
        assert code == 0
        assert self.stop_rule(out) == {
            "range_term_mode": "paper-exact",
            "range_term_sound": True,
        }
        assert self.warnings(err) == []


class TestOutputBytes:
    def test_result_files_are_pinned(self, capsys, tmp_path):
        runs = [
            ("init", "--config", "zero_variance"),
            ("replicate", "--artifact", str(tmp_path / "init" / "artifact.json"), "--seed", "7"),
            ("pairwise", "--config", "zero_variance", "--pairs", "20"),
            ("effort", "--config", "displacement_star"),
        ]
        for argv, out in zip(runs, ["init", "rep", "pair", "effort"]):
            assert run_cli(capsys, *argv, "--out", str(tmp_path / out))[0] == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in OUTPUT_DIGESTS
        }
        assert digests == OUTPUT_DIGESTS


class TestEntryPoints:
    def test_range_term_mode_choices_are_the_estimator_modes(self):
        commands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for name in ("init", "pairwise", "effort"):
            flag = next(
                a for a in commands.choices[name]._actions if a.dest == "range_term_mode"
            )
            assert tuple(flag.choices) == RANGE_TERM_MODES
        for name in ("init", "pairwise"):
            flag = next(
                a for a in commands.choices[name]._actions if a.dest == "offset_policy"
            )
            assert tuple(flag.choices) == harness.OFFSET_POLICIES

    def test_module_invocation_reports_version(self):
        # The subprocess does not see pytest's pythonpath setting, so it
        # gets the package's parent directory on PYTHONPATH itself.
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "repsq.cli", "--version"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "repsq 0.1.0"

    @pytest.mark.skipif(shutil.which("repsq") is None, reason="script not on PATH")
    def test_console_script_runs(self):
        proc = subprocess.run(
            ["repsq", "alpha", "--gamma", "0.1", "--c", "0.05", "--beta", "0.1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "0.189474" in proc.stdout

    def test_verbose_flag_logs_writes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPSQ_VERBOSE", "1")
        out = tmp_path / "run"
        _, _, err = run_cli(
            capsys, "effort", "--config", "zero_variance", "--out", str(out)
        )
        assert "effort.csv" in err
        assert "manifest.json" in err
