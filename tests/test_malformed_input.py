"""Malformed configs and artifacts map to the documented exit codes.

A config with a missing field, a field of the wrong JSON type or a key
its reader does not read (outside the testbed block) exits 1; an
artifact whose checksum is valid but whose body is malformed exits 4,
including a sealed config that a config file could not hold. Neither
may escape main() as a traceback. The explicit cases are the ones that
used to crash or to exit 1; the hypothesis tests edit the bundled
zero_variance config and its artifact one field at a time (the artifact
is resealed after each edit, so the checksum is never what rejects it).
"""

import copy
import json
import math
import string
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repsq import artifact as art_mod
from repsq.cli import main

ZERO_VARIANCE = json.loads(
    (resources.files("repsq") / "configs" / "zero_variance.json").read_text()
)
RARE_EVENT = json.loads(
    (resources.files("repsq") / "configs" / "rare_event_acceptance.json").read_text()
)

# Keys a config must carry; the others have defaults.
CONFIG_REQUIRED = [
    ("accuracy",),
    ("accuracy", "gamma"),
    ("accuracy", "c"),
    ("accuracy", "beta"),
    ("sampler",),
    ("sampler", "kind"),
    ("seed",),
    ("testbed",),
    ("testbed", "kind"),
    ("testbed", "noise"),
    ("testbed", "mean_constant"),
]
# Fields for which null is a valid value ("no such bound", "no constant").
CONFIG_NULLABLE = {("bounds", "joint"), ("testbed", "mean_constant")}
ARTIFACT_NULLABLE = {("config",) + path for path in CONFIG_NULLABLE}

# A format-2 artifact of the bundled zero_variance config, as written
# before the artifact became a sealed config.
FORMAT_2_ARTIFACT = {
    "bounds": {"joint": "1", "m": "6", "w_bar": "1"},
    "checksum": "aee011ff0fcc6eddf2d14300ec927b70e9d2623975fef9655ad196ebc9e15d82",
    "format_version": "repsq-artifact-2",
    "n_max": 10000,
    "n_min": 2,
    "partition": {
        "alpha": "0.18947368421052643",
        "beta": "0.10000000000000001",
        "c": "0.050000000000000003",
        "format_version": "repsq-artifact-2",
        "gamma": "0.10000000000000001",
        "m_high": "6",
        "m_low": "0",
        "n_cells": 32,
        "offset": "0",
    },
    "range_term_mode": "paper-exact",
    "rng_algorithm": "numpy-pcg64-ss1",
    "sampler": {"kind": "monte_carlo"},
    "testbed": {
        "kind": "displacement-field",
        "m_high": 6.0,
        "m_low": 0.0,
        "mean_constant": 0.02,
        "noise": False,
        "oracle_seed": 0,
    },
}

# A format-3 artifact of the bundled zero_variance config, as written
# while testbed descriptors still carried oracle_seed.
FORMAT_3_ARTIFACT = {
    "checksum": "f5c4c53094d271cec7d38815c5bb85d37a5f3fbc3035406f9d7b9e5026e11328",
    "config": {
        "accuracy": {"beta": 0.1, "c": 0.05, "gamma": 0.1},
        "bounds": {"joint": 1.0, "w_bar": 1.0},
        "interval": {"m_high": 6.0, "m_low": 0.0},
        "n_max": 10000,
        "n_min": 2,
        "offset_policy": "zero",
        "range_term_mode": "paper-exact",
        "sampler": {"kind": "monte_carlo"},
        "testbed": {
            "kind": "displacement-field",
            "m_high": 6.0,
            "m_low": 0.0,
            "mean_constant": 0.02,
            "noise": False,
            "oracle_seed": 0,
        },
    },
    "format_version": "repsq-artifact-3",
    "grid": {"alpha": 0.18947368421052643, "n_cells": 32, "offset": 0.0},
    "rng_algorithm": "numpy-pcg64-ss1",
}

# A format-4 artifact of the bundled zero_variance config, as written
# while a config still declared its measure interval and weight cap.
FORMAT_4_ARTIFACT = {
    "checksum": "ef2c6508cba805c75e7934b38bbb446e013c867fefeda8358936a093af7ce4b6",
    "config": {
        "accuracy": {"beta": 0.1, "c": 0.05, "gamma": 0.1},
        "bounds": {"joint": 1.0, "w_bar": 1.0},
        "interval": {"m_high": 6.0, "m_low": 0.0},
        "n_max": 10000,
        "n_min": 2,
        "offset_policy": "zero",
        "range_term_mode": "paper-exact",
        "sampler": {"kind": "monte_carlo"},
        "testbed": {
            "kind": "displacement-field",
            "m_high": 6.0,
            "m_low": 0.0,
            "mean_constant": 0.02,
            "noise": False,
        },
    },
    "format_version": "repsq-artifact-4",
    "grid": {"alpha": 0.18947368421052643, "n_cells": 32, "offset": 0.0},
    "rng_algorithm": "numpy-pcg64-ss1",
}

# The bundled zero_variance config as a file written before the interval
# and the weight cap were derived holds it: the reader checks the two
# retired keys and sets nothing from them.
ZERO_VARIANCE_RETIRED = {
    **ZERO_VARIANCE,
    "bounds": {**ZERO_VARIANCE["bounds"], "w_bar": 1.0},
    "interval": {"m_high": 6.0, "m_low": 0.0},
}

# Strings of letters never parse as finite numbers, so a string standing
# in for a number is always malformed.
JSON_TYPES = {
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.integers(-10**6, 10**6) | st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(string.ascii_letters, max_size=8),
    "array": st.lists(st.integers(0, 9), max_size=3),
    "object": st.dictionaries(st.text(string.ascii_letters, max_size=4), st.integers(), max_size=3),
}

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)
ARTIFACT_FUZZ = settings(FUZZ, max_examples=400)


def json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def lookup(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def edited(tree, path, value=None, drop=False):
    """A copy of tree with the key at path dropped or set to value."""
    out = copy.deepcopy(tree)
    parent = lookup(out, path[:-1])
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def malformed(tree, paths, droppable, nullable):
    """One required key dropped, or one field at ``paths`` replaced by a
    value of another JSON type (null only where null is invalid)."""

    def other_type(path):
        have = json_type(lookup(tree, path))
        return st.one_of(
            *(
                strategy
                for name, strategy in JSON_TYPES.items()
                if name != have and not (name == "null" and path in nullable)
            )
        ).map(lambda value: edited(tree, path, value))

    drops = st.sampled_from(droppable).map(lambda path: edited(tree, path, drop=True))
    swaps = st.sampled_from(paths).flatmap(other_type)
    return drops | swaps


def all_paths(tree, prefix=()):
    out = []
    for key, value in tree.items():
        out.append(prefix + (key,))
        if isinstance(value, dict):
            out.extend(all_paths(value, prefix + (key,)))
    return out


def init_code(cfg: dict, workdir) -> int:
    path = workdir / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main(["init", "--config", str(path), "--out", str(workdir / "init")])


def replicate_code(art: dict, workdir, reseal: bool = True) -> int:
    if reseal:
        art = dict(art, checksum=art_mod.artifact_checksum(art))
    path = workdir / "artifact.json"
    path.write_text(json.dumps(art))
    return main(
        ["replicate", "--artifact", str(path), "--seed", "1", "--out", str(workdir / "rep")]
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@pytest.fixture(scope="module")
def artifact(workdir) -> dict:
    assert main(["init", "--config", "zero_variance", "--out", str(workdir / "seed")]) == 0
    return json.loads((workdir / "seed" / "artifact.json").read_text())


def artifact_paths(art: dict) -> list:
    """Every field of the artifact but the checksum (which is resealed
    anyway): the top level, every sealed config field down to the
    testbed and sampler descriptors, and the grid."""
    return [path for path in all_paths(art) if path != ("checksum",)]


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "path,value,drop",
        [
            (("accuracy", "gamma"), "0.1", False),
            (("accuracy",), [1], False),
            (("testbed",), None, False),
            (("testbed", "noise"), None, True),
            (("range_term_mode",), [], False),
            (("range_term_mode",), {}, False),
            (("range_term_mode",), 5, False),
        ],
        ids=[
            "gamma-string",
            "accuracy-array",
            "testbed-null",
            "testbed-no-noise",
            "range-term-mode-array",
            "range-term-mode-object",
            "range-term-mode-number",
        ],
    )
    def test_former_crashes_exit_1(self, workdir, path, value, drop):
        assert init_code(edited(ZERO_VARIANCE, path, value, drop), workdir) == 1

    @pytest.mark.parametrize(
        "flag",
        [
            ["--seed", "3"],
            ["--n-max", "5"],
            ["--range-term-mode", "linear-range"],
            ["--offset-policy", "zero"],
        ],
        ids=["seed", "n-max", "range-term-mode", "offset-policy"],
    )
    def test_non_object_config_with_override_exits_1(self, workdir, capsys, flag):
        path = workdir / "list.json"
        path.write_text("[1, 2]")
        code = main(["init", "--config", str(path), "--out", str(workdir / "init"), *flag])
        assert code == 1
        assert "campaign config must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sampler,message",
        [
            # runs with mix_p 1.0 alone
            ({"kind": "ais", "mix_p": 1.0, "mixp": 0.5}, "ais sampler does not read ['mixp']"),
            ({"kind": "monte_carlo", "d": 10}, "monte_carlo sampler does not read ['d']"),
        ],
        ids=["ais-mixp", "monte-carlo-d"],
    )
    def test_sampler_key_the_kind_does_not_read_exits_1(self, workdir, capsys, sampler, message):
        assert init_code(dict(ZERO_VARIANCE, sampler=sampler), workdir) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path,message",
        [
            (("n_mx",), "campaign config does not read ['n_mx']"),
            (("accuracy", "gama"), "accuracy does not read ['gama']"),
            (("interval", "mlow"), "interval does not read ['mlow']"),
            (("bounds", "wbar"), "bounds does not read ['wbar']"),
        ],
        ids=["top-level", "accuracy", "interval", "bounds"],
    )
    def test_config_key_the_reader_does_not_read_exits_1(self, workdir, capsys, path, message):
        """A misspelt key would otherwise leave its field at the default."""
        assert init_code(edited(ZERO_VARIANCE_RETIRED, path, 5), workdir) == 1
        assert message in capsys.readouterr().err

    def test_testbed_key_no_testbed_reads_is_ignored(self, workdir):
        cfg = edited(ZERO_VARIANCE, ("testbed", "oracle_seed"), 0)
        assert init_code(cfg, workdir) == 0

    def test_nan_failure_probability_exits_1(self, workdir, capsys):
        """NaN passes both of the checks f < 0 and f > 1, so the range is
        checked as 0 <= f <= 1; Python's json reads a bare NaN."""
        probs = [math.nan] + RARE_EVENT["testbed"]["failure_probs"][1:]
        cfg = edited(RARE_EVENT, ("testbed", "failure_probs"), probs)
        assert init_code(cfg, workdir) == 1
        assert "failure probabilities must lie in [0, 1]" in capsys.readouterr().err

    def test_nan_tracking_noise_exits_1(self, workdir, capsys):
        """A NaN noise scale made every oracle and every measure NaN, and
        the campaign failed only at its first chunk."""
        tracking = json.loads(
            (resources.files("repsq") / "configs" / "tracking_ais.json").read_text()
        )
        cfg = edited(tracking, ("testbed", "noise_base"), math.nan)
        assert '"noise_base": NaN' in json.dumps(cfg)
        assert init_code(cfg, workdir) == 1
        assert "noise_base must be finite, got nan" in capsys.readouterr().err

    def test_retired_keys_that_hold_run(self, workdir):
        assert init_code(ZERO_VARIANCE_RETIRED, workdir) == 0

    @pytest.mark.parametrize(
        "path,value,drop,message",
        [
            (("interval", "m_high"), 2.0, False,
             "config interval [0.0, 2.0] does not match testbed interval [0.0, 6.0]"),
            (("interval", "m_low"), None, True, "campaign config missing field 'm_low'"),
            (("bounds", "w_bar"), 0.5, False,
             "w_bar 0.5 must be finite and at least the monte_carlo sampler's weight cap 1"),
            (("bounds", "w_bar"), "1", False, "w_bar must be a number"),
        ],
        ids=["interval-not-the-beds", "interval-partial", "w-bar-below-the-cap", "w-bar-string"],
    )
    def test_retired_key_that_does_not_hold_exits_1(
        self, workdir, capsys, path, value, drop, message
    ):
        assert init_code(edited(ZERO_VARIANCE_RETIRED, path, value, drop), workdir) == 1
        assert message in capsys.readouterr().err

    def test_ais_without_a_target_share_exits_1(self, workdir, capsys):
        """Its weight cap 1/mix_p would divide by zero."""
        tracking = json.loads(
            (resources.files("repsq") / "configs" / "tracking_ais.json").read_text()
        )
        cfg = edited(tracking, ("sampler", "mix_p"), 0.0)
        assert init_code(cfg, workdir) == 1
        assert "ais with mix_p = 0 has no provable weight cap" in capsys.readouterr().err

    def test_importance_without_a_proposal_exits_1(self, workdir, capsys):
        assert init_code(dict(ZERO_VARIANCE, sampler={"kind": "importance"}), workdir) == 1
        assert "needs a testbed with a discrete proposal" in capsys.readouterr().err

    @FUZZ
    @given(
        cfg=malformed(
            ZERO_VARIANCE, all_paths(ZERO_VARIANCE), CONFIG_REQUIRED, CONFIG_NULLABLE
        )
    )
    def test_any_one_field_edit_exits_1(self, workdir, cfg):
        assert init_code(cfg, workdir) == 1


class TestMalformedArtifact:
    @pytest.mark.parametrize(
        "path,value,drop",
        [
            (("grid",), "grid", False),
            (("config", "bounds"), {}, False),
            (("config", "range_term_mode"), None, True),
            (("config", "accuracy", "gamma"), None, True),
            (("grid", "n_cells"), 31, False),  # the grid yields 32
            (("format_version",), "repsq-artifact-1", False),
        ],
        ids=[
            "partition-string",
            "bounds-empty",
            "no-range-term-mode",
            "no-gamma",
            "wrong-n-cells",
            "format-1",
        ],
    )
    def test_former_crashes_exit_4(self, workdir, artifact, path, value, drop):
        assert replicate_code(edited(artifact, path, value, drop), workdir) == 4

    @pytest.mark.parametrize(
        "path,value,drop",
        [
            (("config", "n_min"), 2.5, False),
            (("grid", "offset"), 0.5, False),  # above alpha = 0.189...
            (("config", "bounds", "w_bar"), "0.5", False),
            (("config", "range_term_mode"), "nope", False),
            (("config", "range_term_mode"), [], False),
            (("config", "range_term_mode"), {}, False),
            (("config", "range_term_mode"), 5, False),
            (("config", "sampler", "kind"), 5, False),
            (("config", "sampler", "mix_p"), 0.5, False),  # monte_carlo reads no mix_p
            (("config", "sampler", "kind"), "importance", False),  # the bed has no proposal
            (("config", "testbed", "noise"), None, True),
            (("config", "testbed", "oracle_seed"), 0, False),  # read by no testbed
        ],
        ids=[
            "n-min-fraction",
            "offset-above-alpha",
            "w-bar-string",
            "range-term-mode-nope",
            "range-term-mode-array",
            "range-term-mode-object",
            "range-term-mode-number",
            "sampler-kind-number",
            "sampler-unread-key",
            "importance-without-proposal",
            "testbed-no-noise",
            "testbed-unread-key",
        ],
    )
    def test_content_a_config_cannot_hold_exits_4(self, workdir, artifact, path, value, drop):
        assert replicate_code(edited(artifact, path, value, drop), workdir) == 4

    @pytest.mark.parametrize("old", [FORMAT_2_ARTIFACT, FORMAT_3_ARTIFACT, FORMAT_4_ARTIFACT],
                             ids=["format-2", "format-3", "format-4"])
    def test_retired_format_artifact_exits_4(self, workdir, capsys, old):
        assert art_mod.artifact_checksum(old) == old["checksum"]
        assert replicate_code(old, workdir, reseal=False) == 4
        assert old["format_version"] in capsys.readouterr().err

    def test_resealed_original_still_runs(self, workdir, artifact):
        assert replicate_code(artifact, workdir) == 0

    @pytest.mark.parametrize("key", ["m_low", "m_high"])
    def test_dropped_testbed_interval_exits_4(self, workdir, artifact, key):
        """A config file may leave the testbed interval out, but a config
        always writes it: a sealed config without it is not one an
        initiator wrote."""
        art = edited(artifact, ("config", "testbed", key), drop=True)
        assert replicate_code(art, workdir) == 4

    @ARTIFACT_FUZZ
    @given(data=st.data())
    def test_any_one_field_edit_exits_4(self, workdir, artifact, data):
        paths = artifact_paths(artifact)
        art = data.draw(malformed(artifact, paths, paths, ARTIFACT_NULLABLE))
        assert replicate_code(art, workdir) == 4
