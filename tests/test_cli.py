"""End-to-end CLI behavior: commands, formats, seeds, exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecylab import allocation, cli, harness, mutual_information
from secrecylab.errors import InvalidInputError, NumericalError, UsageError
from secrecylab.scenario import parse_scenario


def write(tmp_path, doc, name="scn.scenario"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


TWO_IDENTICAL = {
    "schema_version": 1,
    "channels": [
        {"type": "gaussian", "sigma_m_sq": 1.0, "sigma_w_sq": 3.0},
        {"type": "gaussian", "sigma_m_sq": 1.0, "sigma_w_sq": 3.0},
    ],
}

AGENT_TRIO = {
    "schema_version": 1,
    "channels": [
        {"type": "agent-snr", "main_snr": 1.0, "eaves_snr": 2.5},
        {"type": "agent-snr", "main_snr": 2.0, "eaves_snr": 5.0},
        {"type": "agent-snr", "main_snr": 3.0, "eaves_snr": 6.0},
    ],
}

#: One valid entry of each channel type.
ONE_OF_EACH = {
    "gaussian": {"type": "gaussian", "sigma_m_sq": 1.0, "sigma_w_sq": 3.0},
    "fading": {"type": "fading", "a": 2.0, "b": 1.0, "sigma_m_sq": 1.0, "sigma_w_sq": 1.0},
    "agent-snr": {"type": "agent-snr", "main_snr": 1.0, "eaves_snr": 2.5},
    "discrete": {"type": "discrete", "main": [[0.9, 0.1], [0.1, 0.9]],
                 "eaves": [[0.7, 0.3], [0.3, 0.7]]},
}


class TestCommands:
    def test_allocate_splits_identical_channels_evenly(self, tmp_path, capsys):
        path = write(tmp_path, TWO_IDENTICAL)
        code, out, _ = run_cli(["allocate", "--scenario", path, "--budget", "4"],
                               capsys)
        assert code == 0
        rows = csv_rows(out)
        powers = [float(r["power"]) for r in rows if r["channel_id"] in ("1", "2")]
        assert powers == pytest.approx([2.0, 2.0], abs=1e-9)
        summary = [r for r in rows if r["channel_id"] == "summary"]
        assert len(summary) == 1
        assert float(summary[0]["power"]) == pytest.approx(4.0, abs=1e-9)

    def test_rate_uses_budget_as_power(self, tmp_path, capsys):
        path = write(tmp_path, TWO_IDENTICAL)
        code, out, _ = run_cli(["rate", "--scenario", path, "--budget", "3"], capsys)
        assert code == 0
        rows = csv_rows(out)
        assert [float(r["rate_bits"]) for r in rows] == pytest.approx([0.5, 0.5])

    def test_rate_survives_overflowing_snr(self, tmp_path, capsys):
        doc = {"schema_version": 1,
               "channels": [{"type": "gaussian", "sigma_m_sq": 1e-10, "sigma_w_sq": 1e-9}]}
        path = write(tmp_path, doc)
        code, out, err = run_cli(["rate", "--scenario", path, "--budget", "1e300"], capsys)
        assert (code, err) == (0, "")
        [row] = csv_rows(out)
        assert float(row["rate_bits"]) == pytest.approx(0.5 * math.log2(10.0), abs=1e-11)

    def test_rate_at_a_subnormal_budget(self, tmp_path, capsys):
        doc = {"schema_version": 1,
               "channels": [{"type": "gaussian", "sigma_m_sq": 5.6e-309, "sigma_w_sq": 1.0},
                            {"type": "gaussian", "sigma_m_sq": 1.0, "sigma_w_sq": 2.0}]}
        path = write(tmp_path, doc)
        code, out, err = run_cli(["rate", "--scenario", path, "--budget", "1e-310"], capsys)
        assert (code, err) == (0, "")
        rates = [float(row["rate_bits"]) for row in csv_rows(out)]
        assert rates == pytest.approx([0.0127675460536, 3.60673760222e-311], rel=1e-11)

    @pytest.mark.parametrize("main_snr", [1e-20, 1e-10])
    def test_pair_keeps_the_rate_of_tiny_snrs(self, tmp_path, capsys, main_snr):
        """``log2(1 + A)`` rounds to 0 or loses digits below ~1e-8; ``log1p`` does not."""
        eaves_snr = 1e-30
        doc = {"schema_version": 1,
               "channels": [{"type": "agent-snr", "main_snr": main_snr, "eaves_snr": eaves_snr}]}
        code, out, err = run_cli(["pair", "--scenario", write(tmp_path, doc),
                                  "--format", "json"], capsys)
        assert (code, err) == (0, "")
        exact = (math.log1p(main_snr) - math.log1p(eaves_snr)) / math.log(2)
        [record] = json.loads(out)
        assert record["outputs"]["rate_bits"] == float(f"{exact:.12g}")

    def test_pair_reproduces_hand_traced_pairing(self, tmp_path, capsys):
        path = write(tmp_path, AGENT_TRIO)
        code, out, _ = run_cli(["pair", "--scenario", path], capsys)
        assert code == 0
        rows = csv_rows(out)
        pair_rows = [r for r in rows if r["pair_with"]]
        assert len(pair_rows) == 1
        assert (pair_rows[0]["channel_id"], pair_rows[0]["pair_with"]) == ("1", "3")

    def test_fig4_shape(self, capsys):
        code, out, _ = run_cli(["fig4"], capsys)
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 12
        pair_rows = [r for r in rows if r["pair_with"]]
        assert len(pair_rows) == 3
        assert all(float(r["efficiency"]) < 0.5 for r in pair_rows)

    def test_discrete_capacity(self, tmp_path, capsys):
        doc = {"schema_version": 1,
               "channels": [{"type": "discrete",
                             "main": [[0.9, 0.1], [0.1, 0.9]],
                             "eaves": [[0.7, 0.3], [0.3, 0.7]]}]}
        path = write(tmp_path, doc)
        code, out, _ = run_cli(
            ["discrete-capacity", "--scenario", path, "--grid-step", "0.001"],
            capsys)
        assert code == 0
        rows = csv_rows(out)
        assert float(rows[0]["rate_bits"]) == pytest.approx(0.4123, abs=1e-3)

    def test_discrete_capacity_is_a_lower_bound_off_less_noisy_links(self, tmp_path, capsys):
        """The command maximizes I(X;Y) - I(X;Z) over the input alone.  That is
        the secrecy capacity where the main link is less noisy; here it is not,
        and a two-point prefix V -> X sends more, as README says.  A command
        that reports the capacity must change this test and README together."""
        main = np.array([[0.3476, 0.6524], [0.9899, 0.0101]])
        eaves = np.array([[0.9991, 0.0009], [0.257, 0.743]])
        doc = {"schema_version": 1, "channels": [
            {"type": "discrete", "main": main.tolist(), "eaves": eaves.tolist()}]}
        code, out, _ = run_cli(["discrete-capacity", "--scenario", write(tmp_path, doc),
                                "--grid-step", "1e-3", "--format", "json"], capsys)
        assert code == 0
        [outputs] = [rec["outputs"] for rec in json.loads(out)]
        assert outputs == {"argmax_pmf": [0.086, 0.914], "rate_bits": 0.0407858181653}
        # P(V = 1) = 0.76; P(X = 1 | V) is 0.35 for V = 0 and 1.0 for V = 1.
        joint_vx = np.array([[0.24 * 0.65, 0.24 * 0.35], [0.0, 0.76]])
        prefixed = mutual_information(joint_vx @ main) - mutual_information(joint_vx @ eaves)
        assert prefixed == pytest.approx(0.07329, abs=5e-6)
        assert prefixed > outputs["rate_bits"] + 0.03

    def test_pick_prob_summary_carries_formula_value(self, tmp_path, capsys):
        doc = {"schema_version": 1,
               "channels": [
                   {"type": "agent-snr", "main_snr": 1.0, "eaves_snr": 1.5},
                   {"type": "agent-snr", "main_snr": 2.0, "eaves_snr": 3.5},
                   {"type": "agent-snr", "main_snr": 3.0, "eaves_snr": 3.5},
                   {"type": "agent-snr", "main_snr": 4.0, "eaves_snr": 4.5},
                   {"type": "agent-snr", "main_snr": 5.0, "eaves_snr": 6.0},
               ]}
        path = write(tmp_path, doc)
        code, out, _ = run_cli(["pick-prob", "--scenario", path], capsys)
        assert code == 0
        rows = csv_rows(out)
        summary = [r for r in rows if r["channel_id"] == "summary"]
        assert float(summary[0]["efficiency"]) == 0.8125

    def test_ergodic_smoke(self, tmp_path, capsys):
        doc = {"schema_version": 1, "samples": 2000,
               "channels": [{"type": "fading", "a": 2.0, "b": 1.0,
                             "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}]}
        path = write(tmp_path, doc)
        code, out, _ = run_cli(
            ["ergodic", "--scenario", path, "--budget", "1", "--format", "json"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["outputs"]["rate_bits"] > 0
        assert payload[0]["outputs"]["power"] == pytest.approx(1.0, rel=0.05)

    def test_allocate_fading_calibrates_each_channel(self, tmp_path, capsys):
        doc = {"schema_version": 1, "samples": 5000,
               "channels": [
                   {"type": "fading", "a": 2.0, "b": 1.0,
                    "sigma_m_sq": 1.0, "sigma_w_sq": 1.0},
                   {"type": "fading", "a": 1e-9, "b": 1.0,
                    "sigma_m_sq": 1.0, "sigma_w_sq": 1.0},
               ]}
        path = write(tmp_path, doc)
        code, out, _ = run_cli(
            ["allocate-fading", "--scenario", path, "--budget", "1",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["outputs"]["power"] == pytest.approx(1.0, rel=1e-3)
        assert payload[0]["outputs"]["zero_secrecy"] is False
        # the hopeless channel comes back flagged, with nothing spent
        assert payload[1]["outputs"]["zero_secrecy"] is True
        assert payload[1]["outputs"]["lambda"] == "inf"
        assert payload[1]["outputs"]["power"] == 0.0
        # calibration diagnostics ride along in the metadata
        assert payload[0]["metadata"]["achieved_power"] == payload[0]["outputs"]["power"]
        assert 1 <= payload[0]["metadata"]["calibration_iterations"] <= 20
        assert payload[1]["metadata"]["calibration_iterations"] == 0


class TestDeterminism:
    def test_fig4_reruns_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["fig4", "--seed", "7", "--out", str(out1)]) == 0
        assert cli.main(["fig4", "--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_ergodic_reruns_byte_identical(self, tmp_path):
        doc = {"schema_version": 1, "samples": 2000, "budget": 1.0,
               "channels": [{"type": "fading", "a": 2.0, "b": 1.0,
                             "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}]}
        path = write(tmp_path, doc)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            assert cli.main(["ergodic", "--scenario", path, "--format", "json",
                             "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_adding_a_channel_preserves_earlier_draws(self, tmp_path):
        base = {"schema_version": 1, "samples": 2000, "budget": 1.0,
                "channels": [{"type": "fading", "a": 2.0, "b": 1.0,
                              "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}]}
        extended = json.loads(json.dumps(base))
        extended["channels"].append({"type": "fading", "a": 3.0, "b": 1.0,
                                     "sigma_m_sq": 1.0, "sigma_w_sq": 1.0})
        p1 = write(tmp_path, base, "base.scenario")
        p2 = write(tmp_path, extended, "ext.scenario")
        o1 = tmp_path / "base.json"
        o2 = tmp_path / "ext.json"
        assert cli.main(["ergodic", "--scenario", p1, "--out", str(o1),
                         "--format", "json"]) == 0
        assert cli.main(["ergodic", "--scenario", p2, "--out", str(o2),
                         "--format", "json"]) == 0
        first = json.loads(o1.read_text())[0]
        again = json.loads(o2.read_text())[0]
        assert first == again


class TestSeedPrecedence:
    def test_env_var_overrides_scenario_seed(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, dict(AGENT_TRIO, seed=1))
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        _, out, _ = run_cli(["pair", "--scenario", path], capsys)
        assert csv_rows(out)[0]["seed"] == "123"

    def test_flag_overrides_env_var(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, dict(AGENT_TRIO, seed=1))
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        _, out, _ = run_cli(["pair", "--scenario", path, "--seed", "55"], capsys)
        assert csv_rows(out)[0]["seed"] == "55"

    def test_scenario_seed_is_the_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        path = write(tmp_path, dict(AGENT_TRIO, seed=31))
        _, out, _ = run_cli(["pair", "--scenario", path], capsys)
        assert csv_rows(out)[0]["seed"] == "31"

    def test_bad_env_var_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, AGENT_TRIO)
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
        code, _, err = run_cli(["pair", "--scenario", path], capsys)
        assert code == cli.EXIT_USAGE

    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, AGENT_TRIO)
        code, _, err = run_cli(["pair", "--scenario", path, "--seed", "-1"], capsys)
        assert code == cli.EXIT_USAGE
        assert "--seed" in err

    def test_negative_env_var_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, AGENT_TRIO)
        monkeypatch.setenv(cli.SEED_ENV_VAR, "-5")
        code, _, err = run_cli(["pair", "--scenario", path], capsys)
        assert code == cli.EXIT_USAGE
        assert cli.SEED_ENV_VAR in err

    def test_seed_flag_beyond_64_bits_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, AGENT_TRIO)
        code, out, err = run_cli(["pair", "--scenario", path, "--seed", str(2 ** 64)], capsys)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert "--seed: expected a 64-bit unsigned integer" in err
        code, out, _ = run_cli(["pair", "--scenario", path, "--seed", str(2 ** 64 - 1)], capsys)
        assert code == 0
        assert csv_rows(out)[0]["seed"] == str(2 ** 64 - 1)

    def test_env_seed_beyond_64_bits_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, AGENT_TRIO)
        monkeypatch.setenv(cli.SEED_ENV_VAR, str(2 ** 64))
        code, _, err = run_cli(["pair", "--scenario", path], capsys)
        assert code == cli.EXIT_USAGE
        assert f"${cli.SEED_ENV_VAR}: expected a 64-bit unsigned integer" in err

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, "7", True, 1.5])
    @pytest.mark.parametrize("command", ["rate", "allocate-fading"])
    def test_run_checks_the_seed_given_or_taken_from_the_scenario(self, command, seed):
        doc = {"schema_version": 1, "budget": 1.0, "samples": 1000,
               "channels": [ONE_OF_EACH["gaussian"], ONE_OF_EACH["fading"]]}
        scenario = parse_scenario(doc)
        message = re.escape(f"seed: expected a 64-bit unsigned integer, got {seed!r}")
        with pytest.raises(InvalidInputError, match=message):
            harness.run(command, scenario, seed=seed)
        with pytest.raises(InvalidInputError, match=message):
            harness.run(command, dataclasses.replace(scenario, seed=seed))
        assert harness.run(command, scenario, seed=2 ** 64 - 1)[0].metadata["seed"] == 2 ** 64 - 1

    @pytest.mark.parametrize("command", ["rate", "allocate", "allocate-fading"])
    @pytest.mark.parametrize("field, value, message", [
        ("budget", 0.0, "budget: expected a positive value, got 0.0"),
        ("budget", -1.0, "budget: expected a positive value, got -1.0"),
        ("samples", 0, "samples: expected a positive integer, got 0")])
    def test_run_checks_the_scenarios_own_budget_and_samples(self, command, field, value,
                                                              message):
        doc = {"schema_version": 1, "budget": 1.0, "samples": 1000,
               "channels": [ONE_OF_EACH["gaussian"], ONE_OF_EACH["fading"]]}
        scenario = dataclasses.replace(parse_scenario(doc), **{field: value})
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            harness.run(command, scenario)
        # A value given to run takes the scenario's place, and is checked alike.
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            harness.run(command, parse_scenario(doc), **{field: value})
        assert harness.run(command, scenario, **{field: doc[field]})


class TestExitCodes:
    def test_missing_budget_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, TWO_IDENTICAL)
        code, _, err = run_cli(["allocate", "--scenario", path], capsys)
        assert code == cli.EXIT_USAGE
        assert "budget" in err

    def test_unknown_command_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == cli.EXIT_USAGE

    def test_missing_scenario_is_usage_error(self, capsys):
        code, _, _ = run_cli(["allocate", "--budget", "1"], capsys)
        assert code == cli.EXIT_USAGE

    def test_invalid_scenario_is_validation_error(self, tmp_path, capsys):
        doc = {"schema_version": 1,
               "channels": [{"type": "gaussian", "sigma_m_sq": -1.0,
                             "sigma_w_sq": 3.0}]}
        path = write(tmp_path, doc)
        code, _, err = run_cli(["allocate", "--scenario", path, "--budget", "1"],
                               capsys)
        assert code == cli.EXIT_VALIDATION
        assert "sigma_m_sq" in err

    @pytest.mark.parametrize("kind", [[1], {"a": 1}])
    def test_a_channel_type_that_is_no_str_is_validation_error(self, tmp_path, capsys, kind):
        doc = {"schema_version": 1, "channels": [{"type": kind}]}
        path = write(tmp_path, doc)
        code, _, err = run_cli(["pair", "--scenario", path], capsys)
        assert code == cli.EXIT_VALIDATION
        assert err == (f"error: {path}.channels[0].type: unknown channel type {kind!r}; "
                       "expected one of ['agent-snr', 'discrete', 'fading', 'gaussian']\n")

    @pytest.mark.parametrize("doc", [[], "scenario", 1])
    def test_a_top_level_that_is_no_object_is_validation_error(self, tmp_path, capsys, doc):
        path = write(tmp_path, doc)
        code, _, err = run_cli(["rate", "--scenario", path, "--budget", "1"], capsys)
        assert (code, err) == (cli.EXIT_VALIDATION,
                               f"error: {path}: top level must be an object\n")

    def test_run_rejects_an_unknown_command(self):
        with pytest.raises(UsageError, match="^unknown command 'nope'; expected one of "):
            harness.run("nope", None)

    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["allocate", "--scenario", str(tmp_path / "nope"), "--budget", "1"],
            capsys)
        assert code == cli.EXIT_VALIDATION

    def test_wrong_channel_kind_is_validation_error(self, tmp_path, capsys):
        path = write(tmp_path, AGENT_TRIO)
        code, _, _ = run_cli(["allocate", "--scenario", path, "--budget", "1"],
                             capsys)
        assert code == cli.EXIT_VALIDATION

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("solver diverged")

        monkeypatch.setattr(cli, "run", boom)
        path = write(tmp_path, TWO_IDENTICAL)
        code, _, err = run_cli(["allocate", "--scenario", path, "--budget", "1"],
                               capsys)
        assert code == cli.EXIT_NUMERICAL
        assert "solver diverged" in err

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 7.28 TiB for an array"),
         "error: Unable to allocate 7.28 TiB for an array\n"),
        (MemoryError(), "error: out of memory\n")])
    def test_samples_too_many_for_memory_is_validation_error(self, tmp_path, capsys,
                                                              monkeypatch, error, message):
        def no_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr(allocation, "_draw_states", no_memory)
        path = write(tmp_path, {"schema_version": 1, "channels": [ONE_OF_EACH["fading"]]})
        for command in ("allocate-fading", "ergodic"):
            assert run_cli([command, "--scenario", path, "--budget", "1",
                            "--samples", "1000000000000"], capsys) == (
                cli.EXIT_VALIDATION, "", message)

    def test_unreachable_fading_budget_is_numerical_error(self, tmp_path, capsys):
        doc = {"schema_version": 1, "samples": 10000,
               "channels": [{"type": "fading", "a": 2.0, "b": 1.0,
                             "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}]}
        path = write(tmp_path, doc)
        code, out, err = run_cli(["allocate-fading", "--scenario", path,
                                  "--budget", "1e-120"], capsys)
        assert code == cli.EXIT_NUMERICAL
        assert out == ""
        assert "1e-120" in err

    @pytest.mark.parametrize("sigma_w_sq", [1.0, 1e-320])
    def test_subnormal_variance_is_validation_error(self, tmp_path, capsys, sigma_w_sq):
        """A variance whose reciprocal overflows is rejected, not reported as inf/nan."""
        doc = {"schema_version": 1,
               "channels": [{"type": "gaussian", "sigma_m_sq": 1e-320,
                             "sigma_w_sq": sigma_w_sq}]}
        path = write(tmp_path, doc)
        code, out, err = run_cli(["rate", "--scenario", path, "--budget", "1",
                                  "--format", "json"], capsys)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert "channels[0]" in err and "sigma_m_sq" in err

    def test_smallest_normal_variances_give_a_finite_rate(self, tmp_path, capsys):
        doc = {"schema_version": 1,
               "channels": [{"type": "gaussian", "sigma_m_sq": 1e-308, "sigma_w_sq": 1.0}]}
        path = write(tmp_path, doc)
        code, out, err = run_cli(["rate", "--scenario", path, "--budget", "1"], capsys)
        assert (code, err) == (0, "")
        [row] = csv_rows(out)
        expected = 0.5 * (math.log2(1.0 + 1e308) - 1.0)
        assert float(row["rate_bits"]) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("a, sigma_m_sq", [(1e10, 1e-300), (1e-200, 1e200)])
    @pytest.mark.parametrize("command", ["pair", "pick-prob", "allocate-fading"])
    def test_fading_gain_out_of_float_range_names_the_channel(self, tmp_path, capsys,
                                                              command, a, sigma_m_sq):
        """a/sigma_m_sq overflowing to inf or underflowing to 0 is a field error."""
        doc = {"schema_version": 1,
               "channels": [{"type": "fading", "a": a, "b": 1.0,
                             "sigma_m_sq": sigma_m_sq, "sigma_w_sq": 1.0}]}
        path = write(tmp_path, doc)
        code, out, err = run_cli([command, "--scenario", path, "--budget", "1",
                                  "--samples", "1000"], capsys)
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert "channels[0].sigma_m_sq: " in err and "power gain" in err

    def test_smallest_fading_gain_gives_the_zero_secrecy_sentinel(self, tmp_path, capsys):
        doc = {"schema_version": 1,
               "channels": [{"type": "fading", "a": 1e-300, "b": 1.0,
                             "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}]}
        path = write(tmp_path, doc)
        code, out, err = run_cli(["allocate-fading", "--scenario", path, "--budget", "1",
                                  "--samples", "1000", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        [record] = json.loads(out)
        assert record["outputs"]["zero_secrecy"] is True
        assert record["outputs"]["lambda"] == "inf"

    @pytest.mark.parametrize("main", [[[True, False], [False, True]],
                                      [[True, 0.0], [0.5, 0.5]]])
    def test_booleans_in_a_discrete_matrix_are_a_validation_error(self, tmp_path, capsys, main):
        doc = {"schema_version": 1,
               "channels": [{"type": "discrete", "main": main,
                             "eaves": [[0.7, 0.3], [0.3, 0.7]]}]}
        path = write(tmp_path, doc)
        code, out, err = run_cli(["discrete-capacity", "--scenario", path,
                                  "--grid-step", "0.1"], capsys)
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert "channels[0].main: must be a rectangular array of numbers" in err

    def test_integer_beyond_the_float_range_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "huge.scenario"
        path.write_text('{"schema_version": 1, "channels": [{"type": "gaussian", '
                        f'"sigma_m_sq": {10 ** 400}, "sigma_w_sq": 3.0}}]}}')
        code, out, err = run_cli(["rate", "--scenario", str(path), "--budget", "1"], capsys)
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert "channels[0].sigma_m_sq: expected a finite number" in err

    def test_unwritable_output_is_validation_error(self, tmp_path, capsys):
        path = write(tmp_path, AGENT_TRIO)
        code, _, _ = run_cli(["pair", "--scenario", path,
                              "--out", str(tmp_path / "no" / "dir" / "x.csv")],
                             capsys)
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("budget", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["rate", "allocate", "allocate-fading", "ergodic"])
    def test_non_positive_or_non_finite_budget_names_budget(self, tmp_path, capsys,
                                                             command, budget):
        kind = "gaussian" if command in ("rate", "allocate") else "fading"
        doc = {"schema_version": 1, "channels": [ONE_OF_EACH[kind]]}
        code, out, err = run_cli([command, "--scenario", write(tmp_path, doc),
                                  f"--budget={budget}", "--samples", "100"], capsys)
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert "error: budget: expected a" in err


#: The channel types each command reads, and the commands that spend a budget.
READS = {"rate": {"gaussian"}, "allocate": {"gaussian"},
         "allocate-fading": {"fading"}, "ergodic": {"fading"},
         "pair": {"agent-snr", "fading"}, "pick-prob": {"agent-snr", "fading"},
         "fig4": {"agent-snr", "fading"}, "discrete-capacity": {"discrete"}}
SPENDS_BUDGET = ("rate", "allocate", "allocate-fading", "ergodic")


class TestCommandPreconditions:
    """Every command's channel and budget preconditions, through ``cli.main``."""

    def test_every_command_is_covered(self):
        assert set(READS) == set(harness.COMMANDS)

    @pytest.mark.parametrize("command", SPENDS_BUDGET)
    def test_missing_budget_is_a_usage_error(self, tmp_path, capsys, command):
        channels = [ONE_OF_EACH[kind] for kind in sorted(READS[command])]
        path = write(tmp_path, {"schema_version": 1, "channels": channels})
        code, out, err = run_cli([command, "--scenario", path], capsys)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert "budget" in err

    @pytest.mark.parametrize("command", harness.COMMANDS)
    def test_scenario_without_a_channel_it_reads_is_a_validation_error(
            self, tmp_path, capsys, command):
        channels = [entry for kind, entry in ONE_OF_EACH.items() if kind not in READS[command]]
        for entry in channels:
            path = write(tmp_path, {"schema_version": 1, "channels": [entry]})
            code, out, err = run_cli([command, "--scenario", path, "--budget", "1"], capsys)
            assert (code, out) == (cli.EXIT_VALIDATION, ""), entry["type"]
            assert f"command '{command}' needs" in err


    @pytest.mark.parametrize("option, value, name", [
        ("--budget", "-1", "budget"), ("--budget", "0", "budget"), ("--budget", "nan", "budget"),
        ("--samples", "0", "samples"), ("--samples", "-5", "samples"),
        ("--grid-step", "-1", "grid_step"), ("--grid-step", "7", "grid_step")])
    @pytest.mark.parametrize("command", harness.COMMANDS)
    def test_every_option_given_is_checked(self, tmp_path, capsys, command, option, value, name):
        path = write(tmp_path, {"schema_version": 1, "budget": 1.0,
                                "channels": list(ONE_OF_EACH.values())})
        code, out, err = run_cli([command, "--scenario", path, option, value], capsys)
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert f"error: {name}: expected a" in err


class TestExtremeGains:
    """Gains far beyond 1e154 water-fill and calibrate like moderate ones."""

    @pytest.mark.parametrize("first, sum_rate", [
        ({"sigma_m_sq": 1e-105, "sigma_w_sq": 2e-105}, 0.923998453277),
        ({"sigma_m_sq": 1e-120, "sigma_w_sq": 2e-120}, 0.923998453277),
        ({"sigma_m_sq": 1e-200, "sigma_w_sq": 1.0}, 332.012880031)])
    def test_two_link_bank(self, tmp_path, capsys, first, sum_rate):
        """Sum rates from a 50-digit bisection of the water-fill."""
        doc = {"schema_version": 1, "channels": [{"type": "gaussian", **first},
                                                 {"type": "gaussian", "sigma_m_sq": 1.0,
                                                  "sigma_w_sq": 3.0}]}
        code, out, err = run_cli(["allocate", "--scenario", write(tmp_path, doc),
                                  "--budget", "2", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        summary = json.loads(out)[-1]["outputs"]
        assert (summary["power"], summary["rate_bits"]) == (2.0, sum_rate)

    @pytest.mark.parametrize("sigma_m_sq", [1e-160, 1e-308])
    def test_one_link_takes_the_whole_budget(self, tmp_path, capsys, sigma_m_sq):
        doc = {"schema_version": 1, "channels": [
            {"type": "gaussian", "sigma_m_sq": sigma_m_sq, "sigma_w_sq": 1.0}]}
        code, out, err = run_cli(["allocate", "--scenario", write(tmp_path, doc),
                                  "--budget", "1", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        link = json.loads(out)[0]["outputs"]
        # (1 + 1/sigma_m_sq) / 2 is 1/(2 sigma_m_sq) to far more than 12 digits.
        exact = 0.5 * (-math.log2(sigma_m_sq) - 1.0)
        assert (link["power"], link["rate_bits"]) == (1.0, float(f"{exact:.12g}"))

    @pytest.mark.parametrize("command", ["allocate-fading", "ergodic"])
    def test_fading_mean_gain_beyond_1e154(self, tmp_path, capsys, command):
        """With ``b = 1``, a mean gain from 1e150 up gives the same threshold."""
        reports = []
        for a in (1e150, 1e154, 1e300):
            doc = {"schema_version": 1, "channels": [
                {"type": "fading", "a": a, "b": 1.0, "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}]}
            code, out, err = run_cli([command, "--scenario", write(tmp_path, doc),
                                      "--budget", "1", "--samples", "1000", "--seed", "3",
                                      "--format", "json"], capsys)
            assert (code, err) == (0, "")
            [record] = json.loads(out)
            reports.append((record["outputs"]["lambda"], record["outputs"]["power"]))
        assert reports[1:] == reports[:1] * 2

    @pytest.mark.parametrize("command", ["allocate-fading", "ergodic"])
    def test_mean_power_whose_sum_overflows(self, tmp_path, capsys, command):
        """500 slots of ~3e305 each sum past the float maximum; their mean does not."""
        doc = {"schema_version": 1, "channels": [
            {"type": "fading", "a": 1.0, "b": 7.285370309915161e-304,
             "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli([command, "--scenario", write(tmp_path, doc),
                                      "--budget", "5.5375193892845935e+305",
                                      "--samples", "500", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        [record] = json.loads(out)
        achieved = record["metadata"]["achieved_power"]
        assert achieved == pytest.approx(5.5375193892845935e+305, rel=0.01)


#: Every positive float from the smallest subnormal up to 1.7e308, log-uniformly.
WIDE = st.floats(math.log(5e-324), math.log(1.7e308)).map(lambda x: max(math.exp(x), 5e-324))
GAUSSIAN = st.fixed_dictionaries({"type": st.just("gaussian"),
                                  "sigma_m_sq": WIDE, "sigma_w_sq": WIDE})
AGENT = st.fixed_dictionaries({"type": st.just("agent-snr"),
                               "main_snr": WIDE, "eaves_snr": WIDE})
FADING = st.fixed_dictionaries({"type": st.just("fading"), "a": WIDE, "b": WIDE,
                                "sigma_m_sq": WIDE, "sigma_w_sq": WIDE})


def stochastic_rows(inputs):
    """``inputs`` rows over one to four outputs, each a normalized weight
    vector in which zero entries are common."""
    weights = st.one_of(st.just(0), st.integers(1, 10 ** 6))
    return st.integers(1, 4).flatmap(lambda outputs: st.lists(
        st.lists(weights, min_size=outputs, max_size=outputs).filter(any)
        .map(lambda row: [w / sum(row) for w in row]),
        min_size=inputs, max_size=inputs))


#: A discrete channel with one to four inputs.
DISCRETE = st.integers(1, 4).flatmap(lambda inputs: st.fixed_dictionaries({
    "type": st.just("discrete"), "main": stochastic_rows(inputs),
    "eaves": stochastic_rows(inputs)}))


def numbers(obj):
    """Every number and every string in a decoded JSON report."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for item in obj for x in numbers(item)]
    return [obj] if isinstance(obj, (int, float, str)) and not isinstance(obj, bool) else []


def without_zero_secrecy_sentinel(record):
    """``record`` minus ``outputs.lambda == "inf"`` where ``zero_secrecy`` is set."""
    outputs = record.get("outputs", {})
    if outputs.get("zero_secrecy") is True and outputs.get("lambda") == "inf":
        outputs = {key: value for key, value in outputs.items() if key != "lambda"}
    return dict(record, outputs=outputs)


class TestAnyAcceptedInput:
    """Through ``cli.main``, any scenario gives finite numbers or a typed exit code.

    Runs in-process with redirected streams, because hypothesis rejects
    function-scoped fixtures such as ``tmp_path`` and ``capsys``.  A numpy
    ``RuntimeWarning`` would reach the user's stderr, so it fails the check.
    """

    @staticmethod
    def check(command, channels, *flags):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.scenario")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"schema_version": 1, "channels": channels}, fh)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = cli.main([command, "--scenario", path, *flags, "--format", "json"])
        assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL), err.getvalue()
        if code == cli.EXIT_OK:
            records = json.loads(out.getvalue())
            for x in numbers([without_zero_secrecy_sentinel(r) for r in records]):
                assert x not in ("inf", "-inf", "nan")
                assert isinstance(x, str) or math.isfinite(x)
            return records
        if code == cli.EXIT_VALIDATION:
            assert "channels[" in err.getvalue()
        return None

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["rate", "allocate"]),
           st.lists(GAUSSIAN, min_size=1, max_size=4), WIDE)
    def test_gaussian_commands(self, command, channels, budget):
        self.check(command, channels, "--budget", repr(budget))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["pair", "pick-prob"]),
           st.lists(st.one_of(AGENT, FADING), min_size=1, max_size=4))
    def test_agent_commands(self, command, channels):
        self.check(command, channels)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["allocate-fading", "ergodic"]),
           st.lists(FADING, min_size=1, max_size=3), WIDE,
           st.sampled_from([1, 2, 50, 500]))
    def test_fading_commands(self, command, channels, budget, samples):
        self.check(command, channels, "--budget", repr(budget), "--samples", str(samples))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(DISCRETE, min_size=1, max_size=2))
    def test_discrete_capacity(self, channels):
        records = self.check("discrete-capacity", channels, "--grid-step", "0.1")
        for record in records or ():
            assert record["outputs"]["rate_bits"] >= 0
            tenths = [round(10 * p) for p in record["outputs"]["argmax_pmf"]]
            assert record["outputs"]["argmax_pmf"] == [k / 10 for k in tenths]
            assert sum(tenths) == 10


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "secrecylab", "fig4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("experiment,")


def test_cli_module_runs_as_a_script():
    proc = subprocess.run([sys.executable, "-m", "secrecylab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.endswith("\n\n" + cli.__doc__[cli.__doc__.index("Commands:"):])


def test_help_states_the_commands_seeds_and_exit_codes(capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    out = capsys.readouterr().out
    assert done.value.code == 0
    # The text after the options is the module docstring's, from its command list on.
    assert out.endswith("\n\n" + cli.__doc__[cli.__doc__.index("Commands:"):])
    words = " ".join(out.split())
    assert "its rate is the secrecy capacity only where the main link is less noisy than " \
           "the eavesdropper's, and a lower bound elsewhere" in words
    for code, kind in ((cli.EXIT_OK, "success"), (cli.EXIT_USAGE, "usage error:"),
                       (cli.EXIT_VALIDATION, "validation error:"),
                       (cli.EXIT_NUMERICAL, "numerical failure:")):
        assert f"\n  {code}  {kind}" in out
    assert "too large for memory" in words
