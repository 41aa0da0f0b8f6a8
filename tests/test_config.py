"""Run settings: defaults, validation diagnostics, and seed derivation."""

import hashlib
import json
import threading
from pathlib import Path

import pytest

from rerail.config import (
    MAX_PRICE,
    ConfigError,
    RunSettings,
    load_settings,
    question_seed,
    settings_from_dict,
)

README = Path(__file__).parents[1] / "README.md"


def readme_defaults() -> list[tuple[str, object]]:
    """Each field the README's Configuration table names, with the default
    it gives, in table order. A row may pair fields (`a` / `b`); a default
    that is not JSON is a string written bare."""
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n")[1].split("\n## ")[0]
    pairs = []
    for row in section.splitlines():
        if row.startswith("| `"):
            names, defaults = (cell.strip() for cell in row.split("|")[1:3])
            for name, default in zip(names.split(" / "), defaults.split(" / "), strict=True):
                try:
                    value = json.loads(default.strip("`"))
                except ValueError:
                    value = default.strip("`")
                pairs.append((name.strip("`"), value))
    return pairs


class TestDefaults:
    def test_documented_defaults(self):
        s = RunSettings()
        assert s.model_id == "gpt-4"
        assert s.temperature == 0.0
        assert s.sampling_temperature == 0.7
        assert s.n_samples == 3
        assert s.sc_budget == 40
        assert s.mad_agents == 2
        assert s.mad_rounds == 3
        assert s.n_debate_agents == 2
        assert s.n_debate_rounds == 3
        assert s.max_reanswer_steps == 12
        assert s.max_rerail_iterations == 3
        assert s.parallelism == 1
        assert s.seed == 0
        assert s.abs_tolerance == 1e-6
        assert s.rel_tolerance == 1e-4
        assert s.price_table == {}

    def test_the_readme_table_names_every_field_once_with_its_default(self):
        documented = readme_defaults()
        assert sorted(name for name, _ in documented) == sorted(RunSettings.__dataclass_fields__)
        # compared as JSON text, so 3 and 3.0, or 1 and true, differ
        assert {name: json.dumps(value) for name, value in documented} == {
            name: json.dumps(value) for name, value in RunSettings().to_json().items()
        }

    def test_secrets_live_in_the_environment(self):
        payload = RunSettings().to_json()
        assert payload["api_key_env"] == "RERAIL_API_KEY"
        # only the env var NAME is configurable; there is no key field at all
        assert "api_key" not in payload


class TestValidation:
    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="n_sample"):
            settings_from_dict({"n_sample": 3})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_samples", 0),
            ("sc_budget", -1),
            ("max_rerail_iterations", 0),
            ("parallelism", 0),
            ("n_samples", 2.5),
            ("max_in_flight", 0),
            ("max_in_flight", -1),
            ("requests_per_minute", 0),
            ("requests_per_minute", 1.5),
            # the boundary values every reader is held to
            ("n_samples", 1.0),
            ("sc_budget", 1.7976931348623157e308),
            ("parallelism", True),
            ("mad_rounds", -1),
        ],
    )
    def test_counts_must_be_positive_integers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            settings_from_dict({field: value})

    @pytest.mark.parametrize(
        "field", ["parallelism", "n_samples", "mad_rounds", "max_in_flight", "requests_per_minute", "seed"]
    )
    def test_integers_reject_booleans(self, field):
        # a bool is an int in Python; true would pass as 1
        with pytest.raises(ConfigError, match=field):
            settings_from_dict({field: True})

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, "no"])
    def test_cache_enabled_must_be_a_boolean_or_null(self, value):
        with pytest.raises(ConfigError, match="cache_enabled"):
            settings_from_dict({"cache_enabled": value})

    @pytest.mark.parametrize("value", [True, False, None])
    def test_cache_enabled_accepts_true_false_and_null(self, value):
        assert settings_from_dict({"cache_enabled": value}).cache_enabled is value

    @pytest.mark.parametrize(
        "field,value",
        [
            ("timeout_s", 0),
            ("timeout_s", -1.0),
            ("abs_tolerance", -1e-6),
            ("rel_tolerance", -0.1),
            # the boundary values every reader is held to
            pytest.param("rel_tolerance", 10**400, id="rel_tolerance-10**400"),
            ("abs_tolerance", True),
            ("temperature", -1),
        ],
    )
    def test_timeout_positive_and_tolerances_non_negative(self, field, value):
        with pytest.raises(ConfigError, match=field):
            settings_from_dict({field: value})

    @pytest.mark.parametrize(
        "field", ["temperature", "sampling_temperature", "timeout_s", "abs_tolerance", "rel_tolerance"]
    )
    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_floats_reject_booleans_and_non_numbers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            settings_from_dict({field: value})

    @pytest.mark.parametrize(
        "field", ["temperature", "sampling_temperature", "timeout_s", "abs_tolerance", "rel_tolerance"]
    )
    def test_floats_reject_infinity(self, field):
        # an infinite tolerance crashed grading, and the snapshot held bare Infinity
        with pytest.raises(ConfigError, match=field):
            settings_from_dict({field: float("inf")})

    @pytest.mark.parametrize("field", ["model_id", "endpoint", "api_key_env"])
    @pytest.mark.parametrize("value", [3, None, True, ["gpt-4"]])
    def test_strings_reject_other_types(self, field, value):
        with pytest.raises(ConfigError, match=field):
            settings_from_dict({field: value})

    def test_a_timeout_longer_than_a_socket_takes_is_refused(self):
        # 1e308 passed, and every live call then raised OverflowError from
        # socket.settimeout; the longest a thread can wait is the bound
        with pytest.raises(ConfigError) as raised:
            settings_from_dict({"timeout_s": 1e308})
        assert str(raised.value) == (
            f"config field 'timeout_s' must be > 0 and <= {threading.TIMEOUT_MAX}, got 1e+308"
        )
        assert settings_from_dict({"timeout_s": threading.TIMEOUT_MAX}).timeout_s == threading.TIMEOUT_MAX

    def test_throttles_may_stay_unset_or_be_one(self):
        assert settings_from_dict({"max_in_flight": None}).max_in_flight is None
        s = settings_from_dict({"max_in_flight": 1, "requests_per_minute": 1, "abs_tolerance": 0})
        assert (s.max_in_flight, s.requests_per_minute, s.abs_tolerance) == (1, 1, 0)

    def test_mad_needs_at_least_two_agents(self):
        with pytest.raises(ConfigError, match="mad_agents"):
            settings_from_dict({"mad_agents": 1})

    def test_negative_temperature_rejected(self):
        with pytest.raises(ConfigError, match="temperature"):
            settings_from_dict({"temperature": -0.5})

    def test_empty_model_rejected(self):
        with pytest.raises(ConfigError, match="model_id"):
            settings_from_dict({"model_id": ""})

    def test_price_table_shape_enforced(self):
        with pytest.raises(ConfigError) as raised:
            settings_from_dict({"price_table": {"gpt-4": {"prompt_per_1k": 0.03}}})
        assert str(raised.value) == "config: price_table['gpt-4'] missing field 'completion_per_1k'"
        with pytest.raises(ConfigError) as raised:
            settings_from_dict({"price_table": {"gpt-4": [0.03, 0.06]}})
        assert str(raised.value) == "config: price_table['gpt-4'] expected a JSON object"

    @pytest.mark.parametrize(
        "price",
        [
            "x", None, [1], True, float("nan"), float("inf"), -1, "0.03",
            pytest.param(10**400, id="10**400"), 1e308, MAX_PRICE + 0.5,
        ],
    )
    def test_price_must_be_a_number(self, price):
        # a boolean, a non-finite, a negative or a quoted price is never priced
        with pytest.raises(ConfigError, match=r"price_table\['gpt-4'\]"):
            settings_from_dict({"price_table": {"gpt-4": {"prompt_per_1k": price, "completion_per_1k": 0.06}}})

    def test_a_price_too_large_for_a_float_is_refused_naming_the_model(self):
        # a 401-digit integer passed, then float() raised OverflowError
        with pytest.raises(ConfigError, match=r"price_table\['gpt-4'\] completion_per_1k must be a finite number"):
            settings_from_dict({"price_table": {"gpt-4": {"prompt_per_1k": 0.03, "completion_per_1k": 10**400}}})

    def test_the_highest_price_is_accepted(self):
        s = settings_from_dict({"price_table": {"gpt-4": {"prompt_per_1k": MAX_PRICE, "completion_per_1k": 1e6}}})
        assert s.price_table["gpt-4"] == {"prompt_per_1k": 1e6, "completion_per_1k": 1e6}

    def test_zero_and_integer_prices_are_floats(self):
        s = settings_from_dict({"price_table": {"gpt-4": {"prompt_per_1k": 0, "completion_per_1k": 2}}})
        assert s.to_json()["price_table"] == {"gpt-4": {"prompt_per_1k": 0.0, "completion_per_1k": 2.0}}
        assert type(s.price_table["gpt-4"]["completion_per_1k"]) is float

    def test_price_table_parsed(self):
        s = settings_from_dict(
            {"price_table": {"gpt-4": {"prompt_per_1k": 0.03, "completion_per_1k": 0.06}}}
        )
        assert s.price_table["gpt-4"] == {"prompt_per_1k": 0.03, "completion_per_1k": 0.06}

    def test_snapshot_spells_out_every_price(self):
        table = {
            "gpt-4": {"prompt_per_1k": 0.03, "completion_per_1k": 0.06},
            "small": {"prompt_per_1k": 0.001, "completion_per_1k": 0.002},
        }
        assert settings_from_dict({"price_table": table}).to_json()["price_table"] == table

    def test_source_prefix_in_diagnostics(self):
        with pytest.raises(ConfigError, match="run.json"):
            settings_from_dict({"bogus": 1}, source="run.json")


class TestLoadSettings:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_settings(tmp_path / "absent.json")

    def test_invalid_json_names_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="broken.json"):
            load_settings(p)

    def test_round_trip_through_file(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"n_samples": 5, "seed": 9}), encoding="utf-8")
        s = load_settings(p)
        assert s.n_samples == 5
        assert s.seed == 9
        assert s.sc_budget == 40  # untouched defaults survive


class TestOverrides:
    def test_none_values_are_skipped(self):
        s = RunSettings().with_overrides(seed=None, parallelism=4)
        assert s.seed == 0
        assert s.parallelism == 4

    def test_no_overrides_returns_equal_settings(self):
        s = RunSettings()
        assert s.with_overrides() == s

    def test_overrides_are_validated_too(self):
        with pytest.raises(ConfigError):
            RunSettings().with_overrides(n_samples=0)


class TestQuestionSeed:
    def test_matches_digest_prefix(self):
        digest = hashlib.sha256(b"7:q42").digest()
        assert question_seed(7, "q42") == int.from_bytes(digest[:6], "big")

    def test_distinct_questions_get_distinct_seeds(self):
        seeds = {question_seed(0, f"q{i}") for i in range(50)}
        assert len(seeds) == 50

    def test_base_seed_shifts_everything(self):
        assert question_seed(0, "q1") != question_seed(1, "q1")
