import dataclasses
import datetime as dt
import re

import pytest

from recaudit.config import API_KEY_ENV, BASE_URL_ENV, PipelineConfig, load_config
from recaudit.errors import ConfigError
from recaudit.metrics import Period

# A value each field type's range or choice checks reject.
_BAD_VALUE = {"int": "-1", "Optional[int]": "-1", "float": "-1", "Optional[float]": "-1", "str": "nonsense"}


def _checked_fields() -> list[tuple[str, str, str]]:
    """(field, bad value, error message) for each field ``validate`` checks,
    found by setting each field alone to a bad value."""
    out = []
    for f in dataclasses.fields(PipelineConfig):
        raw = _BAD_VALUE.get(f.type)
        if raw is None:
            continue
        try:
            load_config(env={f"RECAUDIT_{f.name.upper()}": raw})
        except ConfigError as exc:
            out.append((f.name, raw, str(exc)))
    return out


_CHECKED = _checked_fields()


class TestLoadConfig:
    def test_defaults_without_file(self):
        config = load_config(env={})
        assert config.harvest_k == 20
        assert config.harvest_retain == 1000
        assert config.comments_limit == 200
        assert config.ensemble_repeats == 100
        assert config.ensemble_split == 0.6
        assert config.threshold == 0.5
        assert config.window_days == 7
        assert config.topics_top_words == 25
        assert config.snowball_initial == 250
        assert config.snowball_target == 12000

    def test_file_values_parsed_by_type(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            """
            # comment line
            harvest.k = 10
            ensemble.split = 0.7
            topics.use_tfidf = false
            sim.homophily = 0.9
            out.dir = results
            """
        )
        config = load_config(path, env={})
        assert config.harvest_k == 10
        assert config.ensemble_split == 0.7
        assert config.topics_use_tfidf is False
        assert config.sim_homophily == 0.9
        assert config.out_dir == "results"

    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("harvest.k = 10\n")
        config = load_config(path, env={"RECAUDIT_HARVEST_K": "5"})
        assert config.harvest_k == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("no.such.key = 1\n")
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_unknown_environment_variable_rejected(self):
        with pytest.raises(ConfigError, match=r"^RECAUDIT_METRICS_ALPHA: unknown key 'metrics\.alpha'$"):
            load_config(env={"RECAUDIT_METRICS_ALPHA": "0.5"})

    @pytest.mark.parametrize(
        "value",
        [
            "2019-13-01:2019-05-02",  # no 13th month
            "2019-05-01",  # no end
            "2019-05-02:2019-05-01",  # ends before it starts
            "2019-05-01:2019-05-31,2019-06-01:june",
        ],
    )
    def test_bad_bubble_periods_rejected_at_load_naming_key_and_value(self, value):
        with pytest.raises(ConfigError, match=rf"^bubble\.periods must be .*{re.escape(repr(value))}"):
            load_config(env={"RECAUDIT_BUBBLE_PERIODS": value})

    def test_bubble_periods_parse_in_order(self):
        config = load_config(env={"RECAUDIT_BUBBLE_PERIODS": "2019-05-01:2019-05-31, 2019-06-01:2019-06-01"})
        assert config.bubble_period_list() == [
            Period(dt.date(2019, 5, 1), dt.date(2019, 5, 31)),
            Period(dt.date(2019, 6, 1), dt.date(2019, 6, 1)),
        ]
        assert load_config(env={}).bubble_period_list() == []

    def test_the_live_adapter_variables_are_not_config_keys(self):
        env = {BASE_URL_ENV: "http://localhost:8080", API_KEY_ENV: "secret"}
        assert load_config(env=env) == PipelineConfig()

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.txt", env={})

    def test_optional_none_value(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("sim.homophily = none\n")
        assert load_config(path, env={}).sim_homophily is None

    def test_validation_catches_bad_ranges(self):
        with pytest.raises(ConfigError):
            load_config(env={"RECAUDIT_HARVEST_K": "0"})
        with pytest.raises(ConfigError):
            load_config(env={"RECAUDIT_ENSEMBLE_SPLIT": "1.5"})
        with pytest.raises(ConfigError):
            load_config(env={"RECAUDIT_SOURCE": "carrier-pigeon"})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("TOPICS_REPORT_TOP", "-1"),
            ("TOPICS_REPORT_TOP", "0"),
            ("TOPICS_MAX_ITER", "0"),
            ("SNOWBALL_INITIAL", "0"),
        ],
    )
    def test_counts_must_be_positive(self, name, value):
        key = name.lower().replace("_", ".", 1)
        with pytest.raises(ConfigError, match=f"{key} must be at least 1"):
            load_config(env={f"RECAUDIT_{name}": value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("SIM_HOMOPHILY", "1.5"),
            ("SIM_SHARE", "2"),
            ("SIM_SHARE", "-0.1"),
            ("SIM_TRANSCRIPT_MISSING_RATE", "-1"),
            ("SIM_COMMENTS_DISABLED_RATE", "1.01"),
            ("SIM_COMMENTS_DISABLED_RATE", "nan"),
        ],
    )
    def test_rates_must_lie_in_the_unit_interval(self, name, value):
        key = name.lower().replace("_", ".", 1)
        with pytest.raises(ConfigError, match=rf"{key} must lie in \[0, 1\]"):
            load_config(env={f"RECAUDIT_{name}": value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("SIM_SHARE", "none"),
            ("SIM_SHARE", "0"),
            ("SIM_TRANSCRIPT_MISSING_RATE", "1"),
        ],
    )
    def test_rates_at_the_bounds_or_unset_are_accepted(self, name, value):
        load_config(env={f"RECAUDIT_{name}": value})

    def test_topics_field_must_name_a_text_field(self):
        with pytest.raises(ConfigError, match="topics.field must be"):
            load_config(env={"RECAUDIT_TOPICS_FIELD": "title"})


class TestErrorsNameLoadableKeys:
    def test_the_checked_fields_include_the_metrics_ones(self):
        checked = {attr for attr, _, _ in _CHECKED}
        assert {"window_days", "calibration_bins", "bubble_bins", "alpha", "harvest_k"} <= checked

    @pytest.mark.parametrize("attr, raw, message", _CHECKED, ids=[attr for attr, _, _ in _CHECKED])
    def test_the_key_an_error_names_loads_from_a_file(self, tmp_path, attr, raw, message):
        key = message.split()[0]
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = {raw}\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path, env={})
        assert str(exc.value) == message
        default = getattr(PipelineConfig(), attr)
        path.write_text(f"{key} = {'none' if default is None else default}\n")
        assert getattr(load_config(path, env={}), attr) == default

    @pytest.mark.parametrize(
        "line, key",
        [
            ("harvest.k = ten", "harvest.k"),
            ("alpha = small", "alpha"),
            ("topics.use_tfidf = maybe", "topics.use_tfidf"),
        ],
    )
    def test_a_value_that_does_not_parse_names_its_line_and_key(self, tmp_path, line, key):
        path = tmp_path / "cfg.txt"
        path.write_text(f"# first\n{line}\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: {re.escape(key)}: cannot parse"):
            load_config(path, env={})

    def test_a_variable_that_does_not_parse_is_named(self):
        with pytest.raises(ConfigError, match=r"^RECAUDIT_HARVEST_K: harvest\.k: cannot parse 'ten'"):
            load_config(env={"RECAUDIT_HARVEST_K": "ten"})
