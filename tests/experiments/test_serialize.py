"""Result/figure serialization."""

import json

import pytest

from repro.api import Session
from repro.config import scaled_config
from repro.experiments import figures
from repro.experiments.serialize import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    SchemaVersionError,
    figure_to_dict,
    figure_to_markdown,
    load_results_json,
    load_sweep,
    result_to_dict,
    results_to_json,
    sweep_to_json,
)

CFG = scaled_config(1 / 1024)


@pytest.fixture(scope="module")
def results():
    return {
        ("md5", pol): Session(CFG).run("md5", pol).experiment
        for pol in ("snuca", "rnuca", "tdnuca")
    }


class TestResultDict:
    def test_core_fields(self, results):
        d = result_to_dict(results[("md5", "tdnuca")])
        assert d["workload"] == "md5"
        assert d["policy"] == "tdnuca"
        assert d["makespan_cycles"] > 0
        assert d["llc"]["hits"] + d["llc"]["misses"] == d["llc"]["accesses"]
        assert "tdnuca_runtime" in d
        assert "isa" in d
        assert "dep_category_blocks" in d

    def test_snuca_omits_tdnuca_sections(self, results):
        d = result_to_dict(results[("md5", "snuca")])
        assert "tdnuca_runtime" not in d
        assert "isa" not in d
        assert "block_census" in d

    def test_json_safe(self, results):
        for r in results.values():
            json.dumps(result_to_dict(r))


class TestSuiteJson:
    def test_roundtrip(self, results):
        text = results_to_json(results)
        loaded = load_results_json(text)
        assert set(loaded) == set(results)
        assert (
            loaded[("md5", "tdnuca")]["makespan_cycles"]
            == results[("md5", "tdnuca")].makespan
        )

    def test_envelope_is_versioned(self, results):
        doc = json.loads(results_to_json(results))
        assert doc["schema_version"] == SCHEMA_VERSION
        assert set(doc) == {"schema_version", "runs", "failures", "sweep"}

    def test_sweep_document_carries_failures_and_meta(self, results):
        failure = {"workload": "lu", "policy": "tdnuca", "error": "Timeout"}
        text = sweep_to_json(
            {k: result_to_dict(v) for k, v in results.items()},
            [failure],
            {"seed": 3, "wall_time_s": 1.5},
        )
        doc = load_sweep(text)
        assert doc.failures == [failure]
        assert doc.meta["seed"] == 3
        assert set(doc.runs) == set(results)

    def test_malformed_key(self):
        with pytest.raises(ValueError):
            load_results_json(
                '{"schema_version": 2, "runs": {"nokey": {}}}'
            )

    def test_unversioned_input_rejected(self):
        with pytest.raises(ValueError, match="unversioned"):
            load_results_json('{"md5/snuca": {"makespan_cycles": 1}}')

    def test_wrong_version_rejected(self):
        with pytest.raises(SchemaVersionError) as info:
            load_results_json('{"schema_version": 99, "runs": {}}')
        assert info.value.found == 99
        assert info.value.expected == SCHEMA_VERSION

    def test_corrupt_input_rejected(self):
        with pytest.raises(ValueError, match="corrupt"):
            load_results_json('{"schema_version": 2, "ru')
        with pytest.raises(ValueError, match="corrupt"):
            load_results_json('[1, 2, 3]')
        with pytest.raises(ValueError, match="corrupt"):
            load_results_json('{"schema_version": 2}')
        with pytest.raises(ValueError, match="corrupt"):
            load_results_json(
                '{"schema_version": 2, "runs": {"md5/snuca": 5}}'
            )


class TestErrorsNameTheFile:
    """``load_sweep(path=...)`` must put the offending file in every
    failure message, so a broken archive in a 30-file run directory is
    identifiable from the error alone."""

    def test_schema_error_carries_path_and_versions(self):
        with pytest.raises(SchemaVersionError) as info:
            load_sweep(
                '{"schema_version": 99, "runs": {}}',
                path="results/batch-07.json",
            )
        assert info.value.found == 99
        assert info.value.path == "results/batch-07.json"
        msg = str(info.value)
        assert "results/batch-07.json" in msg
        assert "99" in msg
        assert str(SCHEMA_VERSION) in msg

    @pytest.mark.parametrize("text, needle", [
        ('{"schema_ver', "corrupt sweep JSON"),
        ("[1, 2]", "corrupt sweep JSON"),
        ('{"runs": {}}', "unversioned"),
        ('{"schema_version": 4}', "missing 'runs'"),
        ('{"schema_version": 4, "runs": {"nokey": {}}}', "malformed"),
        ('{"schema_version": 4, "runs": {"a/b": 5}}', "not an object"),
        ('{"schema_version": 4, "runs": {}, "failures": 3}', "failures"),
        ('{"schema_version": 4, "runs": {}, "sweep": 3}', "sweep"),
    ])
    def test_every_value_error_is_prefixed_with_the_path(self, text, needle):
        with pytest.raises(ValueError, match=needle) as info:
            load_sweep(text, path="broken.json")
        assert str(info.value).startswith("broken.json: ")

    def test_without_path_messages_stay_clean(self):
        with pytest.raises(ValueError) as info:
            load_sweep("[1, 2]")
        assert "None" not in str(info.value)


class TestSchemaVersions:
    """Schema 3 added optional trace/timeline sections; 4 adds the
    optional ``resumed_from_task`` preemption marker; 2 and 3 stay
    readable."""

    def test_version_4_is_current_and_2_3_supported(self):
        assert SCHEMA_VERSION == 4
        assert SUPPORTED_SCHEMA_VERSIONS == (2, 3, 4)

    @pytest.mark.parametrize("old_version", [2, 3])
    def test_older_document_still_loads(self, results, old_version):
        # An older archive is a v4 archive without the optional sections.
        doc = json.loads(results_to_json(results))
        doc["schema_version"] = old_version
        loaded = load_sweep(json.dumps(doc))
        assert set(loaded.runs) == set(results)

    def test_v4_resume_marker_round_trips(self, results):
        d = result_to_dict(results[("md5", "tdnuca")])
        d["resumed_from_task"] = 7
        text = sweep_to_json({("md5", "tdnuca"): d}, [], {"seed": 0})
        loaded = load_sweep(text)
        assert loaded.runs[("md5", "tdnuca")]["resumed_from_task"] == 7

    def test_v3_trace_sections_round_trip(self, results):
        from repro.config import scaled_config

        r = Session(scaled_config(1 / 1024)).run("md5", "tdnuca", trace=True)
        d = r.to_dict()
        assert d["trace"]["events_recorded"] > 0
        assert d["trace"]["by_kind"]["task_start"] > 0
        assert d["timeline"]["samples"]
        text = sweep_to_json({("md5", "tdnuca"): d}, [], {"seed": 0})
        loaded = load_sweep(text)
        run = loaded.runs[("md5", "tdnuca")]
        assert run["trace"] == d["trace"]
        assert run["timeline"]["sample_every"] == d["timeline"]["sample_every"]

    def test_untraced_runs_omit_the_optional_sections(self, results):
        d = result_to_dict(results[("md5", "snuca")])
        assert "trace" not in d and "timeline" not in d


class TestFigureSerialization:
    def test_figure_dict(self, results):
        fig = figures.fig8_speedup(results)
        d = figure_to_dict(fig)
        assert d["id"] == "Fig.8"
        assert "tdnuca" in d["series"]
        assert d["series"]["tdnuca"]["values"]["md5"] > 0

    def test_markdown_table(self, results):
        md = figure_to_markdown(figures.fig8_speedup(results))
        lines = md.splitlines()
        assert lines[0].startswith("**Fig.8")
        assert any(line.startswith("| md5 |") for line in lines)
        assert any("**AVG**" in line for line in lines)
        assert any("paper AVG" in line for line in lines)
