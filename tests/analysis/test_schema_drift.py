"""Fixture tests for the schema-drift rule (metrics vs README vs baseline)."""

import json

from repro.analysis import AnalysisConfig
from repro.analysis.rules.schema import extract_schema, write_baseline

from analysis_helpers import rules_of

METRICS = """\
METRICS_SCHEMA_VERSION = 2


class ServerMetrics:
    def snapshot(self):
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "requests": self.requests,
            "batches": self.batches,
        }
"""

README = """\
# Fixture

### Metrics glossary

| counter | meaning |
|---|---|
| `requests` | total requests served |
| `batches` | total batches dispatched |
"""


def baseline(version=2, fields=("batches", "requests", "schema")):
    return json.dumps({
        "baseline_version": 1,
        "metrics_schema_version": version,
        "fields": sorted(fields),
    })


CFG = dict(
    schema_metrics="metrics.py",
    schema_readme="README.md",
    schema_baseline="baseline.json",
)


class TestSchemaDrift:
    def test_consistent_tree_is_clean(self, check):
        result = check({
            "metrics.py": METRICS,
            "README.md": README,
            "baseline.json": baseline(),
        }, **CFG)
        assert result.ok

    def test_missing_glossary_row_fires(self, check):
        result = check({
            "metrics.py": METRICS.replace(
                '"batches": self.batches,',
                '"batches": self.batches,\n            "retries": self.retries,',
            ),
            "README.md": README,
            "baseline.json": baseline(fields=("batches", "requests", "retries", "schema")),
        }, **CFG)
        assert rules_of(result) == ["schema-drift"]
        assert any("'retries'" in f.message and "glossary" in f.message
                   for f in result.findings)

    def test_substring_match_does_not_count_as_documented(self, check):
        # "total_retries" in the README must not satisfy the "retries" key.
        result = check({
            "metrics.py": METRICS.replace(
                '"batches": self.batches,',
                '"batches": self.batches,\n            "retries": self.retries,',
            ),
            "README.md": README + "| `total_retries` | nope |\n",
            "baseline.json": baseline(fields=("batches", "requests", "retries", "schema")),
        }, **CFG)
        assert any("'retries'" in f.message for f in result.findings)

    def test_field_change_without_version_bump_fires(self, check):
        result = check({
            "metrics.py": METRICS.replace(
                '"batches": self.batches,',
                '"batches": self.batches,\n            "drops": self.drops,',
            ),
            "README.md": README + "| `drops` | dropped requests |\n",
            "baseline.json": baseline(),
        }, **CFG)
        assert rules_of(result) == ["schema-drift"]
        assert any("METRICS_SCHEMA_VERSION is still 2" in f.message
                   for f in result.findings)

    def test_field_change_with_bump_asks_for_baseline_refresh(self, check):
        result = check({
            "metrics.py": METRICS.replace(
                "METRICS_SCHEMA_VERSION = 2", "METRICS_SCHEMA_VERSION = 3"
            ).replace(
                '"batches": self.batches,',
                '"batches": self.batches,\n            "drops": self.drops,',
            ),
            "README.md": README + "| `drops` | dropped requests |\n",
            "baseline.json": baseline(),
        }, **CFG)
        assert rules_of(result) == ["schema-drift"]
        assert any("--update-schema-baseline" in f.message
                   for f in result.findings)

    def test_missing_baseline_fires(self, check):
        result = check({
            "metrics.py": METRICS,
            "README.md": README,
        }, **CFG)
        assert rules_of(result) == ["schema-drift"]
        assert any("no schema baseline" in f.message for f in result.findings)

    def test_no_metrics_module_means_not_applicable(self, check):
        result = check({"other.py": "x = 1\n"}, **CFG)
        assert result.ok

    def test_update_baseline_round_trips(self, check, tmp_path):
        check({
            "metrics.py": METRICS,
            "README.md": README,
        }, **CFG)
        config = AnalysisConfig(root=tmp_path, **CFG)
        path = write_baseline(config)
        data = json.loads(path.read_text())
        assert data["metrics_schema_version"] == 2
        assert data["fields"] == ["batches", "requests", "schema"]


class TestExtractSchema:
    def test_extracts_version_and_keys(self, tmp_path):
        path = tmp_path / "metrics.py"
        path.write_text(METRICS)
        version, keys, version_line = extract_schema(path)
        assert version == 2
        assert sorted(keys) == ["batches", "requests", "schema"]
        assert version_line == 1

    def test_real_metrics_module_parses(self):
        from pathlib import Path

        version, keys, _ = extract_schema(
            Path(__file__).resolve().parents[2]
            / "src/repro/serve/metrics.py"
        )
        assert version is not None and version >= 3
        assert "requests" in keys and "schema" in keys
