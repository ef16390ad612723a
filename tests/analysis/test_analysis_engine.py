"""Engine-level behavior: suppression bookkeeping, pseudo-rules,
selection, parse errors, and discovery."""

import pytest

from repro.analysis import AnalysisConfig, Analyzer

from analysis_helpers import rules_of

VIOLATION = """\
import time
now = time.time()
"""


class TestSuppression:
    def test_pragma_on_the_finding_line_suppresses(self, check):
        result = check({"serve/mod.py": """\
            import time
            now = time.time()  # repro: allow-wall-clock -- fixture
        """})
        assert result.ok

    def test_pragma_on_a_different_line_does_not(self, check):
        result = check({"serve/mod.py": """\
            import time  # repro: allow-wall-clock -- wrong line
            now = time.time()
        """})
        assert rules_of(result) == ["wall-clock"]

    def test_pragma_for_a_different_rule_does_not(self, check):
        result = check({"serve/mod.py": """\
            import time
            now = time.time()  # repro: allow-bare-except -- wrong rule
        """})
        assert "wall-clock" in rules_of(result)


class TestUnknownPragma:
    def test_unknown_rule_name_is_an_error(self, check):
        result = check({"serve/mod.py": """\
            x = 1  # repro: allow-no-such-rule
        """})
        assert rules_of(result) == ["unknown-pragma"]
        assert "no-such-rule" in result.findings[0].message

    def test_malformed_token_is_an_error(self, check):
        result = check({"serve/mod.py": """\
            x = 1  # repro: wall-clock
        """})
        assert rules_of(result) == ["unknown-pragma"]

    def test_fires_even_without_strict(self, check):
        result = check({"serve/mod.py": """\
            x = 1  # repro: allow-bogus
        """}, strict=False)
        assert rules_of(result) == ["unknown-pragma"]

    def test_unknown_pragma_cannot_be_self_suppressed(self, check):
        result = check({"serve/mod.py": """\
            x = 1  # repro: allow-bogus, allow-unknown-pragma
        """})
        assert "unknown-pragma" in rules_of(result)


class TestStalePragma:
    def test_stale_pragma_reported_under_strict(self, check):
        result = check({"serve/mod.py": """\
            x = 1  # repro: allow-wall-clock -- nothing to suppress here
        """}, strict=True)
        assert rules_of(result) == ["stale-pragma"]

    def test_stale_pragma_silent_without_strict(self, check):
        result = check({"serve/mod.py": """\
            x = 1  # repro: allow-wall-clock -- nothing to suppress here
        """}, strict=False)
        assert result.ok

    def test_used_pragma_is_not_stale(self, check):
        result = check({"serve/mod.py": """\
            import time
            now = time.time()  # repro: allow-wall-clock -- fixture
        """}, strict=True)
        assert result.ok

    def test_pragma_for_unselected_rule_is_not_stale(self, check):
        # With the rule not running, the engine cannot know whether the
        # suppression is stale -- it must not guess.
        result = check({"serve/mod.py": """\
            import time
            now = time.time()  # repro: allow-wall-clock -- fixture
        """}, strict=True, select=frozenset({"bare-except"}))
        assert result.ok


class TestParseErrors:
    def test_syntax_error_becomes_a_finding(self, check):
        result = check({"serve/mod.py": "def broken(:\n"})
        assert rules_of(result) == ["parse-error"]

    def test_other_files_still_analyzed(self, check):
        result = check({
            "serve/broken.py": "def broken(:\n",
            "serve/bad.py": VIOLATION,
        })
        assert rules_of(result) == ["parse-error", "wall-clock"]


class TestSelection:
    def test_select_runs_only_named_rules(self, check):
        result = check({"serve/mod.py": """\
            import time
            now = time.time()
            try:
                pass
            except:
                pass
        """}, select=frozenset({"bare-except"}))
        assert rules_of(result) == ["bare-except"]

    def test_ignore_drops_a_rule(self, check):
        result = check({"serve/mod.py": VIOLATION},
                       ignore=frozenset({"wall-clock"}))
        assert result.ok

    def test_unknown_rule_in_select_raises(self, tmp_path):
        config = AnalysisConfig(root=tmp_path, select=frozenset({"nope"}))
        with pytest.raises(ValueError, match="nope"):
            Analyzer(config)


class TestDiscovery:
    def test_non_python_files_are_skipped(self, check):
        result = check({
            "serve/notes.txt": "time.time()",
            "serve/ok.py": "x = 1\n",
        })
        assert result.ok
        assert result.files == 1

    def test_single_file_path(self, check, tmp_path):
        check({"serve/mod.py": VIOLATION})
        config = AnalysisConfig(root=tmp_path)
        result = Analyzer(config).run([tmp_path / "serve/mod.py"])
        assert rules_of(result) == ["wall-clock"]

    def test_findings_are_sorted_and_relative(self, check):
        result = check({
            "serve/b.py": VIOLATION,
            "serve/a.py": VIOLATION,
        })
        assert [f.path for f in result.findings] == ["serve/a.py", "serve/b.py"]
