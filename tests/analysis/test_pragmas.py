"""Pragma grammar unit tests: ``# repro: allow-<rule> -- reason``."""

from repro.analysis.pragmas import collect_pragmas


class TestCollectPragmas:
    def test_no_pragmas(self):
        assert collect_pragmas("x = 1\ny = 2\n") == {}

    def test_plain_comment_is_not_a_pragma(self):
        assert collect_pragmas("x = 1  # not a pragma\n") == {}

    def test_single_allow(self):
        pragmas = collect_pragmas("import time  # repro: allow-wall-clock\n")
        assert pragmas[1].rules == ("wall-clock",)
        assert pragmas[1].bad_tokens == ()

    def test_reason_after_dashes_is_ignored(self):
        src = "x()  # repro: allow-wall-clock -- soak runs stamp wall time\n"
        pragmas = collect_pragmas(src)
        assert pragmas[1].rules == ("wall-clock",)
        assert pragmas[1].bad_tokens == ()

    def test_multiple_rules_comma_separated(self):
        src = "x()  # repro: allow-wall-clock, allow-unseeded-random\n"
        pragmas = collect_pragmas(src)
        assert pragmas[1].rules == ("wall-clock", "unseeded-random")

    def test_multiple_rules_space_separated(self):
        src = "x()  # repro: allow-wall-clock allow-bare-except\n"
        assert collect_pragmas(src)[1].rules == ("wall-clock", "bare-except")

    def test_malformed_token_recorded_not_dropped(self):
        src = "x()  # repro: wall-clock\n"  # missing the allow- prefix
        pragmas = collect_pragmas(src)
        assert pragmas[1].rules == ()
        assert pragmas[1].bad_tokens == ("wall-clock",)

    def test_mixed_good_and_bad_tokens(self):
        src = "x()  # repro: allow-wall-clock, nonsense\n"
        pragmas = collect_pragmas(src)
        assert pragmas[1].rules == ("wall-clock",)
        assert pragmas[1].bad_tokens == ("nonsense",)

    def test_line_is_the_physical_comment_line(self):
        src = "a = 1\nb = time.time()  # repro: allow-wall-clock\nc = 3\n"
        assert list(collect_pragmas(src)) == [2]

    def test_unreadable_source_degrades_to_no_pragmas(self):
        assert collect_pragmas("def broken(:\n") == {}
