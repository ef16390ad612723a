"""Fixture tests for the exception-hygiene rules (serve/-scoped)."""

from analysis_helpers import rules_of


class TestBareExcept:
    def test_bare_except_fires(self, check):
        result = check({"serve/mod.py": """\
            def f():
                try:
                    g()
                except:
                    handle()
        """})
        assert "bare-except" in rules_of(result)

    def test_typed_except_is_clean(self, check):
        result = check({"serve/mod.py": """\
            def f():
                try:
                    g()
                except ValueError:
                    handle()
        """})
        assert result.ok

    def test_outside_serve_is_out_of_scope(self, check):
        result = check({"kernels/mod.py": """\
            def f():
                try:
                    g()
                except:
                    handle()
        """})
        assert result.ok

    def test_pragma_suppresses(self, check):
        result = check({"serve/mod.py": """\
            def f():
                try:
                    g()
                except:  # repro: allow-bare-except -- fixture
                    handle()
        """})
        assert result.ok


class TestSwallowedException:
    def test_silent_pass_body_fires(self, check):
        result = check({"serve/mod.py": """\
            def f():
                try:
                    resolve_future()
                except OSError:
                    pass
        """})
        assert rules_of(result) == ["swallowed-exception"]

    def test_broad_catch_ignoring_the_exception_fires(self, check):
        result = check({"serve/mod.py": """\
            def f():
                try:
                    read_frame()
                except Exception as exc:
                    pass
        """})
        assert rules_of(result) == ["swallowed-exception"]

    def test_broad_catch_using_the_exception_is_clean(self, check):
        result = check({"serve/mod.py": """\
            def f():
                try:
                    read_frame()
                except Exception as exc:
                    fut.set_exception(exc)
        """})
        assert result.ok

    def test_broad_catch_that_reraises_is_clean(self, check):
        result = check({"serve/mod.py": """\
            def f():
                try:
                    read_frame()
                except Exception:
                    metrics.count("torn")
                    raise
        """})
        assert result.ok

    def test_narrow_catch_with_real_handling_is_clean(self, check):
        result = check({"serve/mod.py": """\
            def f():
                try:
                    read_frame()
                except OSError:
                    metrics.count("io")
        """})
        assert result.ok

    def test_pragma_suppresses(self, check):
        result = check({"serve/mod.py": """\
            def f():
                try:
                    close_pipe()
                except OSError:  # repro: allow-swallowed-exception -- teardown
                    pass
        """})
        assert result.ok
