"""Fixture tests for the determinism rules: wall-clock, unseeded-random.

Every rule gets the same trio: a violating snippet (fires), a clean
snippet (silent), and the violating snippet with a pragma (suppressed).
"""

from analysis_helpers import rules_of


class TestWallClock:
    def test_time_time_fires(self, check):
        result = check({"serve/mod.py": """\
            import time
            now = time.time()
        """})
        assert rules_of(result) == ["wall-clock"]
        assert result.findings[0].line == 2

    def test_aliased_import_still_fires(self, check):
        result = check({"serve/mod.py": """\
            import time as t
            t.sleep(1.0)
        """})
        assert rules_of(result) == ["wall-clock"]

    def test_from_import_still_fires(self, check):
        result = check({"serve/mod.py": """\
            from time import sleep
            sleep(0.5)
        """})
        assert rules_of(result) == ["wall-clock"]

    def test_datetime_now_fires(self, check):
        result = check({"serve/mod.py": """\
            import datetime
            stamp = datetime.datetime.now()
        """})
        assert rules_of(result) == ["wall-clock"]

    def test_nonzero_asyncio_sleep_fires(self, check):
        result = check({"serve/mod.py": """\
            import asyncio
            async def f():
                await asyncio.sleep(0.1)
        """})
        assert rules_of(result) == ["wall-clock"]

    def test_asyncio_sleep_zero_is_a_sanctioned_yield(self, check):
        result = check({"serve/mod.py": """\
            import asyncio
            async def f():
                await asyncio.sleep(0)
        """})
        assert result.ok

    def test_perf_counter_is_sanctioned(self, check):
        result = check({"serve/mod.py": """\
            import time
            t0 = time.perf_counter()
        """})
        assert result.ok

    def test_outside_serve_scope_is_silent(self, check):
        result = check({"kernels/mod.py": """\
            import time
            now = time.time()
        """})
        assert result.ok

    def test_obs_track_is_allowlisted(self, check):
        result = check({"src/repro/obs/serve/exporter.py": """\
            import time
            now = time.time()
        """})
        assert result.ok

    def test_pragma_suppresses(self, check):
        result = check({"serve/mod.py": """\
            import time
            now = time.time()  # repro: allow-wall-clock -- test fixture
        """})
        assert result.ok


class TestUnseededRandom:
    def test_global_random_fires(self, check):
        result = check({"serve/mod.py": """\
            import random
            jitter = random.random()
        """})
        assert rules_of(result) == ["unseeded-random"]

    def test_unseeded_random_instance_fires(self, check):
        result = check({"serve/mod.py": """\
            import random
            rng = random.Random()
        """})
        assert rules_of(result) == ["unseeded-random"]

    def test_seeded_random_instance_is_clean(self, check):
        result = check({"serve/mod.py": """\
            import random
            rng = random.Random(42)
            pick = rng.random()
        """})
        assert result.ok

    def test_numpy_global_fires(self, check):
        result = check({"serve/mod.py": """\
            import numpy as np
            noise = np.random.rand(3)
        """})
        assert rules_of(result) == ["unseeded-random"]

    def test_seeded_default_rng_is_clean(self, check):
        result = check({"serve/mod.py": """\
            import numpy as np
            rng = np.random.default_rng(7)
        """})
        assert result.ok

    def test_unseeded_default_rng_fires(self, check):
        result = check({"serve/mod.py": """\
            import numpy as np
            rng = np.random.default_rng()
        """})
        assert rules_of(result) == ["unseeded-random"]

    def test_pragma_suppresses(self, check):
        result = check({"serve/mod.py": """\
            import random
            jitter = random.random()  # repro: allow-unseeded-random -- fixture
        """})
        assert result.ok
