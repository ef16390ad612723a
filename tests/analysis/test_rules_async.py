"""Fixture tests for the async-safety rules.

``lock-held-await`` encodes the PR 3 bug shape exactly: awaiting a
compile inside ``async with self._cond`` wedged every coroutine that
needed the batcher lock.
"""

from analysis_helpers import rules_of


class TestLockHeldAwait:
    def test_await_under_condition_fires(self, check):
        result = check({"serve/mod.py": """\
            async def handler(self):
                async with self._cond:
                    plan = await self.compile_plan()
        """})
        assert rules_of(result) == ["lock-held-await"]
        assert "self._cond" in result.findings[0].message

    def test_await_under_lock_fires(self, check):
        result = check({"serve/mod.py": """\
            async def handler(self, lock):
                async with lock:
                    await do_io()
        """})
        assert rules_of(result) == ["lock-held-await"]

    def test_cond_wait_is_the_condition_protocol(self, check):
        result = check({"serve/mod.py": """\
            async def handler(self):
                async with self._cond:
                    while not self.ready:
                        await self._cond.wait()
        """})
        assert result.ok

    def test_cond_wait_for_is_exempt_too(self, check):
        result = check({"serve/mod.py": """\
            async def handler(self):
                async with self._cond:
                    await self._cond.wait_for(lambda: self.ready)
        """})
        assert result.ok

    def test_await_after_release_is_clean(self, check):
        result = check({"serve/mod.py": """\
            async def handler(self):
                async with self._cond:
                    key = self.next_key()
                plan = await self.compile_plan(key)
        """})
        assert result.ok

    def test_nested_def_inside_lock_does_not_count_as_held(self, check):
        result = check({"serve/mod.py": """\
            async def handler(self):
                async with self._cond:
                    async def later():
                        await do_io()
                    self.callback = later
        """})
        assert result.ok

    def test_non_lock_context_manager_is_clean(self, check):
        result = check({"serve/mod.py": """\
            async def handler(self, session):
                async with session:
                    await session.fetch()
        """})
        assert result.ok

    def test_pragma_suppresses(self, check):
        result = check({"serve/mod.py": """\
            async def handler(self):
                async with self._cond:
                    await self.flush()  # repro: allow-lock-held-await -- fixture
        """})
        assert result.ok


class TestBlockingAsync:
    def test_time_sleep_in_async_def_fires(self, check):
        result = check({"obs_tools/mod.py": """\
            import time
            async def f():
                time.sleep(1)
        """})
        assert rules_of(result) == ["blocking-async"]

    def test_subprocess_run_in_async_def_fires(self, check):
        result = check({"obs_tools/mod.py": """\
            import subprocess
            async def f():
                subprocess.run(["ls"])
        """})
        assert rules_of(result) == ["blocking-async"]

    def test_sync_def_is_out_of_scope(self, check):
        result = check({"obs_tools/mod.py": """\
            import time
            def f():
                time.sleep(1)
        """})
        assert result.ok

    def test_sync_helper_nested_in_async_def_is_clean(self, check):
        # The nested def runs whenever it is *called*, which the rule
        # cannot see -- only direct coroutine bodies are checked.
        result = check({"obs_tools/mod.py": """\
            import time
            async def f():
                def backoff():
                    time.sleep(1)
                return backoff
        """})
        assert result.ok

    def test_pragma_suppresses(self, check):
        result = check({"obs_tools/mod.py": """\
            import time
            async def f():
                time.sleep(1)  # repro: allow-blocking-async -- fixture
        """})
        assert result.ok


class TestUnawaitedCoroutine:
    def test_bare_local_coroutine_call_fires(self, check):
        result = check({"mod.py": """\
            async def job():
                pass
            async def main():
                job()
        """})
        assert rules_of(result) == ["unawaited-coroutine"]

    def test_awaited_call_is_clean(self, check):
        result = check({"mod.py": """\
            async def job():
                pass
            async def main():
                await job()
        """})
        assert result.ok

    def test_create_task_is_clean(self, check):
        result = check({"mod.py": """\
            import asyncio
            async def job():
                pass
            async def main():
                asyncio.create_task(job())
        """})
        assert result.ok

    def test_self_call_fires(self, check):
        result = check({"mod.py": """\
            class S:
                async def drain(self):
                    pass
                async def stop(self):
                    self.drain()
        """})
        assert rules_of(result) == ["unawaited-coroutine"]

    def test_asyncio_run_of_local_run_is_not_confused(self, check):
        # asyncio.run(run()) ends in ".run" -- must not match the local
        # ``async def run``.
        result = check({"mod.py": """\
            import asyncio
            async def run():
                pass
            def main():
                asyncio.run(run())
        """})
        assert result.ok

    def test_sync_shadow_of_async_name_is_skipped(self, check):
        # A closure helper named like an async method is ambiguous
        # without scope analysis: stay quiet.
        result = check({"mod.py": """\
            class S:
                async def submit(self, x):
                    pass
                def prewarm(self):
                    def submit(x):
                        pass
                    submit(1)
        """})
        assert result.ok

    def test_pragma_suppresses(self, check):
        result = check({"mod.py": """\
            async def job():
                pass
            async def main():
                job()  # repro: allow-unawaited-coroutine -- fixture
        """})
        assert result.ok
