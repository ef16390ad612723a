"""CompiledPlan serialization and the persistent plan-cache store.

The persistence invariants: a plan survives the JSON round trip exactly
(dataclass equality, bit-identical priced totals), the store tolerates
stale schema versions and damaged lines by degrading to recompilation,
and a cache constructed over a populated store starts warm.
"""

import json

import pytest

from repro.core import PrecisionPair
from repro.nn import APNNBackend, BNNBackend, InferenceEngine, LibraryBackend
from repro.nn.engine import CompiledPlan
from repro.serve import (
    STORE_SCHEMA_VERSION,
    PlanCache,
    PlanCacheStore,
    PlanKey,
)
from repro.tensorcore import RTX3090

from harness import small_alexnet

pytestmark = pytest.mark.serving

W1A2 = PrecisionPair.parse("w1a2")
SHAPE = (3, 64, 64)


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(small_alexnet(), APNNBackend(W1A2), RTX3090)


class TestPlanSerialization:
    def _roundtrip(self, plan):
        return CompiledPlan.from_dict(json.loads(json.dumps(plan.to_dict())))

    def test_roundtrip_is_equal(self, engine):
        plan = engine.compile(8, SHAPE)
        assert self._roundtrip(plan) == plan

    def test_roundtrip_prices_identically(self, engine):
        plan = engine.compile(16, SHAPE)
        restored = self._roundtrip(plan)
        assert (
            restored.price(engine.latency_model).total_us
            == plan.price(engine.latency_model).total_us
        )

    @pytest.mark.parametrize(
        "backend",
        [
            APNNBackend.mixed("w1a2", {"conv2": "w2a8"}),
            BNNBackend(),
            LibraryBackend("int8"),
            LibraryBackend("fp16"),
        ],
        ids=["mixed-apnn", "bnn", "int8", "fp16"],
    )
    def test_roundtrip_across_backends(self, backend):
        eng = InferenceEngine(small_alexnet(), backend, RTX3090)
        plan = eng.compile(4, SHAPE)
        restored = self._roundtrip(plan)
        assert restored == plan
        assert (
            restored.price(eng.latency_model).total_us
            == plan.price(eng.latency_model).total_us
        )

    def test_plan_key_roundtrip(self, engine):
        cache = PlanCache()
        key = cache.key_for(engine, 8, SHAPE)
        restored = PlanKey.from_dict(json.loads(json.dumps(key.to_dict())))
        assert restored == key
        assert hash(restored) == hash(key)


class TestStore:
    def test_roundtrip_through_cache(self, engine, tmp_path):
        writer = PlanCache(store=PlanCacheStore(tmp_path))
        totals = {b: writer.total_us(engine, b, SHAPE) for b in (1, 4, 8)}
        assert writer.stats().compiles == 3

        reader = PlanCache(store=PlanCacheStore(tmp_path))
        stats = reader.stats()
        assert stats.persisted_entries == 3
        assert len(reader) == 3
        for batch, total in totals.items():
            assert reader.total_us(engine, batch, SHAPE) == total
        stats = reader.stats()
        assert stats.compiles == 0
        assert stats.persisted_hits == 3
        assert (stats.hits, stats.misses) == (3, 0)

    def test_loaded_plan_is_equal_to_compiled(self, engine, tmp_path):
        writer = PlanCache(store=PlanCacheStore(tmp_path))
        original = writer.get(engine, 8, SHAPE)
        reader = PlanCache(store=PlanCacheStore(tmp_path))
        assert reader.get(engine, 8, SHAPE) == original

    def test_stale_schema_versions_are_skipped(self, engine, tmp_path):
        store = PlanCacheStore(tmp_path)
        writer = PlanCache(store=store)
        writer.total_us(engine, 8, SHAPE)
        record = json.loads(store.path.read_text().strip())
        record["version"] = STORE_SCHEMA_VERSION + 1
        store.path.write_text(json.dumps(record) + "\n")
        assert len(store.load()) == 0
        reader = PlanCache(store=store)
        assert reader.stats().persisted_entries == 0

    def test_damaged_lines_are_skipped(self, engine, tmp_path):
        store = PlanCacheStore(tmp_path)
        writer = PlanCache(store=store)
        writer.total_us(engine, 8, SHAPE)
        good = store.path.read_text()
        store.path.write_text(
            "not json at all\n"
            + good
            + good[: len(good) // 2]  # torn mid-record write
            + "\n"
            + json.dumps({"version": STORE_SCHEMA_VERSION}) + "\n"
        )
        entries = store.load()
        assert len(entries) == 1  # only the intact record survives

    def test_missing_file_loads_empty(self, tmp_path):
        store = PlanCacheStore(tmp_path / "never-written")
        assert store.load() == {}
        assert len(store) == 0
        assert store.recovered_lines == 0

    def test_append_on_miss_only(self, engine, tmp_path):
        store = PlanCacheStore(tmp_path)
        cache = PlanCache(store=store)
        for _ in range(5):
            cache.total_us(engine, 8, SHAPE)  # 1 miss + 4 hits
        assert len(store.path.read_text().splitlines()) == 1

    def test_truncated_trailing_line_is_recovered_and_counted(
        self, engine, tmp_path
    ):
        """The crash-during-append shape: a torn JSON prefix at the end
        of the file.  Load must keep every intact record, skip the torn
        tail, and count exactly one recovered line."""
        store = PlanCacheStore(tmp_path)
        writer = PlanCache(store=store)
        writer.total_us(engine, 4, SHAPE)
        writer.total_us(engine, 8, SHAPE)
        good = store.path.read_text()
        torn = good.splitlines()[0]
        store.path.write_text(good + torn[: len(torn) // 2] + "\n")
        assert len(store.load()) == 2
        assert store.recovered_lines == 1

    def test_recovered_line_counts_per_damage_kind(self, engine, tmp_path):
        store = PlanCacheStore(tmp_path)
        writer = PlanCache(store=store)
        writer.total_us(engine, 8, SHAPE)
        good = store.path.read_text()
        store.path.write_bytes(
            b"\xff\xfe not utf-8 \xff\n"          # undecodable bytes
            + b"[1, 2, 3]\n"                       # JSON, not an object
            + json.dumps(
                {"version": STORE_SCHEMA_VERSION, "key": {}}
            ).encode() + b"\n"                     # structurally damaged
            + good.encode()
        )
        assert len(store.load()) == 1
        assert store.recovered_lines == 3

    def test_stale_schema_is_migration_not_damage(self, engine, tmp_path):
        """A version-mismatched record is a planned migration skip; it
        must not inflate the recovery counter.  That holds for a newer
        version and for a v3 record, whose key still carried the
        calibration."""
        store = PlanCacheStore(tmp_path)
        writer = PlanCache(store=store)
        writer.total_us(engine, 8, SHAPE)
        record = json.loads(store.path.read_text().strip())
        newer = dict(record, version=STORE_SCHEMA_VERSION + 1)
        v3_key = {**record["key"], "calibration": [["mem_parallelism", 1.0]]}
        v3 = dict(record, version=3, key=v3_key)
        store.path.write_text(
            json.dumps(newer) + "\n" + json.dumps(v3) + "\n"
        )
        assert store.load() == {}
        assert store.recovered_lines == 0

    def test_recovered_count_resets_per_load(self, engine, tmp_path):
        store = PlanCacheStore(tmp_path)
        writer = PlanCache(store=store)
        writer.total_us(engine, 8, SHAPE)
        good = store.path.read_text()
        store.path.write_text(good + "torn {\n")
        assert store.recovered_lines == 0  # stamped by load(), not write
        store.load()
        assert store.recovered_lines == 1
        store.path.write_text(good)  # repaired on disk
        store.load()
        assert store.recovered_lines == 0

    def test_cache_surfaces_recovery_in_stats(self, engine, tmp_path):
        store = PlanCacheStore(tmp_path)
        writer = PlanCache(store=store)
        writer.total_us(engine, 8, SHAPE)
        with store.path.open("a") as fh:
            fh.write('{"version": 1, "key": {"model\n')
        reader = PlanCache(store=PlanCacheStore(tmp_path))
        stats = reader.stats()
        assert stats.persisted_entries == 1
        assert stats.store_recovered_lines == 1
        # The surviving record still prices identically.
        assert reader.total_us(engine, 8, SHAPE) == writer.total_us(
            engine, 8, SHAPE
        )
        assert reader.stats().compiles == 0

    def test_duplicate_keys_keep_newest(self, engine, tmp_path):
        store = PlanCacheStore(tmp_path)
        cache = PlanCache(store=store)
        cache.total_us(engine, 8, SHAPE)
        record = json.loads(store.path.read_text().strip())
        stale = dict(record, total_us=record["total_us"] + 123.0)
        store.path.write_text(
            json.dumps(stale) + "\n" + json.dumps(record) + "\n"
        )
        (_, total), = store.load().values()
        assert total == record["total_us"]
