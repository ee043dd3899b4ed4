"""Artifact store: content addressing, durability, runner cache backing."""

import json

import pytest

from repro.errors import ArtifactError, GraphError
from repro.experiments.stats import run_study
from repro.graph.serialization import graph_from_dict, graph_to_dict
from repro.service.store import (
    ArtifactStore,
    canonical_json,
    persistent_study_cache,
    request_key,
)
from repro.workloads.govindarajan import govindarajan_suite


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestContentAddressing:
    def test_key_is_order_insensitive(self):
        assert request_key({"a": 1, "b": 2}) == request_key({"b": 2, "a": 1})

    def test_key_distinguishes_values(self):
        assert request_key({"a": 1}) != request_key({"a": 2})

    def test_canonical_json_collapses_tuples(self):
        assert canonical_json((1, ("x", 2))) == canonical_json([1, ["x", 2]])

    def test_malformed_key_rejected(self, store):
        with pytest.raises(ArtifactError):
            store.get("../escape")


class TestPutGet:
    def test_round_trip(self, store):
        request = {"kind": "schedule", "graph": "abc"}
        key = store.key_for(request)
        store.put(key, "schedule", request, {"ii": 3})
        envelope = store.get(key)
        assert envelope["payload"] == {"ii": 3}
        assert envelope["kind"] == "schedule"
        assert envelope["key"] == key
        assert key in store

    def test_survives_reopen(self, tmp_path):
        first = ArtifactStore(tmp_path / "s")
        key = first.key_for({"x": 1})
        first.put(key, "schedule", {"x": 1}, {"ii": 9})
        second = ArtifactStore(tmp_path / "s")
        assert second.get(key)["payload"]["ii"] == 9
        assert list(second.iter_keys()) == [key]
        assert len(second) == 1

    def test_miss_and_hit_accounting(self, store):
        key = store.key_for({"x": 1})
        assert store.get(key) is None
        store.put(key, "schedule", {"x": 1}, {})
        store.get(key)
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_corrupt_file_is_a_miss(self, store):
        key = store.key_for({"x": 1})
        store.put(key, "schedule", {"x": 1}, {"ii": 1})
        store._path_for(key).write_text("{torn wr", encoding="utf-8")
        assert store.get(key) is None
        # ...and the next put heals it.
        store.put(key, "schedule", {"x": 1}, {"ii": 1})
        assert store.get(key)["payload"]["ii"] == 1

    def test_newer_schema_quarantined(self, store):
        """An envelope from a newer version is evidence of a rollback,
        not garbage: it is quarantined (kept) and the read is a miss."""
        key = store.key_for({"x": 1})
        store.put(key, "schedule", {"x": 1}, {})
        path = store._path_for(key)
        envelope = json.loads(path.read_text())
        envelope["schema"] = 99
        path.write_text(json.dumps(envelope))
        assert store.get(key) is None
        assert not path.exists()
        assert (store.root / "quarantine" / f"{key}.json").exists()
        assert store.stats().quarantined == 1


class TestQuarantine:
    """Corrupt envelopes are quarantined (kept as evidence, never
    served, never silently deleted) and the read falls through to a
    fresh compute."""

    def _put(self, store, marker="x"):
        request = {"kind": "schedule", "probe": marker}
        key = store.key_for(request)
        store.put(key, "schedule", request, {"ii": 3, "marker": marker})
        return key

    def test_truncated_envelope_quarantined(self, store):
        key = self._put(store)
        path = store._path_for(key)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        assert store.get(key) is None
        assert not path.exists()
        assert (store.root / "quarantine" / f"{key}.json").exists()
        assert store.stats().quarantined == 1

    def test_bad_integrity_digest_quarantined(self, store):
        key = self._put(store)
        path = store._path_for(key)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        # Valid JSON, valid schema — but the payload was tampered with
        # after the digest was computed.
        envelope["payload"]["ii"] = 99
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert store.get(key) is None
        assert not path.exists()
        quarantined = store.root / "quarantine" / f"{key}.json"
        assert quarantined.exists()
        # The evidence is intact: the tampered bytes, not a rewrite.
        assert json.loads(quarantined.read_text())["payload"]["ii"] == 99
        assert store.stats().quarantined == 1

    def test_quarantine_never_clobbers_earlier_evidence(self, store):
        key = self._put(store)
        path = store._path_for(key)
        path.write_text("{torn", encoding="utf-8")
        assert store.get(key) is None
        self._put(store)
        path.write_text("#junk", encoding="utf-8")
        assert store.get(key) is None
        names = sorted(
            entry.name for entry in (store.root / "quarantine").iterdir()
        )
        assert names == [f"{key}.1.json", f"{key}.json"]
        assert store.stats().quarantined == 2

    def test_pre_digest_envelope_still_verifies(self, store):
        """Envelopes written before the integrity digest existed carry
        no digest — they must keep reading cleanly, not quarantine."""
        key = self._put(store)
        path = store._path_for(key)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        del envelope["integrity"]
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert store.get(key)["payload"]["ii"] == 3
        assert store.stats().quarantined == 0

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: len(text) // 2],  # truncation
            lambda text: "#" * len(text),  # same-length junk
            lambda text: text.replace('"kind"', '"k1nd"', 1),  # bit rot
        ],
    )
    def test_corruption_falls_through_to_fresh_compute(
        self, tmp_path, gov_suite, damage
    ):
        from repro.service.executor import SchedulingExecutor

        store = ArtifactStore(tmp_path / "store")
        executor = SchedulingExecutor(store)
        request = {
            "kind": "schedule",
            "graph": graph_to_dict(gov_suite[0].graph),
            "machine": "govindarajan",
        }
        first = executor.execute_request("schedule", request)
        key = first["artifact"]
        path = store._path_for(key)
        path.write_text(
            damage(path.read_text(encoding="utf-8")), encoding="utf-8"
        )
        # The corrupt read is a miss, so the request recomputes...
        again = executor.execute_request("schedule", request)
        assert again["cached"] is False
        assert again["artifact"] == key
        assert again["ii"] == first["ii"]
        # ...the healed envelope verifies, and the evidence is kept.
        assert store.get(key)["payload"]["ii"] == first["ii"]
        assert store.stats().quarantined == 1


def _structure(study):
    """Every record's loop, MII and per-scheduler (II, MaxLive)."""
    return [
        (
            record.loop.name,
            record.mii,
            {name: (row.ii, row.maxlive) for name, row in record.rows.items()},
        )
        for record in study.records
    ]


class TestStudyCacheBacking:
    """The store backs run_study's per-loop cache."""

    def test_rows_match_serial_study(self, tmp_path, gov_machine, gov_suite):
        loops = gov_suite[:6]
        cache = persistent_study_cache(tmp_path / "s")
        study = run_study(loops=loops, machine=gov_machine, cache=cache)
        direct = run_study(loops=loops, machine=gov_machine)
        for ours, theirs in zip(study.records, direct.records):
            assert ours.mii == theirs.mii
            for name in ("hrms", "topdown"):
                assert ours.rows[name].ii == theirs.rows[name].ii
                assert ours.rows[name].maxlive == theirs.rows[name].maxlive

    def test_second_run_is_pure_reads(self, tmp_path, gov_machine):
        loops = govindarajan_suite()[:6]
        root = tmp_path / "s"
        run_study(
            loops=loops,
            machine=gov_machine,
            cache=persistent_study_cache(root),
        )
        store = ArtifactStore(root)
        study = run_study(
            loops=loops,
            machine=gov_machine,
            cache=persistent_study_cache(store),
        )
        stats = store.stats()
        assert stats.writes == 0, "warm study must not recompute rows"
        assert stats.hits >= len(loops)
        assert len(study.records) == len(loops)

    def test_torn_row_is_recomputed(self, tmp_path, gov_machine):
        loops = govindarajan_suite()[:3]
        root = tmp_path / "s"
        clean = run_study(
            loops=loops,
            machine=gov_machine,
            cache=persistent_study_cache(root),
        )
        victim = sorted((root / "objects").rglob("*.json"))[0]
        victim.write_bytes(victim.read_bytes()[:40])  # a torn write
        store = ArtifactStore(root)
        study = run_study(
            loops=loops,
            machine=gov_machine,
            cache=persistent_study_cache(store),
        )
        assert _structure(study) == _structure(clean)
        stats = store.stats()
        assert stats.quarantined == 1
        assert stats.writes == 1, "only the torn row is recomputed"


class TestGraphEnvelopeVersioning:
    """The graph JSON envelope carries a tolerant schema version."""

    def test_schema_key_written(self, gov_suite):
        data = graph_to_dict(gov_suite[0].graph)
        assert data["schema"] == 1
        assert data["format"] == 1  # historical alias kept

    def test_seed_envelope_still_loads(self, gov_suite):
        data = graph_to_dict(gov_suite[0].graph)
        del data["schema"]  # what the seed wrote
        assert graph_from_dict(data).name == gov_suite[0].graph.name

    def test_versionless_envelope_loads(self, gov_suite):
        data = graph_to_dict(gov_suite[0].graph)
        del data["schema"]
        del data["format"]
        assert len(graph_from_dict(data)) == len(gov_suite[0].graph)

    @pytest.mark.parametrize("key", ["schema", "format"])
    def test_newer_version_rejected(self, gov_suite, key):
        data = graph_to_dict(gov_suite[0].graph)
        data[key] = 2
        with pytest.raises(GraphError):
            graph_from_dict(data)


class TestShardedLayout:
    """The two-level fan-out is the only layout read or written."""

    def _write_at(self, store, key, path):
        """Plant an envelope for *key* at an arbitrary (legacy) path."""
        envelope = {
            "schema": 1,
            "kind": "schedule",
            "key": key,
            "request": {"probe": key},
            "payload": {"marker": key},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(envelope), encoding="utf-8")
        return envelope

    def test_put_writes_two_level_sharded_path(self, store):
        request = {"kind": "schedule", "probe": 1}
        key = store.key_for(request)
        store.put(key, "schedule", request, {"x": 1})
        expected = (
            store.root / "objects" / key[:2] / key[2:4] / f"{key}.json"
        )
        assert expected.exists()

    def test_iter_keys_spans_every_layout(self, store):
        sharded_request = {"layout": "sharded"}
        sharded_key = store.key_for(sharded_request)
        store.put(sharded_key, "schedule", sharded_request, {})
        one_level_key = request_key({"layout": "one-level"})
        self._write_at(
            store,
            one_level_key,
            store.root / "objects" / one_level_key[:2] / f"{one_level_key}.json",
        )
        flat_key = request_key({"layout": "flat"})
        self._write_at(
            store, flat_key, store.root / "objects" / f"{flat_key}.json"
        )
        assert set(store.iter_keys()) == {
            sharded_key, one_level_key, flat_key,
        }
        assert len(store) == 3

    def test_one_level_path_is_not_read(self, store):
        key = request_key({"layout": "one-level"})
        self._write_at(
            store, key, store.root / "objects" / key[:2] / f"{key}.json"
        )
        assert key not in store
        assert store.get(key) is None

    def test_delete_removes_sharded_file(self, store):
        request = {"layout": "doomed"}
        key = store.key_for(request)
        store.put(key, "schedule", request, {})
        assert store.delete(key) is True
        assert key not in store
        assert store.delete(key) is False

    def test_short_key_rejected(self, store):
        with pytest.raises(ArtifactError):
            store.get("abc")
