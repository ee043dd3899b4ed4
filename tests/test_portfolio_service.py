"""Portfolio integration with the service layer, HTTP API and CLIs."""

from __future__ import annotations

import json

import pytest

from repro.graph.serialization import graph_to_dict
from repro.portfolio import make_policy
from repro.schedulers import registry
from repro.schedulers.registry import available_schedulers
from repro.service.api import ServiceServer
from repro.service.cli import submit_main
from repro.service.client import ServiceClient
from repro.service.executor import SchedulingExecutor, schedule_from_payload
from repro.service.store import ArtifactStore
from repro.workloads.govindarajan import govindarajan_suite


@pytest.fixture()
def loop():
    return govindarajan_suite()[0]


@pytest.fixture()
def executor(tmp_path):
    return SchedulingExecutor(ArtifactStore(tmp_path / "store"))


def portfolio_request(loop, **extra):
    return {
        "graph": graph_to_dict(loop.graph),
        "machine": "govindarajan",
        "scheduler": "portfolio",
        **extra,
    }


class TestExecutorPortfolio:
    def test_winner_not_worse_than_any_member(self, executor, loop):
        result = executor.execute_request(
            "schedule", portfolio_request(loop)
        )
        assert result["scheduler"] == "portfolio"
        envelope = executor.store.get(result["artifact"])
        assert envelope["kind"] == "portfolio"
        policy = make_policy(envelope["payload"]["policy"])
        winner_key = None
        for member in envelope["payload"]["members"]:
            if member["name"] == envelope["payload"]["winner"]:
                winner_key = policy.key(_score(member))
        for member in envelope["payload"]["members"]:
            if member["status"] == "ok":
                assert winner_key <= policy.key(_score(member))

    def test_member_artifacts_cached_under_own_keys(self, executor, loop):
        executor.execute_request("schedule", portfolio_request(loop))
        # Each completed member is now an individual-store hit.
        computed_before = executor.metrics.snapshot()["counters"][
            "schedules_computed"
        ]
        single = executor.execute_request(
            "schedule",
            {
                "graph": graph_to_dict(loop.graph),
                "machine": "govindarajan",
                "scheduler": "sms",
            },
        )
        assert single["cached"] is True
        counters = executor.metrics.snapshot()["counters"]
        assert counters["schedules_computed"] == computed_before

    def test_precomputed_member_reused_from_store(self, executor, loop):
        executor.execute_request(
            "schedule",
            {
                "graph": graph_to_dict(loop.graph),
                "machine": "govindarajan",
                "scheduler": "hrms",
            },
        )
        result = executor.execute_request(
            "schedule", portfolio_request(loop)
        )
        by_name = {m["name"]: m for m in result["members"]}
        assert by_name["hrms"]["source"] == "store"
        assert all(
            member["source"] == "raced"
            for name, member in by_name.items()
            if name != "hrms"
        )

    def test_resubmit_served_bit_identically(self, executor, loop):
        first = executor.execute_request("schedule", portfolio_request(loop))
        assert first["cached"] is False
        envelope_before = executor.store.get(first["artifact"])
        again = executor.execute_request("schedule", portfolio_request(loop))
        assert again["cached"] is True
        assert again["artifact"] == first["artifact"]
        assert executor.store.get(again["artifact"]) == envelope_before
        # The response itself (minus the cached flag) is identical too.
        first.pop("cached"), again.pop("cached")
        assert first == again

    def test_portfolio_artifact_rebuilds_winner_schedule(
        self, executor, loop
    ):
        result = executor.execute_request("schedule", portfolio_request(loop))
        payload = executor.store.get(result["artifact"])["payload"]
        schedule = schedule_from_payload(payload["schedule"], loop.graph)
        assert schedule.ii == result["ii"]
        assert schedule.stats.scheduler == payload["winner"]

    def test_distinct_policies_land_on_distinct_artifacts(
        self, executor, loop
    ):
        a = executor.execute_request("schedule", portfolio_request(loop))
        b = executor.execute_request(
            "schedule", portfolio_request(loop, policy="min_regs")
        )
        assert a["artifact"] != b["artifact"]

    def test_policy_spelling_does_not_split_the_cache(self, executor, loop):
        # "min_regs" and {"name": "min_regs"} are the same request.
        a = executor.execute_request(
            "schedule", portfolio_request(loop, policy="min_regs")
        )
        b = executor.execute_request(
            "schedule", portfolio_request(loop, policy={"name": "min_regs"})
        )
        assert b["cached"] is True
        assert a["artifact"] == b["artifact"]

    def test_bad_members_fail_deterministically(self, executor, loop):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown portfolio member"):
            executor.execute_request(
                "schedule", portfolio_request(loop, members=["quantum"])
            )

    def test_exact_member_artifact_keyed_by_time_limit(self, executor, loop):
        # A budget-limited exact member must not be served later as the
        # canonical (unlimited) spilp artifact.
        result = executor.execute_request(
            "schedule",
            portfolio_request(
                loop, members=["hrms", "spilp"], include_exact=True
            ),
        )
        envelope = executor.store.get(result["artifact"])
        spilp = [
            m for m in envelope["payload"]["members"] if m["name"] == "spilp"
        ][0]
        assert spilp["status"] == "ok"
        member_envelope = executor.store.get(spilp["artifact"])
        assert member_envelope["request"]["options"]["time_limit"] > 0
        direct = executor.execute_request(
            "schedule",
            {
                "graph": graph_to_dict(loop.graph),
                "machine": "govindarajan",
                "scheduler": "spilp",
            },
        )
        assert direct["cached"] is False
        assert direct["artifact"] != spilp["artifact"]

    def test_register_budget_shapes_portfolio_scores(self, executor, loop):
        result = executor.execute_request(
            "schedule",
            portfolio_request(loop, policy="min_regs", register_budget=1),
        )
        envelope = executor.store.get(result["artifact"])
        scores = [
            m["score"]
            for m in envelope["payload"]["members"]
            if m["status"] == "ok"
        ]
        # Every member's MaxLive exceeds one register, so the spill
        # objective must be live.
        assert all(s["spills"] == s["maxlive"] - 1 for s in scores)

    def test_suite_default_is_registry_derived(self, executor):
        result = executor.execute_request(
            "suite", {"suite": "govindarajan", "n_loops": 2}
        )
        assert tuple(result["schedulers"]) == registry.DEFAULT_BATCH_SCHEDULERS

    def test_graph_fingerprinted_once_per_request(
        self, executor, loop, monkeypatch
    ):
        import repro.service.executor as executor_module

        real = executor_module.fingerprint_digest
        calls = []

        def counting(graph):
            calls.append(graph.name)
            return real(graph)

        monkeypatch.setattr(executor_module, "fingerprint_digest", counting)
        single = {
            "graph": graph_to_dict(loop.graph),
            "machine": "govindarajan",
            "scheduler": "sms",
        }
        requests = [
            single,  # computed
            single,  # store hit
            portfolio_request(loop),  # raced, sms precomputed
            portfolio_request(loop),  # store hit
        ]
        for request in requests:
            executor.execute_request("schedule", request)
        assert len(calls) == len(requests)
        digest = real(loop.graph)
        for key in executor.store.iter_keys():
            payload = executor.store.get(key)["payload"]
            graph_part = payload.get("schedule", payload)["graph"]
            assert graph_part["digest"] == digest


def _score(member: dict):
    from repro.portfolio import ScheduleScore

    return ScheduleScore.from_dict(member["score"])


class TestSchedulersEndpoint:
    def test_catalog_matches_registry(self, tmp_path, loop):
        with ServiceServer(tmp_path / "store") as server:
            client = ServiceClient(server.url)
            catalog = client.schedulers()
            assert [e["name"] for e in catalog] == available_schedulers()
            flags = {e["name"]: e for e in catalog}
            assert flags["spilp"]["exact"] and flags["optreg"]["exact"]
            assert flags["portfolio"]["virtual"]
            assert not flags["hrms"]["exact"]
            assert client.scheduler_names() == available_schedulers()

    def test_catalog_carries_defaults(self, tmp_path):
        with ServiceServer(tmp_path / "store") as server:
            client = ServiceClient(server.url)
            body = client._call("GET", "/v1/schedulers")
            assert body["default"] == "hrms"
            assert tuple(body["batch_default"]) == (
                registry.DEFAULT_BATCH_SCHEDULERS
            )


class TestSubmitCLI:
    def test_portfolio_submit_and_store_hit(self, tmp_path, capsys):
        source = govindarajan_suite()[0]
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(graph_to_dict(source.graph)))
        with ServiceServer(tmp_path / "store") as server:
            argv = [
                str(path), "--graph", "--server", server.url,
                "--machine", "govindarajan",
                "--scheduler", "portfolio",
            ]
            assert submit_main(argv) == 0
            first = capsys.readouterr().out
            assert "winner" in first
            assert "[store hit]" not in first
            assert submit_main(argv) == 0
            again = capsys.readouterr().out
            assert "[store hit]" in again
            # Same artifact line both times: served bit-identically.
            # (The trailing "trace <id>" line is fresh per submission.)
            def artifact_line(out):
                return [
                    line for line in out.splitlines()
                    if not line.startswith("trace ")
                ][-1]

            assert artifact_line(first) == artifact_line(again)

    def test_list_schedulers(self, tmp_path, capsys):
        with ServiceServer(tmp_path / "store") as server:
            assert submit_main(
                ["--server", server.url, "--list-schedulers"]
            ) == 0
        out = capsys.readouterr().out
        assert "portfolio  [virtual]" in out
        assert "spilp  [exact]" in out

    def test_portfolio_flags_require_portfolio_scheduler(
        self, tmp_path, capsys
    ):
        path = tmp_path / "loop.json"
        path.write_text("{}")
        with pytest.raises(SystemExit):
            submit_main(
                [str(path), "--graph", "--scheduler", "hrms",
                 "--policy", "min_regs"]
            )
        err = capsys.readouterr().err
        assert "--policy" in err
        assert "only apply with --scheduler portfolio" in err

    def test_unknown_scheduler_rejected_via_catalog(self, tmp_path, capsys):
        source = govindarajan_suite()[0]
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(graph_to_dict(source.graph)))
        with ServiceServer(tmp_path / "store") as server:
            rc = submit_main(
                [str(path), "--graph", "--server", server.url,
                 "--scheduler", "quantum"]
            )
        assert rc == 1
        err = capsys.readouterr().err
        assert "server offers" in err
        assert "portfolio" in err
