"""Tests of the analysis service (:mod:`repro.service`).

All tests carry the ``service`` marker (registered in ``pytest.ini``);
they run in the default tier-1 suite but stay bounded: the server is
started in-process on an ephemeral loopback port, workloads are a handful
of tiny functions under the quick hybrid options, and every blocking wait
has a deadline.  The invariants under test are the service's two core
promises -- identical submissions collapse to one scheduler job, and a
served report is bit-identical to a direct cold :class:`ProjectScheduler`
run of the same sources -- plus the incremental-session frontier and the
chaos guarantee (injected request faults answer well-formed 503s, never a
hung connection, and never let a degraded run reach the cache).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.pipeline import AnalyzerConfig
from repro.project import Project, ProjectScheduler, ResultCache
from repro.resilience import FaultPlan
from repro.service import (
    AnalysisServer,
    JobQueue,
    ServiceClient,
    ServiceClientError,
    ServiceJobState,
    project_fingerprint,
    report_json,
)
from repro.testgen import HybridOptions
from repro.workloads.multi import (
    edit_call_chain_function,
    generate_call_chain_workload,
)

pytestmark = pytest.mark.service

QUICK_HYBRID = HybridOptions(plateau_patterns=20, max_random_vectors=60, seed=1)

#: a leaf<-mid<-top chain plus one standalone function: editing ``leaf``
#: must invalidate the whole chain but never ``solo``
CHAIN_V1 = {
    "main": """
int leaf(int x) { if (x > 3) { x = x - 1; } return x; }
int mid(int a) { int r; r = leaf(a); return r; }
int top(int b) { int r; r = mid(b); return r + 1; }
int solo(int c) { return c + 2; }
"""
}

#: same project with ``leaf`` edited (extra branch -> new fingerprint)
CHAIN_V2 = {
    "main": """
int leaf(int x) { if (x > 3) { x = x - 2; } return x; }
int mid(int a) { int r; r = leaf(a); return r; }
int top(int b) { int r; r = mid(b); return r + 1; }
int solo(int c) { return c + 2; }
"""
}

TINY = {"unit": "int only(int x) { if (x > 1) { x = x - 1; } return x; }"}

#: the 9-function call-chain project, and the same with ``diamond_left``
#: edited: the edit dirties it and its one transitive caller ``task_0``
CALL_CHAIN_V1 = generate_call_chain_workload(seed=2005).sources
CALL_CHAIN_V2 = edit_call_chain_function(CALL_CHAIN_V1, "diamond_left")


def quick_config(**overrides) -> AnalyzerConfig:
    options = dict(
        path_bound=2,
        hybrid=QUICK_HYBRID,
        extra_random_vectors=5,
        exhaustive_limit=None,
    )
    options.update(overrides)
    return AnalyzerConfig(**options)


@pytest.fixture()
def server(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    with AnalysisServer(config=quick_config(), cache=cache) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(server.base_url, timeout=60.0)


# ---------------------------------------------------------------------- #
# submit / poll / result roundtrip
# ---------------------------------------------------------------------- #
def test_submit_poll_result_roundtrip(server, client):
    assert client.healthz()["status"] == "ok"
    response = client.analyze(CHAIN_V1)
    assert response["state"] in ("queued", "running", "done")
    assert response["deduplicated"] is False
    assert response["progress"]["total"] == 4

    status = client.wait_for(response["job_id"], timeout=120.0)
    assert status["state"] == "done"
    assert status["progress"]["completed"] == 4
    assert set(status["progress"]["functions"]) == {
        "main:leaf", "main:mid", "main:top", "main:solo",
    }
    assert status["result"] == f"/v1/results/{status['fingerprint']}"

    code, etag, body = client.result(status["fingerprint"])
    assert code == 200
    assert etag == f'"{status["fingerprint"]}"'
    report = json.loads(body)
    assert report["totals"]["functions"] == 4
    assert report["totals"]["all_safe"] is True


def test_result_etag_conditional_get(server, client):
    response = client.analyze(TINY, wait=60)
    assert response["state"] == "done"
    fingerprint = response["fingerprint"]

    code, etag, body = client.result(fingerprint)
    assert code == 200 and body

    # unchanged content-addressed result: 304, no body
    code, etag_again, body = client.result(fingerprint, etag=etag)
    assert code == 304
    assert body == ""
    assert etag_again == etag

    # a stale/foreign tag still gets the full body
    code, _, body = client.result(fingerprint, etag='"somethingelse"')
    assert code == 200 and body


def test_not_modified_results_reach_the_metrics(server, client):
    fingerprint = client.analyze(TINY, wait=60)["fingerprint"]
    code, etag, _ = client.result(fingerprint)
    assert code == 200
    code, _, _ = client.result(fingerprint, etag=etag)
    assert code == 304
    assert "repro_service_results_not_modified_total 1" in client.metrics()


def test_unknown_job_and_result_are_404(server, client):
    with pytest.raises(ServiceClientError) as excinfo:
        client.job("job-999")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceClientError) as excinfo:
        client.result("0" * 64)
    assert excinfo.value.status == 404


def test_bad_submissions_are_permanent_errors(server, client):
    # no units -> 400
    with pytest.raises(ServiceClientError) as excinfo:
        client.analyze({})
    assert excinfo.value.status == 400
    # unknown config field -> 400
    with pytest.raises(ServiceClientError) as excinfo:
        client.analyze(TINY, config={"cost_model": "fancy"})
    assert excinfo.value.status == 400
    # unparsable source -> 422 (permanent: resubmitting can never succeed)
    with pytest.raises(ServiceClientError) as excinfo:
        client.analyze({"bad": "int f( {"})
    assert excinfo.value.status == 422


# ---------------------------------------------------------------------- #
# deduplication
# ---------------------------------------------------------------------- #
def test_duplicate_submissions_collapse_to_one_job():
    """In-flight dedup, deterministically: the worker is never started."""
    queue = JobQueue(config=quick_config())
    first, deduplicated = queue.submit(CHAIN_V1)
    assert deduplicated is False
    assert first.state is ServiceJobState.QUEUED

    second, deduplicated = queue.submit(dict(CHAIN_V1))
    assert deduplicated is True
    assert second is first
    assert first.submissions == 2
    # whitespace/comment edits share the content fingerprint -> same job
    reformatted = {"main": CHAIN_V1["main"].replace("\n", "\n\n") + "  \n"}
    third, deduplicated = queue.submit(reformatted)
    assert deduplicated is True and third is first

    # a semantic edit is new work
    other, deduplicated = queue.submit(CHAIN_V2)
    assert deduplicated is False and other is not first
    assert queue.stats()["deduplicated"] == 2


def test_concurrent_duplicate_submissions_over_http(server, client):
    responses = []
    errors = []

    def submit():
        try:
            own_client = ServiceClient(server.base_url, timeout=60.0)
            responses.append(own_client.analyze(CHAIN_V1, wait=60))
        except Exception as error:  # pragma: no cover - fail the assert below
            errors.append(error)

    threads = [threading.Thread(target=submit) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)

    assert not errors
    assert len(responses) == 4
    job_ids = {response["job_id"] for response in responses}
    assert len(job_ids) == 1, "identical submissions must share one job"
    assert all(r["state"] == "done" for r in responses)
    stats = client.stats()
    assert stats["jobs"]["submitted"] == 4
    assert stats["jobs"]["deduplicated"] == 3
    assert stats["jobs"]["completed"] == 1


# ---------------------------------------------------------------------- #
# incremental sessions
# ---------------------------------------------------------------------- #
def test_incremental_edit_reanalyses_exactly_the_frontier(server, client):
    first = client.analyze(CHAIN_V1, session="editor")
    first = client.wait_for(first["job_id"], timeout=120.0)
    assert first["state"] == "done"
    # first submission of a session has no previous fingerprints to diff
    assert "incremental" not in first

    second = client.analyze(CHAIN_V2, session="editor")
    second = client.wait_for(second["job_id"], timeout=120.0)
    assert second["state"] == "done"
    incremental = second["incremental"]
    # editing ``leaf`` dirties leaf + its transitive callers, nothing else
    assert incremental["frontier"] == ["main:leaf", "main:mid", "main:top"]
    assert incremental["reused"] == ["main:solo"]
    # the untouched function comes straight from the warm cache
    assert second["cache"]["hits"] >= 1

    # the same on the call-chain project; re-submitting the edit is then
    # served by the finished job instead of starting a new one
    client.analyze(CALL_CHAIN_V1, session="chain", wait=120)
    third = client.analyze(CALL_CHAIN_V2, session="chain", wait=120)
    assert third["state"] == "done"
    assert third["incremental"]["frontier"] == [
        "unit_0.c:diamond_left",
        "unit_0.c:task_0",
    ]
    assert len(third["incremental"]["reused"]) == 7
    assert client.analyze(CALL_CHAIN_V2, session="chain")["deduplicated"] is True
    assert client.stats()["jobs"]["completed"] == 4


def test_incremental_rerun_is_bit_identical_to_cold_run(server, client, tmp_path):
    edits = {
        "chain": (CHAIN_V1, CHAIN_V2),
        "call-chain": (CALL_CHAIN_V1, CALL_CHAIN_V2),
    }
    for session, (before, after) in edits.items():
        warm = client.analyze(before, session=session)
        client.wait_for(warm["job_id"], timeout=120.0)
        edited = client.analyze(after, session=session)
        edited = client.wait_for(edited["job_id"], timeout=120.0)
        assert edited["state"] == "done"
        _, _, served = client.result(edited["fingerprint"])

        # cold direct run of the edited sources: fresh cache, no service
        scheduler = ProjectScheduler(
            Project.from_sources(after),
            config=quick_config(),
            cache=ResultCache(tmp_path / session),
        )
        cold = scheduler.run()

        served_payloads = json.loads(served)["functions"]
        for payload in served_payloads:
            # run-provenance fields (where it ran, what trouble it survived)
            # legitimately differ between an incremental and a cold run
            for key in ("from_cache", "retries", "fault_events"):
                payload.pop(key)
        assert json.dumps(served_payloads, indent=2) == json.dumps(
            cold.function_payloads(), indent=2
        ), f"{session}: served result must be bit-identical to a cold run"


# ---------------------------------------------------------------------- #
# served JSON equals the direct scheduler artefact
# ---------------------------------------------------------------------- #
def test_served_json_matches_direct_scheduler_run(tmp_path):
    """One shared cache, service vs direct: byte-identical report JSON."""
    cache_dir = tmp_path / "shared-cache"
    with AnalysisServer(
        config=quick_config(), cache=ResultCache(cache_dir)
    ) as srv:
        client = ServiceClient(srv.base_url, timeout=60.0)
        response = client.analyze(CHAIN_V1, wait=120)
        assert response["state"] == "done"
        _, _, served = client.result(response["fingerprint"])

    # the direct run hits the same warm cache entries the service wrote,
    # so even cache hit/miss counters and execution mode agree
    scheduler = ProjectScheduler(
        Project.from_sources(CHAIN_V1),
        config=quick_config(),
        cache=ResultCache(cache_dir),
    )
    direct = scheduler.run()
    direct_text = report_json(direct)

    served_body = json.loads(served)
    direct_body = json.loads(direct_text)
    assert served_body["totals"] == direct_body["totals"]

    # the result payloads (the run-independent identity) byte-match; the
    # only legitimate differences are run-provenance fields -- the direct
    # run hits the cache entries the service just wrote (from_cache flips)
    def strip(functions):
        return json.dumps(
            [
                {
                    key: value
                    for key, value in payload.items()
                    if key not in ("from_cache", "retries", "fault_events")
                }
                for payload in functions
            ],
            indent=2,
        )

    assert strip(served_body["functions"]) == strip(direct_body["functions"])


# ---------------------------------------------------------------------- #
# fingerprints
# ---------------------------------------------------------------------- #
def test_project_fingerprint_tracks_config_and_content():
    config = quick_config()
    fingerprints = {"main:f": "aa", "main:g": "bb"}
    base = project_fingerprint(fingerprints, config)
    assert base == project_fingerprint(dict(reversed(list(fingerprints.items()))), config)
    assert base != project_fingerprint({"main:f": "aa", "main:g": "cc"}, config)
    assert base != project_fingerprint(fingerprints, quick_config(path_bound=3))


# ---------------------------------------------------------------------- #
# chaos: injected request faults
# ---------------------------------------------------------------------- #
def test_injected_request_faults_answer_clean_503(tmp_path):
    """Every request faulted: well-formed 503 + Retry-After, no hang."""
    plan = FaultPlan.from_args(["service.request:rate=1.0"], seed=11)
    cache_dir = tmp_path / "chaos-cache"
    with AnalysisServer(
        config=quick_config(), cache=ResultCache(cache_dir), fault_plan=plan
    ) as srv:
        client = ServiceClient(srv.base_url, timeout=10.0, max_retries=1)
        with pytest.raises(ServiceClientError) as excinfo:
            client.analyze(TINY)
        assert excinfo.value.status == 503
        assert client.retried == 1, "503 must carry Retry-After and be retried"
        # the fault fired before any work was enqueued: nothing was
        # analysed, nothing reached the shared cache
        assert srv.queue.stats()["submitted"] == 0
    cached = [
        path
        for path in cache_dir.rglob("*.json")
        if obs.DIAGNOSTICS_DIR not in path.parts
    ]
    assert not cached, (
        "a degraded (faulted) request must never populate the cache"
    )
    # ...but each injected 5xx leaves a flight dump in diagnostics/
    assert list((cache_dir / obs.DIAGNOSTICS_DIR).glob("flight-*.json"))


def test_partial_request_faults_recover_and_serve():
    """rate<1 chaos: the client's retry loop rides out injected 503s."""
    plan = FaultPlan.from_args(["service.request:rate=0.4"], seed=3)
    with AnalysisServer(config=quick_config(), fault_plan=plan) as srv:
        client = ServiceClient(srv.base_url, timeout=60.0, max_retries=8)
        response = client.analyze(TINY, wait=60)
        assert response["state"] == "done"
        code, _, body = client.result(response["fingerprint"])
        assert code == 200
        assert json.loads(body)["totals"]["functions"] == 1
        stats = client.stats()
        assert stats["resilience"]["injected_requests"] >= 1
        assert stats["resilience"]["fault_plan"] == ["service.request:rate=0.4"]


def test_request_faults_never_reach_the_analysis_pipeline():
    """service.request is an HTTP-layer site; the queue must filter it."""
    plan = FaultPlan.from_args(["service.request:rate=1.0"], seed=1)
    queue = JobQueue(config=quick_config(), fault_plan=plan)
    assert queue._fault_plan.is_empty


# ---------------------------------------------------------------------- #
# stats and health
# ---------------------------------------------------------------------- #
def test_stats_endpoint_reports_queue_cache_and_requests(server, client):
    client.analyze(TINY, wait=60)
    stats = client.stats()
    assert stats["jobs"]["submitted"] == 1
    assert stats["jobs"]["completed"] == 1
    assert stats["cache"]["enabled"] is True
    assert stats["cache"]["entries"] >= 1
    assert "POST analyze" in stats["requests"]["by_endpoint"]
    assert stats["requests"]["by_status"].get("200") or stats[
        "requests"
    ]["by_status"].get("202")
    assert "service.request" in stats["perf"]["timers"]

    health = client.healthz()
    assert health["status"] == "ok"
    assert health["cache_enabled"] is True
