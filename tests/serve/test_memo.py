"""The wire memo: a repeated request body skips parsing and hashing.

:class:`~repro.serve.http.RequestMemo` maps ``(endpoint, body bytes)``
to the request already validated, and the request caches its own
digest.  These tests pin what makes that exact: a memo-warm answer is
byte-identical (head and body) to a memo-cold server's, rejected bodies
are never stored, the memo holds at most ``MEMO_MAX_BYTES`` of bodies,
respellings share one response-cache entry, and the cached digest is
invisible to ``==``, ``hash``, ``repr`` and pickling.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import run_async
from repro.faults.plans import pinned_chaos_plan
from repro.runtime.shard import task_fingerprint
from repro.serve import (
    HttpServer,
    ResponseCache,
    ScenarioService,
    parse_request_json,
)
from repro.serve.http import MEMO_MAX_BYTES, RequestMemo

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "run_as-designed_chaos_seed2021.json"
)


def canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def make_server(cache: ResponseCache) -> HttpServer:
    service = ScenarioService(
        workers=1, cache=cache, executor=ThreadPoolExecutor(max_workers=1)
    )
    return HttpServer(service, port=0)


async def exchange(conn, target: str, body: bytes) -> bytes:
    """One POST on a keep-alive connection; the raw response bytes."""
    reader, writer = conn
    writer.write(
        f"POST {target} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    length = int(head.split(b"Content-Length: ", 1)[1].split(b"\r\n", 1)[0])
    return head + await reader.readexactly(length)


async def with_server(cache: ResponseCache, scenario_fn):
    server = make_server(cache)
    await server.start()
    conn = await asyncio.open_connection("127.0.0.1", server.port)
    try:
        return await scenario_fn(server, conn)
    finally:
        conn[1].close()
        await server.stop()


def golden_request() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)["request"]


@pytest.mark.parametrize(
    "target, payload",
    [
        ("/v1/run", {"scenario": "owned-only", "seed": 5, "years": 0.1,
                     "report_days": 7.0}),
        ("/v1/mc", {"scenario": "owned-only", "runs": 2, "years": 0.1,
                    "report_days": 7.0}),
        ("/v1/run", None),  # the golden faulted, audited request
    ],
    ids=["run", "mc", "faulted-audited"],
)
def test_memo_warm_response_equals_memo_cold(target, payload):
    body = canonical(golden_request() if payload is None else payload)
    cache = ResponseCache()

    async def warm(server, conn):
        miss = await exchange(conn, target, body)
        hits = [await exchange(conn, target, body) for _ in range(2)]
        return miss, hits, len(server.memo)

    miss, hits, memo_entries = run_async(with_server(cache, warm))
    assert memo_entries == 1
    assert b"X-Cache: miss" in miss and b"X-Cache: hit" in hits[0]

    # A second server over the same response cache: its memo is cold,
    # so it parses and hashes this body afresh.
    async def cold(server, conn):
        assert len(server.memo) == 0
        return await exchange(conn, target, body)

    assert hits[0] == hits[1] == run_async(with_server(cache, cold))
    # The body and digest are the miss's too; only X-Cache differs.
    assert hits[0] == miss.replace(b"X-Cache: miss", b"X-Cache: hit")


def test_rejected_body_is_never_memoized():
    bodies = [
        b"\xc3",
        b"[" * 100_000,
        b"{nope",
        canonical({"scenario": "atlantis"}),
        canonical({"scenario": "owned-only", "years": -1}),
    ]

    async def scenario(server, conn):
        replies = []
        for _ in range(3):
            for body in bodies:
                replies.append(await exchange(conn, "/v1/run", body))
        return replies, len(server.memo), server.memo.bytes

    replies, entries, held = run_async(with_server(ResponseCache(), scenario))
    assert all(r.startswith(b"HTTP/1.1 400 ") for r in replies)
    # The same body gets the same 400, every time.
    n = len(bodies)
    assert replies[:n] == replies[n:2 * n] == replies[2 * n:]
    assert entries == 0 and held == 0


def test_memo_stays_within_its_byte_bound():
    memo = RequestMemo()
    bodies = []
    # A flood of distinct valid bodies totalling twice the bound.
    while sum(map(len, bodies)) < 2 * MEMO_MAX_BYTES:
        body = canonical({"scenario": "owned-only", "seed": len(bodies)})
        assert memo.parse(body, "run").seed == len(bodies)
        bodies.append(body)
        assert memo.bytes <= MEMO_MAX_BYTES
    held = [body for _endpoint, body in memo._entries]
    # Least recently used went first: the newest bodies are held, and
    # the memo is full to within one body.
    assert held == bodies[-len(held):]
    assert memo.bytes == sum(map(len, held))
    assert memo.bytes > MEMO_MAX_BYTES - len(bodies[-1])

    # A hit refreshes recency, so the next eviction takes the runner-up.
    memo.parse(held[0], "run")
    longest = canonical({"scenario": "owned-only", "seed": 10**9})
    memo.parse(longest, "run")
    assert ("run", held[0]) in memo._entries
    assert ("run", held[1]) not in memo._entries
    assert memo.bytes <= MEMO_MAX_BYTES

    # A body larger than the whole bound parses but is not retained,
    # and evicts nothing.
    before = list(memo._entries)
    oversized = canonical({"scenario": "owned-only"}) + b" " * MEMO_MAX_BYTES
    assert memo.parse(oversized, "run").scenario == "owned-only"
    assert list(memo._entries) == before


def test_memo_is_keyed_by_endpoint():
    memo = RequestMemo()
    body = canonical({"scenario": "owned-only"})
    assert memo.parse(body, "run").endpoint == "run"
    assert memo.parse(body, "mc").endpoint == "mc"
    assert len(memo) == 2 and memo.bytes == 2 * len(body)
    first = memo.parse(body, "run")
    assert memo.parse(body, "run") is first  # a repeat is the same object


def test_respellings_are_distinct_entries_sharing_one_cache_entry():
    spellings = [
        b'{"scenario":"owned-only","seed":5,"years":0.1,"report_days":7}',
        b'{"report_days":7,"years":0.1,"seed":5,"scenario":"owned-only"}',
        b'{"scenario":"owned-only","seed":5,"years":1e-1,"report_days":7.0}',
    ]

    async def scenario(server, conn):
        replies = [await exchange(conn, "/v1/run", b) for b in spellings]
        service = server.service
        return (replies, len(server.memo), len(service.cache),
                service._executions.value)

    replies, entries, cached, executions = run_async(
        with_server(ResponseCache(), scenario)
    )
    assert entries == len(spellings)  # one memo entry per spelling ...
    assert cached == 1 and executions == 1  # ... one computation
    caches = [r.split(b"X-Cache: ", 1)[1].split(b"\r\n", 1)[0] for r in replies]
    assert caches == [b"miss", b"hit", b"hit"]
    digests = {r.split(b"X-Request-Digest: ", 1)[1].split(b"\r\n", 1)[0]
               for r in replies}
    assert len(digests) == 1
    assert replies[1] == replies[2]


def test_cached_digest_is_invisible():
    body = canonical({
        "scenario": "as-designed", "seed": 7, "years": 2,
        "faults": pinned_chaos_plan().to_dict(), "audit": True,
    })
    request = parse_request_json(body, "run")
    before = (repr(request), hash(request), pickle.dumps(request))
    digest = request.digest()
    assert request.digest() is digest  # computed once
    assert (repr(request), hash(request), pickle.dumps(request)) == before
    fresh = parse_request_json(body, "run")  # no digest computed yet
    assert request == fresh and hash(request) == hash(fresh)
    copy = pickle.loads(pickle.dumps(request))
    assert copy == request and "_digest" not in vars(copy)
    assert copy.digest() == task_fingerprint(fresh) == digest

