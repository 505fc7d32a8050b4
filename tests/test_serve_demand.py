"""The ``/route`` input boundary: every bad request gets one clean 4xx/5xx.

Demand that is not a list or mapping of JSON numbers, and request
framing the server does not speak, must each get exactly one
well-formed response. Such a request must consume no horizon step and
must leave the ``/stats`` buckets reconciled. The server must also load
the native kernel before it answers at all.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, scenarios
from repro.serve import RoutingServer, ServerConfig
from repro.serve.server import _HttpError

SCENARIO = "serve-smoke"

BAD_DEMAND = {
    "string value": {"CA": "abc"},
    "numeric string value": {"CA": "1.5"},
    "bool value": {"CA": True},
    "null value": {"CA": None},
    "nested mapping value": {"CA": {"x": 1}},
    "nested list value": {"CA": [1.0]},
    "huge integer": {"CA": 10**400},
    "list of strings": "strings",
    "list with a bool": "bool",
    "nested list": "nested",
}


def _demand(kind, n_states: int):
    if not isinstance(kind, str):
        return kind
    row: list = [1.0] * n_states
    if kind == "strings":
        row = ["x"] * n_states
    elif kind == "bool":
        row[3] = False
    elif kind == "nested":
        row = [[1.0, 2.0]] * n_states
    return row


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, dict, dict]:
    # Bounded: a dropped or stalled connection must fail, not hang.
    head = (await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 10)).decode("latin-1")
    status_line, *lines = head.rstrip("\r\n").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await asyncio.wait_for(reader.readexactly(int(headers["content-length"])), 10)
    return int(status_line.split(" ")[1]), headers, json.loads(body)


def _request(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


def _serve(drive):
    async def runner():
        session = scenarios.open_session(scenarios.get(SCENARIO), n_steps=4)
        server = RoutingServer(
            session, ServerConfig(host="127.0.0.1", port=0, scenario=SCENARIO)
        )
        await server.start()
        try:
            return await drive(server)
        finally:
            await server.stop()

    return asyncio.run(runner())


def _reconciled(stats: dict) -> bool:
    return stats["requests_total"] == (
        stats["batch_rows_total"]
        + stats["rejected_total"]
        + stats["rejected_backpressure_total"]
        + stats["errors_total"]
        + stats["cancelled_total"]
    )


def test_bad_demand_gets_one_400_and_burns_no_step():
    async def drive(server):
        n_states = len(server.session.state_codes)
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        out = {}
        try:
            for name, kind in BAD_DEMAND.items():
                body = json.dumps({"demand": _demand(kind, n_states)}).encode()
                # The keep-alive connection must stay framed: the bad
                # request's single response, then the /stats answer.
                writer.write(_request("POST", "/route", body) + _request("GET", "/stats"))
                await writer.drain()
                out[name] = (await _read_response(reader), await _read_response(reader))
        finally:
            writer.close()
        return out

    for name, ((status, headers, payload), (stats_status, _, stats)) in _serve(drive).items():
        assert status == 400, (name, payload)
        assert "error" in payload and headers["connection"] == "keep-alive", name
        assert stats_status == 200, name
        assert stats["steps_fed"] == 0 and stats["requests_total"] == 0, name
        assert stats["errors_total"] == 0 and _reconciled(stats), name


def test_chunked_body_is_refused_with_501_and_closed():
    async def drive(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            writer.write(
                b"POST /route HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n"
            )
            await writer.drain()
            response = await _read_response(reader)
            trailing = await asyncio.wait_for(reader.read(), 10)
        finally:
            writer.close()
        return response, trailing, server.session.steps_fed, server.batcher.stats

    (status, headers, payload), trailing, steps_fed, stats = _serve(drive)
    assert status == 501 and "Transfer-Encoding" in payload["error"]
    assert headers["connection"] == "close"
    assert trailing == b""  # exactly one response, then the close
    assert steps_fed == 0 and stats.requests_total == 0


def test_good_demand_still_routes_after_bad_requests():
    async def drive(server):
        n_states = len(server.session.state_codes)
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            bad = json.dumps({"demand": {"CA": "abc"}}).encode()
            good = json.dumps({"demand": [100] * n_states}).encode()  # JSON ints are numbers
            writer.write(_request("POST", "/route", bad) + _request("POST", "/route", good))
            await writer.drain()
            return await _read_response(reader), await _read_response(reader)
        finally:
            writer.close()

    (bad_status, _, _), (good_status, _, payload) = _serve(drive)
    assert bad_status == 400
    assert good_status == 200 and payload["step"] == 0


def test_server_loads_the_kernel_before_listening(monkeypatch):
    monkeypatch.setattr(kernels, "_loaded", None)

    async def drive(server):
        return kernels._loaded

    assert _serve(drive) is not None


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=6,
)


class _Session:
    state_codes = ("CA", "NY", "TX")


def _parser():
    server = RoutingServer.__new__(RoutingServer)
    server.session = _Session()
    return server._parse_demand


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        json_values,
        st.lists(json_values, min_size=3, max_size=3),
        st.dictionaries(st.sampled_from(_Session.state_codes), json_values),
    )
)
def test_parse_demand_accepts_numbers_or_raises_400(raw):
    try:
        row = _parser()(raw)
    except _HttpError as exc:
        assert exc.status == 400
        return
    assert row.shape == (3,) and row.dtype == np.float64
    assert np.all(np.isfinite(row)) and np.all(row >= 0)


@pytest.mark.parametrize("raw", [[1, 2.5, 0], {"NY": 3}, {"CA": 0.0, "TX": 7}])
def test_parse_demand_keeps_valid_shapes(raw):
    row = _parser()(raw)
    assert row.shape == (3,) and np.all(row >= 0)
