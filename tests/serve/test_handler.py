"""RequestHandler extraction tests (Issue 10, satellite 1).

The stdin loop of ``repro serve`` used to inline its dispatch body;
:class:`RequestHandler`/:func:`serve_stdin` extracted it.  The contract
is **byte identity**: the extracted loop must produce exactly the bytes
the historical inline loop produced, for the same request stream.
"""

import io
import json

from repro.core.server import ServicePool
from repro.core.service import DomdService, error_envelope
from repro.serve.handler import RequestHandler, serve_stdin


def _historical_inline_loop(service, stdin, out):
    """The pre-extraction ``repro serve`` stdin body, verbatim."""
    import contextlib

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            print(
                json.dumps(error_envelope("bad_json", f"malformed JSON: {exc}")),
                file=out,
                flush=True,
            )
            continue
        with contextlib.nullcontext():
            response = service.handle(request)
        print(json.dumps(response), file=out, flush=True)
    return 0


def _request_stream(env):
    lines = [
        json.dumps(
            {"type": "domd_query", "avail_ids": env.avail_ids[:2], "t_star": 30.0}
        ),
        "",
        "   ",
        "{broken json",
        json.dumps({"type": "teleport"}),
        json.dumps({"type": "health"}),
        json.dumps({"type": "fleet_status", "date": env.fleet_date}),
        json.dumps({"type": "domd_query", "avail_ids": [999_999], "t_star": 5.0}),
        json.dumps(["not", "an", "object"]),
    ]
    return "\n".join(lines) + "\n"


def _fresh_service(env):
    """A service over its own context — counters, drift windows and
    trace ids all start from zero, so two runs are comparable byte for
    byte."""
    from repro.data import load_dataset
    from repro.persistence import load_estimator
    from repro.runtime import ExecutionContext

    dataset = load_dataset(env.data_dir)
    estimator = load_estimator(
        env.model_path, dataset, context=ExecutionContext()
    )
    return DomdService(estimator)


class TestStdinByteIdentity:
    def test_extracted_loop_matches_historical_bytes(self, serve_env):
        stream = _request_stream(serve_env)

        expected = io.StringIO()
        _historical_inline_loop(
            _fresh_service(serve_env), io.StringIO(stream), expected
        )

        actual = io.StringIO()
        code = serve_stdin(
            RequestHandler(_fresh_service(serve_env)),
            io.StringIO(stream),
            actual,
        )
        assert code == 0
        assert actual.getvalue() == expected.getvalue()
        # Non-vacuous: ok responses AND error envelopes were produced.
        produced = [json.loads(line) for line in actual.getvalue().splitlines()]
        assert any(r.get("ok") for r in produced)
        assert any(not r.get("ok") for r in produced)

    def test_bad_json_message_is_pinned(self, serve_env):
        # The exact message format clients may have learned to parse.
        handler = RequestHandler(DomdService(serve_env.estimator))
        envelope = handler.handle_line("{nope").result()
        assert envelope["error"]["code"] == "bad_json"
        assert envelope["error"]["message"].startswith("malformed JSON: ")

    def test_blank_lines_are_skipped(self, serve_env):
        handler = RequestHandler(DomdService(serve_env.estimator))
        assert handler.handle_line("") is None
        assert handler.handle_line("   \n") is None


class TestPooledDispatch:
    def test_pooled_serve_stdin_keeps_order(self, serve_env):
        service = DomdService(serve_env.estimator)
        pool = ServicePool(service, workers=2, queue_depth=8)
        try:
            stream = "\n".join(
                json.dumps(
                    {"type": "domd_query", "avail_ids": [a], "t_star": 40.0}
                )
                for a in serve_env.avail_ids[:4]
            )
            out = io.StringIO()
            code = serve_stdin(
                RequestHandler(service, pool=pool), io.StringIO(stream), out
            )
            assert code == 0
            responses = [json.loads(line) for line in out.getvalue().splitlines()]
            assert len(responses) == 4
            # Submission order is preserved by the ordered flush.
            assert [
                r["result"][0]["avail_id"] for r in responses
            ] == serve_env.avail_ids[:4]
        finally:
            pool.close(drain=True)

    def test_nonblocking_dispatch_bounces_when_full(self, serve_env):
        service = DomdService(serve_env.estimator)
        pool = ServicePool(service, workers=1, queue_depth=1)
        try:
            handler = RequestHandler(service, pool=pool)
            futures = [
                handler.dispatch(
                    {
                        "type": "domd_query",
                        "avail_ids": serve_env.avail_ids[:3],
                        "t_star": 50.0,
                    },
                    block=False,
                )
                for _ in range(12)
            ]
            envelopes = [f.result() for f in futures]
            rejected = [
                e
                for e in envelopes
                if not e.get("ok") and e["error"]["code"] == "overloaded"
            ]
            assert all(
                e.get("ok") or e["error"]["code"] == "overloaded"
                for e in envelopes
            )
            # With a queue of one, most of the burst must bounce — and
            # every rejection is marked retryable.
            assert rejected and all(e["error"]["retryable"] for e in rejected)
        finally:
            pool.close(drain=True)
