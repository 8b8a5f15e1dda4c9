"""JSON-RPC 2.0 message model for the MCP method subset served here.

The server dispatches exactly four methods: ``initialize``, the
``notifications/initialized`` notification, ``tools/list`` and
``tools/call``. Messages are immutable values; ``decode_*`` (requests
after ``parse_json``) and ``encode_*`` are inverses on the valid message
space. A message without an ``id`` is a notification and must never
receive an RPC reply.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Union

JSONRPC_VERSION = "2.0"

# Wire error codes. -32700..-32600 are fixed by JSON-RPC 2.0; the
# application range -32000..-32099 carries authorization outcomes.
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
FORBIDDEN = -32001

# The method names this server dispatches.
METHODS = frozenset(
    {"initialize", "notifications/initialized", "tools/list", "tools/call"}
)

RequestId = Union[int, str]


class ProtocolError(Exception):
    """Base class for message decoding failures; carries the wire code."""

    code: int = INTERNAL_ERROR


class ParseError(ProtocolError):
    """Body is not a well-formed UTF-8 JSON document (-32700)."""

    code = PARSE_ERROR


class InvalidRequest(ProtocolError):
    """Document is JSON but violates the request shape (-32600)."""

    code = INVALID_REQUEST

    def __init__(self, message: str, request_id: RequestId | None = None):
        super().__init__(message)
        # Best-effort id salvaged from the broken document so the error
        # reply can still be correlated by the client.
        self.request_id = request_id


@dataclass(frozen=True)
class RpcError:
    code: int
    message: str
    data: Any = None


@dataclass(frozen=True)
class RpcRequest:
    method: str
    id: RequestId | None = None
    params: dict[str, Any] | None = None

    @property
    def is_notification(self) -> bool:
        return self.id is None


@dataclass(frozen=True)
class RpcResponse:
    """A reply carrying exactly one of ``result`` or ``error``."""

    id: RequestId | None
    result: dict[str, Any] | None = None
    error: RpcError | None = None

    def __post_init__(self) -> None:
        if (self.result is None) == (self.error is None):
            raise ValueError("exactly one of result or error must be set")


def _valid_id(value: Any) -> bool:
    # bool is an int subclass; JSON-RPC ids are strings or numbers only.
    return isinstance(value, (int, str)) and not isinstance(value, bool)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text[:32]!r} is not a finite JSON number")
    return value


# The decoder for JSON from outside. RFC 8259 §6 has no NaN or Infinity:
# Python's json accepts both and overflows 1e400 to inf, and a document
# holding one could be echoed back as a reply that is not JSON.
_DECODER = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)


def parse_json(data: bytes) -> Any:
    """Decode one UTF-8 JSON document; raises ParseError otherwise."""
    try:
        return _DECODER.decode(data.decode("utf-8"))
    except (RecursionError, ValueError) as exc:  # too deep, too long a number, not JSON
        raise ParseError(f"malformed JSON body: {exc}") from exc


def _unencodable(value: Any) -> Any:
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


# The C encoder JSONEncoder.iterencode builds for each one-shot call of
# json.dumps(doc, separators=(",", ":")), built once. With no markers dict
# it keeps no state between calls, so every thread can share it.
_ENCODER = json.encoder.c_make_encoder(
    None, _unencodable, json.encoder.encode_basestring_ascii, None, ":", ",", False, False, True
)


def encode_json(doc: Any) -> str:
    """json.dumps(doc, separators=(",", ":")), the counterpart of parse_json.

    A value JSON cannot hold raises TypeError. A cyclic document raises
    RecursionError: with no markers, the encoder cannot see the cycle.
    """
    return "".join(_ENCODER(doc, 0))


def decode_request(doc: Any) -> RpcRequest:
    """Validate the shape of one parsed request document.

    Raises InvalidRequest for shape violations, including any protocol
    version other than "2.0".
    """
    if not isinstance(doc, dict):
        raise InvalidRequest("request must be a JSON object")

    salvaged = doc.get("id") if _valid_id(doc.get("id")) else None
    if doc.get("jsonrpc") != JSONRPC_VERSION:
        raise InvalidRequest(
            f"unsupported protocol version {doc.get('jsonrpc')!r}", salvaged
        )

    method = doc.get("method")
    if not isinstance(method, str) or not method:
        raise InvalidRequest("method must be a non-empty string", salvaged)

    request_id = None
    if "id" in doc:
        if not _valid_id(doc["id"]):
            raise InvalidRequest("id must be an integer or a string")
        request_id = doc["id"]

    params = doc.get("params")
    if params is not None and not isinstance(params, dict):
        raise InvalidRequest("params must be an object when present", salvaged)

    return RpcRequest(method=method, id=request_id, params=params)


def decode_response(data: bytes) -> RpcResponse:
    """Parse one response document (used by the client harness)."""
    doc = parse_json(data)
    if not isinstance(doc, dict) or doc.get("jsonrpc") != JSONRPC_VERSION:
        raise InvalidRequest("response must be a JSON-RPC 2.0 object")
    has_result = "result" in doc
    has_error = "error" in doc
    if has_result == has_error:
        raise InvalidRequest("response must carry exactly one of result/error")
    response_id = doc.get("id")
    if response_id is not None and not _valid_id(response_id):
        raise InvalidRequest("id must be an integer, a string, or null")
    if has_result:
        result = doc["result"]
        if not isinstance(result, dict):
            raise InvalidRequest("result must be an object")
        return RpcResponse(id=response_id, result=result)
    err = doc["error"]
    if (
        not isinstance(err, dict)
        or not isinstance(err.get("code"), int)
        or not isinstance(err.get("message"), str)
    ):
        raise InvalidRequest("error must carry integer code and string message")
    return RpcResponse(
        id=response_id,
        error=RpcError(code=err["code"], message=err["message"], data=err.get("data")),
    )


def encode_request(req: RpcRequest) -> bytes:
    doc: dict[str, Any] = {"jsonrpc": JSONRPC_VERSION}
    if req.id is not None:
        doc["id"] = req.id
    doc["method"] = req.method
    if req.params is not None:
        doc["params"] = req.params
    return encode_json(doc).encode("utf-8")


def encode_response(resp: RpcResponse) -> bytes:
    """Canonical compact encoding; round-trips through decode_response."""
    doc: dict[str, Any] = {"jsonrpc": JSONRPC_VERSION, "id": resp.id}
    if resp.result is not None:
        doc["result"] = resp.result
    else:
        assert resp.error is not None
        err: dict[str, Any] = {"code": resp.error.code, "message": resp.error.message}
        if resp.error.data is not None:
            err["data"] = resp.error.data
        doc["error"] = err
    return encode_json(doc).encode("utf-8")


def error_response(
    request_id: RequestId | None, code: int, message: str, data: Any = None
) -> RpcResponse:
    return RpcResponse(id=request_id, error=RpcError(code, message, data))
