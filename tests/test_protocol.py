import ast
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from mcpidg import protocol
from mcpidg.protocol import (
    METHODS,
    InvalidRequest,
    ParseError,
    RpcError,
    RpcRequest,
    RpcResponse,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    error_response,
    parse_json,
)


def decode(raw: bytes) -> RpcRequest:
    """The server's path: one JSON parse, then the shape check."""
    return decode_request(parse_json(raw))


class TestDecodeRequest:
    def test_minimal_valid_request(self):
        req = decode(b'{"jsonrpc":"2.0","id":1,"method":"tools/list"}')
        assert req == RpcRequest(method="tools/list", id=1)
        assert not req.is_notification

    def test_notification_has_no_id(self):
        req = decode(
            b'{"jsonrpc":"2.0","method":"notifications/initialized"}'
        )
        assert req.id is None
        assert req.is_notification

    def test_version_mismatch_rejected(self):
        with pytest.raises(InvalidRequest):
            decode(b'{"jsonrpc":"1.0","id":1,"method":"x"}')

    def test_version_mismatch_salvages_id(self):
        with pytest.raises(InvalidRequest) as excinfo:
            decode(b'{"jsonrpc":"1.0","id":7,"method":"x"}')
        assert excinfo.value.request_id == 7

    def test_malformed_json_is_parse_error(self):
        with pytest.raises(ParseError):
            decode(b'{"jsonrpc":')

    def test_non_utf8_is_parse_error(self):
        with pytest.raises(ParseError):
            decode(b"\xff\xfe{}")

    def test_non_object_document(self):
        with pytest.raises(InvalidRequest):
            decode(b"[1,2,3]")

    @pytest.mark.parametrize("bad_id", ["true", "1.5", "null", "[1]"])
    def test_bad_id_types(self, bad_id):
        raw = f'{{"jsonrpc":"2.0","id":{bad_id},"method":"m"}}'.encode()
        with pytest.raises(InvalidRequest):
            decode(raw)

    def test_empty_method_rejected(self):
        with pytest.raises(InvalidRequest):
            decode(b'{"jsonrpc":"2.0","id":1,"method":""}')

    def test_array_params_rejected(self):
        with pytest.raises(InvalidRequest):
            decode(b'{"jsonrpc":"2.0","id":1,"method":"m","params":[1]}')

    def test_string_id_and_object_params(self):
        req = decode(
            b'{"jsonrpc":"2.0","id":"abc","method":"tools/call","params":{"name":"x"}}'
        )
        assert req.id == "abc"
        assert req.params == {"name": "x"}


class TestEncodeResponse:
    def test_result_encoding_is_canonical(self):
        raw = encode_response(RpcResponse(id=1, result={}))
        assert raw == b'{"jsonrpc":"2.0","id":1,"result":{}}'

    def test_error_encoding(self):
        raw = encode_response(error_response(2, -32601, "method not found"))
        doc = json.loads(raw)
        assert doc == {
            "jsonrpc": "2.0",
            "id": 2,
            "error": {"code": -32601, "message": "method not found"},
        }

    def test_result_and_error_mutually_exclusive(self):
        with pytest.raises(ValueError):
            RpcResponse(id=1, result={}, error=RpcError(-1, "boom"))
        with pytest.raises(ValueError):
            RpcResponse(id=1)


class TestMethodTable:
    def test_contains_tools_call(self):
        assert "tools/call" in METHODS

    def test_excludes_out_of_scope_methods(self):
        assert "resources/read" not in METHODS

    def test_size_is_four(self):
        assert len(METHODS) == 4

    def test_exact_contents(self):
        assert METHODS == {
            "initialize",
            "notifications/initialized",
            "tools/list",
            "tools/call",
        }


# -- round-trip property: decode . encode is the identity --------------------

_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    _text,
)
_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(_text, children, max_size=3),
    ),
    max_leaves=12,
)
_ids = st.one_of(st.integers(min_value=-(2**31), max_value=2**31), _text.filter(bool))
_params = st.one_of(st.none(), st.dictionaries(_text, _json_values, max_size=4))
_methods = _text.filter(bool)

_requests = st.builds(
    RpcRequest,
    method=_methods,
    id=st.one_of(st.none(), _ids),
    params=_params,
)

_results = st.dictionaries(_text, _json_values, max_size=4)
_errors = st.builds(
    RpcError,
    code=st.integers(min_value=-33000, max_value=-31000),
    message=_text,
    data=st.one_of(st.none(), _json_values.filter(lambda v: v is not None)),
)
_responses = st.one_of(
    st.builds(lambda i, r: RpcResponse(id=i, result=r), st.one_of(st.none(), _ids), _results),
    st.builds(lambda i, e: RpcResponse(id=i, error=e), st.one_of(st.none(), _ids), _errors),
)


@given(_requests)
def test_request_round_trip(req):
    assert decode(encode_request(req)) == req


@given(_responses)
def test_response_round_trip(resp):
    assert decode_response(encode_response(resp)) == resp


@given(_json_values)
def test_encode_json_writes_the_bytes_of_compact_json_dumps(value):
    assert protocol.encode_json(value) == json.dumps(value, separators=(",", ":"))


# Strings that need escaping: quotes, backslashes, control characters,
# non-ASCII and lone surrogates.
_escaped_text = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\u2028\u00e9\U0001f600'),
        st.characters(),
        st.characters(categories=["Cs"]),
    ),
    max_size=12,
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4), st.dictionaries(_escaped_text, children, max_size=4)
    )


_any_json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.floats(allow_nan=False, allow_infinity=False), _escaped_text,
    ),
    _containers,
    max_leaves=16,
)


@given(_any_json_values)
def test_encode_json_escapes_as_the_stdlib_does(value):
    assert protocol.encode_json(value) == json.dumps(value, separators=(",", ":"))


def test_encode_json_is_shared_by_threads():
    import threading

    from mcpidg.server import INITIALIZE_RESULT

    start, results = threading.Barrier(8), []

    def encode_many():
        start.wait()
        results.extend([protocol.encode_json(INITIALIZE_RESULT) for _ in range(1000)])

    threads = [threading.Thread(target=encode_many) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8000
    assert set(results) == {json.dumps(INITIALIZE_RESULT, separators=(",", ":"))}


def test_encode_json_refuses_what_json_cannot_hold():
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        protocol.encode_json({"value": object()})
    cyclic: list = []
    cyclic.append(cyclic)
    with pytest.raises(RecursionError):
        protocol.encode_json(cyclic)


@given(_requests)
def test_notification_iff_no_id(req):
    assert req.is_notification == (req.id is None)


def test_decode_response_rejects_both_result_and_error():
    raw = b'{"jsonrpc":"2.0","id":1,"result":{},"error":{"code":-1,"message":"x"}}'
    with pytest.raises(InvalidRequest):
        decode_response(raw)


def test_decode_response_rejects_neither():
    with pytest.raises(InvalidRequest):
        decode_response(b'{"jsonrpc":"2.0","id":1}')


def test_error_codes_exported():
    assert protocol.PARSE_ERROR == -32700
    assert protocol.INVALID_REQUEST == -32600
    assert protocol.METHOD_NOT_FOUND == -32601
    assert protocol.INVALID_PARAMS == -32602
    assert protocol.INTERNAL_ERROR == -32603
    assert -32099 <= protocol.FORBIDDEN <= -32000


# -- one owner per outside format in the package --------------------------

PACKAGE = Path(protocol.__file__).resolve().parent


def _package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_protocol_is_the_only_json_decoder_in_the_package():
    decoders = {"load", "loads", "JSONDecoder"}
    found = []
    for name, tree in _package_trees():
        if name == "protocol.py":
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
                and node.attr in decoders
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "json"
                and decoders & {alias.name for alias in node.names}
            ):
                found.append(f"{name}:{node.lineno}")
    assert found == [], "decode outside JSON with protocol.parse_json"


def test_protocol_is_the_only_compact_json_encoder_in_the_package():
    found = []
    for name, tree in _package_trees():
        if name == "protocol.py":
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and node.func.attr in {"dump", "dumps"}
                # indent= marks output for people: the CLI's reports, the token store.
                and (
                    any(keyword.arg == "separators" for keyword in node.keywords)
                    or not any(keyword.arg == "indent" for keyword in node.keywords)
                )
            ) or (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
                and node.attr == "JSONEncoder"
            ):
                found.append(f"{name}:{node.lineno}")
    assert found == [], "encode compact JSON with protocol.encode_json"


def test_the_oidc_discovery_path_is_written_once():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "/.well-known/openid-configuration" in node.value
    ]
    assert len(found) == 1, found


def test_the_package_parses_as_its_oldest_declared_python():
    """pyproject.toml declares requires-python >=3.10 (best effort: grammar only)."""
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), path.name, feature_version=(3, 10))
