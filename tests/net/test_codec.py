"""Round-trip identity for the wire codec, over every registered type.

The codec's contract is that anything a :class:`~repro.core.process.Process`
can ``ctx.send`` round-trips bit-exactly through the wire format — under
*both* formats: the hypothesis tests below run each derived strategy
through the JSON (v1) and binary (v2) encoders, plus a cross-codec oracle
(the two decoders must agree on every value). The strategy for each
registered dataclass is derived from its field annotations, so adding a
new message type to any protocol automatically extends the property.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Message
from repro.core.values import BOTTOM
from repro.net.codec import (
    CodecError,
    FrameDecoder,
    MAX_FRAME_BYTES,
    MAX_PENDING_BYTES,
    MessageCodec,
    WIRE_VERSION,
    WIRE_VERSION_BINARY,
    WIRE_VERSION_JSON,
    default_registry,
    make_codec,
)
from repro.net.wire import ClientReply, NodeHello
from repro.protocols.twostep import OneB, Propose, TwoB
from repro.smr.kvstore import BatchRef, CommandBatch, KVCommand
from repro.smr.log import BodyRequest, Slotted, SubmitCommand

CODEC = MessageCodec()
CODEC_BINARY = MessageCodec(wire_version=WIRE_VERSION_BINARY)
CODECS = {"json": CODEC, "binary": CODEC_BINARY}
REGISTRY = CODEC.registry


# ----------------------------------------------------------------------
# Strategies keyed off field annotation strings.
# ----------------------------------------------------------------------

_ids = st.integers(min_value=0, max_value=7)
_small_int = st.integers(min_value=-3, max_value=100)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
_text = st.text(max_size=12)

# Consensus values in this repo are hashable scalars; BOTTOM marks "no value".
_value = st.one_of(st.just(BOTTOM), _small_int, _text, st.booleans())

# ``Any``-annotated payload fields (KV results/values) may carry structured
# data; keep members hashable where the container demands it.
_any_scalar = st.one_of(st.none(), st.booleans(), _small_int, _floats, _text)
_any_value = st.recursive(
    _any_scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.frozensets(st.one_of(_small_int, _text), max_size=3),
        st.dictionaries(_text, inner, max_size=3),
    ),
    max_leaves=6,
)

_instance_id = st.tuples(_ids, _small_int)
_kv_command = st.builds(
    KVCommand,
    op=st.sampled_from(["put", "get", "cas", "noop"]),
    key=_text,
    value=_any_value,
    expected=_any_value,
    command_id=_text,
)
_command_batch = st.builds(
    CommandBatch,
    commands=st.lists(_kv_command, min_size=1, max_size=3).map(tuple),
    batch_id=_text,
)
# Real digests are 64-bit, well past the one-byte small ints of ``int``.
_batch_ref = st.builds(
    BatchRef, batch_id=_text, digest=st.integers(min_value=0, max_value=2**64 - 1)
)


def _epaxos_command():
    from repro.protocols.epaxos.messages import Command

    return st.builds(
        Command,
        key=_text,
        op=st.sampled_from(["put", "get"]),
        value=_any_value,
        command_id=_text,
    )


# A Slotted frame wraps another message; a shallow inner pool is enough to
# exercise the nesting path without recursing the whole registry.
_inner_message = st.one_of(
    st.builds(Propose, value=_value),
    st.builds(TwoB, ballot=_small_int, value=_value),
    st.builds(TwoB, ballot=_small_int, value=_batch_ref),
    st.builds(BodyRequest, ref=_batch_ref),
    st.builds(SubmitCommand, command=_kv_command),
)


def _strategy_for_annotation(annotation: str) -> st.SearchStrategy:
    table = {
        "int": _small_int,
        "ProcessId": _ids,
        "float": _floats,
        "str": _text,
        "bool": st.booleans(),
        "MaybeValue": _value,
        "Any": _any_value,
        "Message": _inner_message,
        "KVCommand": _kv_command,
        "BatchRef": _batch_ref,
        "Command": _epaxos_command(),
        "Optional[Command]": st.one_of(st.none(), _epaxos_command()),
        "InstanceId": _instance_id,
        "FrozenSet[InstanceId]": st.frozensets(_instance_id, max_size=4),
        "Tuple[int, ...]": st.lists(_small_int, max_size=4).map(tuple),
        "Tuple[Tuple[int, KVCommand], ...]": st.lists(
            st.tuples(_small_int, _kv_command), max_size=3
        ).map(tuple),
        "Tuple[Tuple[int, int, KVCommand], ...]": st.lists(
            st.tuples(_small_int, _small_int, _kv_command), max_size=3
        ).map(tuple),
    }
    if annotation not in table:
        raise AssertionError(
            f"no strategy for field annotation {annotation!r}; "
            "extend the table when adding new message field types"
        )
    return table[annotation]


def _strategy_for_type(cls) -> st.SearchStrategy:
    # Classes with validated fields get purpose-built strategies.
    from repro.protocols.epaxos.messages import Command as EPaxosCommand

    if cls is EPaxosCommand:
        return _epaxos_command()
    if cls is KVCommand:
        return _kv_command
    if cls is CommandBatch:
        return _command_batch
    if cls is BatchRef:
        return _batch_ref
    fields = dataclasses.fields(cls)
    if not fields:
        return st.just(cls())
    return st.builds(
        cls,
        **{
            field.name: _strategy_for_annotation(str(field.type))
            for field in fields
        },
    )


_any_registered = st.sampled_from(REGISTRY.types()).flatmap(_strategy_for_type)


# ----------------------------------------------------------------------
# The property: encode/decode is the identity on every registered type.
# ----------------------------------------------------------------------


class TestRoundTripProperty:
    @pytest.mark.parametrize("name", sorted(CODECS))
    @settings(max_examples=300, deadline=None)
    @given(message=_any_registered)
    def test_encode_decode_identity(self, name, message):
        codec = CODECS[name]
        assert codec.decode(codec.encode(message)) == message

    @pytest.mark.parametrize("name", sorted(CODECS))
    @settings(max_examples=100, deadline=None)
    @given(message=_any_registered)
    def test_encoding_is_canonical(self, name, message):
        # Same value => same bytes (sets are serialized in sorted order).
        codec = CODECS[name]
        assert codec.encode(message) == codec.encode(
            codec.decode(codec.encode(message))
        )

    @settings(max_examples=200, deadline=None)
    @given(message=_any_registered)
    def test_cross_codec_oracle(self, message):
        # The two formats are views of the same value: decoding the binary
        # encoding must equal decoding the JSON encoding, and either codec
        # (both decode-capable up to v2) must read the other's frames.
        from_json = CODEC.decode(CODEC.encode(message))
        from_binary = CODEC_BINARY.decode(CODEC_BINARY.encode(message))
        assert from_json == from_binary == message
        assert CODEC.decode(CODEC_BINARY.encode(message)) == message
        assert CODEC_BINARY.decode(CODEC.encode(message)) == message

    @settings(max_examples=150, deadline=None)
    @given(body=st.binary(max_size=64))
    def test_malformed_binary_bytes_never_decode_garbage(self, body):
        # Arbitrary bytes under the binary version byte either happen to
        # decode (trivially possible: b"\x00" is None) or raise CodecError
        # — never any other exception, never a partial/trailing parse.
        payload = bytes((WIRE_VERSION_BINARY,)) + body
        try:
            value = CODEC_BINARY.decode_payload(payload)
        except CodecError:
            return
        # Anything accepted must re-encode canonically (full consumption
        # means it was a complete, self-consistent body).
        assert CODEC_BINARY.encode_payload(value) is not None

    @settings(max_examples=150, deadline=None)
    @given(body=st.binary(max_size=64))
    def test_malformed_json_bytes_never_decode_garbage(self, body):
        payload = bytes((WIRE_VERSION_JSON,)) + body
        try:
            CODEC.decode_payload(payload)
        except CodecError:
            return

    def test_every_registered_type_has_a_strategy(self):
        # _strategy_for_type raises for unknown annotations, so building a
        # strategy for each class proves full registry coverage.
        for cls in REGISTRY.types():
            _strategy_for_type(cls)
        assert len(REGISTRY.types()) >= 40

    def test_registry_covers_all_concrete_message_subclasses(self):
        def walk(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from walk(sub)

        registered = set(REGISTRY.types())
        from repro.core.process import ClientRequest

        for cls in walk(Message):
            if cls in (Message, ClientRequest):
                continue
            if not cls.__module__.startswith("repro."):
                continue  # test-local probe messages never travel the wire
            assert cls in registered, f"{cls.__name__} missing from wire registry"


class TestDeterministicSamples:
    def test_nested_slotted_oneb(self):
        message = Slotted(
            slot=3,
            inner=OneB(
                ballot=2,
                vbal=1,
                value="x",
                proposer=BOTTOM,
                decided=BOTTOM,
                initial_value="y",
            ),
        )
        decoded = CODEC.decode(CODEC.encode(message))
        assert decoded == message
        assert decoded.inner.decided is BOTTOM

    def test_bottom_round_trips_as_the_singleton(self):
        decoded = CODEC.decode(CODEC.encode(Propose(value=BOTTOM)))
        assert decoded.value is BOTTOM

    def test_client_reply_with_structured_result(self):
        message = ClientReply(
            request_id="c1:0",
            command_id="cmd-0",
            result={"k": [1, 2.5, None], "t": (1, "a")},
            commit_seconds=0.003,
            duplicate=True,
        )
        decoded = CODEC.decode(CODEC.encode(message))
        assert decoded == message
        assert isinstance(decoded.result["t"], tuple)


class TestFrameDecoder:
    def test_chunked_feed_reassembles_frames(self):
        frames = [
            CODEC.encode(NodeHello(pid=i)) for i in range(5)
        ] + [CODEC.encode(Propose(value="v"))]
        stream = b"".join(frames)
        decoder = FrameDecoder(CODEC)
        out = []
        for i in range(0, len(stream), 3):  # worst-case tiny chunks
            out.extend(decoder.feed(stream[i : i + 3]))
        assert out == [NodeHello(pid=i) for i in range(5)] + [Propose(value="v")]
        assert decoder.pending_bytes == 0

    def test_partial_frame_stays_buffered(self):
        frame = CODEC.encode(NodeHello(pid=1))
        decoder = FrameDecoder(CODEC)
        assert decoder.feed(frame[:-1]) == []
        assert decoder.pending_bytes == len(frame) - 1
        assert decoder.feed(frame[-1:]) == [NodeHello(pid=1)]

    def test_oversized_length_prefix_rejected(self):
        decoder = FrameDecoder(CODEC)
        with pytest.raises(CodecError, match="corrupt"):
            decoder.feed(b"\xff\xff\xff\xff")

    def test_binary_frames_interleave_with_json_frames(self):
        # Per-frame version dispatch: one stream may carry both formats
        # (a link that renegotiated, or a WAL written under two flags).
        frames = [
            CODEC.encode(NodeHello(pid=1)),
            CODEC_BINARY.encode(Propose(value="v")),
            CODEC.encode(TwoB(ballot=3, value=BOTTOM)),
        ]
        decoder = FrameDecoder(CODEC)
        out = decoder.feed(b"".join(frames))
        assert out == [NodeHello(pid=1), Propose(value="v"), TwoB(ballot=3, value=BOTTOM)]

    def test_pending_bytes_stay_bounded_for_partial_maximal_frame(self):
        # An honest-but-slow peer can buffer at most one maximal frame.
        decoder = FrameDecoder(CODEC)
        import struct

        header = struct.pack(">I", MAX_FRAME_BYTES)
        decoder.feed(header + bytes(1024))
        assert decoder.pending_bytes <= MAX_PENDING_BYTES

    def test_pending_cap_rejects_feeding_past_a_parse_error(self):
        # A caller that swallows the oversized-claim error and keeps
        # feeding must hit the pending cap, not grow the buffer forever.
        decoder = FrameDecoder(CODEC)
        with pytest.raises(CodecError, match="corrupt"):
            decoder.feed(b"\xff\xff\xff\xff" + bytes(MAX_FRAME_BYTES + 1))
        assert decoder.pending_bytes > MAX_PENDING_BYTES
        with pytest.raises(CodecError, match="buffered bytes"):
            decoder.feed(b"more")

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_decode_error_mid_burst_leaves_the_buffer_resizable(self, name):
        # The failing frame's view is still referenced by the traceback
        # when the decoder compacts; it must have been released, or the
        # bytearray raises BufferError there and on every later feed.
        codec = CODECS[name]
        good = codec.encode(NodeHello(pid=1))
        bad = bytearray(codec.encode(Propose(value="v")))
        bad[-1:] = b""
        bad[:4] = (len(bad) - 4).to_bytes(4, "big")  # complete frame, cut body
        burst = good * (70000 // len(good))  # dead prefix past the compaction mark
        decoder = FrameDecoder(codec)
        with pytest.raises(CodecError):
            decoder.feed(burst + bytes(bad))
        assert decoder.pending_bytes == len(bad)
        with pytest.raises(CodecError):
            decoder.feed(good)
        assert decoder.pending_bytes == len(bad) + len(good)


class TestErrors:
    def test_version_mismatch(self):
        frame = bytearray(CODEC.encode(NodeHello(pid=0)))
        frame[4] = 9  # far beyond any version either format knows
        with pytest.raises(CodecError, match="version"):
            CODEC.decode(bytes(frame))

    def test_v1_only_codec_rejects_binary_frames(self):
        v1_only = MessageCodec(max_wire_version=WIRE_VERSION_JSON)
        frame = CODEC_BINARY.encode(NodeHello(pid=0))
        with pytest.raises(CodecError, match="version"):
            v1_only.decode(frame)

    def test_unknown_wire_type(self):
        with pytest.raises(CodecError, match="unknown wire type"):
            CODEC.from_jsonable({"__t": "rec", "k": "NoSuchMessage", "v": {}})

    def test_rec_field_mismatch_names_the_wire_type(self):
        # Version-skew diagnosis: the error must say *which* wire type's
        # fields failed to bind, not just dump the field list.
        with pytest.raises(CodecError, match="'NodeHello'"):
            CODEC.from_jsonable(
                {"__t": "rec", "k": "NodeHello", "v": {"pid": 0, "extra": 1}}
            )

    def test_binary_unknown_type_id_names_the_id(self):
        payload = bytes((WIRE_VERSION_BINARY, 0x0B, 0xFF, 0xFF))
        with pytest.raises(CodecError, match="type id 65535"):
            CODEC.decode_payload(payload)

    def test_binary_trailing_bytes_rejected(self):
        payload = CODEC_BINARY.encode_payload(NodeHello(pid=0)) + b"\x00"
        with pytest.raises(CodecError, match="trailing"):
            CODEC.decode_payload(payload)

    def test_unregistered_python_type_rejected(self):
        class NotOnTheWire:
            pass

        with pytest.raises(CodecError, match="not registered"):
            CODEC.to_jsonable(NotOnTheWire())
        with pytest.raises(CodecError, match="not registered"):
            CODEC_BINARY.encode_payload(NotOnTheWire())

    def test_registry_collision_rejected(self):
        registry = default_registry()
        with pytest.raises(CodecError, match="already registered"):
            registry.register(KVCommand, name="NodeHello")

    def test_garbage_body_rejected(self):
        frame = CODEC.encode(NodeHello(pid=0))
        payload = bytes([WIRE_VERSION]) + b"{not json"
        with pytest.raises(CodecError, match="undecodable"):
            CODEC.decode_payload(payload)
        del frame

    def test_make_codec_names(self):
        assert make_codec("json").wire_version == WIRE_VERSION_JSON
        assert make_codec("binary").wire_version == WIRE_VERSION_BINARY
        with pytest.raises(CodecError, match="unknown codec"):
            make_codec("msgpack")


class TestBinaryFormat:
    def test_hot_messages_are_much_smaller_than_json(self):
        # The headline property the microbenchmark pins precisely: the
        # acceptance bar is >= 40% smaller on the hot SMR shapes.
        commands = tuple(
            KVCommand(op="put", key=f"key-{i}", value=f"value-{i}", command_id=f"c-{i}")
            for i in range(8)
        )
        batch = CommandBatch(commands=commands, batch_id="b-1")
        for message in (
            Slotted(slot=512, inner=Propose(value=batch)),
            Slotted(slot=512, inner=TwoB(ballot=0, value=batch)),
            ClientReply(
                request_id="r", command_id="c", result=None, commit_seconds=0.01
            ),
        ):
            json_frame = CODEC.encode(message)
            binary_frame = CODEC_BINARY.encode(message)
            assert len(binary_frame) <= 0.6 * len(json_frame), message

    def test_registry_hash_is_deterministic_and_skew_sensitive(self):
        # Codecs over equal registries agree (these two were built from
        # default_registry() at the same import); adding a type skews the
        # name table and must change the fingerprint. Registries are
        # compared same-time: other test modules define local probe
        # Message subclasses, so default_registry() drifts across a session.
        assert CODEC.registry_hash == CODEC_BINARY.registry_hash
        base = default_registry()
        skewed = default_registry()
        assert MessageCodec(base).registry_hash == MessageCodec(skewed).registry_hash
        skewed.register(KVCommand, name="ZZCodecSkewProbe")
        assert (
            MessageCodec(base).registry_hash != MessageCodec(skewed).registry_hash
        )

    def test_negotiate(self):
        binary = CODEC_BINARY
        assert binary.negotiate(2, binary.registry_hash) == WIRE_VERSION_BINARY
        assert binary.negotiate(2, "") == WIRE_VERSION_BINARY
        assert binary.negotiate(1, binary.registry_hash) == WIRE_VERSION_JSON
        assert binary.negotiate(2, "deadbeef") == WIRE_VERSION_JSON
        v1_only = MessageCodec(max_wire_version=WIRE_VERSION_JSON)
        assert v1_only.negotiate(2, v1_only.registry_hash) == WIRE_VERSION_JSON

    def test_encode_is_a_pure_function_of_the_value(self):
        # No cache sits in front of the encoder: equal messages give equal
        # frames because the bytes depend on the value alone, whichever
        # object carries it and however often it was encoded before.
        unhashable = ClientReply(
            request_id="r", command_id="c", result=[1, 2], commit_seconds=0.0
        )
        for codec in CODECS.values():
            first = codec.encode(TwoB(ballot=4, value="hot"))
            assert codec.encode(TwoB(ballot=4, value="hot")) == first
            assert codec.encode(TwoB(ballot=5, value="hot")) != first
            assert codec.decode(first) == TwoB(ballot=4, value="hot")
            # An unhashable payload is a value like any other.
            frame = codec.encode(unhashable)
            assert codec.encode(dataclasses.replace(unhashable)) == frame
            assert codec.decode(frame) == unhashable
