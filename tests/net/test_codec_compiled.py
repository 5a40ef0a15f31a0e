"""The compiled v2 codec: what it must not leave behind, and what it must not move.

``repro.net.codec`` generates one decoder and one encoder per record
class, once per codec. These tests pin the reasons for
doing so rather than the speed: a decode or encode call leaves nothing
for the cycle collector, the bytes are pinned (hex literals, see
``GOLDEN``), malformed input fails
as :class:`CodecError` and nothing else, a built codec keeps its table,
and the generated code agrees with the generic writer field by field.
"""

import dataclasses
import gc
import struct

import pytest
from hypothesis import given, settings

from repro.net.codec import (
    WIRE_VERSION_BINARY,
    CodecError,
    MessageCodec,
)
from repro.net.wire import ClientReply, ClientSubmit
from repro.protocols.twostep import Decide, Propose, TwoB
from repro.smr.kvstore import BatchRef, CommandBatch, KVCommand
from repro.smr.log import Slotted
from repro.storage.records import WalDecision

from .test_codec import _any_registered

REGISTRY_HASH = "e31873aa921ca214"


def _hot_shapes():
    commands = tuple(
        KVCommand(
            op="put",
            key=f"key-{i}",
            value=f"value-{i:04d}",
            command_id=f"bench-0:cmd-{i:06d}",
        )
        for i in range(3)
    ) + (
        KVCommand(op="cas", key="kéy", value=300, expected=None, command_id="c-3"),
        KVCommand(op="get", key="key-4", command_id="c-4"),
    )
    batch = CommandBatch(commands=commands, batch_id="__batch:0:17__")
    ref = BatchRef(batch_id="__batch:0:17__", digest=0xF00DFACE12345678)
    return {
        "ClientSubmit": ClientSubmit(
            request_id="bench-0:req-000042", command=commands[0]
        ),
        "ClientReply": ClientReply(
            request_id="bench-0:req-000042",
            command_id="bench-0:cmd-000042",
            result="value-0042",
            commit_seconds=0.0025,
        ),
        "Slotted(Propose(batch))": Slotted(slot=1234, inner=Propose(value=batch)),
        "Slotted(TwoB(0, BatchRef))": Slotted(
            slot=1234, inner=TwoB(ballot=0, value=ref)
        ),
        "Slotted(Decide(BatchRef))": Slotted(slot=17, inner=Decide(value=ref)),
        "WalDecision": WalDecision(slot=1234, value=batch),
    }


_BATCH_BODY = (
    "0b000607050b0011050370757405056b65792d30050a76616c75652d30303030000512"
    "62656e63682d303a636d642d3030303030300b0011050370757405056b65792d31050a"
    "76616c75652d3030303100051262656e63682d303a636d642d3030303030310b001105"
    "0370757405056b65792d32050a76616c75652d3030303200051262656e63682d303a63"
    "6d642d3030303030320b0011050363617305046bc3a97903d804000503632d330b0011"
    "050367657405056b65792d3400000503632d34050e5f5f62617463683a303a31375f5f"
)

#: v2 payloads (version byte + body) of the hot shapes with the registry
#: of a fresh process. First recorded at fc3877a (the per-call closure
#: decoder and the field-loop encoder); re-recorded when the handshake
#: records left the registry, which moved the type id of every type
#: sorting after ``ClientHello`` down — only type-id bytes changed.
GOLDEN = {
    "ClientSubmit": (
        "020b0005051262656e63682d303a7265712d3030303034320b0011050370757405056b"
        "65792d30050a76616c75652d3030303000051262656e63682d303a636d642d30303030"
        "30300500"
    ),
    "ClientReply": (
        "020b0004051262656e63682d303a7265712d303030303432051262656e63682d303a63"
        "6d642d303030303432050a76616c75652d30303432043f647ae147ae147b020500"
    ),
    "Slotted(Propose(batch))": "020b002703a4130b0023" + _BATCH_BODY,
    "Slotted(TwoB(0, BatchRef))": (
        "020b002703a4130b002f100b0002050e5f5f62617463683a303a31375f5f03f0d9a2a3"
        "c2b3fd8de003"
    ),
    "Slotted(Decide(BatchRef))": (
        "020b0027210b00080b0002050e5f5f62617463683a303a31375f5f03f0d9a2a3c2b3fd"
        "8de003"
    ),
    "WalDecision": "020b003003a413" + _BATCH_BODY,
}


class TestNoCollectorGarbage:
    def test_hot_shapes_leave_nothing_for_the_cycle_collector(self):
        # The decoder this replaced built two closures per call, one of
        # which referred to itself, so every decode left a cycle only the
        # collector could free. With DEBUG_SAVEALL the collector parks
        # whatever it would have freed in gc.garbage: it must find nothing.
        codec = MessageCodec()
        shapes = _hot_shapes()
        payloads = {name: codec.encode_payload(m) for name, m in shapes.items()}
        for name, message in shapes.items():  # compile outside the window
            assert codec.decode_payload(payloads[name]) == message
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for name, message in shapes.items():
                view = memoryview(payloads[name])
                for _ in range(1000):
                    codec.decode_payload(view)
                    codec.encode_payload(message)
                    codec.encode(message)
            gc.collect()
            leaked = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert leaked == []


class TestGoldenBytes:
    def test_registry_hash_unchanged(self):
        assert MessageCodec().registry_hash == REGISTRY_HASH

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_payload_bytes_unchanged(self, name):
        codec = MessageCodec()
        message = _hot_shapes()[name]
        assert codec.encode_payload(message).hex() == GOLDEN[name]
        assert codec.decode_payload(bytes.fromhex(GOLDEN[name])) == message

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_every_strict_prefix_and_a_trailing_byte_raise_codec_error(self, name):
        # CodecError and nothing else: not IndexError or struct.error
        # from reading past the end, and not a string cut short by a
        # slice that silently stops at the buffer's edge.
        codec = MessageCodec()
        payload = bytes.fromhex(GOLDEN[name])
        for wrap in (bytes, bytearray, memoryview):
            for cut in range(len(payload)):
                with pytest.raises(CodecError):
                    codec.decode_payload(wrap(payload[:cut]))
            with pytest.raises(CodecError, match="trailing"):
                codec.decode_payload(wrap(payload + b"\x00"))


@dataclasses.dataclass(frozen=True)
class _LateProbe:
    label: str
    count: int = 0


class TestRegistryGeneration:
    def test_a_later_register_leaves_an_existing_codec_unchanged(self):
        codec = MessageCodec()
        message = ClientSubmit(
            request_id="r", command=KVCommand(op="get", key="k", command_id="c")
        )
        before = codec.encode_payload(message)
        registry_hash = codec.registry_hash
        # "AAA..." sorts first: a codec built from here on numbers every
        # existing type one higher. The one already built keeps its table.
        codec.registry.register(_LateProbe, name="AAALateProbe")
        assert codec.registry_hash == registry_hash
        assert codec.encode_payload(message) == before
        assert codec.decode_payload(before) == message
        probe = _LateProbe(label="x", count=7)
        with pytest.raises(CodecError, match="not registered"):
            codec.encode_payload(probe)

        rebuilt = MessageCodec(codec.registry)
        assert rebuilt.registry_hash != registry_hash
        after = rebuilt.encode_payload(message)
        assert after[2:4] == struct.pack(">H", struct.unpack(">H", before[2:4])[0] + 1)
        payload = rebuilt.encode_payload(probe)
        assert payload[:4] == bytes((WIRE_VERSION_BINARY, 0x0B, 0, 0))
        assert rebuilt.decode_payload(payload) == probe

    def test_post_init_failure_names_wire_type_and_id(self):
        codec = MessageCodec()
        good = codec.encode_payload(KVCommand(op="put", key="k", command_id="c"))
        assert good.count(b"\x05\x03put") == 1
        bad = good.replace(b"\x05\x03put", b"\x05\x05bogus")
        type_id = codec.registry.names().index("KVCommand")
        with pytest.raises(
            CodecError, match=rf"wire type 'KVCommand', id {type_id}\): unknown op 'bogus'"
        ):
            codec.decode_payload(bad)


class TestCompiledAgreesWithGeneric:
    """The generated per-class code against the generic reader/writer.

    ``encode_payload`` of a bare scalar or container goes through the
    generic writer alone, so a record's bytes can be rebuilt from the
    outside — header, then each field value encoded on its own — and
    compared with what the class's generated encoder wrote; decoding
    each field's bytes on its own does the same for the decoder.
    """

    CODEC = MessageCodec()

    @settings(max_examples=400, deadline=None)
    @given(message=_any_registered)
    def test_record_bytes_are_header_plus_generic_fields(self, message):
        codec = self.CODEC
        type_id = codec.registry.names().index(codec.registry.name_of(type(message)))
        values = [getattr(message, f.name) for f in dataclasses.fields(message)]
        parts = [codec.encode_payload(value)[1:] for value in values]
        header = bytes((WIRE_VERSION_BINARY, 0x0B)) + struct.pack(">H", type_id)
        payload = codec.encode_payload(message)
        assert payload == header + b"".join(parts)
        decoded = codec.decode_payload(payload)
        assert decoded == message
        for field, part in zip(dataclasses.fields(message), parts):
            generic = codec.decode_payload(bytes((WIRE_VERSION_BINARY,)) + part)
            assert getattr(decoded, field.name) == generic

    def test_long_strings_and_big_ints_take_the_generic_path(self):
        # Just past each inline fast path: a 128-byte string needs a
        # two-byte varint, 240 no longer fits the small-int tag.
        codec = self.CODEC
        for key, digest in (("k" * 127, 239), ("k" * 128, 240), ("é" * 64, -1)):
            command = KVCommand(op="put", key=key, value=digest, command_id="c")
            assert codec.decode_payload(codec.encode_payload(command)) == command
            ref = BatchRef(batch_id=key, digest=digest)
            assert codec.decode_payload(codec.encode_payload(ref)) == ref
