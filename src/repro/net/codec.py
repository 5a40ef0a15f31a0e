"""Wire codec: length-prefixed frames in two negotiable body formats.

The live runtime (:mod:`repro.net.node`) moves the *same* frozen message
dataclasses the simulator delivers in memory — ``Propose``, ``TwoB``,
``Slotted(inner=...)``, EPaxos ``PreAccept`` and friends — across real TCP
connections. The codec is therefore defined over the repo's whole message
vocabulary, not a parallel set of DTOs: anything a :class:`Process` can
``ctx.send`` must round-trip bit-exactly, including ``BOTTOM``, tuples,
frozensets, and nested messages.

Frame layout
------------

Every frame, in either format, is::

    +-------------------+---------+----------------------+
    | length  (4B, BE)  | version |        body          |
    +-------------------+---------+----------------------+

``length`` counts the version byte plus the body. The version byte names
the body format, so a decoder never needs out-of-band state to read a
frame — negotiation (below) only governs what a sender *writes*.

Version 1 — JSON (debug/compat default)
~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~

The body is JSON with a small tagging scheme for the Python shapes JSON
cannot express natively:

========================  ==========================================
Python value              encoding
========================  ==========================================
``None/bool/int/float``   native JSON
``str``                   native JSON
``BOTTOM``                ``{"__t": "bot"}``
``tuple``                 ``{"__t": "tup", "v": [...]}``
``frozenset``/``set``     ``{"__t": "fset", "v": [...]}`` (sorted)
``list``                  ``{"__t": "list", "v": [...]}``
``dict``                  ``{"__t": "map", "v": [[k, v], ...]}``
registered dataclass      ``{"__t": "rec", "k": name, "v": {...}}``
========================  ==========================================

Version 2 — binary (the fast path)
~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~

A compact tag-prefixed encoding, roughly half the bytes and none of the
intermediate tagged-tree allocation of the JSON path:

=================  =====================================================
tag byte           value
=================  =====================================================
``0x00``           ``None``
``0x01``/``0x02``  ``True`` / ``False``
``0x03``           int: zigzag varint
``0x04``           float: 8-byte IEEE-754 big-endian
``0x05``           str: varint byte length + UTF-8
``0x06``           ``BOTTOM``
``0x07``           tuple: varint count + items
``0x08``           frozenset: varint count + items (canonical order)
``0x09``           list: varint count + items
``0x0A``           dict: varint count + key/value pairs
``0x0B``           registered dataclass: u16 type id + field values
``0x10``-``0xFF``  small int ``tag - 0x10`` (0..239) in one byte
=================  =====================================================

Record fields travel *positionally* in dataclass field order; the u16
type id comes from a deterministic table — registry names sorted, then
numbered — so both ends derive the same ids without exchanging them.
The Hello handshake carries a hash of that table
(:attr:`MessageCodec.registry_hash`) and negotiation falls back to JSON
when the hashes differ, so registry skew degrades to the name-keyed
format instead of decoding garbage. A decoded body must consume the
payload exactly; trailing bytes, truncated varints, and unknown tags or
type ids all raise :class:`CodecError`.

In both formats, sets are serialized in a canonical order (v1: sorted by
the member's JSON rendering; v2: sorted by the member's binary encoding)
so the encoding of a message is a pure function of its value — the same
property :func:`repro.core.messages.message_sort_key` gives the
schedulers, carried over to the wire.

Negotiation
-----------

``wire_version`` is a codec's *send preference* (1 = JSON, the default;
2 = binary, opt-in via ``cluster --codec binary``); ``max_wire_version``
is the highest version it can decode. The first frame on a connection
(``NodeHello``/``ClientHello``, always sent as v1 so anything can read
it) announces the dialer's preference; a receiver answers a ``>= 2``
announcement with a ``HelloAck`` naming ``min(theirs, ours)``, and the
dialer speaks that version from then on. No ack within the hello timeout
means an old peer: fall back to v1. Negotiation is per connection, so
mixed-version clusters interoperate link by link.

The :class:`MessageRegistry` maps dataclass names to classes. The default
registry (:func:`default_registry`) walks every concrete
:class:`~repro.core.messages.Message` subclass defined by ``core``,
``omega``, ``protocols``, ``smr``, ``storage`` (WAL records share the
wire encoding), and :mod:`repro.net.wire`, plus the
payload structs that ride inside messages (``KVCommand``, EPaxos
``Command``). Version or registry mismatches raise :class:`CodecError`
rather than decoding garbage.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import struct
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Tuple, Type

from ..core.errors import ReproError
from ..core.values import BOTTOM, is_bottom

#: The JSON format; kept under its historical name — v1 frames are
#: byte-identical to every release before the binary codec existed.
WIRE_VERSION = 1
WIRE_VERSION_JSON = 1
#: The compact binary format (opt-in, negotiated per connection).
WIRE_VERSION_BINARY = 2
SUPPORTED_WIRE_VERSIONS = (WIRE_VERSION_JSON, WIRE_VERSION_BINARY)

#: Frames larger than this are rejected — a corrupt length prefix should
#: fail loudly, not allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: A :class:`FrameDecoder` never buffers more than one maximal frame plus
#: its header; beyond that the stream is headerless garbage, not a slow
#: peer, and the decoder raises instead of growing without bound.
MAX_PENDING_BYTES = MAX_FRAME_BYTES + 4

_LENGTH = struct.Struct(">I")
_U16 = struct.Struct(">H")
_F64 = struct.Struct(">d")

# Binary body tags (see the module docstring table).
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BOT = 0x06
_T_TUP = 0x07
_T_FSET = 0x08
_T_LIST = 0x09
_T_MAP = 0x0A
_T_REC = 0x0B
_SMALL_INT_BASE = 0x10
_SMALL_INT_MAX = 0xFF - _SMALL_INT_BASE  # 239

#: Encoded frames at most this long are LRU-cached by message value; hot
#: immutable shells (``TwoA``/``TwoB``, acks, hellos) repeat verbatim,
#: while big batch frames are unique and would only churn the cache.
ENCODE_CACHE_FRAME_LIMIT = 512


class CodecError(ReproError):
    """Raised on malformed frames, unknown types, or version mismatch."""


class MessageRegistry:
    """Bidirectional map between dataclass types and wire names.

    Names must be unique; :meth:`register` raises on a collision so two
    protocols can never silently claim the same wire tag. ``generation``
    counts mutations, letting codecs invalidate derived tables (binary
    type ids, field layouts) when a type is registered late.
    """

    def __init__(self) -> None:
        self._by_name: Dict[str, Type] = {}
        self._by_type: Dict[Type, str] = {}
        self.generation = 0

    def register(self, cls: Type, name: Optional[str] = None) -> Type:
        """Register *cls* (a frozen dataclass) under *name* (default: class name)."""
        if not dataclasses.is_dataclass(cls):
            raise CodecError(f"{cls!r} is not a dataclass; cannot go on the wire")
        key = name if name is not None else cls.__name__
        existing = self._by_name.get(key)
        if existing is not None and existing is not cls:
            raise CodecError(
                f"wire name {key!r} already registered for {existing!r}"
            )
        self._by_name[key] = cls
        self._by_type[cls] = key
        self.generation += 1
        return cls

    def name_of(self, cls: Type) -> Optional[str]:
        return self._by_type.get(cls)

    def type_of(self, name: str) -> Type:
        try:
            return self._by_name[name]
        except KeyError:
            raise CodecError(f"unknown wire type {name!r}; registries differ?") from None

    def names(self) -> List[str]:
        """All registered wire names, sorted (the binary id order)."""
        return sorted(self._by_name)

    def types(self) -> List[Type]:
        """All registered classes, in deterministic (name) order."""
        return [self._by_name[name] for name in sorted(self._by_name)]

    def __contains__(self, cls: Type) -> bool:
        return cls in self._by_type

    def __len__(self) -> int:
        return len(self._by_name)


def _walk_subclasses(cls: Type) -> Iterable[Type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _walk_subclasses(sub)


def default_registry() -> MessageRegistry:
    """Registry covering every message vocabulary in the repository.

    Importing the protocol modules defines their message dataclasses;
    walking ``Message.__subclasses__`` then picks up each concrete type.
    Marker bases (``Message`` itself, ``ClientRequest``) carry no payload
    of their own and never travel, so they are skipped.
    """
    # Imports are for the side effect of defining the Message subclasses.
    from ..core.messages import Message
    from ..core.process import ClientRequest
    from ..omega import leader as _omega_leader  # noqa: F401
    from ..protocols import fast_paxos as _fast_paxos  # noqa: F401
    from ..protocols import paxos as _paxos  # noqa: F401
    from ..protocols import twostep as _twostep  # noqa: F401
    from ..protocols.epaxos import messages as _epaxos_messages
    from ..smr import log as _smr_log  # noqa: F401
    from ..smr.kvstore import BatchRef, CommandBatch, KVCommand
    from ..storage import records as _storage_records  # noqa: F401
    from . import wire as _wire  # noqa: F401

    registry = MessageRegistry()
    skip = {Message, ClientRequest}
    for cls in _walk_subclasses(Message):
        if cls in skip:
            continue
        registry.register(cls)
    # Payload structs carried inside messages (not messages themselves).
    registry.register(KVCommand)
    registry.register(CommandBatch)
    registry.register(BatchRef)
    registry.register(_epaxos_messages.Command, name="EPaxosCommand")
    return registry


def make_codec(name: str = "json", registry: Optional[MessageRegistry] = None) -> "MessageCodec":
    """Build a codec from a CLI-level format name (``json`` or ``binary``)."""
    versions = {"json": WIRE_VERSION_JSON, "binary": WIRE_VERSION_BINARY}
    if name not in versions:
        raise CodecError(
            f"unknown codec {name!r}; expected one of {sorted(versions)}"
        )
    return MessageCodec(registry, wire_version=versions[name])


def _append_uvarint(buf: bytearray, n: int) -> None:
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


class MessageCodec:
    """Encode/decode registered dataclasses to/from wire frames.

    ``wire_version`` is the format :meth:`encode` emits by default (the
    codec's send preference); ``max_wire_version`` is the highest version
    :meth:`decode_payload` accepts — pass ``1`` to emulate a v1-only peer
    for negotiation-fallback tests. Decoding always dispatches on the
    frame's own version byte within that ceiling.
    """

    def __init__(
        self,
        registry: Optional[MessageRegistry] = None,
        wire_version: int = WIRE_VERSION_JSON,
        max_wire_version: int = WIRE_VERSION_BINARY,
        encode_cache_size: int = 1024,
    ) -> None:
        if wire_version not in SUPPORTED_WIRE_VERSIONS:
            raise CodecError(f"unsupported wire version {wire_version!r}")
        if max_wire_version not in SUPPORTED_WIRE_VERSIONS:
            raise CodecError(f"unsupported max wire version {max_wire_version!r}")
        if wire_version > max_wire_version:
            raise CodecError(
                f"preferred version {wire_version} above ceiling {max_wire_version}"
            )
        self.registry = registry if registry is not None else default_registry()
        self.wire_version = wire_version
        self.max_wire_version = max_wire_version
        # Derived tables, rebuilt when the registry's generation moves.
        self._tables_generation = -1
        self._tag_by_type: Dict[Type, int] = {}
        self._layout_by_tag: List[Tuple[Type, str, int]] = []
        self._fields_by_type: Dict[Type, Tuple[str, ...]] = {}
        self._registry_hash = ""
        # Bounded LRU of (version, message) -> encoded frame bytes.
        self._encode_cache: "OrderedDict[Tuple[int, Any], bytes]" = OrderedDict()
        self._encode_cache_size = encode_cache_size

    # ------------------------------------------------------------------
    # Derived tables: binary type ids and per-class field layouts.
    # ------------------------------------------------------------------

    def _tables(self) -> List[Tuple[Type, str, int]]:
        if self._tables_generation != self.registry.generation:
            names = self.registry.names()
            if len(names) > 0xFFFF:
                raise CodecError(f"{len(names)} wire types exceed the u16 id space")
            tag_by_type: Dict[Type, int] = {}
            layouts: List[Tuple[Type, str, int]] = []
            fields_by_type: Dict[Type, Tuple[str, ...]] = {}
            for tag, name in enumerate(names):
                cls = self.registry.type_of(name)
                fields = tuple(f.name for f in dataclasses.fields(cls))
                tag_by_type[cls] = tag
                layouts.append((cls, name, len(fields)))
                fields_by_type[cls] = fields
            self._tag_by_type = tag_by_type
            self._layout_by_tag = layouts
            self._fields_by_type = fields_by_type
            self._registry_hash = hashlib.sha256(
                "\n".join(names).encode("utf-8")
            ).hexdigest()[:16]
            self._tables_generation = self.registry.generation
            self._encode_cache.clear()
        return self._layout_by_tag

    @property
    def registry_hash(self) -> str:
        """Fingerprint of the sorted wire-name table (hex, 16 chars).

        Carried in the Hello handshake: two ends whose hashes differ
        derive different binary type ids, so negotiation keeps such a
        link on JSON, where records are keyed by name.
        """
        self._tables()
        return self._registry_hash

    def _field_names(self, cls: Type) -> Tuple[str, ...]:
        self._tables()
        names = self._fields_by_type.get(cls)
        if names is None:  # registered but tables stale-free: compute once
            names = tuple(f.name for f in dataclasses.fields(cls))
            self._fields_by_type[cls] = names
        return names

    def negotiate(self, peer_max: int, peer_registry_hash: str = "") -> int:
        """The version this codec agrees to speak with an announced peer."""
        version = min(peer_max, self.max_wire_version, WIRE_VERSION_BINARY)
        if version >= WIRE_VERSION_BINARY and peer_registry_hash and (
            peer_registry_hash != self.registry_hash
        ):
            return WIRE_VERSION_JSON
        return max(version, WIRE_VERSION_JSON)

    # ------------------------------------------------------------------
    # Object <-> JSON-able tree (the v1 body).
    # ------------------------------------------------------------------

    def to_jsonable(self, obj: Any) -> Any:
        if obj is None or isinstance(obj, (bool, str)):
            return obj
        if isinstance(obj, (int, float)):
            return obj
        if is_bottom(obj):
            return {"__t": "bot"}
        if isinstance(obj, tuple):
            return {"__t": "tup", "v": [self.to_jsonable(item) for item in obj]}
        if isinstance(obj, (frozenset, set)):
            encoded = [self.to_jsonable(item) for item in obj]
            encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
            return {"__t": "fset", "v": encoded}
        if isinstance(obj, list):
            return {"__t": "list", "v": [self.to_jsonable(item) for item in obj]}
        if isinstance(obj, dict):
            return {
                "__t": "map",
                "v": [
                    [self.to_jsonable(key), self.to_jsonable(value)]
                    for key, value in obj.items()
                ],
            }
        name = self.registry.name_of(type(obj))
        if name is not None:
            return {
                "__t": "rec",
                "k": name,
                "v": {
                    field: self.to_jsonable(getattr(obj, field))
                    for field in self._field_names(type(obj))
                },
            }
        raise CodecError(
            f"cannot encode {type(obj).__name__!r} value {obj!r}: "
            "type not registered with the wire codec"
        )

    def from_jsonable(self, node: Any) -> Any:
        if node is None or isinstance(node, (bool, int, float, str)):
            return node
        if isinstance(node, list):  # only produced inside tagged containers
            return [self.from_jsonable(item) for item in node]
        if not isinstance(node, dict):
            raise CodecError(f"malformed wire body node: {node!r}")
        tag = node.get("__t")
        if tag == "bot":
            return BOTTOM
        if tag == "tup":
            return tuple(self.from_jsonable(item) for item in node["v"])
        if tag == "fset":
            return frozenset(self.from_jsonable(item) for item in node["v"])
        if tag == "list":
            return [self.from_jsonable(item) for item in node["v"]]
        if tag == "map":
            return {
                self.from_jsonable(key): self.from_jsonable(value)
                for key, value in node["v"]
            }
        if tag == "rec":
            wire_name = node["k"]
            cls = self.registry.type_of(wire_name)
            fields = {
                name: self.from_jsonable(value) for name, value in node["v"].items()
            }
            try:
                return cls(**fields)
            except TypeError as exc:
                # Name the wire tag before the payload is lost: version
                # skew shows up here, and "which record type" is the
                # actionable part for `repro recover` and netlog.
                raise CodecError(
                    f"wire fields {sorted(fields)} of wire type {wire_name!r} "
                    f"do not match {cls.__name__}"
                    f"({', '.join(self._field_names(cls))}): {exc}"
                ) from None
        raise CodecError(f"unknown wire tag {tag!r}")

    # ------------------------------------------------------------------
    # The v2 binary body.
    # ------------------------------------------------------------------

    def _encode_binary_into(self, buf: bytearray, obj: Any) -> None:
        # Exact-type dispatch first: the hot leaves are ints and strs, and
        # `type(x) is int` also sidesteps bool-is-an-int.
        t = type(obj)
        if t is int:
            if 0 <= obj <= _SMALL_INT_MAX:
                buf.append(_SMALL_INT_BASE + obj)
            else:
                buf.append(_T_INT)
                zig = (obj << 1) if obj >= 0 else (((-obj) << 1) - 1)
                _append_uvarint(buf, zig)
        elif t is str:
            raw = obj.encode("utf-8")
            buf.append(_T_STR)
            _append_uvarint(buf, len(raw))
            buf += raw
        elif obj is None:
            buf.append(_T_NONE)
        elif t is bool:
            buf.append(_T_TRUE if obj else _T_FALSE)
        elif t is float:
            buf.append(_T_FLOAT)
            buf += _F64.pack(obj)
        elif t is tuple:
            buf.append(_T_TUP)
            _append_uvarint(buf, len(obj))
            for item in obj:
                self._encode_binary_into(buf, item)
        else:
            tag = self._tag_by_type.get(t)
            if tag is not None:
                buf.append(_T_REC)
                buf += _U16.pack(tag)
                for field in self._fields_by_type[t]:
                    self._encode_binary_into(buf, getattr(obj, field))
            elif is_bottom(obj):
                buf.append(_T_BOT)
            elif t is list:
                buf.append(_T_LIST)
                _append_uvarint(buf, len(obj))
                for item in obj:
                    self._encode_binary_into(buf, item)
            elif isinstance(obj, (frozenset, set)):
                # Canonical order: members sorted by their own encoding,
                # so equal sets always produce equal bytes.
                members = []
                for item in obj:
                    member = bytearray()
                    self._encode_binary_into(member, item)
                    members.append(bytes(member))
                members.sort()
                buf.append(_T_FSET)
                _append_uvarint(buf, len(members))
                for member in members:
                    buf += member
            elif t is dict:
                buf.append(_T_MAP)
                _append_uvarint(buf, len(obj))
                for key, value in obj.items():
                    self._encode_binary_into(buf, key)
                    self._encode_binary_into(buf, value)
            elif isinstance(obj, int):  # int subclass outside the fast path
                buf.append(_T_INT)
                obj = int(obj)
                zig = (obj << 1) if obj >= 0 else (((-obj) << 1) - 1)
                _append_uvarint(buf, zig)
            elif isinstance(obj, (str, float, tuple, list)):
                self._encode_binary_into(buf, type(obj).__mro__[-2](obj))
            else:
                raise CodecError(
                    f"cannot encode {type(obj).__name__!r} value {obj!r}: "
                    "type not registered with the wire codec"
                )

    def _decode_binary(self, mv: memoryview, start: int, end: int) -> Any:
        layouts = self._tables()
        pos = start
        u16_at = _U16.unpack_from
        f64_at = _F64.unpack_from

        def read_uvarint() -> int:
            nonlocal pos
            result = 0
            shift = 0
            while True:
                if pos >= end:
                    raise CodecError("truncated varint in binary frame body")
                byte = mv[pos]
                pos += 1
                result |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    return result
                shift += 7
                if shift > 70:
                    raise CodecError("over-long varint in binary frame body")

        def read_value() -> Any:
            nonlocal pos
            if pos >= end:
                raise CodecError("truncated binary frame body")
            tag = mv[pos]
            pos += 1
            if tag >= _SMALL_INT_BASE:
                return tag - _SMALL_INT_BASE
            if tag == _T_STR:
                # Inline the one-byte varint fast path: nearly every
                # string on this wire is shorter than 128 bytes.
                if pos >= end:
                    raise CodecError("truncated varint in binary frame body")
                length = mv[pos]
                pos += 1
                if length & 0x80:
                    pos -= 1
                    length = read_uvarint()
                begin = pos
                pos += length
                if pos > end:
                    raise CodecError("truncated string in binary frame body")
                return str(mv[begin:pos], "utf-8")
            if tag == _T_REC:
                if pos + 2 > end:
                    raise CodecError("truncated record header in binary frame body")
                (type_id,) = u16_at(mv, pos)
                pos += 2
                if type_id >= len(layouts):
                    raise CodecError(
                        f"unknown binary wire type id {type_id} "
                        f"(registry has {len(layouts)} types; registries differ?)"
                    )
                cls, wire_name, n_fields = layouts[type_id]
                values = [read_value() for _ in range(n_fields)]
                try:
                    return cls(*values)
                except CodecError:
                    raise
                except Exception as exc:
                    raise CodecError(
                        f"wire values do not match {cls.__name__} "
                        f"(wire type {wire_name!r}, id {type_id}): {exc}"
                    ) from None
            if tag == _T_INT:
                zig = read_uvarint()
                return (zig >> 1) if not zig & 1 else -((zig + 1) >> 1)
            if tag == _T_TUP:
                return tuple([read_value() for _ in range(read_uvarint())])
            if tag == _T_NONE:
                return None
            if tag == _T_TRUE:
                return True
            if tag == _T_FALSE:
                return False
            if tag == _T_FLOAT:
                if pos + 8 > end:
                    raise CodecError("truncated float in binary frame body")
                (value,) = f64_at(mv, pos)
                pos += 8
                return value
            if tag == _T_BOT:
                return BOTTOM
            if tag == _T_FSET:
                try:
                    return frozenset([read_value() for _ in range(read_uvarint())])
                except TypeError as exc:
                    raise CodecError(f"unhashable frozenset member: {exc}") from None
            if tag == _T_LIST:
                return [read_value() for _ in range(read_uvarint())]
            if tag == _T_MAP:
                try:
                    return {
                        read_value(): read_value() for _ in range(read_uvarint())
                    }
                except TypeError as exc:
                    raise CodecError(f"unhashable map key: {exc}") from None
            raise CodecError(f"unknown binary wire tag 0x{tag:02x}")

        value = read_value()
        if pos != end:
            raise CodecError(
                f"{end - pos} trailing byte(s) after binary frame body"
            )
        return value

    # ------------------------------------------------------------------
    # Frames.
    # ------------------------------------------------------------------

    def encode_payload(self, obj: Any, version: Optional[int] = None) -> bytes:
        """Serialize *obj* into a frame payload (version byte + body).

        This is the unit :mod:`repro.storage` journals: a WAL record is
        exactly a frame payload, so disk state round-trips under either
        format and a recovering codec dispatches on the version byte.
        """
        if version is None:
            version = self.wire_version
        if version == WIRE_VERSION_BINARY:
            self._tables()
            buf = bytearray((WIRE_VERSION_BINARY,))
            self._encode_binary_into(buf, obj)
            return bytes(buf)
        if version == WIRE_VERSION_JSON:
            body = json.dumps(
                self.to_jsonable(obj), separators=(",", ":"), sort_keys=True
            ).encode("utf-8")
            return bytes((WIRE_VERSION_JSON,)) + body
        raise CodecError(f"cannot encode wire version {version!r}")

    def encode(self, obj: Any, version: Optional[int] = None) -> bytes:
        """Serialize *obj* into one length-prefixed frame.

        Hot immutable messages are served from a bounded LRU keyed by
        ``(version, message)``; unhashable payloads and frames above
        :data:`ENCODE_CACHE_FRAME_LIMIT` bytes bypass it.
        """
        if version is None:
            version = self.wire_version
        cache = self._encode_cache
        try:
            frame = cache.get((version, obj))
        except TypeError:
            return self._encode_frame(obj, version)
        if frame is not None:
            cache.move_to_end((version, obj))
            return frame
        frame = self._encode_frame(obj, version)
        if len(frame) <= ENCODE_CACHE_FRAME_LIMIT:
            cache[(version, obj)] = frame
            if len(cache) > self._encode_cache_size:
                cache.popitem(last=False)
        return frame

    def _encode_frame(self, obj: Any, version: int) -> bytes:
        payload = self.encode_payload(obj, version)
        if len(payload) > MAX_FRAME_BYTES:
            raise CodecError(
                f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
            )
        return _LENGTH.pack(len(payload)) + payload

    def decode_payload(self, payload: Any) -> Any:
        """Decode one frame payload (version byte + body, no length prefix).

        Accepts ``bytes``, ``bytearray``, or ``memoryview`` — the framing
        layer hands binary bodies over as zero-copy views. Dispatches on
        the payload's version byte up to ``max_wire_version``.
        """
        if not len(payload):
            raise CodecError("empty frame payload")
        version = payload[0]
        if version == WIRE_VERSION_JSON:
            body = payload if isinstance(payload, (bytes, bytearray)) else bytes(payload)
            try:
                tree = json.loads(body[1:])
            except (UnicodeDecodeError, ValueError) as exc:
                raise CodecError(f"undecodable frame body: {exc}") from None
            return self.from_jsonable(tree)
        if version == WIRE_VERSION_BINARY and self.max_wire_version >= WIRE_VERSION_BINARY:
            mv = payload if isinstance(payload, memoryview) else memoryview(payload)
            try:
                return self._decode_binary(mv, 1, len(mv))
            except CodecError:
                raise
            except (struct.error, RecursionError, ValueError, OverflowError) as exc:
                raise CodecError(f"undecodable binary frame body: {exc!r}") from None
        raise CodecError(
            f"wire version mismatch: got {version}, speak <= {self.max_wire_version}"
        )

    def decode(self, frame: Any) -> Any:
        """Decode one complete frame (length prefix included)."""
        decoder = FrameDecoder(self)
        messages = decoder.feed(frame)
        if len(messages) != 1 or decoder.pending_bytes:
            raise CodecError(
                f"expected exactly one frame, got {len(messages)} "
                f"with {decoder.pending_bytes} bytes left over"
            )
        return messages[0]


class FrameDecoder:
    """Incremental frame splitter for a byte stream.

    Feed it whatever chunks the transport hands you; it buffers partial
    frames and returns each completed message in arrival order. Complete
    frames are decoded through ``memoryview`` slices of the buffer — no
    per-frame ``bytes`` copy — and consumed bytes are compacted lazily.
    The buffer is capped at :data:`MAX_PENDING_BYTES`: a peer that sends
    bytes but never completes a frame gets a :class:`CodecError`, not an
    unbounded allocation.
    """

    def __init__(self, codec: MessageCodec) -> None:
        self._codec = codec
        self._buffer = bytearray()
        self._pos = 0

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer) - self._pos

    def feed(self, data: Any) -> List[Any]:
        return [message for message, _size in self.feed_sized(data)]

    def feed_sized(self, data: Any) -> List[Tuple[Any, int]]:
        """Like :meth:`feed`, pairing each message with its on-wire size.

        The size includes the length prefix, so summing it over a
        connection reproduces the byte count the sender wrote — what the
        node's ``recv_bytes.*`` counters report.
        """
        # A healthy stream never buffers more than one maximal frame
        # (header + MAX_FRAME_BYTES): anything beyond it has parsed into
        # messages already. Pending past that cap means earlier feeds
        # raised and the caller kept feeding anyway — refuse more input
        # instead of growing the buffer without bound.
        if self.pending_bytes > MAX_PENDING_BYTES:
            raise CodecError(
                f"{self.pending_bytes} buffered bytes without a complete "
                f"frame (> {MAX_PENDING_BYTES}); headerless garbage?"
            )
        buf = self._buffer
        buf += data
        messages: List[Tuple[Any, int]] = []
        pos = self._pos
        size = len(buf)
        header = _LENGTH.size
        decode = self._codec.decode_payload
        try:
            while size - pos >= header:
                (payload_len,) = _LENGTH.unpack_from(buf, pos)
                if payload_len > MAX_FRAME_BYTES:
                    raise CodecError(
                        f"incoming frame claims {payload_len} bytes "
                        f"(> {MAX_FRAME_BYTES}); corrupt stream?"
                    )
                end = pos + header + payload_len
                if size < end:
                    break
                view = memoryview(buf)[pos + header:end]
                try:
                    messages.append((decode(view), header + payload_len))
                finally:
                    view.release()
                pos = end
        finally:
            self._pos = pos
            self._compact()
        return messages

    def _compact(self) -> None:
        # Deferred deletion: one memmove per drained burst instead of one
        # per frame. Compact when fully consumed (free) or when the dead
        # prefix outgrows 64 KiB.
        if self._pos == 0:
            return
        if self._pos == len(self._buffer):
            self._buffer.clear()
            self._pos = 0
        elif self._pos > 65536:
            del self._buffer[: self._pos]
            self._pos = 0


async def read_frame(reader: asyncio.StreamReader, codec: MessageCodec) -> Any:
    """Read exactly one frame from an asyncio stream reader.

    Raises ``asyncio.IncompleteReadError`` on EOF mid-frame and
    ``ConnectionError``/``CodecError`` like the underlying calls.
    """
    message, _size = await read_frame_sized(reader, codec)
    return message


async def read_frame_sized(
    reader: asyncio.StreamReader, codec: MessageCodec
) -> Tuple[Any, int]:
    """Like :func:`read_frame`, plus the frame's total on-wire byte count.

    The size includes the length prefix, so summing it over a connection
    reproduces the exact byte count the sender wrote — what the node's
    ``recv_bytes.*`` counters report. The payload is handed to the codec
    as a ``memoryview``, so binary bodies decode without an intermediate
    copy.
    """
    header = await reader.readexactly(_LENGTH.size)
    (payload_len,) = _LENGTH.unpack(header)
    if payload_len > MAX_FRAME_BYTES:
        raise CodecError(
            f"incoming frame claims {payload_len} bytes (> {MAX_FRAME_BYTES})"
        )
    payload = await reader.readexactly(payload_len)
    view = memoryview(payload)
    try:
        return codec.decode_payload(view), _LENGTH.size + payload_len
    finally:
        view.release()
