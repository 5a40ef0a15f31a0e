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
type ids all raise :class:`CodecError`. The reader and writer are built
once per registry generation, and each record class gets a generated
decoder and encoder the first time it is seen (``docs/WIRE.md``
§ Compiled layouts).

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
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Type

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


def _read_uvarint(buf: Any, pos: int, end: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise CodecError("truncated varint in binary frame body")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise CodecError("over-long varint in binary frame body")


# ----------------------------------------------------------------------
# The v2 binary body: one generic reader/writer pair per registry
# generation, plus a generated decoder and encoder per record class.
#
# The generic pair handles every tag and is the reference the compiled
# functions are tested against. A compiled function is the same field
# loop unrolled for one class, with the three commonest field shapes
# (short str, small int, None) handled inline; anything else falls back
# to the generic pair, so there is exactly one implementation of every
# container and rare scalar. Nothing here keeps state between calls: a
# reader takes ``(buf, pos, end)`` and returns ``(value, pos)``.
# ----------------------------------------------------------------------

_Reader = Callable[[Any, int, int], Tuple[Any, int]]
_Writer = Callable[[bytearray, Any], None]

_DECODE_FIELD = f"""\
    tag = buf[pos] if pos < end else -1
    if tag == {_T_STR} and pos + 1 < end and (n := buf[pos + 1]) < 0x80 and pos + 2 + n <= end:
        pos += 2 + n
        v{{i}} = buf[pos - n:pos].decode()
    elif tag >= {_SMALL_INT_BASE}:
        v{{i}} = tag - {_SMALL_INT_BASE}
        pos += 1
    elif tag == {_T_NONE}:
        v{{i}} = None
        pos += 1
    else:
        v{{i}}, pos = read(buf, pos, end)
"""

_DECODE_RECORD = """\
def decode(buf, pos, end):
{fields}\
    try:
        return cls({values}), pos
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"{{mismatch}}: {{exc}}") from None
"""

_ENCODE_FIELD = f"""\
    v = obj.{{name}}
    t = type(v)
    if t is str:
        raw = v.encode()
        n = len(raw)
        if n < 0x80:
            buf.append({_T_STR})
            buf.append(n)
            buf += raw
        else:
            write(buf, v)
    elif t is int and 0 <= v <= {_SMALL_INT_MAX}:
        buf.append({_SMALL_INT_BASE} + v)
    elif v is None:
        buf.append({_T_NONE})
    else:
        write(buf, v)
"""

_ENCODE_RECORD = """\
def encode(buf, obj):
    buf += header
{fields}"""


def _compile(source: str, label: str, namespace: Dict[str, Any]) -> Dict[str, Any]:
    # The source is built from dataclass field names and counts alone —
    # what the class definition says, never anything read off the wire.
    exec(compile(source, f"<repro.net.codec: {label}>", "exec"), namespace)
    return namespace


def _compile_decoder(
    type_id: int, cls: Type, wire_name: str, n_fields: int, read: _Reader
) -> _Reader:
    """Generate ``decode(buf, pos, end)`` for *cls*; *pos* is past the header.

    Still ``cls(*values)``, so every ``__post_init__`` check runs, and a
    failure names the wire type and id like the field loop it replaces.
    """
    source = _DECODE_RECORD.format(
        fields="".join(_DECODE_FIELD.format(i=i) for i in range(n_fields)),
        values=", ".join(f"v{i}" for i in range(n_fields)),
    )
    namespace = {
        "read": read,
        "cls": cls,
        "CodecError": CodecError,
        "mismatch": (
            f"wire values do not match {cls.__name__} "
            f"(wire type {wire_name!r}, id {type_id})"
        ),
    }
    return _compile(source, f"decode {wire_name}", namespace)["decode"]


def _compile_encoder(
    type_id: int, cls: Type, fields: Tuple[str, ...], write: _Writer
) -> _Writer:
    """Generate ``encode(buf, obj)`` for *cls*: header, then each field."""
    source = _ENCODE_RECORD.format(
        fields="".join(_ENCODE_FIELD.format(name=name) for name in fields)
    )
    namespace = {"write": write, "header": bytes((_T_REC,)) + _U16.pack(type_id)}
    return _compile(source, f"encode {cls.__name__}", namespace)["encode"]


def _build_reader(layouts: List[Tuple[Type, str, int]]) -> _Reader:
    """The generic v2 reader over one generation's type-id table."""
    n_types = len(layouts)
    # Filled lazily, so boot pays for the handful of hot classes only.
    decoders: List[Optional[_Reader]] = [None] * n_types

    def read_items(buf: Any, pos: int, end: int) -> Tuple[List[Any], int]:
        count, pos = _read_uvarint(buf, pos, end)
        items: List[Any] = []
        for _ in range(count):
            item, pos = read(buf, pos, end)
            items.append(item)
        return items, pos

    def read(buf: Any, pos: int, end: int) -> Tuple[Any, int]:
        if pos >= end:
            raise CodecError("truncated binary frame body")
        tag = buf[pos]
        pos += 1
        if tag == _T_REC:
            if pos + 2 > end:
                raise CodecError("truncated record header in binary frame body")
            type_id = (buf[pos] << 8) | buf[pos + 1]
            if type_id >= n_types:
                raise CodecError(
                    f"unknown binary wire type id {type_id} "
                    f"(registry has {n_types} types; registries differ?)"
                )
            decode = decoders[type_id]
            if decode is None:
                decode = decoders[type_id] = _compile_decoder(
                    type_id, *layouts[type_id], read
                )
            return decode(buf, pos + 2, end)
        if tag >= _SMALL_INT_BASE:
            return tag - _SMALL_INT_BASE, pos
        if tag == _T_STR:
            length, pos = _read_uvarint(buf, pos, end)
            stop = pos + length
            if stop > end:
                raise CodecError("truncated string in binary frame body")
            return buf[pos:stop].decode(), stop
        if tag == _T_INT:
            zig, pos = _read_uvarint(buf, pos, end)
            return ((zig >> 1) if not zig & 1 else -((zig + 1) >> 1)), pos
        if tag == _T_TUP:
            items, pos = read_items(buf, pos, end)
            return tuple(items), pos
        if tag == _T_NONE:
            return None, pos
        if tag == _T_TRUE:
            return True, pos
        if tag == _T_FALSE:
            return False, pos
        if tag == _T_FLOAT:
            if pos + 8 > end:
                raise CodecError("truncated float in binary frame body")
            return _F64.unpack_from(buf, pos)[0], pos + 8
        if tag == _T_BOT:
            return BOTTOM, pos
        if tag == _T_FSET:
            items, pos = read_items(buf, pos, end)
            try:
                return frozenset(items), pos
            except TypeError as exc:
                raise CodecError(f"unhashable frozenset member: {exc}") from None
        if tag == _T_LIST:
            return read_items(buf, pos, end)
        if tag == _T_MAP:
            count, pos = _read_uvarint(buf, pos, end)
            mapping: Dict[Any, Any] = {}
            for _ in range(count):
                key, pos = read(buf, pos, end)
                value, pos = read(buf, pos, end)
                try:
                    mapping[key] = value
                except TypeError as exc:
                    raise CodecError(f"unhashable map key: {exc}") from None
            return mapping, pos
        raise CodecError(f"unknown binary wire tag 0x{tag:02x}")

    return read


def _build_writer(
    tag_by_type: Dict[Type, int], fields_by_type: Dict[Type, Tuple[str, ...]]
) -> _Writer:
    """The generic v2 writer over one generation's type-id table."""
    # Filled lazily, like the reader's decoders.
    encoders: Dict[Type, _Writer] = {}

    def write_int(buf: bytearray, n: int) -> None:
        buf.append(_T_INT)
        _append_uvarint(buf, (n << 1) if n >= 0 else (((-n) << 1) - 1))

    def write(buf: bytearray, obj: Any) -> None:
        # Exact-type dispatch: records first (every frame is one), then
        # the scalar leaves; `type(x) is int` also sidesteps bool-is-an-int.
        t = type(obj)
        encode = encoders.get(t)
        if encode is not None:
            encode(buf, obj)
        elif t is int:
            if 0 <= obj <= _SMALL_INT_MAX:
                buf.append(_SMALL_INT_BASE + obj)
            else:
                write_int(buf, obj)
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
                write(buf, item)
        elif t in tag_by_type:
            encode = encoders[t] = _compile_encoder(
                tag_by_type[t], t, fields_by_type[t], write
            )
            encode(buf, obj)
        elif is_bottom(obj):
            buf.append(_T_BOT)
        elif t is list:
            buf.append(_T_LIST)
            _append_uvarint(buf, len(obj))
            for item in obj:
                write(buf, item)
        elif isinstance(obj, (frozenset, set)):
            # Canonical order: members sorted by their own encoding,
            # so equal sets always produce equal bytes.
            members = []
            for item in obj:
                member = bytearray()
                write(member, item)
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
                write(buf, key)
                write(buf, value)
        elif isinstance(obj, int):  # int subclass outside the fast path
            write_int(buf, int(obj))
        elif isinstance(obj, (str, float, tuple, list)):
            write(buf, type(obj).__mro__[-2](obj))
        else:
            raise CodecError(
                f"cannot encode {type(obj).__name__!r} value {obj!r}: "
                "type not registered with the wire codec"
            )

    return write


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
        self._fields_by_type: Dict[Type, Tuple[str, ...]] = {}
        self._registry_hash = ""
        self._read: _Reader
        self._write: _Writer

    # ------------------------------------------------------------------
    # Derived tables: binary type ids, per-class field layouts, and the
    # v2 reader/writer built over them.
    # ------------------------------------------------------------------

    def _tables(self) -> None:
        if self._tables_generation == self.registry.generation:
            return
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
        self._fields_by_type = fields_by_type
        self._read = _build_reader(layouts)
        self._write = _build_writer(tag_by_type, fields_by_type)
        self._registry_hash = hashlib.sha256(
            "\n".join(names).encode("utf-8")
        ).hexdigest()[:16]
        self._tables_generation = self.registry.generation

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
            self._write(buf, obj)
            return bytes(buf)
        if version == WIRE_VERSION_JSON:
            body = json.dumps(
                self.to_jsonable(obj), separators=(",", ":"), sort_keys=True
            ).encode("utf-8")
            return bytes((WIRE_VERSION_JSON,)) + body
        raise CodecError(f"cannot encode wire version {version!r}")

    def encode(self, obj: Any, version: Optional[int] = None) -> bytes:
        """Serialize *obj* into one length-prefixed frame."""
        payload = self.encode_payload(obj, version)
        if len(payload) > MAX_FRAME_BYTES:
            raise CodecError(
                f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
            )
        return _LENGTH.pack(len(payload)) + payload

    def decode_payload(self, payload: Any) -> Any:
        """Decode one frame payload (version byte + body, no length prefix).

        Accepts ``bytes``, ``bytearray``, or ``memoryview`` (what the
        framing layer hands over). Dispatches on the payload's version
        byte up to ``max_wire_version``.
        """
        if not len(payload):
            raise CodecError("empty frame payload")
        # Both formats read from bytes: json.loads needs them, and a v2
        # record is mostly short strings, which slice cheaper out of bytes
        # than out of a view — so a frame handed over as a view is copied
        # once, here.
        body = payload if isinstance(payload, (bytes, bytearray)) else bytes(payload)
        version = body[0]
        if version == WIRE_VERSION_JSON:
            try:
                tree = json.loads(body[1:])
            except (UnicodeDecodeError, ValueError) as exc:
                raise CodecError(f"undecodable frame body: {exc}") from None
            return self.from_jsonable(tree)
        if version == WIRE_VERSION_BINARY and self.max_wire_version >= WIRE_VERSION_BINARY:
            self._tables()
            end = len(body)
            try:
                value, pos = self._read(body, 1, end)
            except CodecError:
                raise
            except (struct.error, RecursionError, ValueError, OverflowError) as exc:
                raise CodecError(f"undecodable binary frame body: {exc!r}") from None
            if pos != end:
                raise CodecError(
                    f"{end - pos} trailing byte(s) after binary frame body"
                )
            return value
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
    frames reach the codec as slices of one ``memoryview`` per feed, and
    consumed bytes are compacted lazily.
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
        view = memoryview(buf)
        frame: Optional[memoryview] = None
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
                frame = view[pos + header:end]
                messages.append((decode(frame), header + payload_len))
                pos = end
        finally:
            # The last slice is still alive (in `frame`, and in the
            # traceback if it failed to decode): release it and the
            # parent, or the bytearray cannot shrink in _compact().
            if frame is not None:
                frame.release()
            view.release()
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
    ``recv_bytes.*`` counters report.
    """
    header = await reader.readexactly(_LENGTH.size)
    (payload_len,) = _LENGTH.unpack(header)
    if payload_len > MAX_FRAME_BYTES:
        raise CodecError(
            f"incoming frame claims {payload_len} bytes (> {MAX_FRAME_BYTES})"
        )
    payload = await reader.readexactly(payload_len)
    return codec.decode_payload(payload), _LENGTH.size + payload_len
