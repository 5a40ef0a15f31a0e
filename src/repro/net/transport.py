"""A live node's sockets: listen, dial, shake hands, keep links, hold.

:class:`Transport` owns every socket of one node and hands the node
(:class:`repro.net.node.NodeServer`) decoded bursts through two callbacks.
Every link has an :class:`Outbox` drained by one coalescing writer loop, and
every inbound link is read by one loop, one ``read()`` per TCP burst. A peer
link is sender-owned (one per ordered pair) and reconnects with backoff,
re-sending the burst in flight when it dropped: reliable up to crash-stop,
and duplicates are harmless (every protocol here tracks votes in sets).
Every link opens with a hello and a :class:`~repro.net.wire.HelloAck` over
one registry; :func:`dial` is the one dial side. The port also answers HTTP
``GET /metrics``; all sockets set ``TCP_NODELAY``. The node decides whether
output waits for its storage writer; the transport holds it, by ticket,
until :meth:`Transport.release`.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import socket
import time
from collections import deque
from functools import partial
from itertools import islice
from typing import Any, AsyncIterator, Awaitable, Callable, Deque, Dict, List, Optional
from typing import Sequence, Set, Tuple, Union

from ..core.errors import ConfigurationError
from ..core.messages import Message
from ..core.process import ProcessId
from ..obs import Observability
from ..obs.export import serve_http
from .codec import MAX_FRAME_BYTES, CodecError, FrameDecoder, MessageCodec, read_frame
from .wire import ClientHello, HelloAck, NodeHello

#: (host, port) pairs, indexed by pid.
Address = Tuple[str, int]

#: A peer sender's first retry delay after a failed dial; it doubles on
#: every further failure up to :data:`RECONNECT_MAX` seconds.
RECONNECT_INITIAL = 0.05
RECONNECT_MAX = 1.0
#: Seconds a dialer waits for the acceptor's :class:`HelloAck`.
HELLO_TIMEOUT = 1.0
#: Bulk-receive size: one ``read()`` per TCP burst, not two awaits per frame.
_READ_CHUNK = 256 * 1024

Burst = List[Tuple[Message, int]]  # the frames one read() completed, with sizes
_DIAL_ERRORS = (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, CodecError)


def enable_nodelay(writer: asyncio.StreamWriter) -> None:
    """Set ``TCP_NODELAY`` on *writer*'s socket (no-op off-TCP)."""
    sock = writer.get_extra_info("socket")
    if sock is None:
        return
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, ValueError):
        pass  # not a TCP socket (unix pipe in tests); nothing to disable


class HandshakeRefused(ConnectionError):
    """The acceptor refused the hello (a different registry). A
    ``ConnectionError``: peer senders back off and retry, clients fail over."""


async def dial(
    address: Address, codec: MessageCodec, hello: Union[NodeHello, ClientHello], timeout: float
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Connect to *address*, send *hello* (``NodeHello(pid)`` or
    ``ClientHello(client_id)``) stamped with the codec's registry hash, and
    wait up to *timeout* for the :class:`HelloAck`. Raises
    :class:`HandshakeRefused` naming both hashes when the acceptor refused,
    else one of :data:`_DIAL_ERRORS` when it was unreachable or silent."""
    reader, writer = await asyncio.wait_for(asyncio.open_connection(*address), timeout)
    try:
        enable_nodelay(writer)
        hello = dataclasses.replace(hello, registry_hash=codec.registry_hash)
        writer.write(codec.encode(hello))
        await writer.drain()
        ack = await asyncio.wait_for(read_frame(reader, codec), timeout)
        if not isinstance(ack, HelloAck):
            raise HandshakeRefused(
                f"{address[0]}:{address[1]} answered the hello with "
                f"{type(ack).__name__}, not HelloAck"
            )
        if not ack.accepted or ack.registry_hash != codec.registry_hash:
            raise HandshakeRefused(
                f"{address[0]}:{address[1]} refused the hello: registry "
                f"{codec.registry_hash} here, {ack.registry_hash or '?'} there"
            )
    except BaseException:
        writer.close()
        raise
    return reader, writer


@contextlib.asynccontextmanager
async def exchange(
    address: Address, codec: MessageCodec, client_id: str, request: Message, timeout: float
) -> AsyncIterator[Callable[[], Awaitable[Message]]]:
    """One control-plane request (a stats scrape, a state transfer) on a
    throwaway client link: dials as *client_id*, writes *request* and yields
    ``receive()``, which returns the next frame or raises
    ``asyncio.TimeoutError`` after *timeout*. The link closes on the way out."""
    reader, writer = await dial(address, codec, ClientHello(client_id), timeout)
    try:
        writer.write(codec.encode(request))
        await writer.drain()
        yield lambda: asyncio.wait_for(read_frame(reader, codec), timeout)
    finally:
        writer.close()


class Outbox:
    """One link's encoded frames and its writer's wake-up. *hwm* (peer links)
    records the high-water mark: growth means a link slower than the load."""

    __slots__ = ("frames", "wake", "_hwm")

    def __init__(self, hwm: Optional[Callable[[int], None]] = None) -> None:
        self.frames: Deque[bytes] = deque()
        self.wake = asyncio.Event()
        self._hwm = hwm

    def put(self, frame: bytes) -> None:
        self.frames.append(frame)
        if self._hwm is not None:
            self._hwm(len(self.frames))
        self.wake.set()


class _Held:
    """Frames that became ready while storage ticket *tag* was not durable."""

    __slots__ = ("tag", "since", "frames")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.since = time.perf_counter()
        self.frames: List[Tuple[Outbox, bytes]] = []


class Transport:
    """Every socket of node *pid*: :meth:`bind`, :meth:`start`, :meth:`close`.
    *deliver(sender, burst)* gets each burst read from a peer link and
    *request(outbox, burst)* each one from a client link, with the outbox
    that answers it; either returns ``False`` to close the link."""

    def __init__(
        self, pid: ProcessId, codec: MessageCodec, host: str, port: int,
        obs: Observability, log: Any,
        deliver: Callable[[ProcessId, Burst], bool],
        request: Callable[[Outbox, Burst], bool],
    ) -> None:
        self.pid, self.codec, self.host, self.port = pid, codec, host, port
        self.obs, self.log = obs, log
        self._deliver, self._request = deliver, request
        self.addresses: Sequence[Address] = ()
        self.outboxes: Dict[ProcessId, Outbox] = {}  # one per peer, from start()
        self.held: Deque[_Held] = deque()  # oldest ticket first
        self._held_frames = 0
        self.inbound: Dict[asyncio.Task, asyncio.StreamWriter] = {}  # one per inbound link
        self._senders: List[asyncio.Task] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._closed = False
        self._peers_out: Set[ProcessId] = set()  # live links, for wire_info()
        self._links_in = {"peer": 0, "client": 0}

    @property
    def address(self) -> Address:
        return (self.host, self.port)

    async def bind(self) -> Address:
        """Start listening; resolves the port when 0 was requested."""
        self._server = await asyncio.start_server(self._accept, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.address

    def start(self, addresses: Sequence[Address]) -> None:
        """Open one outbox and one sender task per peer."""
        if self._server is None:
            raise ConfigurationError("bind() must run before launch()")
        self.addresses = addresses
        loop = asyncio.get_event_loop()
        gauge_max = self.obs.registry.gauge_max
        for peer in range(len(addresses)):
            if peer != self.pid:
                self.outboxes[peer] = Outbox(partial(gauge_max, f"net.outbox_hwm.p{peer}"))
                self._senders.append(loop.create_task(self._peer_sender(peer)))

    async def close(self) -> None:
        """Close every socket and drop what is held: nothing leaves after.
        Inbound links close once their tasks have ended, and before the
        server is awaited: since Python 3.12.1 ``wait_closed()`` waits for
        every accepted connection."""
        self._closed = True
        self.held.clear()
        self._held_frames = 0
        if self._server is not None:
            self._server.close()
        links, self.inbound = self.inbound, {}
        tasks = self._senders + list(links)
        for task in tasks:
            task.cancel()
        for task in tasks:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._senders.clear()
        for writer in links.values():  # once no task uses them
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()

    def wire_info(self) -> Dict[str, Any]:
        """This node's registry hash and live link counts (JSON-safe):
        peers it holds a link to, inbound peer and client links it serves."""
        return {
            "registry_hash": self.codec.registry_hash,
            "peer_links_out": len(self._peers_out),
            "peer_links_in": self._links_in["peer"],
            "client_links": self._links_in["client"],
        }

    def hold(self, tag: int, frames: List[Tuple[Outbox, bytes]]) -> None:
        """Keep *frames* until :meth:`release` reports ticket *tag* durable."""
        held = self.held
        if not held or held[-1].tag != tag:
            held.append(_Held(tag))
        held[-1].frames.extend(frames)
        self._held_frames += len(frames)
        self.obs.registry.gauge_max("storage.held_frames_hwm", self._held_frames)

    def release(self, durable: int) -> None:
        """Send, in order, every held entry whose ticket is ≤ *durable*."""
        held = self.held
        if not held or held[0].tag > durable:
            return
        now = time.perf_counter()
        observe = self.obs.registry.observe
        while held and held[0].tag <= durable:
            entry = held.popleft()
            for outbox, frame in entry.frames:
                outbox.put(frame)
            self._held_frames -= len(entry.frames)
            observe("storage.durable_wait_seconds", now - entry.since)

    async def _write_loop(self, writer: asyncio.StreamWriter, outbox: Outbox, timed: bool) -> None:
        """Write *outbox* to *writer* until the link fails (raises).

        Each burst leaves in one write and one ``drain()`` and is popped
        only after the drain succeeds; frames queued meanwhile wait for the
        next burst. A *timed* (peer) link records its drain stalls.
        """
        frames, wake = outbox.frames, outbox.wake
        registry = self.obs.registry
        while True:
            while not frames:
                wake.clear()
                await wake.wait()
            burst = len(frames)
            writer.write(b"".join(islice(frames, burst)))
            if timed:
                started = time.perf_counter()
                await writer.drain()
                stall = time.perf_counter() - started
                registry.observe("net.drain_seconds", stall)
                registry.gauge_max("net.drain_stall_max_seconds", stall)
            else:
                await writer.drain()
            for _ in range(burst):
                frames.popleft()

    async def _read_loop(self, reader: Any, on_burst: Callable[[Burst], bool], link: str) -> None:
        """Hand every burst read from *reader* to *on_burst* until EOF, an
        undecodable frame, :meth:`close`, or *on_burst* returns ``False``."""
        decoder = FrameDecoder(self.codec)
        while not self._closed:
            try:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    raise asyncio.IncompleteReadError(b"", None)
                burst = decoder.feed_sized(data)
            except (asyncio.IncompleteReadError, ConnectionError, CodecError) as exc:
                self.log.debug("inbound link from %s closed (%s)", link, type(exc).__name__)
                return
            if not on_burst(burst):
                return

    async def _peer_sender(self, peer: ProcessId) -> None:
        outbox = self.outboxes[peer]
        backoff = RECONNECT_INITIAL
        while not self._closed:
            try:
                _reader, writer = await dial(
                    self.addresses[peer], self.codec, NodeHello(self.pid), HELLO_TIMEOUT
                )
            except _DIAL_ERRORS as exc:
                if isinstance(exc, HandshakeRefused):
                    self.log.error("link to peer %d refused: %s", peer, exc)
                else:
                    self.log.debug("peer %d unreachable (%s); retry in %.2fs",
                                   peer, type(exc).__name__, backoff)
                self.obs.registry.inc(f"net.reconnects.p{peer}")
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, RECONNECT_MAX)
                continue
            if self._closed:  # 3.11's wait_for can swallow close()'s cancel
                writer.close()
                return
            backoff = RECONNECT_INITIAL
            self._peers_out.add(peer)
            try:  # a task of its own: each wake-up resumes one frame, not two
                await asyncio.get_event_loop().create_task(self._write_loop(writer, outbox, True))
            except (ConnectionError, OSError) as exc:
                self.log.info("link to peer %d dropped (%s); %d frame(s) pending re-send",
                              peer, type(exc).__name__, len(outbox.frames))
            finally:
                self._peers_out.discard(peer)
                writer.close()

    def _accept(self, reader: Any, writer: asyncio.StreamWriter) -> None:
        # A plain callback, so the handler task is ours to cancel and await.
        if self._closed:
            writer.close()  # connected while close() ran; wait_closed() waits on it
            return
        task = asyncio.get_event_loop().create_task(self._on_connection(reader, writer))
        self.inbound[task] = writer
        task.add_done_callback(self._unlink)

    def _unlink(self, task: asyncio.Task) -> None:
        writer = self.inbound.pop(task, None)
        if writer is not None:
            writer.close()

    async def _on_connection(self, reader: Any, writer: asyncio.StreamWriter) -> None:
        enable_nodelay(writer)
        # Sniff the first 4 bytes: an HTTP method is never a legal frame
        # length (b"GET " is ~1.2 GB, far above MAX_FRAME_BYTES).
        try:
            header = await reader.readexactly(4)
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        if header in (b"GET ", b"HEAD"):
            await serve_http(self, header, reader, writer)
            return
        payload_len = int.from_bytes(header, "big")
        if payload_len > MAX_FRAME_BYTES:
            return  # corrupt length prefix (or some other protocol)
        try:
            body = await reader.readexactly(payload_len)
            hello = self.codec.decode_payload(body)
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        except CodecError as exc:
            if body[:1] == b"\x01":  # an older build's v1 hello: refuse it, unread
                self.obs.registry.inc("net.hello_rejected")
                self.log.error("refused a v1 hello (%s)", exc)
            return
        if not isinstance(hello, (NodeHello, ClientHello)):
            return  # anything but a hello closes silently (port scanners)
        if not await self._ack_hello(hello, writer):
            return
        if isinstance(hello, NodeHello):
            kind = "peer"
            serve = self._read_loop(reader, partial(self._deliver, hello.pid), f"peer {hello.pid}")
        else:
            kind = "client"
            serve = self._serve_client(reader, writer, hello.client_id)
        self._links_in[kind] += 1
        try:
            await serve
        finally:
            self._links_in[kind] -= 1

    async def _ack_hello(self, hello: Union[NodeHello, ClientHello], writer: Any) -> bool:
        """Answer an inbound hello; ``False`` when it was refused. The ack
        carries this node's registry hash, so a refused dialer (which would
        misread every id-keyed frame) can name both ends."""
        ours = self.codec.registry_hash
        accepted = hello.registry_hash == ours
        writer.write(self.codec.encode(HelloAck(accepted, ours)))
        await writer.drain()
        if not accepted:
            self.obs.registry.inc("net.hello_rejected")
            self.log.error("refused %r: this node's registry is %s", hello, ours)
        return accepted

    async def _serve_client(self, reader: Any, writer: Any, client_id: str) -> None:
        outbox = Outbox()
        flusher = asyncio.get_event_loop().create_task(self._write_loop(writer, outbox, False))
        try:
            await self._read_loop(reader, partial(self._request, outbox), f"client {client_id}")
        finally:
            if not flusher.cancel() and not flusher.cancelled():
                flusher.exception()  # it ended first: the link broke mid-write
