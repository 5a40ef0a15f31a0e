"""KV client for the live cluster: request ids, timeouts, failover.

A :class:`KVClient` speaks the client side of the wire protocol in
:mod:`repro.net.wire`: it connects to one proxy node (Schneider's
client-to-proxy model, same as :mod:`repro.smr.client` simulates), sends
:class:`~repro.net.wire.ClientSubmit` frames, and reads the matching
:class:`~repro.net.wire.ClientReply` frames back in bulk.

:meth:`KVClient.run_pipelined` is the one request path: up to ``window``
commands outstanding on one connection, submits coalesced into single
writes. :meth:`KVClient.submit` is that path with a window of one. On
failure the whole outstanding window fails over and is re-submitted:

* each submission attempt gets a fresh ``request_id`` but keeps the
  command's ``command_id``, so retries are idempotent end-to-end (the
  KV store suppresses duplicate application by id);
* a timeout or connection error rotates the client to the next proxy in
  its address book and retries after exponential backoff;
* replies are matched by ``command_id`` rather than ``request_id`` so a
  late reply to an earlier attempt of the same command still completes it.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.errors import ReproError
from ..smr.kvstore import KVCommand
from . import transport
from .codec import CodecError, FrameDecoder, MessageCodec
from .transport import _READ_CHUNK, Address, dial
from .wire import ClientHello, ClientReply, ClientSubmit, WrongShard

#: Cap on the exponential backoff between attempts, in seconds.
BACKOFF_MAX = 1.0
#: How long a proxy that failed us is skipped by failover, in seconds.
DEAD_COOLDOWN = 10.0


def _time_out(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """A read outlived the client's timeout: fail it and abort the link."""
    reader.set_exception(asyncio.TimeoutError())
    writer.transport.abort()


class ClientError(ReproError):
    """Raised when a command could not be completed within the retry budget."""


class PipelineError(ClientError):
    """A run exhausted its retry budget with work left over.

    A run fails its whole outstanding window at once (a window of one for
    :meth:`KVClient.submit`). This subclass keeps the partial result
    addressable: ``replies`` holds everything that *did* complete (by
    ``command_id``) and ``pending`` the command ids still unfinished, so
    the load generator can report per-command outcomes instead of one
    opaque lump.
    """

    def __init__(
        self,
        message: str,
        replies: Dict[str, "ClientReply"],
        pending: Sequence[str],
    ) -> None:
        super().__init__(message)
        self.replies = dict(replies)
        self.pending = tuple(pending)


class KVClient:
    """One client session against a live cluster, pipelined or not."""

    def __init__(
        self,
        addresses: Sequence[Address],
        client_id: str,
        codec: Optional[MessageCodec] = None,
        timeout: float = 5.0,
        max_attempts: int = 8,
        backoff_initial: float = 0.05,
        proxy: int = 0,
    ) -> None:
        if not addresses:
            raise ClientError("client needs at least one proxy address")
        self.addresses = list(addresses)
        self.client_id = client_id
        self.codec = codec if codec is not None else MessageCodec()
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_initial = backoff_initial
        self.proxy = proxy % len(self.addresses)
        self._seq = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        # Proxy blacklist: proxies that recently failed us, with the time
        # of the failure. Avoided until the cooldown elapses so a crashed
        # node does not cost one timeout per designated command.
        self._dead: Dict[int, float] = {}
        # WrongShard redirects collected by the last run_pipelined call,
        # keyed by command_id. A sharded router drains these and re-routes
        # the commands to the group the redirect named.
        self.redirects: Dict[str, WrongShard] = {}

    # ------------------------------------------------------------------
    # Connection management.
    # ------------------------------------------------------------------

    async def _ensure_connected(self) -> None:
        if self._writer is not None:
            return
        # A refused handshake raises HandshakeRefused, a ConnectionError:
        # the request path fails over to the next proxy like on any drop.
        self._reader, self._writer = await dial(
            self.addresses[self.proxy],
            self.codec,
            ClientHello(self.client_id),
            transport.HELLO_TIMEOUT,
        )

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
        self._reader = None
        self._writer = None

    def _alive(self, proxy: int) -> bool:
        failed_at = self._dead.get(proxy)
        return failed_at is None or time.monotonic() - failed_at > DEAD_COOLDOWN

    def _fail_over(self) -> None:
        self._dead[self.proxy] = time.monotonic()
        total = len(self.addresses)
        for step in range(1, total + 1):
            candidate = (self.proxy + step) % total
            if self._alive(candidate):
                self.proxy = candidate
                return
        # Every proxy recently failed: round-robin regardless.
        self.proxy = (self.proxy + 1) % total

    # ------------------------------------------------------------------
    # The request path.
    # ------------------------------------------------------------------

    async def submit(
        self,
        command: KVCommand,
        proxy: Optional[int] = None,
        trace_id: Optional[str] = None,
    ) -> ClientReply:
        """:meth:`run_pipelined` for one command, with a window of one.

        ``proxy`` pins the preferred proxy for the first attempt (the load
        generator uses this to replay a workload's proxy assignment);
        ``trace_id`` asks the proxy to span-trace this command end to end.
        Against a *sharded* node the result may be a
        :class:`~repro.net.wire.WrongShard` redirect instead of a reply —
        :class:`repro.shard.ShardRouter` resolves those.
        """
        replies = await self.run_pipelined(
            [command],
            window=1,
            proxy=proxy,
            traces={command.command_id: trace_id} if trace_id else None,
        )
        if command.command_id in replies:
            return replies[command.command_id]
        return self.redirects[command.command_id]  # type: ignore[return-value]

    async def run_pipelined(
        self,
        commands: Sequence[KVCommand],
        window: int = 16,
        proxy: Optional[int] = None,
        on_reply: Optional[Callable[[ClientReply, float], None]] = None,
        traces: Optional[Dict[str, str]] = None,
    ) -> Dict[str, ClientReply]:
        """Drive *commands* with up to *window* outstanding at once.

        Returns replies keyed by ``command_id``. ``on_reply`` fires per
        completion with the reply and the client-observed latency of the
        completing attempt (seconds). Failures rotate proxies and
        re-submit everything not yet completed; after ``max_attempts``
        rounds a :class:`ClientError` reports how much is left.
        ``traces`` maps command ids to trace ids to stamp onto their
        submits (ignored by a proxy that records no spans).

        A ``WrongShard`` redirect also completes a command for *this*
        run: the command leaves the pending window and lands in
        :attr:`redirects` (cleared at the start of each run) for the
        sharded router to re-route.
        """
        if window < 1:
            raise ClientError(f"pipeline window must be >= 1, got {window}")
        self.redirects = {}
        pending: Dict[str, KVCommand] = {}
        for command in commands:
            if not command.command_id:
                raise ClientError("pipelined commands need a unique command_id")
            pending[command.command_id] = command
        replies: Dict[str, ClientReply] = {}
        if not pending:
            return replies
        last_error: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            if proxy is not None and attempt == 0:
                preferred = proxy % len(self.addresses)
                if preferred != self.proxy and self._alive(preferred):
                    await self.close()
                    self.proxy = preferred
            try:
                await self._ensure_connected()
                await self._pipeline_attempt(
                    pending, replies, window, on_reply, traces
                )
                return replies
            except (
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
                ConnectionError,
                CodecError,
                OSError,
            ) as exc:
                last_error = exc
                await self.close()
                self._fail_over()
                await asyncio.sleep(
                    min(self.backoff_initial * (2 ** attempt), BACKOFF_MAX)
                )
        raise PipelineError(
            f"{len(pending)} of {len(pending) + len(replies)} pipelined commands "
            f"incomplete after {self.max_attempts} attempts: {last_error!r}",
            replies=replies,
            pending=sorted(pending),
        )

    async def _pipeline_attempt(
        self,
        pending: Dict[str, KVCommand],
        replies: Dict[str, ClientReply],
        window: int,
        on_reply: Optional[Callable[[ClientReply, float], None]],
        traces: Optional[Dict[str, str]] = None,
    ) -> None:
        """One connection's worth of open-loop submission."""
        assert self._reader is not None and self._writer is not None
        reader, writer = self._reader, self._writer
        if traces is None:
            traces = {}
        # Bulk receive mirrors the server's serve loops: one read() per
        # TCP burst of replies instead of two readexactly() per frame.
        # The read is awaited directly, not under asyncio.wait_for: on
        # Python 3.11 wait_for drops a cancellation that arrives in the
        # tick its read completes. A timer aborts the link instead.
        loop = asyncio.get_running_loop()
        decoder = FrameDecoder(self.codec)
        to_send = deque(pending.values())
        sent_at: Dict[str, float] = {}
        outstanding = 0
        while pending:
            if to_send and outstanding < window:
                frames: List[bytes] = []
                now = time.perf_counter()
                while to_send and outstanding < window:
                    command = to_send.popleft()
                    request_id = f"{self.client_id}:{self._seq}"
                    self._seq += 1
                    frames.append(
                        self.codec.encode(
                            ClientSubmit(
                                request_id,
                                command,
                                trace_id=traces.get(command.command_id, ""),
                            )
                        )
                    )
                    sent_at[command.command_id] = now
                    outstanding += 1
                writer.write(b"".join(frames))
                await writer.drain()
            expiry = loop.call_later(self.timeout, _time_out, reader, writer)
            try:
                data = await reader.read(_READ_CHUNK)
            finally:
                expiry.cancel()
            if not data:
                raise asyncio.IncompleteReadError(b"", None)
            for message, _size in decoder.feed_sized(data):
                if isinstance(message, WrongShard):
                    if pending.pop(message.command_id, None) is not None:
                        outstanding -= 1
                        self.redirects[message.command_id] = message
                    continue
                if not isinstance(message, ClientReply):
                    continue
                command = pending.pop(message.command_id, None)
                if command is None:
                    continue  # reply to a superseded attempt; already completed
                outstanding -= 1
                replies[message.command_id] = message
                if on_reply is not None:
                    elapsed = time.perf_counter() - sent_at.get(
                        message.command_id, time.perf_counter()
                    )
                    on_reply(message, elapsed)

    # ------------------------------------------------------------------
    # Convenience operations.
    # ------------------------------------------------------------------

    def _next_command_id(self) -> str:
        return f"{self.client_id}/op-{self._seq}"

    async def put(self, key: str, value: Any) -> ClientReply:
        return await self.submit(
            KVCommand(op="put", key=key, value=value, command_id=self._next_command_id())
        )

    async def get(self, key: str) -> ClientReply:
        return await self.submit(
            KVCommand(op="get", key=key, command_id=self._next_command_id())
        )


def parse_address_list(text: str) -> List[Address]:
    """Parse ``host:port,host:port,...`` (the CLI's ``--peers`` format)."""
    addresses: List[Address] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        host, _, port = chunk.rpartition(":")
        if not host or not port.isdigit() or not 1 <= int(port) <= 65535:
            raise ClientError(f"bad address {chunk!r}; expected host:port, port 1-65535")
        addresses.append((host, int(port)))
    if not addresses:
        raise ClientError(f"no addresses in {text!r}")
    return addresses
