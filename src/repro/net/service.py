"""The KV client service: what a node does with a client's submit.

:class:`KVService` checks each :class:`~repro.net.wire.ClientSubmit` at
the trust boundary, injects it into the node's
:class:`~repro.smr.log.SMRReplica` as a
:class:`~repro.smr.log.SubmitCommand` from the reserved ``CLIENT``
sender, and answers once the replica applied the command.
:class:`~repro.shard.service.ShardedKVService` subclasses it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from ..core.process import CLIENT
from ..smr.kvstore import KVCommand
from ..smr.log import SubmitCommand
from .wire import ClientReply, ClientSubmit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import NodeServer


class KVService:
    """Serve the replicated KV store hosted by an :class:`SMRReplica`."""

    def __init__(self) -> None:
        # command_id -> [(request_id, reply callable)]; a list because a
        # client may retry a command under a new request id.
        self._pending: Dict[str, List[Tuple[str, Callable[[ClientReply], None]]]] = {}

    def submit(
        self,
        node: "NodeServer",
        request: ClientSubmit,
        reply: Callable[[ClientReply], None],
    ) -> bool:
        """Take one submit; ``False`` refuses it and the node closes the link.

        The trust boundary: a payload that is not a :class:`KVCommand`
        with a ``command_id`` is refused before anything reads it.
        """
        command = request.command
        if not isinstance(command, KVCommand) or not command.command_id:
            node.obs.registry.inc("net.submit_rejected")
            node.log.warning("refused submit %r: no command_id", request.request_id)
            return False
        self._propose(node, request, reply)
        return True

    def _propose(
        self,
        node: "NodeServer",
        request: ClientSubmit,
        reply: Callable[[ClientReply], None],
    ) -> None:
        replica = node.process
        command_id = request.command.command_id
        # *reply* holds these two answers, like any other, while the
        # node's latest records are not durable: the result or commit
        # they report may be in flight.
        if command_id in replica.results:
            # A retry of a command this proxy already answered.
            reply(self._result_reply(node, request.request_id, command_id))
            return
        if command_id in replica.commit_times and command_id in replica.store.applied_ids:
            # Committed and applied before this proxy saw the submission
            # (client failover re-submitted a command another proxy
            # already drove to completion). The command is durable but
            # its original result was observed elsewhere — and, being
            # applied without a local submission, never will be here.
            reply(
                ClientReply(
                    request_id=request.request_id,
                    command_id=command_id,
                    result=None,
                    commit_seconds=0.0,
                    duplicate=True,
                )
            )
            return
        self._pending.setdefault(command_id, []).append((request.request_id, reply))
        node._activate(
            lambda ctx: replica.on_message(
                ctx,
                CLIENT,
                SubmitCommand(request.command, trace_id=request.trace_id),
            )
        )

    def poll(self, node: "NodeServer") -> None:
        """Called after every activation: answer the commands it finished."""
        # O(completed): the replica hands over the ids it just finished.
        finished = node.process.finished
        if not finished:
            return
        for command_id in finished:
            for request_id, reply in self._pending.pop(command_id, ()):
                reply(self._result_reply(node, request_id, command_id))
        finished.clear()

    @staticmethod
    def _result_reply(
        node: "NodeServer", request_id: str, command_id: str
    ) -> ClientReply:
        replica = node.process
        result, applied_at = replica.results[command_id]
        commit = replica.commit_times.get(command_id, 0.0) - replica.submissions.get(
            command_id, 0.0
        )
        trace_id = replica.command_traces.get(command_id, "")
        if trace_id:
            now = node.now
            node.obs.spans.record(trace_id, "reply", now, command=command_id)
            node.obs.registry.observe(
                "stage.reply_seconds", max(0.0, now - applied_at)
            )
        return ClientReply(
            request_id=request_id,
            command_id=command_id,
            result=result,
            commit_seconds=max(commit, 0.0),
            trace_id=trace_id,
        )


__all__ = ["KVService"]
