"""Codec microbenchmark: JSON v1 vs binary v2 on the hot SMR messages.

Measures encode ops/s, decode ops/s, and bytes-per-message for the five
message shapes that dominate the live SMR fast path — the slot-enveloped
``Propose``/``TwoB``/``Decide`` carrying a command batch, plus the client
edge (``ClientSubmit``/``ClientReply``) — under both wire formats of
``repro.net.codec``. The machine-readable rows land in
``results/codec_micro.json`` and back the ISSUE/PAPER_MAP claims about
bytes per protocol step; the CI perf job runs this module as the codec
perf-smoke floor.

Methodology: each shape is instantiated 64× with distinct identities so
the measurement exercises the encoder on fresh values; this bench pins
the raw per-message cost, the end-to-end effect is ``benchmarks/e2e``'s.

Floors (conservative; committed tables show the real margins):

* binary frames ≤ 0.6× the JSON frame size for every hot shape (the
  acceptance criterion is ≥ 40% smaller);
* binary encode ≥ 1.5× JSON encode ops/s for every hot shape;
* binary decode ≥ 0.9× JSON decode ops/s (decode is dominated by
  message-object construction, identical under both formats).
"""

import json
import pathlib
import time

from repro.analysis import render_records
from repro.net.codec import (
    WIRE_VERSION_BINARY,
    WIRE_VERSION_JSON,
    MessageCodec,
)
from repro.net.wire import ClientReply, ClientSubmit
from repro.protocols.twostep import Decide, Propose, TwoB
from repro.smr.kvstore import CommandBatch, KVCommand
from repro.smr.log import Slotted
from repro.storage import atomic_write_text

from conftest import RESULTS_DIR, emit

#: Distinct instances per shape (defeats any caching along the path).
VARIANTS = 64
#: Encode/decode repetitions over the variant pool per measurement.
ROUNDS = 40

MAX_BINARY_SIZE_RATIO = 0.60
MIN_ENCODE_SPEEDUP = 1.5
MIN_DECODE_RATIO = 0.9


def _batch(tag: int) -> CommandBatch:
    return CommandBatch(
        commands=tuple(
            KVCommand(
                op="put",
                key=f"key-{index}",
                value=f"value-{tag}-{index:04d}",
                command_id=f"client-{tag}:cmd-{index:06d}",
            )
            for index in range(8)
        ),
        batch_id=f"batch-{tag:06d}",
    )


def _hot_messages():
    """The five hottest shapes on the live SMR path, 64 variants each."""
    return {
        "Slotted/Propose+batch8": [
            Slotted(slot=tag, inner=Propose(value=_batch(tag)))
            for tag in range(VARIANTS)
        ],
        "Slotted/TwoB+batch8": [
            Slotted(slot=tag, inner=TwoB(ballot=0, value=_batch(tag)))
            for tag in range(VARIANTS)
        ],
        "Slotted/Decide+batch8": [
            Slotted(slot=tag, inner=Decide(value=_batch(tag)))
            for tag in range(VARIANTS)
        ],
        "ClientSubmit": [
            ClientSubmit(
                request_id=f"client-{tag}:req-{tag:06d}",
                command=KVCommand(
                    op="put",
                    key=f"key-{tag % 8}",
                    value=f"value-{tag:04d}",
                    command_id=f"client-{tag}:cmd-{tag:06d}",
                ),
            )
            for tag in range(VARIANTS)
        ],
        "ClientReply": [
            ClientReply(
                request_id=f"client-{tag}:req-{tag:06d}",
                command_id=f"client-{tag}:cmd-{tag:06d}",
                result=f"value-{tag:04d}",
                commit_seconds=0.002 + tag / 100000.0,
            )
            for tag in range(VARIANTS)
        ],
    }


def _ops_per_sec(fn, items) -> float:
    start = time.perf_counter()
    for _ in range(ROUNDS):
        for item in items:
            fn(item)
    elapsed = time.perf_counter() - start
    return ROUNDS * len(items) / elapsed


def _measure():
    codecs = {
        "json": MessageCodec(wire_version=WIRE_VERSION_JSON),
        "binary": MessageCodec(wire_version=WIRE_VERSION_BINARY),
    }
    rows = []
    for shape, messages in _hot_messages().items():
        row = {"message": shape}
        for name, codec in codecs.items():
            frames = [codec.encode(message) for message in messages]
            row[f"{name}_bytes"] = round(
                sum(len(frame) for frame in frames) / len(frames), 1
            )
            row[f"{name}_encode_per_sec"] = round(
                _ops_per_sec(codec.encode, messages)
            )
            row[f"{name}_decode_per_sec"] = round(
                _ops_per_sec(codec.decode, frames)
            )
        row["size_ratio"] = round(row["binary_bytes"] / row["json_bytes"], 3)
        row["encode_speedup"] = round(
            row["binary_encode_per_sec"] / row["json_encode_per_sec"], 2
        )
        row["decode_speedup"] = round(
            row["binary_decode_per_sec"] / row["json_decode_per_sec"], 2
        )
        rows.append(row)
    return rows


def bench_codec_micro(once):
    rows = once(_measure)
    emit(
        "codec_micro",
        render_records(
            rows,
            title=(
                "CODEC — hot SMR messages, JSON v1 vs binary v2 "
                f"({VARIANTS} variants x {ROUNDS} rounds)"
            ),
        ),
    )
    payload = {
        "rows": rows,
        "config": {"variants": VARIANTS, "rounds": ROUNDS, "batch_commands": 8},
        "floors": {
            "max_binary_size_ratio": MAX_BINARY_SIZE_RATIO,
            "min_encode_speedup": MIN_ENCODE_SPEEDUP,
            "min_decode_ratio": MIN_DECODE_RATIO,
        },
    }
    atomic_write_text(
        pathlib.Path(RESULTS_DIR) / "codec_micro.json",
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )
    for row in rows:
        assert row["size_ratio"] <= MAX_BINARY_SIZE_RATIO, (
            f"{row['message']}: binary frames are {row['size_ratio']:.0%} of "
            f"JSON — above the {MAX_BINARY_SIZE_RATIO:.0%} ceiling"
        )
        assert row["encode_speedup"] >= MIN_ENCODE_SPEEDUP, (
            f"{row['message']}: binary encode only {row['encode_speedup']}x "
            f"JSON (floor {MIN_ENCODE_SPEEDUP}x)"
        )
        assert row["decode_speedup"] >= MIN_DECODE_RATIO, (
            f"{row['message']}: binary decode fell to {row['decode_speedup']}x "
            f"JSON (floor {MIN_DECODE_RATIO}x)"
        )
