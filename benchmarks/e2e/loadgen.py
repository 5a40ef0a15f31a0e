"""The benchmark's own seeded inputs: command streams and paced schedules.

Nothing here imports the system under test; commands are plain tuples
that ``sut.py`` turns into ``KVCommand`` objects. The same seed gives the
same inputs, whatever the run length: a longer run reads further into
the same stream.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from workloads import KEY_SPACE, PUT_FRACTION, VALUE_BYTES

#: ``(op, key, value, command_id)``
PlainCommand = Tuple[str, str, Optional[str], str]


def command_stream(seed: int, stream: str) -> Iterator[PlainCommand]:
    """Endless 70/30 put/get stream over ``k0..k1023``, uniform keys.

    *stream* names the consumer (``warm-0``, ``conn-1`` ...), so every
    connection draws an independent, reproducible sequence and command
    ids never collide within a repeat.
    """
    rng = random.Random(f"{seed}:{stream}")
    hex_digits = VALUE_BYTES
    bits = 4 * hex_digits
    index = 0
    while True:
        key = f"k{rng.randrange(KEY_SPACE)}"
        command_id = f"{stream}-{index}"
        if rng.random() < PUT_FRACTION:
            value = f"{rng.getrandbits(bits):0{hex_digits}x}"
            yield ("put", key, value, command_id)
        else:
            yield ("get", key, None, command_id)
        index += 1


def take(stream: Iterator[PlainCommand], count: int) -> List[PlainCommand]:
    return [next(stream) for _ in range(count)]


def paced_schedule(
    seed: int, stream: str, rate: float, seconds: float
) -> List[float]:
    """Due offsets (seconds from window start) for one paced connection.

    Command *i* is due at ``(i + u_i) / rate`` with ``u_i`` uniform in
    [0, 1) from the seed: arrivals are jittered, not in lock-step with
    the other connection, yet the count is exactly ``rate * seconds`` —
    so completed / window must equal the offered rate, and anything
    less is backlog.
    """
    rng = random.Random(f"{seed}:{stream}:due")
    count = int(round(rate * seconds))
    return [(index + rng.random()) / rate for index in range(count)]
