"""The benchmark's own inputs: seeded, reproducible, exactly counted."""

import itertools

from loadgen import command_stream, paced_schedule, take
from workloads import KEY_SPACE, PUT_FRACTION, VALUE_BYTES


class TestCommandStream:
    def test_same_seed_same_commands(self):
        assert take(command_stream(7, "conn-0"), 500) == take(command_stream(7, "conn-0"), 500)

    def test_longer_run_extends_the_same_stream(self):
        assert take(command_stream(7, "conn-0"), 800)[:500] == take(command_stream(7, "conn-0"), 500)

    def test_seeds_differ(self):
        assert take(command_stream(7, "conn-0"), 200) != take(command_stream(8, "conn-0"), 200)

    def test_connections_draw_independent_streams_with_disjoint_ids(self):
        first = take(command_stream(7, "conn-0"), 200)
        second = take(command_stream(7, "conn-1"), 200)
        assert [c[:3] for c in first] != [c[:3] for c in second]
        assert not {c[3] for c in first} & {c[3] for c in second}

    def test_shape_of_commands(self):
        commands = take(command_stream(3, "conn-0"), 4000)
        assert len({c[3] for c in commands}) == len(commands)
        puts = [c for c in commands if c[0] == "put"]
        gets = [c for c in commands if c[0] == "get"]
        assert len(puts) + len(gets) == len(commands)
        assert abs(len(puts) / len(commands) - PUT_FRACTION) < 0.03
        assert all(len(c[2]) == VALUE_BYTES for c in puts)
        assert all(c[2] is None for c in gets)
        indexes = {int(c[1][1:]) for c in commands}
        assert all(c[1].startswith("k") for c in commands)
        assert min(indexes) >= 0 and max(indexes) < KEY_SPACE
        assert len(indexes) > KEY_SPACE // 2  # uniform, not a hot few

    def test_stream_is_endless(self):
        assert len(list(itertools.islice(command_stream(1, "x"), 10000))) == 10000


class TestPacedSchedule:
    def test_exact_count_and_due_times(self):
        rate, seconds = 200.0, 5.0
        due = paced_schedule(11, "conn-0", rate, seconds)
        assert len(due) == 1000
        for index, offset in enumerate(due):
            assert index / rate <= offset < (index + 1) / rate
        assert due == sorted(due)
        assert due[-1] < seconds

    def test_fixed_by_seed(self):
        assert paced_schedule(11, "conn-0", 200.0, 2.0) == paced_schedule(11, "conn-0", 200.0, 2.0)
        assert paced_schedule(11, "conn-0", 200.0, 2.0) != paced_schedule(12, "conn-0", 200.0, 2.0)
        assert paced_schedule(11, "conn-0", 200.0, 2.0) != paced_schedule(11, "conn-1", 200.0, 2.0)
