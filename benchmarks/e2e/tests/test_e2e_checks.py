"""The correctness checks must catch each kind of wrong run."""

import checks

PUT_A = ("put", "k1", "aaaa", "c-0")
GET_A = ("get", "k1", None, "c-1")
PUT_B = ("put", "k1", "bbbb", "c-2")
NOOP = ("noop", "", None, "__noop:0:3__")
CATALOG = ("put", "__placement__", "{}", "seed-1")


def test_identical_logs_pass_and_divergent_logs_fail():
    log = [PUT_A, GET_A, NOOP]
    assert checks.logs_identical({0: [log, list(log), list(log)]}) == []
    assert checks.logs_identical({0: [log, log[:2], log]})
    assert checks.logs_identical({0: [log, [PUT_A, PUT_B, NOOP], log]})
    assert checks.logs_identical({0: []})


def test_applied_exactly_once_across_groups():
    logs = {0: [[PUT_A, NOOP, CATALOG]], 1: [[GET_A, PUT_B]]}
    acked = {"c-0": "aaaa", "c-1": None, "c-2": "bbbb"}
    assert checks.applied_exactly_once(logs, acked) == []
    assert checks.applied_exactly_once(logs, {**acked, "c-9": 1})  # lost ack
    twice = {0: [[PUT_A]], 1: [[PUT_A]]}
    assert checks.applied_exactly_once(twice, {"c-0": "aaaa"})
    # Control-plane entries are not part of the obligation.
    assert checks.applied_exactly_once({0: [[NOOP, NOOP, CATALOG]]}, {}) == []


def test_results_must_match_a_sequential_replay():
    logs = {0: [[PUT_A, GET_A, PUT_B]]}
    assert checks.wrong_results(logs, {"c-0": "aaaa", "c-1": "aaaa", "c-2": "bbbb"}) == []
    assert checks.wrong_results(logs, {"c-1": "bbbb"}) == ["c-1"]  # stale/future read
    assert checks.wrong_results(logs, {"c-1": None}) == ["c-1"]
    assert checks.wrong_results({0: [[GET_A]]}, {"c-1": None}) == []  # unset key reads None
    # Unacknowledged commands still move the model.
    assert checks.wrong_results(logs, {"c-1": "aaaa"}) == []


def test_acked_puts_must_survive_recovery_on_every_replica():
    full = [PUT_A, GET_A, PUT_B]
    assert checks.acked_puts_recovered({0: [full, full, full]}, ["c-0", "c-2"]) == []
    problems = checks.acked_puts_recovered({0: [full, [PUT_A], full]}, ["c-0", "c-2"])
    assert len(problems) == 1 and "replica 1" in problems[0]


def test_group_imbalance():
    logs = {0: [[PUT_A, GET_A, PUT_B]], 1: [[("put", "k2", "x", "c-3")]]}
    assert checks.group_imbalance(logs, ["c-0", "c-1", "c-2", "c-3"]) == 0.5
    assert checks.group_imbalance(logs, ["c-0", "c-3"]) == 0.0
