"""Unit tests for the per-slot decision-record merge.

Decision records are each node's one per-decision record (path, ballot,
value id, decision time); the merge folds them cluster-wide.
"""

from repro.obs import (
    PATH_FAST,
    PATH_LEARNED,
    PATH_SLOW,
    decision_record,
    merge_decision_records,
    slot_paths,
)


class TestMergeDecisionRecords:
    def test_fast_beats_slow_beats_learned(self):
        per_node = {
            0: [decision_record(slot=0, path=PATH_LEARNED, ballot=None, value_id="v")],
            1: [decision_record(slot=0, path=PATH_FAST, ballot=0, value_id="v")],
            2: [decision_record(slot=0, path=PATH_SLOW, ballot=2, value_id="v")],
        }
        merged = merge_decision_records(per_node)
        slot = merged["slots"][0]
        assert slot["path"] == PATH_FAST
        assert slot["ballot"] == 0
        assert slot["paths"] == {0: PATH_LEARNED, 1: PATH_FAST, 2: PATH_SLOW}
        assert merged["fast_slots"] == 1 and merged["slow_slots"] == 0
        assert merged["fast_path_ratio"] == 1.0
        assert merged["conflicts"] == []

    def test_all_learned_slot_is_excluded_from_ratio(self):
        per_node = {
            0: [decision_record(slot=3, path=PATH_LEARNED, ballot=None, value_id="v")],
        }
        merged = merge_decision_records(per_node)
        assert merged["slots"][3]["path"] == PATH_LEARNED
        assert merged["fast_path_ratio"] is None

    def test_value_disagreement_is_a_conflict(self):
        per_node = {
            0: [decision_record(slot=0, path=PATH_FAST, ballot=0, value_id="a")],
            1: [decision_record(slot=0, path=PATH_FAST, ballot=0, value_id="b")],
        }
        merged = merge_decision_records(per_node)
        assert len(merged["conflicts"]) == 1
        assert "slot 0" in merged["conflicts"][0]

    def test_latency_backfills_from_any_node(self):
        per_node = {
            0: [decision_record(slot=0, path=PATH_LEARNED, ballot=None, value_id="v")],
            1: [
                decision_record(
                    slot=0, path=PATH_FAST, ballot=0, value_id="v", latency_seconds=0.2
                )
            ],
        }
        merged = merge_decision_records(per_node)
        assert merged["slots"][0]["latency_seconds"] == 0.2

    def test_slot_paths_view(self):
        per_node = {
            0: [
                decision_record(slot=0, path=PATH_FAST, ballot=0, value_id="v"),
                decision_record(slot=1, path=PATH_SLOW, ballot=1, value_id="w"),
            ],
        }
        merged = merge_decision_records(per_node)
        assert slot_paths(merged) == {0: PATH_FAST, 1: PATH_SLOW}
        assert merged["fast_path_ratio"] == 0.5
