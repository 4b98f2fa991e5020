"""The timing statistics: each operation at the median of its repeats,
repeats of the same work pooled, warm-up rounds left out."""

import pytest

from perfbench.common import Deadline, Op, RunLog, end_to_end_metrics


def _op(round_index, key, wall, work=None, hit=False):
    return Op(round_index, key, wall, wall, hit=hit, mahjong=False,
              work=work)


def test_each_operation_at_its_median_repeat():
    log = RunLog()
    for round_index, (a, b) in enumerate([(1.0, 2.0), (9.0, 2.2),
                                          (1.2, 7.0)]):
        log.add(_op(round_index, "a", a))
        log.add(_op(round_index, "b", b))
    metrics = end_to_end_metrics(log, 1.0)
    assert metrics["wall_s"]["value"] == pytest.approx(1.2 + 2.2)
    assert metrics["ops_per_s"]["value"] == pytest.approx(2 / 3.4)


def test_repeats_of_the_same_work_are_pooled():
    # positions 0 and 1 do the same work: their six repeats share one
    # median; position 2 keeps its own
    log = RunLog(steady_from=1)
    rows = [(5.0, 5.0, 5.0), (1.0, 2.0, 3.0), (4.0, 5.0, 6.0),
            (6.0, 1.5, 9.0)]
    for round_index, (x, y, z) in enumerate(rows):
        log.add(_op(round_index, 0, x, work="w", hit=True))
        log.add(_op(round_index, 1, y, work="w", hit=True))
        log.add(_op(round_index, 2, z))
    metrics = end_to_end_metrics(log, 1.0)
    pooled = 3.0  # median of 1, 4, 6, 2, 5, 1.5
    assert metrics["wall_s"]["value"] == pytest.approx(2 * pooled + 6.0)
    assert metrics["hit_p50_ms"]["value"] == pytest.approx(pooled * 1000)
    assert metrics["miss_p50_ms"]["value"] == pytest.approx(6000.0)


def test_deadline_counts_only_steady_rounds():
    log = RunLog(steady_from=1)
    log.add(_op(0, 0, 5.0))
    deadline = Deadline(4.0)
    assert log.measured_seconds == 0.0
    assert not deadline.reached(log)
    log.add(_op(1, 0, 4.5))
    assert deadline.reached(log)
