"""Tests of the benchmark's checker and of its independent universe counts.

    python3 -m pytest perfbench/test_reference.py
"""

import copy

import pytest

from reference import WORKLOADS, check, connected_count, graph_count

# OEIS A000088 and A001349
GRAPHS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668]
CONNECTED = [1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571]


def test_graph_counts():
    assert [graph_count(n) for n in range(10)] == GRAPHS


def test_connected_counts():
    assert [connected_count(n) for n in range(1, 11)] == CONNECTED


def _correct_report(workload):
    return {
        "n": workload.n,
        "universe": CONNECTED[workload.n - 1],
        "results": [{"spec": spec, "mates": mates}
                    for spec, mates in workload.mates.items()],
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_correct_report_passes(name):
    assert check(WORKLOADS[name], _correct_report(WORKLOADS[name])) == (0, [])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("delta", (-1, 1))
def test_universe_off_by_one_fails(name, delta):
    report = _correct_report(WORKLOADS[name])
    report["universe"] += delta
    failed, problems = check(WORKLOADS[name], report)
    assert failed == 1 and "universe" in problems[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("delta", (-1, 1))
def test_each_mate_count_off_by_one_fails(name, delta):
    workload = WORKLOADS[name]
    for i, spec in enumerate(workload.mates):
        report = copy.deepcopy(_correct_report(workload))
        report["results"][i]["mates"] += delta
        failed, problems = check(workload, report)
        assert failed == 1 and problems[0].startswith(spec + ":")


def test_missing_spec_fails():
    workload = WORKLOADS["file8-distance-snf-two-pass"]
    report = _correct_report(workload)
    del report["results"][-1]
    assert check(workload, report)[0] == 1

