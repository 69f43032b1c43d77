"""The parity dump tool and the harness normalizer, on canned dumps."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from tests.differential import DROPPED_FIELDS, normalize

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity_dump.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("parity_dump", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dump(batch_size=7, wall=0.25, faults=None):
    cost = {"od_filter": 17.1, "retry_backoff": 1.0}
    stats = {"batch_size": batch_size, "wall_clock_seconds": wall, "faults": faults,
             "simulated_cost": {"per_component_ms": cost}}
    parallel = {"num_chunks": 2, "cost": {"per_worker": (cost,), "wall_clock_seconds": wall}}
    return {"queries": ({"matched_frames": (1, 4), "stats": stats},),
            "shared": {"parallel": parallel, "merged": cost}}


def test_the_normalizer_drops_exactly_the_varying_fields():
    assert DROPPED_FIELDS == {
        "wall_clock_seconds", "per_worker", "merged", "faults", "respawns", "redispatches",
    }
    canned = _dump(faults={"retries": 1})
    canned["shared"]["supervisor"] = {"respawns": 1, "redispatches": 2, "generation": 1}
    assert normalize(canned) == {
        "queries": [{"matched_frames": [1, 4], "stats": {
            "batch_size": 7, "simulated_cost": {"per_component_ms": {"od_filter": 17.1}},
        }}],
        "shared": {"parallel": {"num_chunks": 2, "cost": {}}, "supervisor": {"generation": 1}},
    }
    # A recovered run and a clean one normalize alike; other fields do not.
    assert normalize(_dump(wall=0.5, faults={"retries": 1})) == normalize(_dump())
    assert normalize(_dump(batch_size=None)) != normalize(_dump())


def test_a_one_field_difference_names_the_config_and_the_field_path(tool):
    ids = ["inline", "temporal-exact", "thread2"]
    parent = {config_id: normalize(_dump()) for config_id in ids}
    change = dict(parent, **{"temporal-exact": normalize(_dump(batch_size=None))})
    assert tool.compare(ids, parent, change) == (
        ["temporal-exact: queries[0].stats.batch_size", "2/3 configs equal"], False
    )
    change["thread2"] = {"error": "RuntimeError: boom"}
    assert tool.compare(ids, parent, change)[0][1] == "thread2: change raised RuntimeError: boom"


def test_the_exit_status_is_zero_only_when_every_config_is_equal(tool, monkeypatch, capsys):
    ids = ["inline", "batch7"]
    dumps = {"parent": {config_id: normalize(_dump()) for config_id in ids}}
    monkeypatch.setattr(tool, "_export", lambda rev, into: "abc1234")
    monkeypatch.setattr(tool, "dump", lambda src, ids, out: dumps[out.stem])
    dumps["change"] = dict(dumps["parent"])
    assert tool.main(["--parent", "HEAD", "--config", *ids]) == 0
    assert capsys.readouterr().out == "parent abc1234 vs working tree:\n2/2 configs equal\n"
    dumps["change"]["batch7"] = normalize(_dump(batch_size=5))
    assert tool.main(["--parent", "HEAD", "--config", *ids]) == 1
    assert "batch7: queries[0].stats.batch_size\n1/2 configs equal" in capsys.readouterr().out


def test_repeated_config_flags_accumulate_once_each_in_order(tool):
    names = ("inline", "batch7", "thread2")
    args = tool.parse_args(
        ["--parent", "HEAD", "--config", "batch7", "--config", "inline", "batch7"], names
    )
    assert (args.parent, args.config) == ("HEAD", ["batch7", "inline"])
    assert tool.parse_args(["--parent", "HEAD"], names).config == list(names)
    with pytest.raises(SystemExit):
        tool.parse_args(["--parent", "HEAD", "--config", "nope"], names)


def test_a_field_none_on_the_only_side_that_has_it_is_a_removed_field(tool):
    ids = ["inline", "thread2"]
    parent = {config_id: normalize(_dump()) for config_id in ids}
    for dump in parent.values():
        dump["queries"][0]["stats"]["plan_revisions"] = None
        dump["shared"]["plan_revisions"] = None
    change = {config_id: normalize(_dump()) for config_id in ids}
    assert tool.compare(ids, parent, change) == ([
        "removed field queries[].stats.plan_revisions",
        "removed field shared.plan_revisions",
        "2/2 configs equal",
    ], True)
    # Added on the change's side, the same holds.
    assert tool.compare(ids, change, parent)[1]


def test_a_one_sided_field_with_a_value_still_makes_its_config_differ(tool):
    ids = ["inline", "thread2"]
    parent = {config_id: normalize(_dump()) for config_id in ids}
    parent["thread2"]["queries"][0]["stats"]["plan_revisions"] = 3
    change = {config_id: normalize(_dump()) for config_id in ids}
    assert tool.compare(ids, parent, change) == (
        ["thread2: queries[0].stats.plan_revisions", "1/2 configs equal"], False
    )
