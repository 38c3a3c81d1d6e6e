"""Scenario runner: invariants hold and reports are reproducible."""

import json

import pytest

from repro.chaos import SCENARIOS, run_scenarios
from repro.chaos.scenarios import ScenarioRunner
from repro.cli import main as cli_main


def test_all_scenarios_pass_their_invariants():
    report = run_scenarios(seed=2017, quick=True)
    assert report["ok"], [s for s in report["scenarios"] if not s["ok"]]
    assert sorted(s["scenario"] for s in report["scenarios"]) == \
        sorted(SCENARIOS)
    for scenario in report["scenarios"]:
        assert scenario["invariants"], scenario["scenario"]
        assert all(scenario["invariants"].values()), scenario


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_each_scenario_report_is_reproducible(name):
    a = run_scenarios([name], seed=7, quick=True)
    b = run_scenarios([name], seed=7, quick=True)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seed_reaches_the_plans():
    a = run_scenarios(["quorum-crash"], seed=1, quick=True)
    b = run_scenarios(["quorum-crash"], seed=2, quick=True)
    assert a["scenarios"][0]["seed"] == 1
    assert b["scenarios"][0]["seed"] == 2
    assert a["scenarios"][0]["ok"] and b["scenarios"][0]["ok"]


def test_runner_rejects_unknown_scenario():
    with pytest.raises(KeyError):
        ScenarioRunner(seed=1, quick=True).run(["no-such-scenario"])


class TestChaosCLI:
    def test_list_names_every_scenario(self, capsys):
        assert cli_main(["chaos", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_run_emits_deterministic_json(self, capsys, tmp_path):
        argv = ["chaos", "run", "--scenario", "hint-replay",
                "--seed", "7", "--quick",
                "--json", str(tmp_path / "report.json")]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second  # byte-for-byte reproducible
        payload = json.loads(first)
        assert payload["ok"]
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk == payload

    def test_run_unknown_scenario_is_an_error(self, capsys):
        assert cli_main(["chaos", "run", "--scenario", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err
