"""End-to-end tests of the command-line harness."""

import importlib
import json
import math

import numpy as np
import pytest

from scpm.cli import main


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "market.json"
    path.write_text(json.dumps({
        "utility": {"kind": "LMSR", "b": 1.0, "n_outcomes": 2},
        "charging_mode": "integral",
    }))
    return str(path)


@pytest.fixture
def orders_path(tmp_path):
    path = tmp_path / "orders.csv"
    path.write_text(
        "trader_id,pi,limit,bundle\n"
        "alice,0.7,1.0,1;0\n"
        "bob,0.4,0.5,0;1\n"
    )
    return str(path)


class TestQuote:
    def test_fresh_market(self, config_path, capsys):
        assert main(["quote", "--config", config_path, "--bundle", "1;0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[0]) == pytest.approx(0.5)
        assert out[1].startswith("prices: ")

    def test_after_replay(self, config_path, orders_path, capsys):
        assert main(["quote", "--config", config_path, "--orders", orders_path,
                     "--bundle", "1;0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[0]) > 0.5  # alice bought outcome 0 up

    def test_bad_bundle_length(self, config_path, capsys):
        assert main(["quote", "--config", config_path, "--bundle", "1;0;0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestTrade:
    def test_trade_outputs_fill(self, config_path, capsys):
        assert main(["trade", "--config", config_path, "--pi", "0.6",
                     "--limit", "5", "--bundle", "1;0"]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        assert float(fields["x_bar"]) > 0
        assert float(fields["charge"]) > 0
        assert abs(float(fields["prices"].split()[0]) - 0.6) < 1e-5

    def test_rejected_trade(self, config_path, capsys):
        assert main(["trade", "--config", config_path, "--pi", "0.3",
                     "--limit", "1", "--bundle", "1;0"]) == 0
        out = capsys.readouterr().out
        assert "x_bar: 0.000000" in out


class TestSimulate:
    def test_writes_trace_and_summary(self, config_path, orders_path, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        assert main(["simulate", "--config", config_path, "--orders", orders_path,
                     "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["order"]["trader_id"] == "alice"
        summary = capsys.readouterr().out
        assert "orders: 2" in summary
        assert "respected: yes" in summary

    def test_malformed_orders_exit_2(self, config_path, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("trader_id,pi,limit,bundle\nalice,x,1,1;0\n")
        assert main(["simulate", "--config", config_path, "--orders", str(bad),
                     "--out", str(tmp_path / "t.jsonl")]) == 2


class TestConverge:
    def test_lmsr_converges(self, config_path, capsys):
        assert main(["converge", "--config", config_path, "--belief", "0.7;0.3"]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        assert float(fields["belief gap"]) <= 1e-3
        assert int(fields["sweeps"]) <= 100

    def test_min_warns_about_non_strictness(self, tmp_path, capsys):
        path = tmp_path / "min.json"
        path.write_text(json.dumps({"utility": {"kind": "MinSCPM", "n_outcomes": 2}}))
        assert main(["converge", "--config", str(path), "--belief", "0.7;0.3"]) == 0
        assert "not strictly proper" in capsys.readouterr().err

    def test_belief_off_simplex_rejected(self, config_path, capsys):
        assert main(["converge", "--config", config_path, "--belief", "0.9;0.3"]) == 2


class TestTable1:
    def test_lists_all_mechanisms(self, capsys):
        assert main(["table1", "--b", "1", "--n", "2"]) == 0
        out = capsys.readouterr().out
        for kind in ("LMSR", "QuadraticScore", "LogSCPM", "MinSCPM",
                     "ExponentialSCPM", "QuadSCPM"):
            assert kind in out
        assert "unbounded" in out  # LogSCPM numeric column
        assert "strictly proper" in out
        # LMSR row: loss = log 2
        lmsr_row = [l for l in out.splitlines() if l.startswith("LMSR")][0]
        assert float(lmsr_row.split()[1]) == pytest.approx(math.log(2.0), abs=1e-6)


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert main(["verify", "--scope", "charge"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().endswith("checks passed")

    def test_one_miss_fails(self, monkeypatch, capsys):
        engine = importlib.import_module("scpm.cost")
        cost = engine.cost
        monkeypatch.setattr(engine, "cost",
                            lambda u, q: cost(u, q) * (2.0 if u.kind == "MinSCPM" else 1.0))
        assert main(["verify", "--scope", "charge"]) == 1
        out = capsys.readouterr().out
        assert [l for l in out.splitlines() if "FAIL" in l][0].startswith(
            "FAIL charge MinSCPM quadrature-vs-engine")
        assert out.strip().endswith("5/6 checks passed")


class TestConfigErrors:
    def test_missing_config(self, capsys):
        assert main(["quote", "--config", "/nonexistent.json", "--bundle", "1;0"]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["quote", "--config", str(path), "--bundle", "1;0"]) == 2

    def test_unknown_utility_kind(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"utility": {"kind": "Brier"}}))
        assert main(["quote", "--config", str(path), "--bundle", "1;0"]) == 2
