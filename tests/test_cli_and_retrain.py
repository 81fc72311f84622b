"""Tests for the CLI and the champion/challenger retraining loop."""

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import PipelineConfig
from repro.core.retrain import RetrainManager
from repro.data import save_dataset
from repro.errors import ConfigurationError
from repro.ml import GbmParams


def run_cli(*argv, stdin_text: str = "") -> tuple[int, list[dict]]:
    out = io.StringIO()
    code = main(list(argv), out=out, stdin=io.StringIO(stdin_text))
    lines = [json.loads(line) for line in out.getvalue().splitlines() if line.strip()]
    return code, lines


@pytest.fixture(scope="module")
def cli_env(request, tmp_path_factory):
    """Dataset directory + fitted model artefact for CLI tests."""
    dataset = request.getfixturevalue("small_dataset")
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    save_dataset(dataset, data_dir)
    from repro.core import DomdEstimator
    from repro.data import split_dataset
    from repro.persistence import save_estimator

    splits = split_dataset(dataset)
    config = PipelineConfig(window_pct=25.0, k=8, fusion="average", gbm=GbmParams(n_estimators=15))
    estimator = DomdEstimator(config).fit(dataset, splits.train_ids)
    model_path = root / "model.json"
    save_estimator(estimator, model_path)
    return str(data_dir), str(model_path)


class TestCliGenerate:
    def test_generate_writes_dataset(self, tmp_path):
        code, lines = run_cli(
            "generate", "--out", str(tmp_path / "nmd"), "--seed", "3"
        )
        assert code == 0
        assert lines[0]["n_ships"] == 73
        assert (tmp_path / "nmd" / "rccs.csv").exists()

    def test_generate_with_scaling(self, tmp_path):
        code, lines = run_cli(
            "generate", "--out", str(tmp_path / "nmd"), "--scale", "2"
        )
        assert code == 0
        assert lines[0]["n_rccs"] == 52_959 * 2


class TestCliQueryEvaluateServe:
    def test_query_by_t_star(self, cli_env):
        data_dir, model_path = cli_env
        code, lines = run_cli(
            "query", "--model", model_path, "--data", data_dir,
            "--avail", "0", "--t-star", "50",
        )
        assert code == 0
        assert lines[0]["ok"]
        assert lines[0]["result"][0]["avail_id"] == 0

    def test_query_with_explain(self, cli_env):
        data_dir, model_path = cli_env
        code, lines = run_cli(
            "query", "--model", model_path, "--data", data_dir,
            "--avail", "0", "--t-star", "50", "--explain",
        )
        assert code == 0
        assert len(lines) == 2
        assert lines[1]["result"]["contributions"]

    def test_query_unknown_avail_fails(self, cli_env):
        data_dir, model_path = cli_env
        code, lines = run_cli(
            "query", "--model", model_path, "--data", data_dir,
            "--avail", "424242", "--t-star", "50",
        )
        assert code == 1
        assert not lines[0]["ok"]

    def test_evaluate(self, cli_env):
        data_dir, model_path = cli_env
        code, lines = run_cli("evaluate", "--model", model_path, "--data", data_dir)
        assert code == 0
        assert "average" in lines[0]

    def test_serve_loop(self, cli_env):
        data_dir, model_path = cli_env
        requests = "\n".join(
            [
                json.dumps({"type": "domd_query", "avail_ids": [0], "t_star": 25.0}),
                "not json",
                json.dumps({"type": "teleport"}),
            ]
        )
        code, lines = run_cli(
            "serve", "--model", model_path, "--data", data_dir, stdin_text=requests
        )
        assert code == 0
        assert lines[0]["ok"]
        assert lines[1]["error"]["code"] == "bad_json"
        assert lines[2]["error"]["code"] == "unknown_type"

    def test_missing_dataset_dir(self, cli_env):
        _, model_path = cli_env
        code, lines = run_cli(
            "query", "--model", model_path, "--data", "/nonexistent",
            "--avail", "0", "--t-star", "5",
        )
        assert code == 1


class TestCliIngestAppend:
    """``ingest append`` validates against the state the WAL leads to."""

    @staticmethod
    def write_events(path, events, header=None):
        with open(path, "w", encoding="utf-8") as handle:
            if header is not None:
                handle.write(json.dumps(header) + "\n")
            for event in events:
                handle.write(json.dumps(event) + "\n")
        return str(path)

    @pytest.fixture()
    def live(self, small_dataset):
        avails = small_dataset.avails
        next_id = int(np.max(small_dataset.rccs["rcc_id"])) + 1
        avail_id, start = int(avails["avail_id"][0]), int(avails["act_start"][0])

        def created(rcc_id, day):
            return {"kind": "rcc_created", "rcc_id": rcc_id, "avail_id": avail_id,
                    "rcc_type": "G", "swlin": "111-11-001", "create_date": day,
                    "amount": 10.0}

        return next_id, start, created

    def test_settle_before_create_is_refused_and_the_wal_untouched(
        self, cli_env, live, tmp_path
    ):
        data_dir, _ = cli_env
        next_id, start, created = live
        wal = tmp_path / "wal.jsonl"
        first = self.write_events(tmp_path / "first.jsonl", [created(next_id, start + 3)])
        code, lines = run_cli(
            "ingest", "append", "--wal", str(wal), "--events", first, "--data", data_dir
        )
        assert code == 0 and lines[-1]["appended"] == 1
        before = wal.read_bytes()

        rejected = self.write_events(
            tmp_path / "rejected.jsonl",
            [
                created(next_id + 1, start + 10),
                {"kind": "rcc_settled", "rcc_id": next_id + 1, "settle_date": start + 5},
            ],
        )
        code, lines = run_cli(
            "ingest", "append", "--wal", str(wal), "--events", rejected, "--data", data_dir
        )
        assert code == 1
        assert "before its creation day" in lines[-1]["error"]["message"]
        assert wal.read_bytes() == before
        # a settle of the RCC the WAL already created is checked too
        stale = self.write_events(
            tmp_path / "stale.jsonl",
            [{"kind": "rcc_settled", "rcc_id": next_id, "settle_date": start}],
        )
        code, _ = run_cli(
            "ingest", "append", "--wal", str(wal), "--events", stale, "--data", data_dir
        )
        assert code == 1
        assert wal.read_bytes() == before

        valid = self.write_events(
            tmp_path / "valid.jsonl",
            [{"kind": "rcc_settled", "rcc_id": next_id, "settle_date": start + 8}],
        )
        code, lines = run_cli(
            "ingest", "append", "--wal", str(wal), "--events", valid, "--data", data_dir
        )
        assert code == 0
        assert lines[-1]["first_seq"] == 2 and lines[-1]["last_seq"] == 2

    def test_events_header_bootstraps_and_no_source_is_refused(self, tmp_path):
        from repro.data import SyntheticNmdConfig, generate_dataset
        from repro.stream import dataset_to_events, event_to_dict

        dataset = generate_dataset(
            SyntheticNmdConfig(n_ships=3, n_closed_avails=4, n_ongoing_avails=1,
                               target_n_rccs=60, seed=4)
        )
        header, events = dataset_to_events(dataset)
        payload = [event_to_dict(event) for event in events]
        wal = tmp_path / "wal.jsonl"
        with_header = self.write_events(tmp_path / "stream.jsonl", payload, header)
        code, lines = run_cli("ingest", "append", "--wal", str(wal), "--events", with_header)
        assert code == 0 and lines[-1]["appended"] == len(payload)

        headerless = self.write_events(tmp_path / "bare.jsonl", payload[:1])
        code, lines = run_cli("ingest", "append", "--wal", str(wal), "--events", headerless)
        assert code == 1
        assert "needs a bootstrap source" in lines[-1]["error"]["message"]


class TestCliFit:
    def test_fit_final_config(self, cli_env, tmp_path):
        data_dir, _ = cli_env
        out_model = tmp_path / "fitted.json"
        code, lines = run_cli(
            "fit", "--data", data_dir, "--out", str(out_model), "--window", "25",
        )
        assert code == 0
        assert lines[-1]["saved"] == str(out_model)
        assert lines[-1]["test_metrics"]["mae_100"] > 0
        assert out_model.exists()


class TestRetrainManager:
    @pytest.fixture()
    def manager(self):
        return RetrainManager(
            config=PipelineConfig(window_pct=50.0, k=6, gbm=GbmParams(n_estimators=10)),
            tolerance=0.05,
        )

    def test_bootstrap_installs_champion(self, manager, small_dataset, small_splits):
        manager.bootstrap(small_dataset, small_splits.train_ids)
        assert manager.champion is not None

    def test_consider_without_bootstrap(self, manager, small_dataset, small_splits):
        with pytest.raises(ConfigurationError, match="bootstrap"):
            manager.consider(
                small_dataset, small_splits.train_ids, small_splits.test_ids
            )

    def test_no_new_data_skips(self, manager, small_dataset, small_splits):
        manager.bootstrap(small_dataset, small_splits.train_ids)
        decision = manager.consider(
            small_dataset, small_splits.train_ids, small_splits.test_ids
        )
        assert not decision.promoted
        assert "new training avails" in decision.reason
        assert manager.history[-1] is decision

    def test_more_data_promotes(self, manager, small_dataset, small_splits):
        manager.bootstrap(small_dataset, small_splits.train_ids)
        bigger = np.sort(
            np.concatenate([small_splits.train_ids, small_splits.validation_ids])
        )
        decision = manager.consider(small_dataset, bigger, small_splits.test_ids)
        assert decision.promoted or "regressed" in decision.reason
        assert np.isfinite(decision.candidate_mae)
        if decision.promoted:
            np.testing.assert_array_equal(manager._champion_train_ids, bigger)

    def test_zero_tolerance_ratchet(self, small_dataset, small_splits):
        manager = RetrainManager(
            config=PipelineConfig(window_pct=50.0, k=6, gbm=GbmParams(n_estimators=10)),
            tolerance=0.0,
        )
        manager.bootstrap(small_dataset, small_splits.train_ids)
        bigger = np.sort(
            np.concatenate([small_splits.train_ids, small_splits.validation_ids])
        )
        decision = manager.consider(small_dataset, bigger, small_splits.test_ids)
        if not decision.promoted:
            assert decision.candidate_mae > decision.champion_mae

    def test_decision_serialisable(self, manager, small_dataset, small_splits):
        manager.bootstrap(small_dataset, small_splits.train_ids)
        decision = manager.consider(
            small_dataset, small_splits.train_ids, small_splits.test_ids
        )
        json.dumps(decision.as_dict())

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            RetrainManager(config=PipelineConfig(), tolerance=-1.0)
        with pytest.raises(ConfigurationError):
            RetrainManager(config=PipelineConfig(), min_new_avails=-1)
