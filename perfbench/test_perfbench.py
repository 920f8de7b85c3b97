"""Smoke test of the benchmark: every workload, both modes, two seeds.

Run from the repository root::

    python -m pytest perfbench/test_perfbench.py -q

Each workload runs at smoke size (``--smoke``) untraced and traced on one
seed and untraced on the held-out seed.  The test asserts that the run
passes its own correctness checks, reports no failed operation, and
emits exactly the metrics ``BENCHMARK.json`` names, with their units;
that both seeds' outputs were checked against the digests recorded in
``reference.json``, and every run the reference seed's; that the
host-time scaling is the plain ratio it is documented to be; that the
campaign workloads' copy of the CLI's ``--output`` code still writes
what the CLI writes; and that the benchmark refuses to run without the
program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

common.import_system()
import campaign_workloads  # noqa: E402
from repro.campaign.sketches import CampaignAggregate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def _bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _checks(done) -> dict[str, bool]:
    """Every ``perfbench check`` line of a run: name -> passed."""
    checks = {}
    for line in done.stdout.splitlines():
        if line.startswith("perfbench check "):
            entry = json.loads(line.split(" ", 2)[2])
            checks[entry["check"]] = entry["passed"]
    return checks


def _assert_pinned(done, seed: int) -> None:
    """The run compared its output with the digests recorded for ``seed``."""
    checks = _checks(done)
    pinned = [name for name in checks if f"recorded ones of seed {seed}"
              in name or f"recorded digest of seed {seed}" in name]
    assert pinned, "no check against reference.json ran"
    assert all(checks[name] for name in pinned)


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert _units("per_layer") == layers.PER_LAYER
    documented = (HERE / "METRICS.md").read_text()
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            assert f"`{metric['name']}`" in documented, metric["name"]


def test_reference_covers_every_pinned_seed():
    reference = common.reference()
    assert reference["fidelity_summary"]["verdict"] == "OK"
    assert reference["fidelity_summary"]["failed"] == 0
    seeds = {str(seed) for seed in common.PINNED_SEEDS}
    for workload in ("campaign_fresh", "campaign_resume"):
        for size in ("full", "smoke"):
            assert set(reference["campaign_digests"][workload][size]) == seeds
    assert set(reference["serve_variant_digests"]) == seeds


def test_output_copy_writes_what_the_cli_writes(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "REPRO_CACHE_DIR": str(tmp_path / "cache")}

    def cli(*args):
        subprocess.run([sys.executable, "-m", "repro.cli", "--seed", "1",
                        *args], cwd=tmp_path, env=env, check=True,
                       capture_output=True, timeout=300)

    cli("fit", "--bs", "10", "--days", "1", "--output", "models.json")
    cli("campaign", "--models", "models.json", "--bs", "8", "--days", "1",
        "--output", "cli.json")
    written = (tmp_path / "cli.json").read_bytes()
    document = json.loads(written)
    result = SimpleNamespace(
        aggregate=CampaignAggregate.from_dict(document),
        provenance=lambda: document["provenance"],
    )
    campaign_workloads._write_output(result, tmp_path / "copy.json")
    assert (tmp_path / "copy.json").read_bytes() == written


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics(workload):
    done = _bench(workload, SEED, 0)
    result = _result(done)
    _assert_pinned(done, SEED)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics(workload):
    done = _bench(workload, SEED, 1)
    metrics = _result(done)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    assert metrics["dataset.simulate_s"]["value"] > 0
    assert metrics["core.fit_s"]["value"] > 0
    exercised = {
        "campaign_fresh": ("core.generate_s", "campaign.fold_s",
                           "io.checkpoint_write_s", "io.key_s"),
        "campaign_resume": ("io.checkpoint_read_s", "campaign.decode_s",
                            "io.key_s", "core.bank_json_s"),
        "serve_mixed": ("serve.ingest_s", "serve.submit_s", "serve.app_s",
                        "serve.store_read_s", "obs.exposition_s"),
    }[workload]
    for name in exercised:
        assert metrics[name]["value"] > 0, name
    if workload != "serve_mixed":
        assert metrics["campaign.shards_failed"]["value"] == 0
        checks = _checks(done)
        spans = [name for name in checks
                 if "self times + unattributed" in name or " span" in name]
        assert len(spans) == 3, spans


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_held_out_seed_runs_clean(workload):
    done = _bench(workload, common.HELD_OUT_SEED, 0)
    _result(done)
    _assert_pinned(done, common.HELD_OUT_SEED)
    # Every run also checks the reference seed's output, whatever --seed.
    _assert_pinned(done, common.REFERENCE_SEED)


def test_host_time_scaling():
    assert common.probe_ms() > 0
    assert common.host_scale(common.REFERENCE_PROBE_MS) == 1.0
    # A host twice as slow as the reference halves every timing.
    slow = 2 * common.REFERENCE_PROBE_MS
    assert common.host_scale(slow, slow) == 0.5
    payload = {"setup_s": [2.0, 4.0, 3.0],
               "setup_probes": [[slow, slow]] * 3}
    assert common.host_setup_s(payload) == 1.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("campaign_fresh", SEED, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
