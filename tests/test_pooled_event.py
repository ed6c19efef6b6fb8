"""A synthesis event on forked workers gives the in-process loop's rows, log records and errors."""

import json
import logging
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import force_pool, small_config

import fedsynth.synthesis as synthesis
from fedsynth.cli import main
from fedsynth.config import config_from_dict, config_to_dict
from fedsynth.engine import run_round
from fedsynth.errors import DivergenceError
from fedsynth.runner import build_state, execute


def event_state(cfg):
    """The state after round 1 of `cfg`, so the clients hold prototypes and synthesis hardens."""
    state, _ = build_state(cfg)
    run_round(state, cfg)
    return state


def test_a_pooled_event_keeps_the_row_dtype_and_leaves_no_worker(forced_pool):
    cfg = small_config()
    state = event_state(cfg)
    pool = synthesis.run_event(state.model, state.clients, cfg, 2).pool
    assert pool.dtype is synthesis._row_dtype(state.model.input_dim)
    assert type(pool[0].final_loss) is float
    assert multiprocessing.active_children() == []


def test_a_pooled_event_emits_the_loops_rows_and_zero_cam_warnings_in_client_order(monkeypatch, caplog):
    raw = config_to_dict(small_config(syn_per_client=12))
    raw["partition"] = {"scheme": "dirichlet", "clients": 4, "concentration": 0.5}
    cfg = config_from_dict(raw)
    state = event_state(cfg)
    # classes 0 and 1 get an all-zero CAM, so clients warn of different row counts
    last = state.model.params[f"dense{len(state.model.params) // 2 - 1}.weight"]
    last[..., :2] = -np.abs(last[..., :2]) - 0.1

    def event():
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="fedsynth.synthesis"):
            pool = synthesis.run_event(state.model, state.clients, cfg, 2).pool
        records = [r for r in caplog.records if r.name == "fedsynth.synthesis"]
        return pool, [(r.msg, r.args) for r in records], {r.process for r in records}

    loop_pool, loop_warnings, loop_processes = event()
    force_pool(monkeypatch)
    pool, warnings, processes = event()
    assert pool.tobytes() == loop_pool.tobytes()
    assert warnings == loop_warnings
    assert len({args for _, args in warnings}) > 1  # the order is visible
    # one warning per client with dead-label rows, in client order, counted from its rows
    dead = ~(last[0] > 0).any(axis=0)
    expected = []
    for client in state.clients:
        labels = pool["label"][pool["client"] == client.client_id]
        if dead[labels].any():
            expected.append(("synthesize: %d of %d samples have all-zero CAM masks", (int(dead[labels].sum()), len(labels))))
    assert warnings == expected
    assert loop_processes == processes == {os.getpid()}  # counted in the parent on both paths


def test_a_failing_pooled_job_fails_the_round_as_in_process_and_leaves_no_worker(monkeypatch, tmp_path, capsys):
    real = synthesis.synthesize

    def synthesize(model, shard, prototypes, cfg, rng, client_id=0):
        if client_id == 1:
            np.exp(np.float64(1000.0))  # raises only under the round's guard, which the workers inherit
        return real(model, shard, prototypes, cfg, rng, client_id)

    monkeypatch.setattr(synthesis, "synthesize", synthesize)
    cfg = small_config(out_dir=str(tmp_path / "out"))
    with pytest.raises(DivergenceError) as in_process:
        execute(cfg)
    force_pool(monkeypatch)
    with pytest.raises(DivergenceError) as pooled:
        execute(cfg)
    assert str(pooled.value) == str(in_process.value) == "round 2: overflow encountered in exp"
    assert multiprocessing.active_children() == []

    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {in_process.value}"]
    assert not (tmp_path / "out").exists()
    assert multiprocessing.active_children() == []


KILLED_WORKER = """
import multiprocessing, os, signal, sys
from concurrent.futures.process import BrokenProcessPool
import fedsynth.synthesis as synthesis
from conftest import small_config
from fedsynth.runner import execute
synthesis.POOL_ROW_STEPS = 0
os.sched_getaffinity = lambda pid: {0, 1}
real = synthesis.synthesize
def synthesize(model, shard, prototypes, cfg, rng, client_id=0):
    if client_id == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(model, shard, prototypes, cfg, rng, client_id)
synthesis.synthesize = synthesize
try:
    execute(small_config())
except BrokenProcessPool:
    print("broken", multiprocessing.active_children())
"""


def test_a_worker_killed_mid_job_fails_the_run_instead_of_hanging_it():
    # in its own process, so that a hang fails this test at the timeout instead of stopping the suite
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", KILLED_WORKER], capture_output=True, text=True, env=env, timeout=60, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["broken", "[]"]


NEVER_POOLS = """
import json, sys
from fedsynth.config import config_from_dict
from fedsynth.runner import run_experiment
for raw in json.loads(sys.argv[1]):
    run_experiment(config_from_dict(raw))
print("multiprocessing" in sys.modules)
"""


def test_runs_that_never_pool_never_import_multiprocessing(tmp_path):
    # importing it, with the executor, adds ~1.5 MB of peak memory to a run that cannot use it
    desk_fedavg = {
        "algorithm": "fedavg",
        "dataset": {"classes": 6, "dim": 16, "per_class": 200, "spread": 0.25},
        "partition": {"scheme": "label_skew", "clients": 10, "classes_per_client": 1},
        "rounds": 60,
        "seed": 1,
        "out_dir": str(tmp_path / "fedavg"),
    }
    below_the_line = config_to_dict(small_config(out_dir=str(tmp_path / "hfmds")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", NEVER_POOLS, json.dumps([desk_fedavg, below_the_line])],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    assert (tmp_path / "hfmds" / "synthesis_round_0002").is_dir()
