import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gridflow
from gridflow import cli
from gridflow.data import preset_names


def run_cli(*argv):
    return cli.main(list(argv))


TINY = "LINE-SZ5-STP4-NDRP-STD0.3"


def generate_tiny(tmp_path, seeds=1):
    out = tmp_path / "data"
    rc = run_cli("generate", "--out", str(out), "--seeds", str(seeds),
                 "--preset", TINY)
    assert rc == 0
    return out


def test_generate_custom_dataset(tmp_path, capsys):
    out = generate_tiny(tmp_path, seeds=2)
    for seed in (0, 1):
        d = out / f"seed{seed}"
        for name in ("graph.json", "pairs.tsv", "params.json", "stats.json"):
            assert (d / name).exists()
    table = capsys.readouterr().out.splitlines()
    assert table[0].split("\t")[0] == "seed"
    assert len(table) == 3


def test_generate_unknown_preset_lists_valid(tmp_path, capsys):
    rc = run_cli("generate", "--preset", "NOPE", "--out", str(tmp_path / "x"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "LINE-SZ32-STP16-NDRP-STD0.2" in err


def test_generate_unknown_direction_lists_valid(tmp_path, capsys):
    rc = run_cli("generate", "--out", str(tmp_path / "x"),
                 "--preset", "SPIRAL-SZ5-STP4-NDRP-STD0.3")
    assert rc == 2
    err = capsys.readouterr().err
    assert "'SPIRAL-SZ5-STP4-NDRP-STD0.3'" in err
    assert "<LINE|SINE|LOCATION|HISTORY>-SZ<n>-STP<T>" in err
    for name in preset_names():
        assert name in err
    assert not (tmp_path / "x").exists()


def test_train_unknown_model_lists_valid(tmp_path, capsys):
    data = generate_tiny(tmp_path) / "seed0"
    rc = run_cli("train", "--model", "ggnn-foo", "--data", str(data),
                 "--out", str(tmp_path / "run"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "'ggnn-foo'" in err and "ggnn-mulmlp" in err
    assert "rw-stationary" in err
    assert not (tmp_path / "run").exists()


def test_visualize_unknown_node_id(tmp_path, capsys):
    data = generate_tiny(tmp_path) / "seed0"
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "rw-stationary", "--data", str(data),
                   "--out", str(run_dir), "--epochs", "1", "--dims", "8",
                   "--attn-dims", "2", "--steps", "2") == 0
    graph = json.loads((data / "graph.json").read_text())
    missing = max(v["id"] for v in graph["nodes"]) + 1
    capsys.readouterr()
    rc = run_cli("visualize", "--run", str(run_dir), "--src", str(missing),
                 "--dst", str(graph["nodes"][0]["id"]),
                 "--out", str(tmp_path / "viz"))
    assert rc == 2
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "viz").exists()


BAD_INPUT = {
    "gat-dims": (["train", "--model", "gat", "--data", "{data}",
                  "--dims", "42"], "divisible by heads"),
    "attn-dims": (["train", "--model", "ggnn", "--data", "{data}",
                   "--dims", "8", "--attn-dims", "8"],
                  "attn_dims must be smaller"),
    "no-valid-pairs": (["train", "--model", "ggnn", "--data", "{grid2}"],
                       "0 valid pairs"),
    "n-1": (["generate", "--preset", "LINE-SZ1-STP4-NDRP-STD0.3"],
            "n_side must be >= 2"),
    "sigma-0": (["generate", "--preset", "LINE-SZ5-STP4-NDRP-STD0"],
                "sigma must be positive"),
    "STDnan": (["generate", "--preset", "LINE-SZ5-STP4-NDRP-STDnan"],
               "sigma must be positive and finite, got nan"),
    "STDinf": (["generate", "--preset", "LINE-SZ5-STP4-NDRP-STDinf"],
               "sigma must be positive and finite, got inf"),
    "STP0": (["generate", "--preset", "LINE-SZ5-STP0-NDRP-STD0.3"],
             "max_steps must be >= 1"),
    "SZ0": (["generate", "--preset", "LINE-SZ0-STP4-NDRP-STD0.3"],
            "n_side must be >= 2"),
    "seeds-0": (["generate", "--preset", TINY, "--seeds", "0"],
                "seeds must be >= 1"),
    "batch-0": (["train", "--model", "ggnn", "--data", "{data}",
                 "--batch", "0"], "batch_size must be >= 1"),
    "batch-neg": (["train", "--model", "ggnn", "--data", "{data}",
                   "--batch", "-1"], "batch_size must be >= 1"),
    "epochs-neg": (["train", "--model", "ggnn", "--data", "{data}",
                    "--epochs", "-1"], "epochs must be >= 0"),
    "steps-0": (["train", "--model", "ggnn", "--data", "{data}",
                 "--steps", "0"], "steps must be >= 1"),
    "steps-neg": (["train", "--model", "ggnn", "--data", "{data}",
                   "--steps", "-1"], "steps must be >= 1"),
    "attn-dims-0": (["train", "--model", "ggnn", "--data", "{data}",
                     "--attn-dims", "0"], "attn_dims must be >= 1"),
    "attn-dims-neg": (["train", "--model", "ggnn", "--data", "{data}",
                       "--attn-dims", "-3"], "attn_dims must be >= 1"),
    "group-dir": (["train", "--model", "ggnn", "--data", "{group}"],
                  "params.json does not exist"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_2_and_writes_nothing(tmp_path, capsys, case):
    """The library's message on stderr, exit 2, nothing on stdout and no
    output directory. A 2x2 grid's two sources leave no valid pairs; a
    group directory holds seed directories, not a dataset."""
    group = generate_tiny(tmp_path)
    grid2 = tmp_path / "grid2"
    assert run_cli("generate", "--out", str(grid2),
                   "--preset", "LINE-SZ2-STP2-NDRP-STD0.3") == 0
    argv, message = BAD_INPUT[case]
    out = tmp_path / "out"
    argv = [a.format(data=group / "seed0", group=group, grid2=grid2 / "seed0")
            for a in argv]
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("n_side", 5.0), ("max_steps", 2.5), ("n_rollout", True), ("seed", 1.5)])
def test_train_refuses_params_json_of_wrong_type(tmp_path, capsys, field,
                                                 value):
    """A params.json edited to hold a float or a bool where GenParams
    needs an int exits 2 before the run directory is made."""
    data = generate_tiny(tmp_path) / "seed0"
    doc = json.loads((data / "params.json").read_text())
    (data / "params.json").write_text(json.dumps(doc | {field: value}))
    run_dir = tmp_path / "run"
    capsys.readouterr()
    rc = run_cli("train", "--model", "rw-stationary", "--data", str(data),
                 "--out", str(run_dir), "--epochs", "1")
    assert rc == 2
    captured = capsys.readouterr()
    assert f"{field} must be an int, got {value!r}" in captured.err
    assert captured.out == ""
    assert not run_dir.exists()


def test_eval_reproduces_the_test_summary_of_train(tmp_path, capsys):
    """`eval --split test` reloads the selected epoch*.npz files and
    prints, value for value, the test block that train computed from the
    states it kept in memory. Four epochs leave one snapshot unselected."""
    data = generate_tiny(tmp_path) / "seed0"
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "ggnn-mul", "--data", str(data),
                   "--out", str(run_dir), "--epochs", "4", "--dims", "10",
                   "--attn-dims", "4", "--steps", "3") == 0
    manifest = json.loads((run_dir / "selection.json").read_text())
    assert len(manifest["selected_epochs"]) == 3
    assert sorted(p.name for p in run_dir.glob("epoch*.npz")) == sorted(
        f"epoch{e}.npz" for e in manifest["selected_epochs"])
    capsys.readouterr()
    assert run_cli("eval", "--run", str(run_dir), "--split", "test") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc.pop("split") == "test"
    assert doc == manifest["test"]


def test_train_eval_visualize_round_trip(tmp_path, capsys):
    data = generate_tiny(tmp_path) / "seed0"
    run_dir = tmp_path / "run"
    rc = run_cli("train", "--model", "ggnn-mul", "--data", str(data),
                 "--out", str(run_dir), "--epochs", "2", "--dims", "10",
                 "--attn-dims", "4", "--steps", "3")
    assert rc == 0
    assert (run_dir / "config.json").exists()
    manifest = json.loads((run_dir / "selection.json").read_text())
    assert manifest["model"] == "ggnn-mul"
    assert len(manifest["selected_epochs"]) == 2
    for epoch in manifest["selected_epochs"]:
        assert (run_dir / f"epoch{epoch}.npz").exists()
    log_lines = (run_dir / "run.log").read_text().splitlines()
    assert log_lines[0].startswith("epoch\tlr\ttrain_loss")
    assert len(log_lines) == 3
    assert {len(line.split("\t")) for line in log_lines} == {
        len(log_lines[0].split("\t"))}
    assert manifest["test"]["n_snapshots"] == 2

    rc = run_cli("eval", "--run", str(run_dir), "--split", "valid",
                 "--out", str(tmp_path / "valid.json"))
    assert rc == 0
    doc = json.loads((tmp_path / "valid.json").read_text())
    assert doc["split"] == "valid"
    assert 0.0 <= doc["mrr"]["mean"] <= 1.0

    graph = json.loads((data / "graph.json").read_text())
    src, dst = graph["nodes"][0]["id"], graph["nodes"][-1]["id"]
    viz_dir = tmp_path / "viz"
    rc = run_cli("visualize", "--run", str(run_dir), "--src", str(src),
                 "--dst", str(dst), "--out", str(viz_dir))
    assert rc == 0
    assert (viz_dir / "heatmap.svg").exists()
    steps, _, attn = np.loadtxt(viz_dir / "trace_nodes.tsv", skiprows=1,
                                unpack=True)
    per_step = {}
    for s, a in zip(steps, attn):
        per_step[s] = per_step.get(s, 0.0) + a
    assert all(abs(v - 1.0) < 1e-9 for v in per_step.values())
    assert (viz_dir / "trace_edges.tsv").exists()

    # The run directory names its data relative to itself, so the two trees
    # still work once moved together to a new parent.
    config = json.loads((run_dir / "config.json").read_text())
    assert not os.path.isabs(config["data"])
    moved = tmp_path / "moved"
    moved.mkdir()
    shutil.move(str(data.parent), str(moved / "data"))
    shutil.move(str(run_dir), str(moved / "run"))
    rc = run_cli("eval", "--run", str(moved / "run"), "--split", "valid",
                 "--out", str(tmp_path / "valid-moved.json"))
    assert rc == 0
    assert json.loads((tmp_path / "valid-moved.json").read_text()) == doc

    # Configs written before paths were relative hold an absolute one.
    config["data"] = str(moved / "data" / "seed0")
    (moved / "run" / "config.json").write_text(json.dumps(config))
    assert run_cli("eval", "--run", str(moved / "run"), "--split", "valid") == 0


def test_visualize_regular_variant_falls_back(tmp_path, capsys):
    data = generate_tiny(tmp_path) / "seed0"
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "ggnn", "--data", str(data),
                   "--out", str(run_dir), "--epochs", "1", "--dims", "10",
                   "--attn-dims", "4", "--steps", "2") == 0
    viz_dir = tmp_path / "viz"
    graph = json.loads((data / "graph.json").read_text())
    rc = run_cli("visualize", "--run", str(run_dir),
                 "--src", str(graph["nodes"][0]["id"]),
                 "--dst", str(graph["nodes"][1]["id"]), "--out", str(viz_dir))
    assert rc == 0
    assert (viz_dir / "readout_heatmap.svg").exists()
    assert not (viz_dir / "heatmap.svg").exists()


def test_eval_and_visualize_reject_mismatched_checkpoint(tmp_path, capsys):
    """A flow checkpoint in the unpacked transition layout (trans.w1, w2,
    wo, b) is refused with exit 2 and the parameter names, not loaded."""
    data = generate_tiny(tmp_path) / "seed0"
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "rw-stationary", "--data", str(data),
                   "--out", str(run_dir), "--epochs", "1", "--dims", "8",
                   "--attn-dims", "2", "--steps", "2") == 0
    epoch = json.loads((run_dir / "selection.json").read_text())[
        "selected_epochs"][0]
    path = run_dir / f"epoch{epoch}.npz"
    with np.load(path) as f:
        state = {k: f[k] for k in f.files if not k.startswith("trans.")}
    for name in ("trans.w1", "trans.w2", "trans.wo", "trans.b"):
        state[name] = np.zeros(1)
    np.savez(path, **state)
    capsys.readouterr()
    assert run_cli("eval", "--run", str(run_dir), "--split", "valid") == 2
    assert "'trans.W'" in capsys.readouterr().err
    graph = json.loads((data / "graph.json").read_text())
    rc = run_cli("visualize", "--run", str(run_dir),
                 "--src", str(graph["nodes"][0]["id"]),
                 "--dst", str(graph["nodes"][1]["id"]),
                 "--out", str(tmp_path / "viz"))
    assert rc == 2
    assert "'trans.wo'" in capsys.readouterr().err
    assert not (tmp_path / "viz").exists()


def test_train_zero_epochs(tmp_path, capsys):
    data = generate_tiny(tmp_path) / "seed0"
    run_dir = tmp_path / "run"
    rc = run_cli("train", "--model", "rw-stationary", "--data", str(data),
                 "--out", str(run_dir), "--epochs", "0", "--dims", "8",
                 "--attn-dims", "2", "--steps", "2")
    assert rc == 0
    assert not (run_dir / "selection.json").exists()
    assert "no snapshots" in capsys.readouterr().out


def test_train_missing_dataset(tmp_path, capsys):
    rc = run_cli("train", "--model", "ggnn", "--data",
                 str(tmp_path / "missing"), "--out", str(tmp_path / "run"))
    assert rc == 2


def test_eval_and_visualize_of_run_without_its_dataset(tmp_path, capsys):
    """A run whose dataset was deleted exits 2 naming the missing file."""
    data = generate_tiny(tmp_path) / "seed0"
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "rw-stationary", "--data", str(data),
                   "--out", str(run_dir), "--epochs", "1", "--dims", "8",
                   "--attn-dims", "2", "--steps", "2") == 0
    shutil.rmtree(data)
    missing = os.path.join("data", "seed0", "graph.json")
    capsys.readouterr()
    assert run_cli("eval", "--run", str(run_dir)) == 2
    assert missing in capsys.readouterr().err
    rc = run_cli("visualize", "--run", str(run_dir), "--src", "0",
                 "--dst", "1", "--out", str(tmp_path / "viz"))
    assert rc == 2
    assert missing in capsys.readouterr().err
    assert not (tmp_path / "viz").exists()


@pytest.mark.parametrize("missing", ["epoch0.npz", "config.json"])
def test_eval_and_visualize_of_run_without_its_checkpoint(tmp_path, capsys,
                                                          missing):
    """A run whose selected epoch*.npz or config.json was deleted exits 2
    naming it."""
    data = generate_tiny(tmp_path) / "seed0"
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "rw-stationary", "--data", str(data),
                   "--out", str(run_dir), "--epochs", "1", "--dims", "8",
                   "--attn-dims", "2", "--steps", "2") == 0
    (run_dir / missing).unlink()
    capsys.readouterr()
    assert run_cli("eval", "--run", str(run_dir)) == 2
    assert missing in capsys.readouterr().err
    rc = run_cli("visualize", "--run", str(run_dir), "--src", "0",
                 "--dst", "1", "--out", str(tmp_path / "viz"))
    assert rc == 2
    assert missing in capsys.readouterr().err
    assert not (tmp_path / "viz").exists()


@pytest.mark.parametrize("broken", ["selection.json", "config.json"])
def test_eval_and_visualize_of_run_with_invalid_json(tmp_path, capsys,
                                                     broken):
    """A run whose selection.json or config.json is not valid JSON exits 2
    naming the file, with no traceback."""
    data = generate_tiny(tmp_path) / "seed0"
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "rw-stationary", "--data", str(data),
                   "--out", str(run_dir), "--epochs", "1", "--dims", "8",
                   "--attn-dims", "2", "--steps", "2") == 0
    (run_dir / broken).write_text("{bad")
    capsys.readouterr()
    assert run_cli("eval", "--run", str(run_dir)) == 2
    err = capsys.readouterr().err
    assert str(run_dir / broken) in err and "not valid JSON" in err
    rc = run_cli("visualize", "--run", str(run_dir), "--src", "0",
                 "--dst", "1", "--out", str(tmp_path / "viz"))
    assert rc == 2
    assert str(run_dir / broken) in capsys.readouterr().err
    assert not (tmp_path / "viz").exists()


def break_pairs(data):
    """The first line of pairs.tsv with split bogus."""
    lines = (data / "pairs.tsv").read_text().splitlines(keepends=True)
    src, dst, _ = lines[0].split("\t")
    (data / "pairs.tsv").write_text("".join([f"{src}\t{dst}\tbogus\n"]
                                            + lines[1:]))


def edit_params(change):
    def edit(data):
        doc = json.loads((data / "params.json").read_text())
        change(doc)
        (data / "params.json").write_text(json.dumps(doc))
    return edit


# A malformed dataset file: how to break it, and what the message says
# besides the file's name.
MALFORMED = {
    "pairs-split": ("pairs.tsv", break_pairs, "line 1"),
    "pairs-unknown-node": ("pairs.tsv", lambda data: (data / "pairs.tsv")
                           .write_text("999\t0\ttrain\n"), "[999]"),
    "params-no-direction": ("params.json",
                            edit_params(lambda d: d.pop("direction")),
                            "KeyError: 'direction'"),
    "params-no-max-steps": ("params.json",
                            edit_params(lambda d: d.pop("max_steps")),
                            "KeyError: 'max_steps'"),
    "params-unknown-key": ("params.json",
                           edit_params(lambda d: d.update(foo=1)), "'foo'"),
    "graph-invalid-json": ("graph.json",
                           lambda data: (data / "graph.json").write_text(
                               "{bad"), "Expecting property name"),
    "graph-no-nodes": ("graph.json", lambda data: (data / "graph.json")
                       .write_text('{"n_side": 5, "edges": []}'), "'nodes'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_train_names_a_malformed_dataset_file(tmp_path, capsys, case):
    """train exits 2 with a message naming the malformed file, with no
    traceback and no run directory."""
    name, breaks, message = MALFORMED[case]
    data = generate_tiny(tmp_path) / "seed0"
    breaks(data)
    run_dir = tmp_path / "run"
    capsys.readouterr()
    rc = run_cli("train", "--model", "rw-stationary", "--data", str(data),
                 "--out", str(run_dir), "--epochs", "1")
    assert rc == 2
    captured = capsys.readouterr()
    assert str(data / name) in captured.err and message in captured.err
    assert captured.out == ""
    assert not run_dir.exists()


@pytest.mark.parametrize("case", ["pairs-split", "pairs-unknown-node",
                                  "graph-invalid-json", "graph-no-nodes"])
def test_eval_and_visualize_name_a_malformed_dataset_file(tmp_path, capsys,
                                                          case):
    """A run whose dataset file was broken after training exits 2 from eval
    and visualize, naming the file."""
    name, breaks, message = MALFORMED[case]
    data = generate_tiny(tmp_path) / "seed0"
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "rw-stationary", "--data", str(data),
                   "--out", str(run_dir), "--epochs", "1", "--dims", "8",
                   "--attn-dims", "2", "--steps", "2") == 0
    breaks(data)
    path = os.path.join(run_dir, "..", "data", "seed0", name)
    capsys.readouterr()
    assert run_cli("eval", "--run", str(run_dir)) == 2
    err = capsys.readouterr().err
    assert path in err and message in err
    rc = run_cli("visualize", "--run", str(run_dir), "--src", "0",
                 "--dst", "1", "--out", str(tmp_path / "viz"))
    assert rc == 2
    err = capsys.readouterr().err
    assert path in err and message in err
    assert not (tmp_path / "viz").exists()


def test_eval_out_into_a_missing_directory(tmp_path, capsys):
    """eval --out makes the metrics file's missing parent directories and
    writes there what it prints."""
    data = generate_tiny(tmp_path) / "seed0"
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "rw-stationary", "--data", str(data),
                   "--out", str(run_dir), "--epochs", "1", "--dims", "8",
                   "--attn-dims", "2", "--steps", "2") == 0
    out = tmp_path / "nosuch" / "dir" / "m.json"
    capsys.readouterr()
    assert run_cli("eval", "--run", str(run_dir), "--out", str(out)) == 0
    assert out.read_text() == capsys.readouterr().out


def test_eval_requires_selection_manifest(tmp_path, capsys):
    os.makedirs(tmp_path / "empty")
    rc = run_cli("eval", "--run", str(tmp_path / "empty"))
    assert rc == 2


def test_rw_stationary_log_marker(tmp_path, capsys):
    data = generate_tiny(tmp_path) / "seed0"
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "rw-stationary", "--data", str(data),
                   "--out", str(run_dir), "--epochs", "1", "--dims", "8",
                   "--attn-dims", "2", "--steps", "2") == 0
    assert "# constant_transition\ttrue" in (run_dir / "run.log").read_text()


def test_run_log_header_on_disk_before_first_epoch(tmp_path, capsys,
                                                   monkeypatch):
    from gridflow import training

    data = generate_tiny(tmp_path) / "seed0"
    run_dir = tmp_path / "run"
    seen = []

    def read_log(*args, **kwargs):
        seen.append((run_dir / "run.log").read_text())
        return None, None, [], None

    monkeypatch.setattr(training, "run_experiment", read_log)
    assert run_cli("train", "--model", "ggnn", "--data", str(data),
                   "--out", str(run_dir), "--epochs", "1") == 0
    assert seen and seen[0].startswith("epoch\tlr\ttrain_loss\t")


def test_reproduce_one_cell(tmp_path, capsys):
    out = tmp_path / "cell"
    assert run_cli("reproduce", "--preset", "LINE-SZ8-STP4-NDRP-STD0.2",
                   "--model", "rw-stationary", "--epochs", "1",
                   "--out", str(out)) == 0
    run_dir = out / "run-seed0"
    manifest = json.loads((run_dir / "selection.json").read_text())
    assert manifest["model"] == "rw-stationary"
    assert manifest["selected_epochs"] == [0]
    doc = json.loads((run_dir / "test.json").read_text())
    assert doc["split"] == "test"
    assert doc["n_snapshots"] == 1


def test_thread_cap_env(monkeypatch):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("GRIDFLOW_THREADS", "2")
    assert gridflow._apply_thread_cap() == 2
    assert os.environ["OMP_NUM_THREADS"] == "2"


THREAD_PROBE = """
import numpy as np
a = np.ones((256, 256))
a @ a
with open("/proc/self/status") as f:
    print([line.split()[1] for line in f if line.startswith("Threads:")][0])
"""

# How each entry point loads the package: the `gridflow` console script
# imports gridflow.cli and calls main; `python -m gridflow.cli` runs the
# module as __main__ through runpy; scripts/equivalence.py is loaded first,
# and its dump then imports gridflow from a source tree.
ENTRY_POINTS = {
    "console-script": "from gridflow.cli import main\n"
                      "main(['generate', '--out', {out!r}, "
                      "'--preset', 'LINE-SZ5-STP4-NDRP-STD0.3'])\n",
    "python-m": "import runpy, sys\n"
                "sys.argv = ['gridflow', 'generate', '--out', {out!r}, "
                "'--preset', 'LINE-SZ5-STP4-NDRP-STD0.3']\n"
                "try:\n"
                "    runpy.run_module('gridflow.cli', run_name='__main__', "
                "alter_sys=True)\n"
                "except SystemExit as e:\n"
                "    assert not e.code\n",
    "equivalence-dump": "import importlib.util, sys\n"
                        "spec = importlib.util.spec_from_file_location("
                        "'equivalence', {root!r} + '/scripts/equivalence.py')\n"
                        "spec.loader.exec_module("
                        "importlib.util.module_from_spec(spec))\n"
                        "sys.path.insert(0, {root!r} + '/src')\n"
                        "from gridflow import cli, data, graphnets, training\n",
}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status to count threads")
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_thread_cap_reaches_blas(tmp_path, entry):
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    env["GRIDFLOW_THREADS"] = "1"
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ENTRY_POINTS[entry].format(out=str(tmp_path / "data"),
                                      root=root) + THREAD_PROBE
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "1"


def test_run_benchmarks_rejects_unknown_run(tmp_path):
    """A mistyped run name exits 2, listing the valid names, before any
    dataset is generated."""
    script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                          "run_benchmarks.sh")
    data = tmp_path / "data"
    proc = subprocess.run(["bash", script, "line-ggnn-mlp"],
                          env=os.environ | {"BENCH_DATA_DIR": str(data)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    for name in ("sine-ggnn", "line-ggnn-mulmlp", "line-ggnn-mul"):
        assert name in proc.stderr
    assert proc.stdout == ""
    assert not data.exists()
