"""Command-line interface tests, run in process through main()."""

import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowcbr
from flowcbr.cli import DEFAULTS, build_parser, main
from flowcbr.features import extract_matrix, load_matrix_csv, save_matrix_csv
from flowcbr.flows import FLOW_CSV_HEADER, InputError, load_flows_csv, save_flows_csv
from flowcbr.harness import PipelineConfig, stratified_split
from flowcbr.model import load_model
from flowcbr.synth import default_templates, synth_generate


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def flows_csv(tmp_path):
    """A small labeled synthetic dataset on disk."""
    out = tmp_path / "data"
    assert run("--seed", "3", "--out", str(out), "synth",
               "--classes", "2", "--flows-per-class", "6") == 0
    return out / "flows.csv"


def test_synth_writes_flow_csv(flows_csv):
    flows = load_flows_csv(flows_csv)
    assert len(flows) == 12
    assert {f.label for f in flows} == {"class-a", "class-b"}


def test_a_flow_with_no_id_has_one_name_in_every_output(tmp_path):
    """The first flow of a flow CSV has an empty id. extract, classify
    --input and eval each name it f000000, as assemble_flows names the
    first flow of a capture."""
    flows = synth_generate(default_templates(2), 6, seed=1)
    flows[0].flow_id = ""
    path = tmp_path / "flows.csv"
    save_flows_csv(flows, path)
    # A seed whose split tests the first flow, so that eval gives it a verdict.
    seed = next(s for s in range(100)
                if 0 in stratified_split([f.label for f in flows], 0.5, s)[1])
    features = tmp_path / "x" / "features.csv"
    assert run("--out", str(features.parent), "extract", str(path)) == 0
    assert run("--out", str(tmp_path / "m"), "index", str(features)) == 0
    assert run("--out", str(tmp_path / "c"), "classify", str(tmp_path / "m"),
               "--input", str(path)) == 0
    assert run("--seed", str(seed), "--out", str(tmp_path / "e"), "eval", str(path),
               "--train-fraction", "0.5") == 0

    def verdict_ids(out):
        return [json.loads(line)["flow_id"]
                for line in (out / "verdicts.jsonl").read_text().splitlines()]

    assert load_matrix_csv(features)[1][0] == "f000000"
    assert verdict_ids(tmp_path / "c")[0] == "f000000"
    assert "f000000" in verdict_ids(tmp_path / "e")


def test_a_flow_with_no_id_may_not_take_another_flows_id(tmp_path, capsys):
    """The first flow of a flow CSV has an empty id and a later flow is
    named f000000, the name the first would get by position. extract,
    classify --input and eval each exit 2 with one error line naming both,
    and write nothing: two rows or verdicts never share an id."""
    flows = synth_generate(default_templates(2), 6, seed=1)
    good = tmp_path / "good.csv"
    save_flows_csv(flows, good)
    assert run("--out", str(tmp_path / "x"), "extract", str(good)) == 0
    assert run("--out", str(tmp_path / "m"), "index", str(tmp_path / "x" / "features.csv")) == 0
    flows[0].flow_id = ""
    flows[4].flow_id = "f000000"
    path = tmp_path / "flows.csv"
    save_flows_csv(flows, path)
    capsys.readouterr()
    for argv in (["extract", str(path)],
                 ["classify", str(tmp_path / "m"), "--input", str(path)],
                 ["eval", str(path)]):
        out = tmp_path / argv[0]
        assert run("--out", str(out), *argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: the flow at position 0 has no flow_id, and its name by "
            "position, 'f000000', is another flow's flow_id"]
        assert not out.exists()


def test_synth_seed_changes_output(tmp_path):
    for seed in ("1", "2"):
        run("--seed", seed, "--out", str(tmp_path / seed), "synth",
            "--classes", "2", "--flows-per-class", "2")
    a = (tmp_path / "1" / "flows.csv").read_bytes()
    b = (tmp_path / "2" / "flows.csv").read_bytes()
    assert a != b


def test_extract_index_classify_chain(tmp_path, flows_csv, capsys):
    feat_dir = tmp_path / "feat"
    assert run("--out", str(feat_dir), "extract", str(flows_csv)) == 0
    matrix, flow_ids, labels = load_matrix_csv(feat_dir / "features.csv")
    assert matrix.shape == (12, 183)
    assert all(labels)

    model = tmp_path / "model"
    assert run("--out", str(model), "index", str(feat_dir / "features.csv"),
               "--k", "3") == 0
    assert sorted(p.name for p in model.iterdir()) == ["model.json", "vectors.npy"]

    out = tmp_path / "verdicts"
    assert run("--out", str(out), "classify", str(model),
               "--features", str(feat_dir / "features.csv")) == 0
    lines = (out / "verdicts.jsonl").read_text().splitlines()
    assert len(lines) == 12
    first = json.loads(lines[0])
    assert first["flow_id"] == flow_ids[0]
    assert first["kind"] in ("Known", "NewClassRegistered", "NewClassPending", "OOD")


def test_classify_straight_from_flow_csv(tmp_path, flows_csv):
    feat_dir, model = tmp_path / "feat", tmp_path / "model"
    run("--out", str(feat_dir), "extract", str(flows_csv))
    run("--out", str(model), "index", str(feat_dir / "features.csv"))
    out = tmp_path / "v"
    assert run("--out", str(out), "classify", str(model),
               "--input", str(flows_csv)) == 0
    assert len((out / "verdicts.jsonl").read_text().splitlines()) == 12


def test_index_mask_flag_is_gone(tmp_path, flows_csv, capsys):
    feat_dir = tmp_path / "feat"
    run("--out", str(feat_dir), "extract", str(flows_csv))
    (tmp_path / "m.json").write_text('{"schema_version": "stat183.v1", "slots": [0]}')
    with pytest.raises(SystemExit) as exc:
        run("--out", str(tmp_path / "model"), "index", str(feat_dir / "features.csv"),
            "--mask", str(tmp_path / "m.json"))
    assert exc.value.code == 2
    assert "unrecognized arguments: --mask" in capsys.readouterr().err
    assert not (tmp_path / "model").exists()


def test_index_rejects_unlabeled_rows(tmp_path, capsys):
    path = tmp_path / "f.csv"
    save_matrix_csv(path, np.zeros((2, 183)), ["a", "b"], ["x", ""])
    assert run("--out", str(tmp_path / "m"), "index", str(path)) == 2
    assert f"error: {path}: indexing needs a label on every row" in capsys.readouterr().err


def test_index_rejects_a_header_only_features_csv(tmp_path, capsys):
    path = tmp_path / "f.csv"
    save_matrix_csv(path, np.zeros((0, 183)), [], [])
    assert run("--out", str(tmp_path / "m"), "index", str(path)) == 2
    assert f"error: {path}: no rows to index" in capsys.readouterr().err
    assert not (tmp_path / "m" / "model.json").exists()


def test_index_rejects_a_slot_range_that_overflows(tmp_path, capsys):
    """A slot whose max - min overflows cannot be min-max scaled."""
    path = tmp_path / "f.csv"
    X = np.zeros((4, 183))
    X[0, 5], X[1, 5] = 1.7e308, -1.7e308
    save_matrix_csv(path, X, list("abcd"), ["x", "x", "y", "y"])
    assert run("--out", str(tmp_path / "m"), "index", str(path)) == 2
    assert f"error: {path}: f005 spans more than the largest float" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_eval_writes_reports(tmp_path, capsys):
    data = tmp_path / "data"
    run("--seed", "0", "--out", str(data), "synth",
        "--classes", "3", "--flows-per-class", "10")
    out = tmp_path / "eval"
    assert run("--out", str(out), "eval", str(data / "flows.csv"),
               "--n-trees", "8") == 0
    assert "macro-F1" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_train"] + summary["n_test"] == 30


def test_held_out_run_that_registers_nothing_reports_null(tmp_path, capsys):
    """A held-out class that never forms a cohort registers nothing: the
    report's count and recall are null, not 0, and the line printed says
    how many held-out samples went by."""
    data, out = tmp_path / "data", tmp_path / "eval"
    run("--seed", "0", "--out", str(data), "synth", "--classes", "4", "--flows-per-class", "40")
    capsys.readouterr()
    assert run("--out", str(out), "eval", str(data / "flows.csv"), "--held-out", "class-b") == 0
    assert capsys.readouterr().out == (
        "held-out class-b: no class registered after 12 held-out samples\n")
    assert json.loads((out / "new_class.json").read_text()) == {
        "held_out_class": "class-b", "held_out_recall": None, "n_post_registration": 0,
        "registered_label": None, "samples_consumed": None}


@pytest.mark.parametrize("c_min,recall,line", [
    pytest.param(5, 1.0, "recall 1.000 on 1 later sample", id="one-later"),
    pytest.param(6, None, "no later held-out samples to score", id="none-later"),
])
def test_held_out_recall_is_null_with_no_later_samples(tmp_path, capsys, c_min, recall, line):
    """class-a's 6 held-out samples register a class after c_min of them. A
    recall over the samples left is undefined when none is left: null in
    new_class.json, and the line printed says so."""
    data, out, config = tmp_path / "data", tmp_path / "eval", tmp_path / "c.json"
    run("--seed", "5", "--out", str(data), "synth", "--classes", "5", "--flows-per-class", "20")
    config.write_text(json.dumps({"c_min": c_min, "ood_margin": 5.0}))
    capsys.readouterr()
    assert run("--config", str(config), "--out", str(out), "eval", str(data / "flows.csv"),
               "--held-out", "class-a") == 0
    assert capsys.readouterr().out == (
        f"held-out class-a: registered as novel-1 after {c_min} samples, {line}\n")
    assert json.loads((out / "new_class.json").read_text()) == {
        "held_out_class": "class-a", "held_out_recall": recall,
        "n_post_registration": 6 - c_min, "registered_label": "novel-1",
        "samples_consumed": c_min}


def test_sweep_reports_points(tmp_path, flows_csv, capsys):
    out = tmp_path / "sweep"
    assert run("--out", str(out), "sweep", str(flows_csv),
               "--counts", "2,5", "--k", "1") == 0
    text = capsys.readouterr().out
    assert "n=  2" in text and "n=  5" in text
    assert (out / "sweep.csv").exists()


def test_sweep_rejects_bad_counts(flows_csv, capsys):
    assert run("sweep", str(flows_csv), "--counts", "2,x") == 2
    assert "counts" in capsys.readouterr().err
    assert run("sweep", str(flows_csv), "--counts", ",") == 2
    assert run("sweep", str(flows_csv), "--counts", "5,2") == 2


def test_missing_input_exits_two(tmp_path, capsys):
    assert run("--out", str(tmp_path), "extract", str(tmp_path / "nope.csv")) == 2
    assert f"error: {tmp_path / 'nope.csv'}: No such file or directory" in capsys.readouterr().err


def test_model_dir_missing_piece_exits_two(tmp_path, capsys):
    (tmp_path / "model").mkdir()
    assert run("classify", str(tmp_path / "model"),
               "--features", "whatever.csv") == 2
    assert f"error: {tmp_path / 'model'}: missing model.json" in capsys.readouterr().err


def test_config_file_settings_apply(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9}))
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run("--config", str(cfg), "--out", str(a), "synth",
        "--classes", "2", "--flows-per-class", "2")
    run("--seed", "9", "--out", str(b), "synth",
        "--classes", "2", "--flows-per-class", "2")
    run("--out", str(c), "synth", "--classes", "2", "--flows-per-class", "2")
    assert (a / "flows.csv").read_bytes() == (b / "flows.csv").read_bytes()
    assert (a / "flows.csv").read_bytes() != (c / "flows.csv").read_bytes()


def test_flags_beat_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    a, b = tmp_path / "a", tmp_path / "b"
    run("--config", str(cfg), "--seed", "9", "--out", str(a), "synth",
        "--classes", "2", "--flows-per-class", "2")
    run("--seed", "9", "--out", str(b), "synth",
        "--classes", "2", "--flows-per-class", "2")
    assert (a / "flows.csv").read_bytes() == (b / "flows.csv").read_bytes()


@pytest.mark.parametrize("content,fragment", [
    ('{"k": 5, "bogus": 1}', "unknown config keys"),
    ("[1, 2]", "JSON object"),
    ("{not json", "not valid JSON"),
    (b"\xff{", "not valid JSON: 'utf-8' codec can't decode byte 0xff"),
])
def test_config_file_rejections(tmp_path, capsys, content, fragment):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert run("--config", str(cfg), "--out", str(tmp_path / "out"),
               "synth", "--classes", "2", "--flows-per-class", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and fragment in err


def test_config_file_missing(tmp_path, capsys):
    assert run("--config", str(tmp_path / "nope.json"), "synth") == 2
    assert (f"error: {tmp_path / 'nope.json'}: No such file or directory"
            in capsys.readouterr().err)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Labeled flows and their features, shared by the settings tests."""
    root = tmp_path_factory.mktemp("settings")
    assert run("--seed", "3", "--out", str(root), "synth",
               "--classes", "2", "--flows-per-class", "6") == 0
    assert run("--out", str(root), "extract", str(root / "flows.csv")) == 0
    return root


BAD_SETTINGS = [
    (["extract", "{flows}", "--n-packets", "0"], None, "n_packets"),
    (["extract", "{flows}", "--idle-timeout", "0"], None, "idle_timeout"),
    (["index", "{features}", "--k", "0"], None, "k"),
    (["index", "{features}", "--c-min", "0"], None, "c_min"),
    (["index", "{features}"], {"leaf_size": 8}, "leaf_size"),
    (["eval", "{flows}", "--n-trees", "0"], None, "n_trees"),
    (["eval", "{flows}", "--train-fraction", "1.0"], None, "train_fraction"),
    (["index", "{features}"], {"r_cohesion": -1}, "r_cohesion"),
    (["index", "{features}"], {"k": "5"}, "k"),
    (["index", "{features}"], {"seed": 1.5}, "seed"),
    (["index", "{features}"], {"seed": True}, "seed"),
    (["index", "{features}"], {"backend": "kdtree"}, "backend"),
    (["index", "{features}"], {"quantile_new": 0}, "quantile_new"),
    (["index", "{features}"], {"quantile_new": float("nan")}, "quantile_new"),
    (["index", "{features}"], {"quantile_ood": 1.5}, "quantile_ood"),
    (["index", "{features}"], {"ood_margin": 0}, "ood_margin"),
    (["index", "{features}"], {"max_depth": 0}, "max_depth"),
    (["index", "{features}"], {"train_fraction": 0}, "train_fraction"),
    (["index", "{features}"], {"idle_timeout": -1}, "idle_timeout"),
    (["index", "{features}"], {"n_packets": 2.5}, "n_packets"),
    (["--seed", "-1", "eval", "{flows}"], None, "seed"),
    (["--seed", "-1", "synth"], None, "seed"),
]


@pytest.mark.parametrize("argv,config,key", BAD_SETTINGS)
def test_bad_settings_exit_two(data_dir, tmp_path, capsys, argv, config, key):
    argv = [a.format(flows=data_dir / "flows.csv", features=data_dir / "features.csv")
            for a in argv]
    head = ["--out", str(tmp_path / "out")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        head += ["--config", str(cfg)]
    assert run(*head, *argv) == 2
    err = capsys.readouterr().err
    # backend and leaf_size were settings once; a config file naming them
    # now fails as any unknown key does.
    if key in DEFAULTS:
        assert f"error: setting {key}=" in err
    else:
        assert f"error: {tmp_path / 'cfg.json'}: unknown config keys: ['{key}']" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,config,key",
                         [case for case in BAD_SETTINGS if case[2] in DEFAULTS])
def test_pipeline_config_refuses_a_setting_as_the_cli_does(data_dir, tmp_path, capsys,
                                                          argv, config, key):
    """PipelineConfig, given the one bad value of each case, raises the
    InputError whose text the CLI prints for it, word for word: library
    callers get the CLI's refusal."""
    argv = [a.format(flows=data_dir / "flows.csv", features=data_dir / "features.csv")
            for a in argv]
    head = ["--out", str(tmp_path / "out")]
    if config is not None:
        value = config[key]
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        head += ["--config", str(tmp_path / "cfg.json")]
    else:
        value = getattr(build_parser().parse_args(argv), key)
    assert run(*head, *argv) == 2
    err = capsys.readouterr().err
    with pytest.raises(InputError) as refused:
        PipelineConfig(**{key: value})
    assert err == f"error: {refused.value}\n"
    assert str(refused.value).startswith(f"setting {key}={value!r} must be ")


def test_the_first_bad_setting_in_rule_order_is_named(data_dir, tmp_path, capsys):
    """Of two bad settings, the one earlier in the rule order (seed, k,
    c_min, n_trees, n_packets, max_depth, r_cohesion, quantile_new,
    quantile_ood, ood_margin, train_fraction, idle_timeout) is named, by
    the library and the CLI alike, whatever order they are given in."""
    with pytest.raises(InputError, match=r"^setting seed=-1 must be an integer >= 0$"):
        PipelineConfig(idle_timeout=0, seed=-1)
    with pytest.raises(InputError, match=r"^setting k=0 must be an integer >= 1$"):
        PipelineConfig(train_fraction=1.0, k=0)
    with pytest.raises(InputError, match=r"^setting quantile_ood=0 must be a number in"):
        PipelineConfig(ood_margin=-1.0, quantile_ood=0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train_fraction": 2, "max_depth": 0}))
    assert run("--config", str(cfg), "--out", str(tmp_path / "out"),
               "eval", str(data_dir / "flows.csv"), "--k", "0") == 2
    assert capsys.readouterr().err == "error: setting k=0 must be an integer >= 1\n"


@pytest.mark.parametrize("argv", [
    ["--classes", "0"],
    ["--classes", "99"],
    ["--flows-per-class", "0"],
])
def test_synth_bad_flags_exit_two(tmp_path, capsys, argv):
    assert run("--out", str(tmp_path), "synth", *argv) == 2
    err = capsys.readouterr().err
    assert f"error: {argv[0]} {argv[1]} must be" in err
    assert "Traceback" not in err
    assert not (tmp_path / "flows.csv").exists()


@pytest.fixture(scope="module")
def singletons_dir(tmp_path_factory):
    """Flows and features of three classes with one flow each: no class
    has the two rows that calibrating the thresholds needs."""
    root = tmp_path_factory.mktemp("singletons")
    assert run("--out", str(root), "synth", "--classes", "3", "--flows-per-class", "1") == 0
    assert run("--out", str(root), "extract", str(root / "flows.csv")) == 0
    return root


@pytest.fixture(scope="module")
def empty_csv(tmp_path_factory):
    """A flow CSV holding the header and no rows."""
    path = tmp_path_factory.mktemp("empty") / "flows.csv"
    path.write_text(",".join(FLOW_CSV_HEADER) + "\n")
    return path


@pytest.fixture(scope="module")
def one_class_dir(data_dir, tmp_path_factory):
    """From the shared flows: ``one-class.csv`` holds only the class-a flows,
    ``lone-a.csv`` every class-b flow and one class-a flow."""
    root = tmp_path_factory.mktemp("one-class")
    flows = load_flows_csv(data_dir / "flows.csv")
    class_a = [f for f in flows if f.label == "class-a"]
    save_flows_csv(class_a, root / "one-class.csv")
    save_flows_csv([f for f in flows if f.label != "class-a"] + class_a[:1],
                   root / "lone-a.csv")
    return root


@pytest.fixture(scope="module")
def unlabeled_csv(data_dir, tmp_path_factory):
    """The shared flows with the label of the third flow blanked."""
    flows = load_flows_csv(data_dir / "flows.csv")
    flows[2] = replace(flows[2], label=None)
    path = tmp_path_factory.mktemp("unlabeled") / "flows.csv"
    save_flows_csv(flows, path)
    return path


@pytest.fixture(scope="module")
def shared_model(data_dir, tmp_path_factory):
    """A model directory built from the shared features."""
    model = tmp_path_factory.mktemp("shared") / "model"
    assert run("--out", str(model), "index", str(data_dir / "features.csv")) == 0
    return model


def test_config_keys_that_a_command_cannot_use_are_accepted(data_dir, shared_model, tmp_path):
    """A config file is shared between commands, so idle_timeout in it does
    not stop extract from a flow CSV, nor n_packets classify --features; each
    gives the output of a run without them."""
    runs = {
        "extract": ({"idle_timeout": 0.001}, ["extract", str(data_dir / "flows.csv")],
                    "features.csv"),
        "classify": ({"n_packets": 3}, ["classify", str(shared_model), "--features",
                                        str(data_dir / "features.csv")], "verdicts.jsonl"),
    }
    for command, (config, argv, written) in runs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(config))
        for head, out in ((["--config", str(cfg)], "a"), ([], "b")):
            assert run(*head, "--out", str(tmp_path / command / out), *argv) == 0
        assert ((tmp_path / command / "a" / written).read_bytes()
                == (tmp_path / command / "b" / written).read_bytes())


_SINGLETONS = ": every class has one row to train on"
_NO_TEST = ": train_fraction 0.99 leaves no test rows"
_C_MIN = (": the settings give unusable thresholds: c_min must be >= 1 and <= 1000, "
          "the pending buffer's capacity")
_NO_FLOWS = ": no flows to train on"
_UNLABELED = ": flow class-a-0002 has no label, and every flow needs one to train and score"


@pytest.mark.parametrize("argv,fragment", [
    pytest.param(["eval", "{flows}", "--held-out", "nope"],
                 "{flows}: held-out class 'nope' is not present", id="held-out"),
    pytest.param(["sweep", "{flows}", "--counts", "0,2"],
                 "--counts 0,2 must hold packet counts >= 1", id="counts"),
    pytest.param(["extract", "{flows}", "--idle-timeout", "0.001"],
                 "--idle-timeout splits captures at idle gaps, and {flows} is a flow CSV",
                 id="extract-idle-timeout"),
    pytest.param(["classify", "{model}", "--features", "{features}", "--n-packets", "3"],
                 "--n-packets cuts flows before their features are extracted",
                 id="classify-features-n-packets"),
    pytest.param(["eval", "{flows}", "--held-out", "class-a", "--n-trees", "5"],
                 "--n-trees sizes the forest, and the --held-out protocol trains none",
                 id="held-out-n-trees"),
    pytest.param(["index", "{singletons}/features.csv"], "{singletons}/features.csv" + _SINGLETONS,
                 id="index-singletons"),
    pytest.param(["eval", "{singletons}/flows.csv"], "{singletons}/flows.csv" + _SINGLETONS,
                 id="eval-singletons"),
    pytest.param(["eval", "{singletons}/flows.csv", "--held-out", "class-a"],
                 "{singletons}/flows.csv" + _SINGLETONS, id="held-out-singletons"),
    pytest.param(["sweep", "{singletons}/flows.csv"], "{singletons}/flows.csv" + _SINGLETONS,
                 id="sweep-singletons"),
    pytest.param(["index", "{features}", "--c-min", "1001"], "{features}" + _C_MIN,
                 id="index-c-min"),
    pytest.param(["eval", "{empty}"], "{empty}" + _NO_FLOWS, id="eval-empty"),
    pytest.param(["eval", "{empty}", "--held-out", "class-a"], "{empty}" + _NO_FLOWS,
                 id="held-out-empty"),
    pytest.param(["sweep", "{empty}"], "{empty}" + _NO_FLOWS, id="sweep-empty"),
    pytest.param(["eval", "{flows}", "--train-fraction", "0.99"], "{flows}" + _NO_TEST,
                 id="eval-no-test-rows"),
    pytest.param(["--config", "{config}", "sweep", "{flows}"], "{flows}" + _NO_TEST,
                 id="sweep-no-test-rows"),
    pytest.param(["eval", "{flows}", "--held-out", "class-a", "--train-fraction", "0.99"],
                 "{flows}" + _NO_TEST, id="held-out-no-test-rows"),
    pytest.param(["eval", "{one}/lone-a.csv", "--held-out", "class-a"],
                 "{one}/lone-a.csv: train_fraction 0.7 leaves no test rows of the held-out "
                 "class class-a", id="held-out-class-no-test-rows"),
    pytest.param(["eval", "{one}/one-class.csv"], "{one}/one-class.csv: the forest needs "
                 "two classes to train on; every row is class-a", id="eval-one-class"),
    pytest.param(["eval", "{one}/one-class.csv", "--held-out", "class-a"],
                 "{one}/one-class.csv: every flow is class-a, so holding it out leaves no "
                 "rows to train on", id="held-out-only-class"),
    pytest.param(["eval", "{unlabeled}"], "{unlabeled}" + _UNLABELED, id="eval-unlabeled"),
    pytest.param(["eval", "{unlabeled}", "--held-out", "class-b"], "{unlabeled}" + _UNLABELED,
                 id="held-out-unlabeled"),
    pytest.param(["sweep", "{unlabeled}", "--counts", "2,4"], "{unlabeled}" + _UNLABELED,
                 id="sweep-unlabeled"),
])
def test_eval_sweep_bad_args_exit_two(data_dir, singletons_dir, empty_csv, one_class_dir,
                                      unlabeled_csv, shared_model, tmp_path, capsys, argv,
                                      fragment):
    """Bad arguments, flags that cannot act on their input, a c_min no
    pending buffer can reach, training rows with no class of two (for all
    four commands that fit), a flow CSV with no rows, a split that leaves no
    test rows, flows of a single class and a flow without a label exit 2
    with an error line and write nothing."""
    config = tmp_path / "config.json"
    config.write_text('{"train_fraction": 0.99}')
    names = {"flows": data_dir / "flows.csv", "features": data_dir / "features.csv",
             "singletons": singletons_dir, "empty": empty_csv, "one": one_class_dir,
             "config": config, "unlabeled": unlabeled_csv, "model": shared_model}
    argv = [a.format(**names) for a in argv]
    assert run("--out", str(tmp_path / "out"), *argv) == 2
    err = capsys.readouterr().err
    assert f"error: {fragment.format(**names)}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["index", "eval"])
@pytest.mark.parametrize("config,fragment", [
    ('{"r_cohesion": Infinity}', "r_cohesion must be positive and finite"),
    ('{"ood_margin": 1e308}', "need 0 < theta_new <= theta_ood, both finite"),
    ('{"c_min": 1001}', "c_min must be >= 1 and <= 1000"),
], ids=["r_cohesion-inf", "theta_ood-overflow", "c_min-unreachable"])
def test_infinite_thresholds_exit_two(data_dir, tmp_path, capsys, command, config, fragment):
    """Settings that make a threshold infinite, or a c_min that no pending
    buffer can reach, fail the fit: exit 2 with an error line, and nothing
    is written."""
    cfg = tmp_path / "config.json"
    cfg.write_text(config)
    data = data_dir / ("features.csv" if command == "index" else "flows.csv")
    assert run("--config", str(cfg), "--out", str(tmp_path / "out"), command, str(data)) == 2
    err = capsys.readouterr().err
    assert f"error: {data}: the settings give unusable thresholds: {fragment}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.fixture()
def model_dir(data_dir, tmp_path):
    """A fresh model directory built from the shared features."""
    model = tmp_path / "model"
    assert run("--out", str(model), "index", str(data_dir / "features.csv")) == 0
    return model


def test_k_above_the_index_size_is_valid(data_dir, tmp_path):
    """A k above the row count is a valid setting: each k-NN returns every
    row of the index, so each vote counts all 12."""
    model, out = tmp_path / "model", tmp_path / "v"
    assert run("--out", str(model), "index", str(data_dir / "features.csv"), "--k", "5000") == 0
    assert run("--out", str(out), "classify", str(model),
               "--features", str(data_dir / "features.csv")) == 0
    verdicts = [json.loads(line) for line in (out / "verdicts.jsonl").read_text().splitlines()]
    assert len(verdicts) == 12
    assert all(sum(v["votes"].values()) == 12 for v in verdicts)


def test_index_twice_writes_identical_model_dirs(data_dir, tmp_path):
    """Two index runs on one CSV write the same two files, byte for byte."""
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert run("--out", str(d), "index", str(data_dir / "features.csv")) == 0
    names = ["model.json", "vectors.npy"]
    for d in dirs:
        assert sorted(p.name for p in d.iterdir()) == names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


_HEADER = ["flow_id", "label"] + [f"f{i:03d}" for i in range(183)]
_NARROW_HEADER = ",".join(_HEADER[:-5]) + "\n"


def _last_cell(cell):
    """A one-row feature CSV whose last cell is ``cell``."""
    return ",".join(_HEADER) + "\n" + ",".join(["a", ""] + ["0.5"] * 182 + [cell]) + "\n"


def _edit_model_json(**changes):
    """A change to a model directory: set keys of model.json, each to a
    value or to a function of the old document."""
    def change(model):
        path = model / "model.json"
        doc = json.loads(path.read_text())
        doc.update({k: v(doc) if callable(v) else v for k, v in changes.items()})
        path.write_text(json.dumps(doc))
    return change


def _npy(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _crc32(data):
    return f"{zlib.crc32(data):08x}"


def _replace_vectors(make, record_crc=True):
    """A change to a model directory: write ``make(vectors)`` as vectors.npy,
    and record its crc32 in model.json unless ``record_crc`` is false, as
    after a rewrite cut off between the two files."""
    def change(model):
        data = make(np.load(model / "vectors.npy"))
        (model / "vectors.npy").write_bytes(data)
        if record_crc:
            _edit_model_json(vectors_crc32=_crc32(data))(model)
    return change


def _format_2(model):
    """model.json as format 2 wrote it: a sha256 where format 3 has a crc32."""
    doc = json.loads((model / "model.json").read_text())
    del doc["vectors_crc32"]
    doc.update(format_version=2, vectors_sha256=hashlib.sha256(
        (model / "vectors.npy").read_bytes()).hexdigest())
    (model / "model.json").write_text(json.dumps(doc))


def _old_layout(model):
    """The four JSON files the index command wrote before model.json, which
    load_model does not read."""
    for name in ("model.json", "vectors.npy"):
        (model / name).unlink()
    for name in ("index.json", "normalizer.json", "thresholds.json", "registry.json"):
        (model / name).write_text("{}")


def _drop_threshold(key):
    """A change to a model directory: delete one key of its thresholds."""
    return _edit_model_json(thresholds=lambda doc: {
        k: v for k, v in doc["thresholds"].items() if k != key})


_BAD_INPUTS = {
    "index": ("model.json", _old_layout, "missing model.json"),
    "model-json": ("model.json", "{", "malformed"),
    "format-version": ("model.json", _edit_model_json(format_version=1),
                       "format_version 1 is not 3"),
    "format-2": ("model.json", _format_2,
                 "format_version 2 is not 3; rebuild the model with the index command"),
    "schema-version": ("model.json", _edit_model_json(schema_version="stat178.v1"),
                       "schema_version 'stat178.v1' is not 'stat183.v1'"),
    "normalizer": ("model.json", _edit_model_json(mins=lambda doc: doc["mins"][:178]),
                   "mins and maxs must each hold 183 finite numbers"),
    "thresholds": ("model.json",
                   _edit_model_json(thresholds=lambda doc: {**doc["thresholds"], "k": "5"}),
                   "thresholds k and c_min must be integers"),
    "thresholds-nan": ("model.json", _edit_model_json(
        thresholds=lambda doc: {**doc["thresholds"], "r_cohesion": float("nan")}),
        "r_cohesion must be positive and finite"),
    "thresholds-inf": ("model.json", _edit_model_json(
        thresholds=lambda doc: {**doc["thresholds"], "theta_ood": float("inf")}),
        "need 0 < theta_new <= theta_ood, both finite"),
    "normalizer-inverted": ("model.json", _edit_model_json(
        mins=lambda doc: [1e308] * len(doc["mins"]),
        maxs=lambda doc: [-1e308] * len(doc["maxs"])),
        "every min must be <= its max, with a finite max - min"),
    "normalizer-strings": ("model.json", _edit_model_json(
        mins=lambda doc: [str(v) for v in doc["mins"]]),
        "mins and maxs must be lists of JSON numbers"),
    "thresholds-bool": ("model.json", _edit_model_json(
        thresholds=lambda doc: {**doc["thresholds"], "theta_new": True, "r_cohesion": True}),
        "thresholds theta_new, theta_ood and r_cohesion must be numbers"),
    "thresholds-c-min": ("model.json", _edit_model_json(
        thresholds=lambda doc: {**doc["thresholds"], "c_min": 1001}),
        "c_min must be >= 1 and <= 1000"),
    "thresholds-no-r-cohesion": ("model.json", _drop_threshold("r_cohesion"),
                                 "malformed model.json: ValueError('thresholds lack r_cohesion')"),
    "thresholds-no-k": ("model.json", _drop_threshold("k"),
                        "malformed model.json: ValueError('thresholds lack k')"),
    "thresholds-no-r-cohesion-extra": ("model.json", _edit_model_json(thresholds=lambda doc: {
        **{k: v for k, v in doc["thresholds"].items() if k != "r_cohesion"}, "extra": 1.0}),
        "malformed model.json: ValueError('thresholds lack r_cohesion')"),
    "thresholds-extra": ("model.json", _edit_model_json(
        thresholds=lambda doc: {**doc["thresholds"], "extra": 1.0}),
        "malformed model.json: ValueError(\"thresholds hold unknown keys ['extra']\")"),
    "thresholds-list": ("model.json", _edit_model_json(
        thresholds=lambda doc: list(doc["thresholds"].values())),
        "malformed model.json: ValueError('thresholds must be an object')"),
    "thresholds-null": ("model.json", _edit_model_json(
        thresholds=lambda doc: {**doc["thresholds"], "r_cohesion": None}),
        "thresholds theta_new, theta_ood and r_cohesion must be numbers"),
    "registry": ("model.json", _edit_model_json(labels=lambda doc: doc["labels"][1:]),
                 "labels must be 12 non-empty strings, one per row"),
    "index-width": ("vectors.npy", _replace_vectors(lambda v: _npy(v[:, :178])),
                    "holds float64 (12, 178), expected float64 (12, 183)"),
    "vectors-rows": ("vectors.npy", _replace_vectors(lambda v: _npy(v[1:])),
                     "holds float64 (11, 183), expected float64 (12, 183)"),
    "vectors-dtype": ("vectors.npy", _replace_vectors(lambda v: _npy(v.astype(np.float32))),
                      "holds float32 (12, 183)"),
    "vectors-truncated": ("vectors.npy", _replace_vectors(lambda v: _npy(v)[:-8]),
                          "EOF: reading array data"),
    "vectors-crc32": ("vectors.npy",
                      _replace_vectors(lambda v: _npy(v[::-1]), record_crc=False),
                      "does not match the crc32 in"),
    "vectors-missing": ("vectors.npy", lambda model: (model / "vectors.npy").unlink(),
                        "missing vectors.npy"),
    "features": ("features.csv", _NARROW_HEADER, "has 178 feature columns, the model has 183"),
    "features-cell": ("features.csv", _last_cell("oops"),
                      "could not convert string to float: 'oops'"),
    "features-nan": ("features.csv", _last_cell("nan"),
                     "row for a has a non-finite f182 value nan"),
    "features-inf": ("features.csv", _last_cell("-inf"),
                     "row for a has a non-finite f182 value -inf"),
}


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_classify_bad_model_dir_exits_two(data_dir, model_dir, tmp_path, capsys, case):
    """Each malformed or incomplete model directory (one from before
    model.json among them, and thresholds that are not an object, lack a
    setting, hold a key that is not a setting, or hold null for one), and an
    input feature CSV of the wrong width or with a bad cell, is named in an
    error line and exits 2 before any verdict is written."""
    name, change, fragment = _BAD_INPUTS[case]
    features = data_dir / "features.csv"
    if name == "features.csv":
        features = tmp_path / name
        features.write_text(change)
    elif callable(change):
        change(model_dir)
    else:
        (model_dir / name).write_text(change)
    capsys.readouterr()
    assert run("--out", str(tmp_path / "v"), "classify", str(model_dir),
               "--features", str(features)) == 2
    err = capsys.readouterr().err
    source = features if name == "features.csv" else model_dir
    assert err.startswith(f"error: {source}: ") and name in err and fragment in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("width,cell,fragment", [
    (178, "0.25", "has 178 feature columns, the schema has 183"),
    (183, "oops", "could not convert string to float: 'oops'"),
    (183, "nan", "row for b has a non-finite f182 value nan"),
    (183, "inf", "row for b has a non-finite f182 value inf"),
    (183, "0.25", "every class has one row"),
    (183, "1" * 200_000, "field larger than field limit (131072)"),
], ids=["narrow", "non-numeric", "nan", "inf", "singletons", "oversized-cell"])
def test_index_malformed_features_exit_two(tmp_path, capsys, width, cell, fragment):
    """``index`` on a two-row CSV of ``width`` slots whose last cell is
    ``cell`` exits 2, names the file and writes nothing. Each row has its
    own label, so a well-formed file fails calibration, which needs a class
    with two rows."""
    header = ["flow_id", "label"] + [f"f{i:03d}" for i in range(width)]
    rows = [["a", "x"] + ["0.5"] * width, ["b", "y"] + ["0.25"] * (width - 1) + [cell]]
    path = tmp_path / "bad_features.csv"
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    assert run("--out", str(tmp_path / "model"), "index", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and fragment in err
    assert "Traceback" not in err
    assert not (tmp_path / "model").exists()


@pytest.mark.parametrize("warnings", ["", "error"], ids=["default", "warnings-as-errors"])
def test_a_one_column_csv_of_blank_cells_gives_one_error_line(shared_model, tmp_path,
                                                               warnings):
    """Every row of a one-column features CSV has a blank cell, which
    np.loadtxt would read as a blank line and warn that it got no data.
    index and classify --features print one error line and exit 2, also
    with warnings raised as errors."""
    path = tmp_path / "w1.csv"
    path.write_bytes(b"flow_id,label,f000\r\na,b,\r\n")
    for argv in (["index", str(path)], ["classify", str(shared_model), "--features", str(path)]):
        out = tmp_path / argv[0]
        done = _run_subprocess(["--out", str(out), *argv], None, PYTHONWARNINGS=warnings)
        assert done.returncode == 2, done.stderr
        assert done.stderr.splitlines() == [f"error: {path}: could not convert string "
                                            f"to float: ''"]
        assert not out.exists()


@pytest.mark.parametrize("stamp", ["inf", "nan", "1e400"])
@pytest.mark.parametrize("command", ["extract", "eval"])
def test_non_finite_timestamp_exits_two(data_dir, tmp_path, capsys, command, stamp):
    lines = (data_dir / "flows.csv").read_text().splitlines()
    fields = lines[5].split(",")
    fields[4] = stamp
    lines[5] = ",".join(fields)
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run("--out", str(tmp_path / "out"), command, str(path)) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: row 6: non-finite timestamp '{stamp}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_boundary_settings_accepted(data_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quantile_new": 1, "quantile_ood": 1.0, "r_cohesion": 2,
                               "max_depth": None, "n_packets": None}))
    assert run("--config", str(cfg), "--out", str(tmp_path / "model"), "index",
               str(data_dir / "features.csv")) == 0


def test_classify_reports_pending_evictions(data_dir, tmp_path, capsys, caplog):
    """With thresholds that put every sample in between, the pending buffer
    fills after 1000 samples and then evicts one per Pending verdict; the
    summary prints the count and a warning names it."""
    model = tmp_path / "model"
    assert run("--out", str(model), "index", str(data_dir / "features.csv")) == 0
    _edit_model_json(thresholds={"theta_new": 1e-12, "theta_ood": 1e12, "k": 1,
                                 "c_min": 1000, "r_cohesion": 1e-9})(model)
    n = 1004
    stream = tmp_path / "stream.csv"
    save_matrix_csv(stream, np.random.default_rng(4).random((n, 183)),
                    [f"s{i}" for i in range(n)], [""] * n)
    capsys.readouterr()

    assert run("--out", str(tmp_path / "v"), "classify", str(model),
               "--features", str(stream)) == 0
    out = capsys.readouterr().out
    assert "{'NewClassPending': 1004}  pending evictions 4" in out
    assert "registered" not in out
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert any("4 buffered samples evicted" in w for w in warnings)
    assert not any("registered" in w for w in warnings)


def test_classify_reports_unsaved_registrations(data_dir, tmp_path, capsys, caplog):
    """Classes registered while classifying live in memory only: the summary
    counts them as not saved and a warning says the model directory lacks
    them."""
    model = tmp_path / "model"
    assert run("--out", str(model), "index", str(data_dir / "features.csv")) == 0
    _edit_model_json(thresholds={"theta_new": 1e-12, "theta_ood": 1e12, "k": 1,
                                 "c_min": 2, "r_cohesion": 1e12})(model)
    stream = tmp_path / "stream.csv"
    save_matrix_csv(stream, np.random.default_rng(5).random((6, 183)),
                    [f"s{i}" for i in range(6)], [""] * 6)
    capsys.readouterr()

    assert run("--out", str(tmp_path / "v"), "classify", str(model),
               "--features", str(stream)) == 0
    out = capsys.readouterr().out
    assert "'NewClassRegistered': 3}  pending evictions 0  registered 3 (not saved)" in out
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert any("3 new classes registered" in w and "not saved" in w and str(model) in w
               for w in warnings)


@pytest.mark.parametrize("argv", [
    pytest.param(["extract", "{dir}"], id="extract"),
    pytest.param(["index", "{dir}"], id="index"),
    pytest.param(["classify", "{model}", "--input", "{dir}"], id="classify-input"),
    pytest.param(["classify", "{model}", "--features", "{dir}"], id="classify-features"),
    pytest.param(["eval", "{dir}"], id="eval"),
    pytest.param(["sweep", "{dir}"], id="sweep"),
    pytest.param(["--config", "{dir}", "synth"], id="config"),
])
def test_unreadable_input_exits_two(model_dir, tmp_path, capsys, argv):
    """An input path that exists but cannot be read exits 2 naming it."""
    directory = tmp_path / "input"
    directory.mkdir()
    argv = [a.format(dir=directory, model=model_dir) for a in argv]
    assert run("--out", str(tmp_path / "out"), *argv) == 2
    err = capsys.readouterr().err
    assert f"error: {directory}: Is a directory" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["extract", "eval", "sweep"])
def test_unwritable_output_is_a_runtime_failure(data_dir, tmp_path, capsys, command):
    """An --out that names a file is no input fault: exit 1, not 2."""
    out = tmp_path / "taken"
    out.write_text("")
    assert run("--out", str(out), command, str(data_dir / "flows.csv")) == 1
    assert f"error: [Errno 17] File exists: '{out}'" in capsys.readouterr().err


@pytest.mark.parametrize("stamps,fragment", [
    (["-1e308", "1e308"], "flow timestamps must be finite"),
    (["-8e307", "8e307"] * 9, "feature vector contains non-finite values"),
])
def test_overflowing_timestamps_exit_two(tmp_path, capsys, stamps, fragment):
    """Finite timestamps too far apart to subtract, or whose gaps overflow
    when summed, are bad input, not a crash."""
    rows = [f"f0,,{i},out,{t},60,0,," for i, t in enumerate(stamps)]
    path = tmp_path / "flows.csv"
    path.write_text("\n".join([",".join(FLOW_CSV_HEADER)] + rows) + "\n")
    assert run("--out", str(tmp_path / "out"), "extract", str(path)) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: {fragment}" in err
    assert not (tmp_path / "out").exists()


@functools.cache
def _tiny_pcap() -> tuple[bytes, list[int]]:
    """A little-endian capture of six TCP frames on two connections, and
    the offset of each record header."""
    out = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    offsets = []
    for i in range(6):
        client, server = (b"\x0a\x00\x00\x01", 1234 + i // 4), (b"\x0a\x00\x00\x02", 443)
        (src, sport), (dst, dport) = (server, client) if i % 2 else (client, server)
        ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 40 + i, 0, 0, 64, 6, 0, src, dst)
        tcp = struct.pack(">HHIIBBHHH", sport, dport, 0, 0, 0x50, 0x12 if i else 0x02,
                          8192, 0, 0)
        frame = b"\xaa" * 6 + b"\xbb" * 6 + b"\x08\x00" + ip + tcp + b"x" * i
        offsets.append(len(out))
        out += struct.pack("<IIII", 7, 1000 * i, len(frame), len(frame)) + frame
    return out, offsets


def _four_packet_flows(per_class: int) -> list:
    """Synthetic flows of four packets each, ``per_class`` of each of two
    classes."""
    templates = [replace(t, min_packets=4, max_packets=4) for t in default_templates(2)]
    return synth_generate(templates, per_class, seed=2)


@functools.cache
def _tiny_flow_csv() -> str:
    flows = _four_packet_flows(1)
    with tempfile.TemporaryDirectory() as d:
        save_flows_csv(flows, Path(d) / "flows.csv")
        return (Path(d) / "flows.csv").read_text()


@functools.cache
def _tiny_features_csv() -> str:
    """The features of two flows of each of two classes, as extract writes them."""
    flows = _four_packet_flows(2)
    with tempfile.TemporaryDirectory() as d:
        save_matrix_csv(Path(d) / "features.csv", extract_matrix(flows),
                        [f.flow_id for f in flows], [f.label for f in flows])
        return (Path(d) / "features.csv").read_bytes().decode()


@st.composite
def corrupted_pcap(draw):
    """The tiny capture with bits flipped, cuts anywhere and random captured
    lengths in its record headers."""
    data, offsets = _tiny_pcap()
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "cut", "incl_len"]))
        if kind == "flip" and data:
            data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
        elif kind == "cut":
            del data[draw(st.integers(0, len(data))):]
        else:
            at = draw(st.sampled_from(offsets)) + 8
            if at + 4 <= len(data):
                struct.pack_into("<I", data, at, draw(st.integers(0, 2 ** 32 - 1)))
    return bytes(data)


@st.composite
def mutated_flow_csv(draw):
    """The tiny flow CSV with characters replaced, spans deleted, text
    inserted and lines repeated."""
    text = _tiny_flow_csv()
    pieces = st.text(alphabet=',"\n\r\x00 |-.e0123456789xnafiOUTSYNACK', max_size=6)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["replace", "delete", "insert", "repeat-line"]))
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        if kind == "replace":
            text = text[:i] + draw(pieces) + text[j:]
        elif kind == "delete":
            text = text[:i] + text[j:]
        elif kind == "insert":
            text = text[:i] + draw(pieces) + text[i:]
        else:
            lines = text.split("\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines.insert(draw(st.integers(0, len(lines))), lines[k])
            text = "\n".join(lines)
    return text.encode()


@st.composite
def mutated_features_csv(draw):
    """The tiny features CSV with cells (header, ids and labels among them)
    replaced, then bits flipped, spans cut and bytes inserted."""
    lines = _tiny_features_csv().split("\r\n")
    cells = st.one_of(
        st.sampled_from(["", " 1", "nan", "-inf", "1e400", "1.7e308", "-1.7e308", "5e-324",
                         "1_0", "0x1", '"2"', "#", "class-a", "f000"]),
        st.floats().map(repr), st.text(max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(0, len(lines) - 1))
        row = lines[r].split(",")
        row[draw(st.integers(0, len(row) - 1))] = draw(cells)
        lines[r] = ",".join(row)
    data = bytearray("\r\n".join(lines).encode())
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["flip", "cut", "insert"]))
        i = draw(st.integers(0, len(data)))
        if kind == "flip" and i < len(data):
            data[i] ^= 1 << draw(st.integers(0, 7))
        elif kind == "cut":
            del data[i:draw(st.integers(i, len(data)))]
        else:
            data[i:i] = draw(st.binary(min_size=1, max_size=4))
    return bytes(data)


def _exits_cleanly(command: str, name: str, data: bytes, written: str,
                   check=lambda out: None) -> None:
    """Run ``command`` on ``data`` saved as ``name``. It must write
    ``written`` and pass ``check`` on the output directory (exit 0), or
    print an error line that names the file and write nothing (exit 2)."""
    with tempfile.TemporaryDirectory() as d:
        path, out, err = Path(d) / name, Path(d) / "out", io.StringIO()
        path.write_bytes(data)
        with contextlib.redirect_stderr(err):
            rc = run("--out", str(out), command, str(path))
        assert rc in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert (out / written).exists() == (rc == 0)
        if rc == 0:
            check(out)
        else:
            assert err.getvalue().startswith(f"error: {path}: ")


@settings(deadline=None)
@given(corrupted_pcap())
def test_extract_survives_corrupted_pcap(data):
    """Corrupted capture bytes give features (exit 0) or an error line
    (exit 2), never a crash, and no features.csv on exit 2."""
    _exits_cleanly("extract", "capture.pcap", data, "features.csv")


@settings(deadline=None)
@given(mutated_flow_csv())
def test_extract_survives_mutated_flow_csv(data):
    """Mutated flow CSV text gives features (exit 0) or an error line
    (exit 2), never a crash, and no features.csv on exit 2."""
    _exits_cleanly("extract", "flows.csv", data, "features.csv")


@settings(deadline=None)
@given(mutated_features_csv())
def test_index_survives_mutated_features_csv(data):
    """Mutated features CSV bytes and cells give a model that loads (exit 0)
    or an error line naming the file (exit 2), never a crash, and no
    model.json on exit 2."""
    _exits_cleanly("index", "features.csv", data, "model.json", check=load_model)


def _set_value(path, value, model):
    """Set the model.json value at ``path``, a key and then a key or an
    index within it; a path that no longer leads anywhere changes nothing."""
    doc = json.loads((model / "model.json").read_text())
    node = doc
    try:
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        return
    (model / "model.json").write_text(json.dumps(doc))


def _change_bytes(name, kind, at, arg, model):
    """Flip bit ``arg`` of the byte at ``at`` of the file ``name``, cut
    ``arg`` bytes or everything from there, or insert the bytes ``arg``;
    ``at`` wraps around the file's length."""
    data = bytearray((model / name).read_bytes())
    at %= len(data) + 1
    if kind == "flip" and at < len(data):
        data[at] ^= 1 << arg
    elif kind == "cut":
        del data[at:at + arg]
    elif kind == "truncate":
        del data[at:]
    elif kind == "insert":
        data[at:at] = arg
    (model / name).write_bytes(bytes(data))


def _record_crc32(model):
    """Record vectors.npy's crc32 in model.json, so that its bytes are read."""
    _set_value(("vectors_crc32",), _crc32((model / "vectors.npy").read_bytes()), model)


_MODEL_KEYS = ("format_version", "schema_version", "mins", "maxs", "thresholds", "labels",
               "rows", "vectors_crc32")
_THRESHOLD_KEYS = ("theta_new", "theta_ood", "k", "c_min", "r_cohesion")
_MODEL_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2 ** 70), st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 2), st.floats(), st.text(max_size=2), st.none()),
             max_size=4),
    st.dictionaries(st.sampled_from(_THRESHOLD_KEYS + ("x",)), st.floats(), max_size=2))


@st.composite
def model_dir_changes(draw):
    """Changes to a model directory, applied in order: model.json values
    replaced key by key (a whole value, a thresholds key, or one slot of
    mins, maxs or labels; wrong format versions and labels that are not
    strings among them), then bytes of vectors.npy flipped, cut, truncated
    or inserted, its crc32 sometimes recorded so that the array is read,
    then bytes of model.json changed the same ways."""
    changes = []
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.one_of(
            st.sampled_from(_MODEL_KEYS).map(lambda key: (key,)),
            st.sampled_from(_THRESHOLD_KEYS).map(lambda key: ("thresholds", key)),
            st.tuples(st.sampled_from(["mins", "maxs", "labels"]), st.integers(0, 11))))
        values = (st.sampled_from([1, 2.0, "2", True, 3, None, 2 ** 70])
                  if path == ("format_version",) else _MODEL_VALUES)
        changes.append(functools.partial(_set_value, path, draw(values)))
    for name in ("vectors.npy", "model.json"):
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(["flip", "cut", "truncate", "insert"]))
            arg = draw({"flip": st.integers(0, 7), "cut": st.integers(1, 64),
                        "truncate": st.none(), "insert": st.binary(min_size=1, max_size=4)}[kind])
            changes.append(functools.partial(_change_bytes, name, kind,
                                             draw(st.integers(0, 2 ** 16)), arg))
        if name == "vectors.npy" and draw(st.booleans()):
            changes.append(_record_crc32)
    return changes


def _write_text(name, text, model):
    (model / name).write_text(text)


def _bad_model_examples(test):
    """Each hand-made bad model directory of ``_BAD_INPUTS`` as an example."""
    for name, change, _ in _BAD_INPUTS.values():
        if name != "features.csv":
            test = example([change if callable(change)
                            else functools.partial(_write_text, name, change)])(test)
    return test


@settings(deadline=None)
@given(model_dir_changes())
@_bad_model_examples
# A header the parser cannot tokenize, and one declaring 12 x 183 * 10^11
# float64s, each with its crc32 recorded; and a slot whose span is so small
# that scaling its values overflows.
@example([functools.partial(_set_value, ("mins", 138), 0.0),
          functools.partial(_set_value, ("maxs", 138), 1e-305)])
@example([functools.partial(_change_bytes, "vectors.npy", "flip", 9, 0), _record_crc32])
@example([functools.partial(_change_bytes, "vectors.npy", "insert", 68, b"0" * 11),
          _record_crc32])
def test_classify_survives_a_mutated_model_dir(data_dir, shared_model, changes):
    """A valid model directory, changed: classify exits 0 with a verdict for
    each of the 12 rows, or 2 with an error line naming the directory and
    no verdicts.jsonl, never a crash."""
    with tempfile.TemporaryDirectory() as d:
        model, out, err = Path(d) / "model", Path(d) / "out", io.StringIO()
        shutil.copytree(shared_model, model)
        for change in changes:
            change(model)
        with contextlib.redirect_stderr(err):
            rc = run("--out", str(out), "classify", str(model),
                     "--features", str(data_dir / "features.csv"))
        assert rc in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if rc == 0:
            assert len((out / "verdicts.jsonl").read_text().splitlines()) == 12
        else:
            assert err.getvalue().startswith(f"error: {model}: "), err.getvalue()
            assert not (out / "verdicts.jsonl").exists()


# Config values of every JSON type. The first two branches lie inside most
# keys' ranges, so that many runs get past the settings check.
_CONFIG_VALUES = st.one_of(
    st.integers(1, 2 ** 70), st.floats(5e-324, 1, exclude_max=True),
    st.integers(-2, 2 ** 70), st.floats(5e-324, 1e308), st.none(), st.booleans(),
    st.text(max_size=4), st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=2)),
                                  max_size=2))

# Command -> (its input in data_dir, its flags, the file it writes). The
# flags beat the config file and keep each run short.
_CONFIG_RUNS = {
    "index": ("features.csv", [], "model.json"),
    "eval": ("flows.csv", ["--n-trees", "2"], "summary.json"),
    "sweep": ("flows.csv", ["--counts", "2"], "sweep.csv"),
}


@settings(deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(DEFAULTS) + ["bogus"]), _CONFIG_VALUES,
                       max_size=3),
       st.sampled_from(sorted(_CONFIG_RUNS)))
@example({"k": 2 ** 70, "seed": 2 ** 70, "n_packets": 2 ** 70, "max_depth": 2 ** 70}, "eval")
@example({"k": 2 ** 70, "ood_margin": 1e308}, "index")
@example({"quantile_new": 5e-324, "quantile_ood": 5e-324, "r_cohesion": 5e-324}, "sweep")
def test_settings_survive_random_config_values(data_dir, config, command):
    """Any JSON object as the config file gives a run (exit 0) or one error
    line (exit 2), never a crash, and no output file on exit 2."""
    name, flags, written = _CONFIG_RUNS[command]
    with tempfile.TemporaryDirectory() as d:
        cfg, out, err = Path(d) / "cfg.json", Path(d) / "out", io.StringIO()
        cfg.write_text(json.dumps(config))
        with contextlib.redirect_stderr(err):
            rc = run("--config", str(cfg), "--out", str(out), command,
                     str(data_dir / name), *flags)
        assert rc in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert (out / written).exists() == (rc == 0)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        assert len(errors) == (rc == 2), err.getvalue()


_MAIN = "import sys; from flowcbr.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_subprocess(argv, flowcbr_log, code=_MAIN, preexec_fn=None, **environ):
    """Run main(), or ``code`` given argv, in a fresh interpreter with
    FLOWCBR_LOG set or unset and the variables ``environ`` set, calling
    ``preexec_fn`` in the child first.

    In process, logging.basicConfig does nothing once pytest has put its
    handlers on the root logger, so only a child process shows the level.
    The child inherits the environment, with the directory holding the
    imported flowcbr package first on PYTHONPATH, and writes no bytecode,
    so that only its outputs meet a file-size limit.
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(flowcbr.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("FLOWCBR_LOG", None)
    if flowcbr_log is not None:
        env["FLOWCBR_LOG"] = flowcbr_log
    env.update(environ)
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, preexec_fn=preexec_fn)


def test_classify_does_not_load_openssl(data_dir, shared_model, tmp_path):
    """The model's checksum is zlib's crc32, so importing flowcbr.cli and
    classifying a flow CSV never loads OpenSSL's hash module, which costs
    a process about 3.5 MB of memory."""
    code = ("import sys; from flowcbr.cli import main; rc = main(sys.argv[1:]); "
            "print('_hashlib' in sys.modules); sys.exit(rc)")
    argv = ["--out", str(tmp_path / "v"), "classify", str(shared_model),
            "--input", str(data_dir / "flows.csv")]
    done = _run_subprocess(argv, None, code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


# An ASCII locale that Python neither coerces to C.UTF-8 nor overrides with
# its UTF-8 mode.
_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def test_text_is_utf8_whatever_the_locale(tmp_path):
    """extract and eval on a flow CSV with non-ASCII labels and ids run
    under an ASCII locale as in UTF-8 mode, to the same bytes."""
    flows = synth_generate(default_templates(2), 6, seed=4)
    for flow in flows:
        flow.label = {"class-a": "café", "class-b": "naïve €"}[flow.label]
    flows[0].flow_id = "flux-été"
    path = tmp_path / "flows.csv"
    save_flows_csv(flows, path)
    outputs = {}
    for name, environ in (("ascii", _ASCII_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
        for command in ("extract", "eval"):
            out = tmp_path / name / command
            done = _run_subprocess(["--out", str(out), command, str(path)], None, **environ)
            assert done.returncode == 0, done.stderr
        outputs[name] = {p.relative_to(tmp_path / name): p.read_bytes()
                         for p in (tmp_path / name).rglob("*") if p.is_file()}
    assert outputs["ascii"] == outputs["utf8"]
    assert len(outputs["ascii"]) == 6
    assert "flux-été,café".encode() in outputs["ascii"][Path("extract/features.csv")]


def test_log_level_env_var(flows_csv, tmp_path):
    argv = ["--out", str(tmp_path / "features"), "extract", str(flows_csv)]
    info_line = "INFO flowcbr: wrote 12 feature rows"

    quiet = _run_subprocess(argv, None)
    assert quiet.returncode == 0, quiet.stderr
    assert info_line not in quiet.stderr

    verbose = _run_subprocess(argv, "debug")
    assert verbose.returncode == 0, verbose.stderr
    assert info_line in verbose.stderr

    bad = _run_subprocess(argv, "bogus")
    assert bad.returncode == 2
    assert "error: FLOWCBR_LOG=bogus is not a log level" in bad.stderr
    assert "Traceback" not in bad.stderr


def test_calibration_warning_is_logged(tmp_path):
    """A class with one row is skipped in calibration with a flowcbr log
    line, which FLOWCBR_LOG=ERROR silences."""
    path = tmp_path / "features.csv"
    save_matrix_csv(path, np.arange(3 * 183, dtype=np.float64).reshape(3, 183),
                    ["r0", "r1", "r2"], ["a", "a", "lonely"])
    argv = ["--out", str(tmp_path / "model"), "index", str(path)]

    default = _run_subprocess(argv, None)
    assert default.returncode == 0, default.stderr
    assert ("WARNING flowcbr: classes with one sample skipped in calibration: ['lonely']"
            in default.stderr)

    quiet = _run_subprocess(argv, "ERROR")
    assert quiet.returncode == 0, quiet.stderr
    assert quiet.stderr == ""


def _limited(fsize, sigxfsz, argv):
    """Run main() on argv in a child whose files may not grow past
    ``fsize`` bytes (RLIMIT_FSIZE, set in the child only). Python ignores
    SIGXFSZ, so a write past the limit raises EFBIG; with ``sigxfsz`` set
    to "SIG_DFL" the signal kills the child there instead, as it would a
    process that had not ignored it."""
    code = (f"import signal, sys; signal.signal(signal.SIGXFSZ, signal.{sigxfsz}); "
            "from flowcbr.cli import main; sys.exit(main(sys.argv[1:]))")
    return _run_subprocess(argv, None, code, preexec_fn=lambda: resource.setrlimit(
        resource.RLIMIT_FSIZE, (fsize, fsize)))


@pytest.mark.parametrize("command,left", [
    ("extract", []),
    ("eval", ["metrics_cbr.csv", "metrics_ensemble.csv", "metrics_forest.csv"]),
])
def test_a_write_past_a_file_size_limit_exits_one(data_dir, tmp_path, command, left):
    """Files may not grow past 200 bytes here. extract's features.csv and
    eval's verdicts.jsonl are larger, so that write fails: the command
    exits 1, as the input is not at fault, names the output that did not
    fit, and leaves only the outputs it wrote before, whole, with no cut
    file and no temporary."""
    out = tmp_path / "out"
    failed = out / {"extract": "features.csv", "eval": "verdicts.jsonl"}[command]
    done = _limited(200, "SIG_IGN", ["--out", str(out), command, str(data_dir / "flows.csv")])
    assert done.returncode == 1, done.stderr
    assert f"error: [Errno 27] File too large: '{failed}'" in done.stderr
    assert sorted(p.name for p in out.iterdir()) == left


def test_extract_killed_mid_write_leaves_no_features_csv(data_dir, tmp_path):
    """Killed by SIGXFSZ part way through features.csv, extract leaves no
    features.csv: what it wrote is under the temporary name."""
    out = tmp_path / "out"
    done = _limited(10_000, "SIG_DFL", ["--out", str(out), "extract",
                                        str(data_dir / "flows.csv")])
    assert done.returncode == -signal.SIGXFSZ, done.stderr
    assert not (out / "features.csv").exists()


@pytest.mark.parametrize("sigxfsz", ["SIG_IGN", "SIG_DFL"])
def test_index_stopped_mid_write_keeps_the_earlier_model(data_dir, shared_model, tmp_path,
                                                         sigxfsz):
    """index rewriting a directory that holds an earlier model, stopped
    part way through the new vectors.npy (an error, or a kill), leaves a
    directory that classify loads as the earlier model, never a cut one.
    An error leaves no temporary file; a kill cannot remove it."""
    model, features = tmp_path / "model", tmp_path / "more.csv"
    shutil.copytree(shared_model, model)
    matrix, ids, labels = load_matrix_csv(data_dir / "features.csv")
    save_matrix_csv(features, np.vstack([matrix, matrix * 1.5]), ids + [f"x{i}" for i in ids],
                    labels * 2)
    limit = (model / "vectors.npy").stat().st_size  # the new one is twice as large
    done = _limited(limit, sigxfsz, ["--out", str(model), "index", str(features)])
    assert done.returncode == (1 if sigxfsz == "SIG_IGN" else -signal.SIGXFSZ), done.stderr
    left = sorted(p.name for p in model.iterdir())
    assert left == ["model.json", "vectors.npy"] + ["vectors.npy.tmp"] * (sigxfsz == "SIG_DFL")
    for name in ("model.json", "vectors.npy"):
        assert (model / name).read_bytes() == (shared_model / name).read_bytes()
    verdicts = tmp_path / "v"
    assert run("--out", str(verdicts), "classify", str(model),
               "--features", str(data_dir / "features.csv")) == 0
    assert len((verdicts / "verdicts.jsonl").read_text().splitlines()) == 12
