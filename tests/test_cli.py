import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from singopt import standardize, verify
from singopt.cli import main
from singopt.config import SCHEMA, parse_config
from singopt.optimizers import ConfigError, HostOptimizerConfig, LookAheadConfig, Schedule, SingPipelineConfig
from singopt.trace import RunTrace, TraceFormatError

WELLS_CFG = """\
task.kind = wells1d
task.start = -6.0
optimizer.kind = sgd
sing.enabled = true
sing.epsilon = 0.0
schedule.kind = cosine
schedule.base_lr = 0.841
schedule.warmup_steps = 0
schedule.total_steps = 40
"""


@pytest.fixture
def wells_cfg(tmp_path):
    path = tmp_path / "wells.cfg"
    path.write_text(WELLS_CFG)
    return path


# -- config parsing ---------------------------------------------------------------

def test_parse_config_defaults_and_overrides():
    setup = parse_config("schedule.base_lr = 0.25\nweight_decay_skip = b1, b2\n")
    assert setup.schedule.base_lr == 0.25
    assert setup.pipeline.weight_decay_skip == frozenset({"b1", "b2"})
    assert setup.pipeline.host.kind == "adamw"
    assert setup.seed == 0


def test_parse_config_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("task.kind = wells1d\nbogus.key = 1\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("# comment\n\nschedule.total_steps = many\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")
    # every key is parsed eagerly, whatever the task kind
    with pytest.raises(ConfigError, match="line 2: task.block_shape: expected an integer, got 'q'"):
        parse_config("task.kind = wells1d\ntask.block_shape = 2xq\n")
    with pytest.raises(ConfigError, match="line 1: task.start: expected a number, got 'abc'"):
        parse_config("task.start = abc\n")
    with pytest.raises(ConfigError, match="line 3: sing.epsilon: expected a finite number, got 'nan'"):
        parse_config("\n\nsing.epsilon = nan\n")
    with pytest.raises(ConfigError, match="line 1: task.f0: expected a finite number, got '-inf'"):
        parse_config("task.f0 = -inf\n")


def test_parse_config_sing_master_switch():
    off = parse_config("sing.enabled = false\n")
    assert not off.pipeline.standardize.normalize_enabled
    assert not off.pipeline.standardize.centralize_enabled
    no_gc = parse_config("sing.enabled = true\nsing.centralize = false\n")
    assert no_gc.pipeline.standardize.normalize_enabled
    assert not no_gc.pipeline.standardize.centralize_enabled


def test_schema_defaults_equal_the_dataclass_defaults():
    # one set of defaults: the objects a library user builds with no
    # arguments are the ones an empty config file builds
    made_by = {"host": HostOptimizerConfig, "lookahead": LookAheadConfig, "schedule": Schedule, "pipeline": SingPipelineConfig}
    filled = set()
    for key, (text, parse, group, name) in SCHEMA.items():
        if group in made_by:
            defaults = {f.name: f.default for f in dataclasses.fields(made_by[group])}
            assert parse(text) == defaults[name], key
            filled.add(group)
    assert filled == set(made_by)
    setup = parse_config("")
    assert setup.schedule == Schedule()
    # the sing keys fill its StandardizeConfig through two switches
    assert setup.pipeline == SingPipelineConfig()


# -- trace io ---------------------------------------------------------------------

def test_trace_roundtrip(tmp_path):
    from singopt.runner import run_setup

    setup = parse_config("task.kind = wells1d\nschedule.total_steps = 5\n")
    trace = run_setup(setup).trace
    path = tmp_path / "t.csv"
    trace.write(path)
    back = RunTrace.read(path)
    assert back.partition == trace.partition
    assert back.seed == trace.seed
    assert back.config == trace.config
    assert np.array_equal(back.loss, trace.loss)
    assert back.dumps() == trace.dumps()


def test_trace_rejects_garbage():
    with pytest.raises(TraceFormatError):
        RunTrace.loads("")
    with pytest.raises(TraceFormatError):
        RunTrace.loads("# block x 1\nstep,lr\n")  # wrong columns
    with pytest.raises(TraceFormatError, match="line 3"):
        RunTrace.loads(
            "# block x 1\n"
            "step,lr,loss,grad_l2,grad_phi,update_l2,param_mean,bnorm_x\n"
            "0,a,b,c,d,e,f,g\n"
        )
    columns = "step,lr,loss,grad_l2,grad_phi,update_l2,param_mean,bnorm_x\n"
    with pytest.raises(TraceFormatError, match="line 4: 7 cells, the column row has 8"):
        RunTrace.loads("# block x 1\n# seed 0\n" + columns + "0,1,2,3,4,5,6\n")  # truncated row
    with pytest.raises(TraceFormatError, match="no seed"):
        RunTrace.loads("# block x 1\n" + columns + "0,1,2,3,4,5,6,7\n")
    with pytest.raises(TraceFormatError, match="line 2: invalid literal"):
        RunTrace.loads("# block x 1\n# seed zero\n" + columns)
    with pytest.raises(TraceFormatError, match="line 3: invalid literal"):
        RunTrace.loads("# block x 1\n# seed 0\n# diverged step=?\n" + columns)
    with pytest.raises(TraceFormatError, match="block manifest"):
        RunTrace.loads("# block x q\n# seed 0\n" + columns)


# dumps writes one diverged footer, as the last line
FOOTER_NOT_LAST = {
    "second-footer": "# diverged step=1\n# diverged step=5\n",
    "row-after-footer": "# diverged step=0\n0,1,2,3,4,5,6,7\n",
}


@pytest.mark.parametrize("body", FOOTER_NOT_LAST.values(), ids=FOOTER_NOT_LAST.keys())
def test_trace_diverged_footer_must_be_the_last_line(body):
    columns = "step,lr,loss,grad_l2,grad_phi,update_l2,param_mean,bnorm_x\n"
    with pytest.raises(TraceFormatError, match="line 5: the diverged footer must be the last line"):
        RunTrace.loads("# block x 1\n# seed 0\n" + columns + body)


TWO_WAY_HEADERS = [
    # (header lines, what the error must name): dumps writes none of these
    ("# config seed 0\n# block x 1\n# seed 0\n", "line 1: config line has no '='"),
    (
        "# config seed = 0\n# config task.kind = wells1d\n# config seed = 1\n# block x 1\n# seed 0\n",
        "line 3: config seed is set twice",
    ),
    ("# block x 1\n# seed 0\n# seed 1\n", "line 3: seed is set twice"),
]


@pytest.mark.parametrize("header, named", TWO_WAY_HEADERS, ids=["no-equals", "config-twice", "seed-twice"])
def test_trace_header_that_reads_two_ways_is_refused(tmp_path, capsys, header, named):
    columns = "step,lr,loss,grad_l2,grad_phi,update_l2,param_mean,bnorm_x\n"
    text = header + columns + "0,1,2,3,4,5,6,7\n"
    with pytest.raises(TraceFormatError, match=named):
        RunTrace.loads(text)
    path = tmp_path / "t.csv"
    path.write_text(text)
    assert main(["plot", "--trace", str(path), "--out", str(tmp_path / "x.svg")]) == 2
    assert named in capsys.readouterr().err


# -- run command ---------------------------------------------------------------------

def test_run_twice_byte_identical(tmp_path, wells_cfg, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(wells_cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(wells_cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_seed_override_changes_mlp_trace(tmp_path):
    cfg = tmp_path / "mlp.cfg"
    cfg.write_text(
        "task.kind = mlp\ntask.n = 60\ntask.hidden = 4\ntask.batch_size = 16\n"
        "schedule.total_steps = 5\n"
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--out", str(a), "--seed", "1"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(b), "--seed", "2"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_config_key_set_twice_names_both_lines(tmp_path, capsys):
    text = "task.kind = mlp\ntask.n = 60\nseed = 1\ntask.n = 90\n"
    with pytest.raises(ConfigError, match="^line 4: task.n is already set on line 2$"):
        parse_config(text)
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert "line 4: task.n is already set on line 2" in capsys.readouterr().err
    # an override still replaces the value a file line set
    assert parse_config("seed = 1\n", overrides={"seed": "5"}).seed == 5


def test_run_zero_steps_is_usage_error(tmp_path):
    cfg = tmp_path / "z.cfg"
    cfg.write_text("task.kind = wells1d\nschedule.total_steps = 0\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "z.csv")]) == 2


def test_run_missing_config_is_usage_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o.csv")]) == 2


BAD_RUNS = [
    # (config lines, exit code, what stderr must name); parse errors name the line
    ("task.kind = quadratic\ntask.block_shape = 2xq", 2, "line 2: task.block_shape"),
    ("task.kind = mlp\ntask.n = many", 2, "line 2: task.n"),
    ("task.kind = rosenbrock\ntask.start = abc", 2, "line 2: task.start"),
    ("task.kind = wells1d\nschedule.base_lr = nan", 2, "line 2: schedule.base_lr"),
    ("task.kind = wells1d\nsing.epsilon = nan", 2, "line 2: sing.epsilon"),
    ("task.kind = wells1d\nweight_decay = nan", 2, "line 2: weight_decay"),
    ("task.kind = quadratic\ntask.f0 = -1", 2, "line 2: task.f0"),
    # values the task or the pipeline rejects
    ("task.kind = mlp\ntask.classes = 1", 2, "classes"),
    ("task.kind = mlp\ntask.hidden = 0", 2, "hidden"),
    ("task.kind = quadratic\ntask.blocks = 0", 2, "block"),
    ("task.kind = quadratic\ntask.blocks = 100000000000", 2, "task.blocks"),
    ("task.kind = quadratic\ntask.block_shape = 1\ntask.blocks = 16777217", 2, "task.blocks"),
    # MLP sizes are bounded before anything is allocated
    ("task.kind = mlp\ntask.hidden = 100000000000", 2, "error: task.hidden: "),
    ("task.kind = mlp\ntask.input_dim = 100000000000", 2, "error: task.input_dim: "),
    ("task.kind = mlp\ntask.n = 3000000\ntask.classes = 3000000", 2, "error: task.classes: "),
    ("task.kind = mlp\ntask.n = 1000000000000", 2, "error: task.n: "),
    ("task.kind = mlp\ntask.n = 1048577\ntask.hidden = 16", 2, "error: task.n: "),
    ("task.kind = quadratic\ntask.smoothness = -1", 2, "smoothness"),
    ("task.kind = wells1d\ntask.start = 1.0,2.0,3.0", 2, "error: task.start has 3 values, task needs 1"),
    ("task.kind = wells1d\nsing.epsilon = -1", 2, "epsilon"),
    # weight_decay_skip names blocks of the built task (the MLP's are W1, b1, W2, b2)
    ("task.kind = mlp\nweight_decay_skip = b1,b3", 2, "error: weight_decay_skip: the task has no block 'b3'"),
    ("task.kind = wells1d\nweight_decay_skip = W1", 2, "error: weight_decay_skip: the task has no block 'W1'"),
    # a zero gradient block cannot be normalized at epsilon = 0: divergence
    ("task.kind = quadratic\ntask.f0 = 0\nsing.epsilon = 0", 3, "zero-norm gradient block 'b0'"),
]


@pytest.mark.parametrize("text, code, named", BAD_RUNS, ids=[text.splitlines()[-1] for text, _, _ in BAD_RUNS])
def test_run_bad_config_exits_cleanly(tmp_path, capsys, text, code, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert named in err
    if code == 3:
        assert out.read_text().splitlines()[-1] == "# diverged step=0"
    else:
        assert not out.exists()


RANGE_ERRORS = [
    # (config lines, what stderr must name): the optimizer, LookAhead,
    # schedule and epsilon checks name the key and the line that set it
    ("task.kind = wells1d\noptimizer.beta1 = 1", "line 2: optimizer.beta1: beta1 must be in [0, 1)"),
    ("task.kind = wells1d\nlookahead.k = 0", "line 2: lookahead.k: "),
    ("task.kind = wells1d\nschedule.base_lr = 0", "line 2: schedule.base_lr: "),
    ("task.kind = wells1d\nsing.epsilon = -1", "line 2: sing.epsilon: must be >= 0"),
    (
        "task.kind = wells1d\nschedule.total_steps = 10\nschedule.warmup_steps = 20",
        "line 3: schedule.warmup_steps, line 2: schedule.total_steps: warmup_steps must satisfy",
    ),
    # a key left at its default is named without a line
    ("task.kind = wells1d\nschedule.warmup_steps = 200", "line 2: schedule.warmup_steps, schedule.total_steps: "),
    # task.* ranges are checked when the file is read, whatever task.kind is
    ("task.kind = mlp\ntask.hidden = 0", "line 2: task.hidden: must be >= 1, got '0'"),
    ("task.kind = wells1d\ntask.hidden = -3", "line 2: task.hidden: must be >= 1, got '-3'"),
    ("task.kind = quadratic\ntask.blocks = 0", "line 2: task.blocks: must be >= 1"),
    ("task.kind = quadratic\ntask.block_shape = 3x0", "line 2: task.block_shape: must be >= 1, got '0'"),
    ("task.kind = mlp\ntask.input_dim = 0", "line 2: task.input_dim: must be >= 1"),
    ("task.kind = mlp\ntask.batch_size = 0", "line 2: task.batch_size: must be >= 1"),
    ("task.kind = mlp\ntask.classes = 1", "line 2: task.classes: must be >= 2, got '1'"),
    ("task.kind = quadratic\ntask.smoothness = 0", "line 2: task.smoothness: must be > 0, got '0'"),
    ("task.kind = mlp\ntask.spread = -0.5", "line 2: task.spread: must be >= 0, got '-0.5'"),
]


@pytest.mark.parametrize("text, named", RANGE_ERRORS, ids=[text.splitlines()[-1] for text, _ in RANGE_ERRORS])
def test_range_errors_name_line_and_key(tmp_path, capsys, text, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {named}" in err


def test_base_lr_times_weight_decay_is_checked_when_the_file_is_read(tmp_path, capsys):
    # the schedule peaks at base_lr, where 1 - lr * weight_decay must stay positive;
    # a run must not start (and write no trace) only to fail at that step
    cfg = tmp_path / "wd.cfg"
    cfg.write_text("task.kind = wells1d\nweight_decay = 30\nschedule.warmup_steps = 10\n")
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: schedule.base_lr, line 2: weight_decay: base_lr * weight_decay = 1.5 >= 1" in err
    assert not out.exists()
    with pytest.raises(ConfigError, match=r"^line 2: schedule.base_lr, line 3: weight_decay: .* = 1.0 >= 1"):
        parse_config("task.kind = wells1d\nschedule.base_lr = 0.5\nweight_decay = 2\n")
    with pytest.raises(ConfigError, match=r"^schedule.base_lr, line 1: weight_decay: .* = 3.0 >= 1"):
        parse_config("weight_decay = 30\n", overrides={"schedule.base_lr": "0.1"})
    assert parse_config("schedule.base_lr = 0.5\nweight_decay = 1.99\n").pipeline.weight_decay == 1.99


def test_range_error_from_an_override_names_the_key_without_a_line():
    with pytest.raises(ConfigError, match=r"^optimizer.beta2: beta2 must be in \[0, 1\), got 1.5$"):
        parse_config("optimizer.beta2 = 0.9\n", overrides={"optimizer.beta2": "1.5"})


def test_unknown_override_key_names_the_key_without_a_line():
    with pytest.raises(ConfigError, match=r"^unknown key 'sed'$"):
        parse_config("seed = 1\n", overrides={"sed": "3"})


def test_readme_config_block_parses_and_builds():
    from singopt.runner import build_task

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A config file is plain", 1)[1].split("```\n", 2)[1]
    setup = parse_config(block)
    assert setup.task["kind"] == "mlp"
    assert setup.pipeline.host.kind == "adamw"
    assert setup.schedule.total_steps == 3200
    landscape, x0, batcher = build_task(setup)
    assert batcher is not None and x0.partition == landscape.partition


def test_run_divergence_exit_code_and_footer(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text(
        "task.kind = rosenbrock\ntask.start = -1.2,1.0\noptimizer.kind = sgd\n"
        "sing.enabled = false\nschedule.kind = constant\nschedule.base_lr = 1.0\n"
        "schedule.total_steps = 50\n"
    )
    out = tmp_path / "d.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    text = out.read_text()
    assert "# diverged step=" in text.splitlines()[-1]
    back = RunTrace.read(out)
    assert back.diverged_at is not None
    assert back.steps == back.diverged_at  # partial trace was flushed


def test_run_stops_when_a_logged_norm_overflows(tmp_path, capsys):
    # finite parameters and gradients whose L2 norm is past the float range
    cfg = tmp_path / "big.cfg"
    cfg.write_text("task.kind = quadratic\ntask.smoothness = 1e300\ntask.f0 = 1e300\nschedule.total_steps = 5\n")
    out = tmp_path / "big.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert "diverged at step 0: non-finite grad_l2 (inf)" in capsys.readouterr().err
    back = RunTrace.read(out)
    assert back.diverged_at == 0 and back.steps == 0
    assert out.read_text().splitlines()[-1] == "# diverged step=0"


def test_run_names_the_block_whose_norm_overflows():
    from singopt.blocked import BlockedVector, BlockPartition
    from singopt.landscapes import Landscape
    from singopt.runner import run_experiment

    class Tilted(Landscape):
        partition = BlockPartition.of([("w", (3,)), ("v", (2,))])

        def _oracle(self, points):
            return np.zeros(points.shape[0]), np.full((points.shape[0], 5), 1e-3)

    # gradient, update and mean stay finite; only the norm of the huge block w overflows
    x0 = BlockedVector(np.array([1e200, 1e200, 1e200, 1.0, 1.0]), Tilted.partition)
    setup = parse_config("optimizer.kind = sgd\nschedule.total_steps = 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_experiment(Tilted(), x0, setup)
    assert result.cause == "non-finite norm of block 'w' (inf)"
    assert result.trace.diverged_at == 0 and result.trace.steps == 0


def test_library_run_checks_weight_decay_skip_names():
    # run_experiment refuses the names as `singopt run` does, before any step
    from singopt.runner import build_task, run_experiment

    setup = parse_config("task.kind = mlp\nschedule.total_steps = 3\nweight_decay = 0.1\nweight_decay_skip = b3\n")
    landscape, x0, batcher = build_task(setup)
    with pytest.raises(ConfigError, match="weight_decay_skip: the task has no block 'b3'"):
        run_experiment(landscape, x0, setup, batcher)


PATH_ERRORS = {
    "run-out-in-missing-dir": ["run", "--config", "{cfg}", "--out", "{tmp}/missing/o.csv"],
    "run-config-is-a-dir": ["run", "--config", "{tmp}", "--out", "{tmp}/o.csv"],
    "run-config-not-utf8": ["run", "--config", "{latin1}", "--out", "{tmp}/o.csv"],
    "check-report-in-missing-dir": ["check", "lemmas", "--report", "{tmp}/missing/r.jsonl"],
    "plot-out-in-missing-dir": ["plot", "--trace", "{trace}", "--out", "{tmp}/missing/p.svg"],
    "escape-demo-out-is-a-file": ["escape-demo", "--out", "{cfg}"],
}


@pytest.mark.parametrize("argv", PATH_ERRORS.values(), ids=PATH_ERRORS.keys())
def test_unusable_user_path_exits_2_without_traceback(tmp_path, wells_cfg, capsys, argv):
    from singopt.runner import run_setup

    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"# caf\xe9\ntask.kind = wells1d\n")
    trace = tmp_path / "t.csv"
    run_setup(parse_config("task.kind = wells1d\nschedule.total_steps = 3\n")).trace.write(trace)
    paths = {"tmp": tmp_path, "cfg": wells_cfg, "latin1": latin1, "trace": trace}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["run-config", "plot-second-trace"])
def test_undecodable_file_is_named_on_stderr(tmp_path, capsys, command):
    from singopt.runner import run_setup

    bad = tmp_path / "bad.bytes"
    bad.write_bytes(b"\xff")
    good = tmp_path / "good.csv"
    run_setup(parse_config("task.kind = wells1d\nschedule.total_steps = 3\n")).trace.write(good)
    argv = {
        "run-config": ["run", "--config", str(bad), "--out", str(tmp_path / "o.csv")],
        "plot-second-trace": ["plot", "--trace", str(good), "--trace", str(bad), "--out", str(tmp_path / "p.svg")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")


# -- check command ----------------------------------------------------------------------

def test_check_lemmas_passes_and_reports(tmp_path):
    report = tmp_path / "r.jsonl"
    assert main(["check", "lemmas", "--report", str(report)]) == 0
    lines = [json.loads(line) for line in report.read_text().splitlines()]
    manifest = [rec for rec in lines if "manifest" in rec]
    checks = [rec for rec in lines if "check" in rec]
    assert manifest and checks
    assert all(rec["pass"] for rec in checks)
    assert all({"check", "lhs", "rhs", "pass", "params"} <= set(rec) for rec in checks)


def test_check_without_report_prints_the_report_bytes(tmp_path, capsys):
    report = tmp_path / "r.jsonl"
    assert main(["check", "lemmas", "--report", str(report)]) == 0
    capsys.readouterr()
    assert main(["check", "lemmas"]) == 0
    assert capsys.readouterr().out == report.read_text()


def test_crashed_suite_is_one_failed_record(tmp_path, monkeypatch):
    def crash(seed=0):
        raise ValueError("boom")

    monkeypatch.setitem(verify.SUITES, "escape", crash)
    report = tmp_path / "r.jsonl"
    assert main(["check", "escape", "--report", str(report)]) == 1
    assert report.read_text() == (
        json.dumps({"manifest": "escape", "covers": verify.MANIFEST["escape"]}, sort_keys=True)
        + "\n"
        + '{"check": "escape.suite_crashed", "lhs": 1.0, "params": {"error": "ValueError: boom"},'
        ' "pass": false, "rhs": 0.0}\n'
    )


def test_check_negative_seed_exits_2_naming_the_flag(tmp_path, wells_cfg, capsys):
    report = tmp_path / "r.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["check", "lemmas", "--seed", "-1", "--report", str(report)])
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not report.exists()
    # a run's seed is any integer
    assert main(["run", "--config", str(wells_cfg), "--out", str(tmp_path / "t.csv"), "--seed", "-1"]) == 0


def test_check_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["check", "nosuchsuite"])
    assert exc.value.code == 2


def test_check_all_detects_broken_gamma(tmp_path, monkeypatch):
    # off-by-one block assignment: each block reports its neighbour's norm
    original = standardize.gamma

    def broken(g):
        return np.roll(original(g), -1)

    monkeypatch.setattr(standardize, "gamma", broken)
    report = tmp_path / "broken.jsonl"
    assert main(["check", "all", "--report", str(report)]) == 1


# sha256 of the ``check all`` report, recorded with numpy 2.4 on x86-64
# (OpenBLAS at 1 and 2 threads gives the same bytes, which a test below
# checks).  A faster oracle or suite must not move a byte of it; a
# different numpy or BLAS build may round differently and would need them
# recorded again.
CHECK_ALL_SHA256 = {
    0: "ae40cfa9447511d2700e8e37b803ee06100777ee790b7ee76788edfbb2b83581",
    12: "1296322cf5150bf4d8a21f30d8914b5f8fa2659987f57a8191182a5f79cffd3e",
}


def _report_checks(report: Path) -> list[dict]:
    return [rec for rec in map(json.loads, report.read_text().splitlines()) if "check" in rec]


def test_check_all_report_bytes_are_pinned_and_seed_0_is_the_default(tmp_path):
    default, seeded = tmp_path / "default.jsonl", tmp_path / "seed0.jsonl"
    assert main(["check", "all", "--report", str(default)]) == 0
    assert hashlib.sha256(default.read_bytes()).hexdigest() == CHECK_ALL_SHA256[0]
    assert len(_report_checks(default)) == 42
    assert main(["check", "all", "--seed", "0", "--report", str(seeded)]) == 0
    assert seeded.read_bytes() == default.read_bytes()


def test_check_all_seed_12_fails_only_its_known_record(tmp_path, capsys):
    report = tmp_path / "seed12.jsonl"
    assert main(["check", "all", "--seed", "12", "--report", str(report)]) == 1
    checks = _report_checks(report)
    assert len(checks) == 42
    assert [rec["check"] for rec in checks if not rec["pass"]] == ["invariance.rescale_with_epsilon"]
    assert hashlib.sha256(report.read_bytes()).hexdigest() == CHECK_ALL_SHA256[12]
    assert "41/42 checks passed in suite 'all'" in capsys.readouterr().err


def test_check_all_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = {}
    for threads in ("1", "2"):
        report = tmp_path / f"threads{threads}.jsonl"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "singopt", "check", "all", "--seed", "0", "--report", str(report)]
        subprocess.run(argv, env=env, capture_output=True, check=True)
        reports[threads] = report.read_bytes()
    assert reports["1"] == reports["2"]
    assert hashlib.sha256(reports["1"]).hexdigest() == CHECK_ALL_SHA256[0]


def test_check_manifest_covers_every_suite(tmp_path):
    from singopt.verify import MANIFEST, SUITES

    assert set(MANIFEST) == set(SUITES)
    assert all(MANIFEST[name] for name in MANIFEST)


# -- escape-demo and plot ------------------------------------------------------------------

@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("demo")
    assert main(["escape-demo", "--out", str(outdir)]) == 0
    return outdir


# sha256 of the escape-demo files, recorded with numpy 2.4 on x86-64; the
# runs are 1-D, so no BLAS call is involved
ESCAPE_DEMO_SHA256 = {
    "sing.csv": "38a5c61153c3ef00103f471b4b2efc1c60e4604051551ba0d83fabce26772e06",
    "sgd.csv": "94df9086f962fe54fbfe0062fac95a4acdf6d28bef3ff96c906d90c4a116d59b",
    "overlay.svg": "f9e91abc879dbffec0d20a8b8e9c32aa0c18d95cd15b222074efb16cfc2c30b5",
}


def test_escape_demo_bytes_are_pinned(demo_dir):
    digests = {name: hashlib.sha256((demo_dir / name).read_bytes()).hexdigest() for name in ESCAPE_DEMO_SHA256}
    assert digests == ESCAPE_DEMO_SHA256


def test_escape_demo_writes_artifacts(demo_dir):
    assert (demo_dir / "sing.csv").exists()
    assert (demo_dir / "sgd.csv").exists()
    svg = (demo_dir / "overlay.svg").read_text()
    assert svg.count("<polyline") >= 3  # landscape + both iterate paths
    assert "<circle" in svg


def test_escape_demo_sing_beats_sgd(demo_dir):
    sing = RunTrace.read(demo_dir / "sing.csv")
    sgd = RunTrace.read(demo_dir / "sgd.csv")
    assert sing.loss[-1] < sgd.loss[-1]


def test_plot_single_and_overlay(tmp_path, demo_dir):
    out = tmp_path / "one.svg"
    assert main(["plot", "--trace", str(demo_dir / "sing.csv"), "--out", str(out), "--cols", "loss,lr"]) == 0
    assert out.read_text().count("<polyline") == 2

    out2 = tmp_path / "two.svg"
    assert (
        main(
            [
                "plot",
                "--trace", str(demo_dir / "sing.csv"),
                "--trace", str(demo_dir / "sgd.csv"),
                "--out", str(out2),
                "--cols", "loss",
            ]
        )
        == 0
    )
    assert out2.read_text().count("<polyline") == 2


def test_plot_unknown_column_exits_2(tmp_path, demo_dir):
    assert (
        main(["plot", "--trace", str(demo_dir / "sing.csv"), "--out", str(tmp_path / "x.svg"), "--cols", "entropy"])
        == 2
    )


def test_plot_empty_trace_exits_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(
        "# block x 1\n# seed 0\nstep,lr,loss,grad_l2,grad_phi,update_l2,param_mean,bnorm_x\n"
    )
    assert main(["plot", "--trace", str(empty), "--out", str(tmp_path / "x.svg"), "--cols", "loss"]) == 2


def test_plot_missing_trace_exits_2(tmp_path):
    assert main(["plot", "--trace", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.svg")]) == 2


def test_plot_output_is_well_formed_xml(tmp_path, demo_dir):
    import xml.etree.ElementTree as ET

    out = tmp_path / "parse.svg"
    assert main(["plot", "--trace", str(demo_dir / "sing.csv"), "--out", str(out), "--cols", "loss"]) == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")


def test_plot_bytes_deterministic(tmp_path, demo_dir):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (a, b):
        assert main(["plot", "--trace", str(demo_dir / "sing.csv"), "--out", str(out), "--cols", "loss,lr"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_trace_has_one_record_per_step_and_header_reproduces_run(tmp_path, wells_cfg):
    from singopt.runner import run_setup

    out = tmp_path / "t.csv"
    assert main(["run", "--config", str(wells_cfg), "--out", str(out)]) == 0
    trace = RunTrace.read(out)
    assert trace.steps == 40  # exactly total_steps records

    # the header's config snapshot alone reproduces the run bit-exactly
    rebuilt_cfg = "\n".join(f"{k} = {v}" for k, v in trace.config.items())
    rerun = run_setup(parse_config(rebuilt_cfg))
    assert rerun.trace.dumps() == trace.dumps()
