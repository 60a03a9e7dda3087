import json
from pathlib import Path

import numpy as np
import pytest

from singopt import standardize
from singopt.cli import main
from singopt.config import parse_config
from singopt.optimizers import ConfigError
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
    ("task.kind = quadratic\ntask.smoothness = -1", 2, "smoothness"),
    ("task.kind = wells1d\nsing.epsilon = -1", 2, "epsilon"),
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


def test_range_error_from_an_override_names_the_key_without_a_line():
    with pytest.raises(ConfigError, match=r"^optimizer.beta2: beta2 must be in \[0, 1\), got 1.5$"):
        parse_config("optimizer.beta2 = 0.9\n", overrides={"optimizer.beta2": "1.5"})


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
