"""Pinned trace bytes of three short runs.

Identical configs must give byte-identical traces, and speed-ups to the
oracle, the PRNG or the optimizer must not move a bit.  These sha256
digests were recorded with numpy 2.4 on x86-64 (OpenBLAS, 1 and 2 BLAS
threads gave the same bytes); a different numpy or BLAS build may round
differently and would need them recorded again.
"""

import hashlib
from pathlib import Path

from singopt.config import parse_config
from singopt.runner import run_setup

README = Path(__file__).resolve().parents[1] / "README.md"

QUADRATIC = """\
task.kind = quadratic
task.blocks = 4
task.block_shape = 3x2
optimizer.kind = sgd
optimizer.momentum = 0.9
lookahead.enabled = true
lookahead.k = 3
weight_decay = 0.01
weight_decay_skip = b1
schedule.base_lr = 0.01
schedule.warmup_steps = 5
schedule.total_steps = 60
seed = 7
"""

# batch_size >= n, so every minibatch is a permuted full-size batch; nine
# classes and one hidden unit are shapes where numpy's reductions change order
MLP_WIDE_CLASSES = """\
task.kind = mlp
task.n = 300
task.classes = 9
task.hidden = 1
task.input_dim = 3
task.spread = 0.8
task.batch_size = 512
optimizer.kind = adamw
weight_decay = 0.01
weight_decay_skip = b1,b2
schedule.base_lr = 0.05
schedule.warmup_steps = 5
schedule.total_steps = 60
"""


def _digest(setup) -> str:
    result = run_setup(setup)
    assert not result.diverged
    assert result.trace.steps == setup.schedule.total_steps
    return hashlib.sha256(result.trace.dumps().encode("utf-8")).hexdigest()


def test_readme_mlp_trace_bytes():
    readme = README.read_text(encoding="utf-8")
    block = readme.split("A config file is plain", 1)[1].split("```\n", 2)[1]
    setup = parse_config(block, overrides={"schedule.total_steps": "200"})
    assert _digest(setup) == "81911905a6a6837c37e19a3488d81c4505ddb303c6cc54546b5758792704e0af"


def test_quadratic_lookahead_weight_decay_trace_bytes():
    setup = parse_config(QUADRATIC)
    assert setup.pipeline.lookahead.enabled and setup.pipeline.weight_decay > 0
    assert _digest(setup) == "808a94ea236066fe9120b08cd8c2f1307ab5babae612b11716a10e644ca1a17f"


def test_mlp_full_size_batches_nine_classes_trace_bytes():
    setup = parse_config(MLP_WIDE_CLASSES)
    assert setup.task["batch_size"] >= setup.task["n"]
    assert _digest(setup) == "70b257e3fcbfb1bf32660002bedd5fddf866ccf52056ec9c8424f8e4dda7d1e6"
