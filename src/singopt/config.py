"""Plain key-value run configuration files.

Format: one ``key = value`` pair per line; blank lines and lines starting
with ``#`` are ignored (a ``#`` after a value is part of the value).  A
key set on two lines is a :class:`ConfigError` naming both lines;
overrides replace file values.
:data:`SCHEMA` lists every key once.  Every key is checked when the file
is read: a value that does not parse, or is not finite, is a
:class:`ConfigError` naming its line, and so is a ``task.*`` value out
of its own range (``task.hidden = 0``, whatever ``task.kind`` is), a
negative ``task.f0`` (it scales the quadratic start point through a
square root) or ``sing.epsilon``.  Other range checks stay with the
objects the values build; an error from the optimizer, LookAhead,
schedule or pipeline config names its keys, with the line of each key
the file set.  The task builder's ``task.n >= task.classes`` check names
only the values; its MLP size bound names the key.  ``schedule.base_lr * weight_decay`` must be below 1:
weight decay scales parameters by ``1 - lr * weight_decay``, and the
schedule peaks at ``base_lr``; the error names both keys.  Override keys
are checked like file keys: an unknown one, or a bad value, is a
:class:`ConfigError` naming the key (there is no line to name).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from .optimizers import (
    ConfigError,
    HostOptimizerConfig,
    LookAheadConfig,
    Schedule,
    SingPipelineConfig,
)
from .standardize import StandardizeConfig

__all__ = ["SCHEMA", "RunSetup", "parse_config", "parse_config_file"]


@dataclass(frozen=True)
class RunSetup:
    """Everything needed to reproduce a run, in parsed form."""

    pipeline: SingPipelineConfig
    schedule: Schedule
    seed: int
    task: dict[str, Any]  # the task.* values, keyed without the prefix
    raw: dict[str, str]  # every key's text as written, for trace headers


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes", "on"):
        return True
    if text.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _at_least(low: int, parse=_int, strict: bool = False):
    """``parse``, then reject a value below ``low`` (or equal to it, if ``strict``)."""

    def checked(text: str):
        value = parse(text)
        if value < low or (strict and value == low):
            raise ValueError(f"must be {'>' if strict else '>='} {low}, got {text!r}")
        return value

    return checked


_nonnegative = _at_least(0, _float)


def _tuple_of(parse, sep: str):
    return lambda text: tuple(parse(part) for part in text.split(sep))


def _names(text: str) -> frozenset[str]:
    return frozenset(name.strip() for name in text.split(",") if name.strip())


# key: (default text, parser, group, field).  Each group's fields build one
# object: host -> HostOptimizerConfig, lookahead -> LookAheadConfig,
# schedule -> Schedule, pipeline -> SingPipelineConfig, setup -> RunSetup,
# task -> RunSetup.task; sing -> StandardizeConfig, where sing.enabled
# switches both stages and sing.centralize only the first.
SCHEMA: dict[str, tuple] = {
    "optimizer.kind": ("adamw", str.lower, "host", "kind"),
    "optimizer.momentum": ("0.0", _float, "host", "momentum"),
    "optimizer.beta1": ("0.9", _float, "host", "beta1"),
    "optimizer.beta2": ("0.999", _float, "host", "beta2"),
    "optimizer.eps": ("1e-8", _float, "host", "eps_opt"),
    "optimizer.softplus": ("false", _bool, "host", "softplus_enabled"),
    "optimizer.softplus_beta": ("50.0", _float, "host", "softplus_beta"),
    "sing.enabled": ("true", _bool, "sing", "enabled"),
    "sing.centralize": ("true", _bool, "sing", "centralize"),
    "sing.epsilon": ("1e-8", _nonnegative, "sing", "epsilon"),
    "lookahead.enabled": ("false", _bool, "lookahead", "enabled"),
    "lookahead.k": ("5", _int, "lookahead", "k"),
    "lookahead.alpha": ("0.5", _float, "lookahead", "alpha"),
    "schedule.kind": ("cosine", str.lower, "schedule", "kind"),
    "schedule.base_lr": ("0.05", _float, "schedule", "base_lr"),
    "schedule.warmup_steps": ("0", _int, "schedule", "warmup_steps"),
    "schedule.total_steps": ("100", _int, "schedule", "total_steps"),
    "weight_decay": ("0.0", _float, "pipeline", "weight_decay"),
    "weight_decay_skip": ("", _names, "pipeline", "weight_decay_skip"),
    "seed": ("0", _int, "setup", "seed"),
    "task.kind": ("wells1d", str.lower, "task", "kind"),
    "task.start": ("-6.0", _tuple_of(_float, ","), "task", "start"),
    "task.blocks": ("1", _at_least(1), "task", "blocks"),
    "task.block_shape": ("4", _tuple_of(_at_least(1), "x"), "task", "block_shape"),
    "task.smoothness": ("2.0", _at_least(0, _float, strict=True), "task", "smoothness"),
    "task.f0": ("1.0", _nonnegative, "task", "f0"),
    "task.n": ("2000", _int, "task", "n"),
    "task.classes": ("3", _at_least(2), "task", "classes"),
    "task.input_dim": ("2", _at_least(1), "task", "input_dim"),
    "task.hidden": ("16", _at_least(1), "task", "hidden"),
    "task.spread": ("0.3", _nonnegative, "task", "spread"),
    "task.batch_size": ("128", _at_least(1), "task", "batch_size"),
}

_KEY_OF = {(group, name): key for key, (_, _, group, name) in SCHEMA.items()}


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunSetup:
    values = {key: row[0] for key, row in SCHEMA.items()}
    lineno_of: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lineno_of:
            raise ConfigError(f"line {lineno}: {key} is already set on line {lineno_of[key]}")
        values[key] = value
        lineno_of[key] = lineno
    for key, value in (overrides or {}).items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = value
        lineno_of.pop(key, None)

    fields: dict[str, dict[str, Any]] = defaultdict(dict)
    for key, (_, parse, group, name) in SCHEMA.items():
        try:
            fields[group][name] = parse(values[key])
        except ValueError as exc:
            where = f"line {lineno_of[key]}: " if key in lineno_of else ""
            raise ConfigError(f"{where}{key}: {exc}") from None

    def where(keys) -> str:
        # each key, after the line that set it, if a line did
        return ", ".join(f"line {lineno_of[key]}: {key}" if key in lineno_of else key for key in keys)

    def build(group: str, make, **kwargs):
        # a range error names its keys, and the lines that set them
        try:
            return make(**kwargs)
        except ConfigError as exc:
            if not exc.field:
                raise
            raise ConfigError(f"{where(_KEY_OF[group, name] for name in exc.field)}: {exc}") from None

    sing = fields["sing"]
    standardize = StandardizeConfig(
        centralize_enabled=sing["enabled"] and sing["centralize"],
        normalize_enabled=sing["enabled"],
        epsilon=sing["epsilon"],
    )
    pipeline = build(
        "pipeline",
        SingPipelineConfig,
        standardize=standardize,
        host=build("host", HostOptimizerConfig, **fields["host"]),
        lookahead=build("lookahead", LookAheadConfig, **fields["lookahead"]),
        **fields["pipeline"],
    )
    schedule = build("schedule", Schedule, **fields["schedule"])
    # the schedule peaks at base_lr, and a factor 1 - lr * weight_decay <= 0 flips signs
    shrink = schedule.base_lr * pipeline.weight_decay
    if shrink >= 1.0:
        raise ConfigError(
            f"{where(('schedule.base_lr', 'weight_decay'))}: "
            f"base_lr * weight_decay = {shrink} >= 1 would flip parameter signs"
        )
    return RunSetup(pipeline=pipeline, schedule=schedule, task=fields["task"], raw=values, **fields["setup"])


def parse_config_file(path, overrides: dict[str, str] | None = None) -> RunSetup:
    """``parse_config`` of a UTF-8 file; a decode error names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return parse_config(text, overrides)
