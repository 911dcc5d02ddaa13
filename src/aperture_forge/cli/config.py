"""Strict run-configuration parsing.

A config file is a JSON object with at most these top-level keys:

    scenario     name of the scenario to run (optional if given on the
                 command line; when both are present they must agree)
    seed         integer seed, required for any run that draws random
                 numbers (the run refuses a missing one at its first draw)
    out          output directory (default runs/<scenario>)
    emit_images  write PGM images (default true)
    emit_csv     write CSV tables (default true)
    params       scenario parameter block, validated against the
                 scenario's schema

Parsing is strict: unknown keys and wrong types each fail with their own
exit code so scripts can tell the failures apart.  Every field that falls
back to its default is recorded on the returned config.
"""

import json
import math
from dataclasses import dataclass


class CliError(Exception):
    """Base for front-end failures; ``code`` is the process exit status."""

    code = 1


class ConfigFileError(CliError):
    code = 2


class UnknownKeyError(CliError):
    code = 3


class TypeMismatchError(CliError):
    code = 4


class MissingSeedError(CliError):
    code = 5


class ScenarioError(CliError):
    """A module error raised while running a scenario, with context."""

    code = 6


_TOP_KEYS = ("scenario", "seed", "out", "emit_images", "emit_csv", "params")
_TYPE_NAMES = {float: "number", int: "integer", bool: "boolean", str: "string"}


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    params: dict
    seed: int | None
    out_dir: str
    emit_images: bool = True
    emit_csv: bool = True
    defaulted: tuple = ()


def _coerce(name, value, expected):
    """Type-check one field; JSON integers are accepted for floats, the
    NaN and Infinity tokens that Python's json reads are not.  Numbers
    must fit numpy's float64 and int64."""
    if expected is float:
        # bool is an int subclass and must not pass as a number
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an integer past float64's range
                number = math.inf
            if not math.isfinite(number):
                raise TypeMismatchError(f"{name}: expected a finite number, got {value}")
            return number
    elif expected is int:
        if isinstance(value, int) and not isinstance(value, bool):
            if not -2 ** 63 <= value < 2 ** 63:
                raise TypeMismatchError(f"{name}: expected a 64-bit integer, got {value}")
            return value
    elif isinstance(value, expected):
        return value
    raise TypeMismatchError(
        f"{name}: expected {_TYPE_NAMES[expected]}, got {type(value).__name__}"
    )


def parse_config(path, scenario=None, seed=None, out_dir=None) -> RunConfig:
    """Load, validate and default-fill one run configuration.

    ``scenario``, ``seed`` and ``out_dir`` mirror the command-line
    arguments and take precedence over the file.
    """
    from . import scenarios  # deferred: scenarios imports this module

    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigFileError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigFileError(f"config {path} must hold a JSON object")

    for key in raw:
        if key not in _TOP_KEYS:
            raise UnknownKeyError(f"unknown config key '{key}'")

    file_scenario = raw.get("scenario")
    if file_scenario is not None:
        file_scenario = _coerce("scenario", file_scenario, str)
    name = scenario or file_scenario
    if name is None:
        raise ConfigFileError("no scenario named on the command line or in the config")
    if scenario and file_scenario and scenario != file_scenario:
        raise ConfigFileError(
            f"config names scenario '{file_scenario}' but '{scenario}' was requested"
        )
    if name not in scenarios.REGISTRY:
        raise UnknownKeyError(f"unknown scenario '{name}'")
    scen = scenarios.REGISTRY[name]

    defaulted = []
    raw_params = raw.get("params", {})
    if not isinstance(raw_params, dict):
        raise TypeMismatchError("params: expected object")
    for key in raw_params:
        if key not in scen.params:
            raise UnknownKeyError(f"unknown parameter '{key}' for scenario '{name}'")
    params = {}
    for key, default in scen.params.items():
        if key in raw_params:
            params[key] = _coerce(f"params.{key}", raw_params[key], type(default))
        else:
            params[key] = default
            defaulted.append(f"params.{key}")

    if seed is None and "seed" in raw:
        seed = raw["seed"]
    if seed is not None and (type(seed) is not int or not 0 <= seed < 2 ** 64):
        raise TypeMismatchError(f"seed: expected an unsigned 64-bit integer, got {seed!r}")

    if out_dir is None:
        if "out" in raw:
            out_dir = _coerce("out", raw["out"], str)
        else:
            out_dir = f"runs/{name}"
            defaulted.append("out")

    emit = {}
    for key in ("emit_images", "emit_csv"):
        if key in raw:
            emit[key] = _coerce(key, raw[key], bool)
        else:
            emit[key] = True
            defaulted.append(key)

    return RunConfig(
        scenario=name,
        params=params,
        seed=seed,
        out_dir=str(out_dir),
        emit_images=emit["emit_images"],
        emit_csv=emit["emit_csv"],
        defaulted=tuple(defaulted),
    )
