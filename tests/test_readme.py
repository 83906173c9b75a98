"""The README's examples run as written and state the real defaults."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

import yaml

from fasbar import ExperimentConfig, config_from_dict

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(language):
    (body,) = re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)
    return body


def test_python_example_runs():
    exec(compile(_block("python"), "README.md", "exec"), {})


def test_yaml_example_shows_the_defaults():
    # the README says every key but config_version and schemes has "the
    # defaults shown", so a stale or removed key shows up here
    cfg = config_from_dict(yaml.safe_load(_block("yaml")))
    for f in fields(ExperimentConfig):
        if f.name != "schemes":
            default = f.default_factory() if f.default is MISSING else f.default
            assert getattr(cfg, f.name) == default, f.name
