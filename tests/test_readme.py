"""The README's reference sections track the code they describe."""

import dataclasses
import pathlib
import re

import fiverank
from fiverank.cli import RunConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_config_keys_and_layout_match_the_code():
    match = re.search(r"file with keys (.*?)\.\n", README, re.S)
    assert match, "README no longer lists the config keys"
    keys = re.findall(r"`(\w+)`", match.group(1))
    assert keys == [f.name for f in dataclasses.fields(RunConfig)]

    match = re.search(r"## Layout\s*```\n(.*?)```", README, re.S)
    assert match, "README has no Layout block"
    listed = set(re.findall(r"^  (\w+\.py) ", match.group(1), re.M))
    package = pathlib.Path(fiverank.__file__).parent
    modules = {p.name for p in package.glob("*.py")} - {"__init__.py"}
    assert listed == modules
