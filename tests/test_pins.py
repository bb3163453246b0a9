import os
import pathlib
import re
import subprocess
import sys

import pytest

import pins

TESTS = pathlib.Path(__file__).parent
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tests.yml"
SHA256 = re.compile(r"\b[0-9a-f]{64}\b")

# tests/pins.py run as a script on classgroup/-47, with one byte of the one
# line that classgroup --disc -47 writes changed: schema 1 -> 2
MUTATED_RUN = """
import runpy
import sys
from fiverank import cli

emit = cli._emit
cli._emit = lambda fh, record: emit(fh, {**record, "schema": 2})
sys.argv = [sys.argv[1], "classgroup/-47"]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


@pytest.mark.parametrize("name", list(pins.PINS))
def test_pin(name):
    pins.check(name)


def test_a_one_byte_change_fails_the_pin(monkeypatch):
    from fiverank import cli

    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda fh, record: emit(fh, {**record, "schema": 2}))
    with pytest.raises(ArithmeticError, match="classgroup/-47: 1 lines with SHA-256"):
        pins.check("classgroup/-47")


def test_a_one_byte_change_fails_the_script_under_python_O():
    src = str(TESTS.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-O", "-c", MUTATED_RUN, str(TESTS / "pins.py")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 1, run.stderr
    assert run.stdout.startswith("FAIL classgroup/-47: 1 lines with SHA-256 "), run.stdout


def test_each_digest_is_written_once_in_the_pin_table():
    digests = [pin.sha256 for pin in pins.PINS.values()]
    assert len(set(digests)) == len(digests) == 26
    assert sorted(SHA256.findall((TESTS / "pins.py").read_text())) == sorted(digests)
    for path in [*TESTS.glob("*.py"), WORKFLOW]:
        if path.name != "pins.py":
            assert not SHA256.search(path.read_text()), path.name


def test_the_workflow_checks_every_pin_under_python_O_and_runs_no_inline_python():
    workflow = WORKFLOW.read_text()
    runs = [line.split("run:")[1].strip() for line in workflow.splitlines()
            if "run:" in line and "tests/pins.py" in line]
    assert runs == ["PYTHONPATH=src timeout 300 python -O tests/pins.py"]
    assert "<<" not in workflow and "python -c" not in workflow
