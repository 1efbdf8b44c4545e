"""README.md against the code: its CLI examples run and print what their
comments state, and the caps and checks it names are the package's."""

import re
import shlex
from pathlib import Path

import pytest

from donaldson_cp2 import barth, cli, engine, verify

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(heading: str) -> str:
    """The README text under one '## ' heading, up to the next."""
    match = re.search(rf"^## {re.escape(heading)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no '## {heading}' section"
    return match.group(1)


def _examples():
    """(argv, stated value or None) per line of the CLI section's sh block;
    a comment with a digit in it states a value the output must show."""
    block = re.search(r"```sh\n(.*?)```", _section("CLI"), re.S).group(1)
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "donaldson-cp2", line
        comment = comment.strip()
        examples.append((argv[1:], comment if re.search(r"\d", comment) else None))
    return examples


EXAMPLES = _examples()


def test_the_cli_block_has_its_examples():
    assert [argv[0] for argv, _ in EXAMPLES] == [
        "donaldson", "darboux", "integrate", "table", "witness", "verify"]
    assert any(value for _, value in EXAMPLES)


@pytest.mark.parametrize("argv, value", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_each_example_exits_0_and_prints_its_stated_value(argv, value, capsys):
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    if value is not None:
        # the value as a whole: "2" is not read off "n=2"
        assert re.search(rf"(?:^|\s){re.escape(value)}(?:\s|$)", out), (value, out)


def test_each_cap_carries_the_module_value():
    modules = {"engine": engine, "barth": barth, "cli": cli}
    caps = re.findall(r"^\| `(\w+)\.(MAX_\w+)` \| (\d+) \|", _section("Caps"), re.M)
    assert [f"{module}.{name}" for module, name, _ in caps] == [
        "engine.MAX_M", "barth.MAX_N", "cli.MAX_SAMPLES"]
    for module, name, value in caps:
        assert int(value) == getattr(modules[module], name), f"{module}.{name}"


def test_one_line_per_verify_check_in_suite_order():
    named = re.findall(r"^- `(\w+)`:", _section("What pins each value"), re.M)
    assert named == [name for name, _ in verify.CRITERIA]
