import re
from pathlib import Path

import sphere_distal
from sphere_distal import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_names_are_importable():
    lines = README.read_text(encoding="utf-8").split("## Library tour", 1)[1].splitlines()
    table = [line for line in lines[1:] if line.strip()]
    table = table[: next(i for i, line in enumerate(table) if not line.startswith("|"))]
    names = re.findall(r"`(\w+)`", "\n".join(table))
    assert len(names) > 20
    assert [name for name in names if not hasattr(sphere_distal, name)] == []


def test_exit_codes_agree_across_readme_docstring_and_error_table():
    documented = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    table = README.read_text(encoding="utf-8").split("### Exit codes", 1)[1].split("\n\n")[1]
    assert {int(code) for code in re.findall(r"^\| (\d+) \|", table, re.M)} == documented
    docstring = cli.__doc__.split("Exit codes", 1)[1].split("\n\n")[0]
    assert {int(code) for code in re.findall(r"^ {4}(\d+) ", docstring, re.M)} == documented
    assert {code for code, _ in cli._ERROR_EXIT.values()} <= documented
