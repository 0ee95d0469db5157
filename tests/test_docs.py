import re
from pathlib import Path

import sphere_distal

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_names_are_importable():
    lines = README.read_text(encoding="utf-8").split("## Library tour", 1)[1].splitlines()
    table = [line for line in lines[1:] if line.strip()]
    table = table[: next(i for i, line in enumerate(table) if not line.startswith("|"))]
    names = re.findall(r"`(\w+)`", "\n".join(table))
    assert len(names) > 20
    assert [name for name in names if not hasattr(sphere_distal, name)] == []
