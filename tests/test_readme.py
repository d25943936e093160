import re
from pathlib import Path

import skyrme_dyon

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs_as_written(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_sketch"})
    out = capsys.readouterr().out
    assert out.rstrip().endswith("overall PASS")


def test_readme_lists_exactly_the_public_names():
    section = README.read_text(encoding="utf-8").split("## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    # the section's bulleted list, whose items may wrap onto indented lines
    items = re.findall(r"^- .*(?:\n  .*)*", section, re.M)
    listed = re.findall(r"`(\w+)`", "\n".join(items))
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(skyrme_dyon.__all__)
