"""Every name that ``multidid`` exports is documented as API in README.md, so
a name exported only for the tests cannot come back unnoticed."""

import re
from pathlib import Path

import multidid as m

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_is_documented_in_the_readme():
    text = README.read_text(encoding="utf-8")
    section = text.split("### What `multidid` exports\n", 1)[1].split("\n#", 1)[0]
    code = " ".join(re.findall(r"`([^`]+)`", section))
    assert [name for name in m.__all__ if not re.search(rf"\b{name}\b", code)] == []
