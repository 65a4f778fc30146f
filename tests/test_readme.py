"""The README's library example runs as written, and its config table
is the schema the parser reads."""

import json
import math
import re
from pathlib import Path

from echoqram.cli import _SCHEMA, Scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    capsys.readouterr()


def test_config_table_is_the_schema():
    """The README's config table lists the paths of cli._SCHEMA, each with
    its kind, default, every side of its bound or its choices, where it is
    required and which scenarios read it."""
    section = README.read_text().split("### Config schema")[1]
    section = section.split("\n### ")[0]
    rows = {m[1]: [c.strip() for c in m[2].split("|")]
            for m in re.finditer(r"^\| `([^`]+)` \|(.*)\|$", section, re.M)}
    assert set(rows) == {key.path for key in _SCHEMA}

    def code(value):
        return f"`{json.dumps(value).strip(chr(34))}`"

    for key in _SCHEMA:
        kind, default, bound, needed, read, _ = rows[key.path]
        assert kind == (f"{key.kind} of {key.item}" if key.item
                        else key.kind), key.path
        if key.default is None:
            assert default == "—", key.path
        else:
            expect = {math.inf: "inf", (): []}.get(key.default, key.default)
            assert json.loads(default.strip("`")) == expect, key.path
        assert bound == (", ".join(text for text, _ in key.bound)
                         if key.bound
                         else ", ".join(map(code, key.choices))), key.path
        assert needed == ("yes" if key.required
                          else ", ".join(code(s.value) for s in key.needed_by)), \
            key.path
        assert read == ("any" if set(key.read_by) == set(Scenario)
                        else ", ".join(code(s.value) for s in key.read_by)), \
            key.path
