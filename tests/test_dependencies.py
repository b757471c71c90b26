"""The runtime dependencies ``pyproject.toml`` declares are the ones
``import repro`` actually loads.

The check runs in a fresh interpreter, so modules the test session
already imported (pytest, hypothesis, …) cannot hide or fake a
dependency.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """\
import json, sys
before = set(sys.modules)
import repro
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"repro"})))
"""


def declared_dependencies() -> set[str]:
    """Distribution names in ``[project] dependencies``, version pins and
    markers stripped."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    return {
        re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0].lower()
        for spec in project.get("dependencies", [])
    }


def test_import_loads_only_declared_dependencies():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    third_party = set(json.loads(proc.stdout))
    assert third_party <= declared_dependencies(), third_party
