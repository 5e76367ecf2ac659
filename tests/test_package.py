"""Package-wide rules: one version string, and no import outside the
standard library and numpy (scipy and the other test tools stay out of
the library)."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import sparselb
from sparselb import records

SRC = Path(sparselb.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "sparselb"}


def test_one_version_string(monkeypatch):
    # a regex, not tomllib (Python 3.11+): the check runs on every supported Python
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    assert re.findall(r'^version\s*=\s*"([^"]*)"', project, re.M) == [sparselb.__version__]
    assert records.FORMAT_VERSION == f"sparselb v{sparselb.__version__}"
    # the CSV header follows the package version, not a copy of it
    monkeypatch.setattr(sparselb, "__version__", "9.8.7")
    spec = importlib.util.spec_from_file_location("sparselb.records", records.__file__)
    probe = importlib.util.module_from_spec(spec)  # not put in sys.modules
    spec.loader.exec_module(probe)
    assert probe.FORMAT_VERSION == "sparselb v9.8.7"


def test_library_imports_only_stdlib_and_numpy():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import stays inside sparselb
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert len(list(SRC.glob("*.py"))) >= 8
    assert not outside, outside


def test_sources_parse_as_python_3_10():
    # the oldest supported Python: this catches newer grammar, not newer
    # library APIs (tomllib, say), which parse on any version
    paths = sorted([*SRC.rglob("*.py"), *Path(__file__).parent.rglob("*.py")])
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    assert len(paths) >= 20
