"""Every sparselb name that benchmarks/run.py uses exists.

The benchmark changes only in its own changes, so deleting a library name it
calls would break it while every other test still passes.
"""

import ast
from pathlib import Path

from sparselb import cli, graph, meanfield, policy, properties, records, simulator

RUN_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"
MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (cli, graph, meanfield, policy, properties, records, simulator)}


def _used_names() -> set[tuple[str, str]]:
    """(module, name) for every `module.name` in run.py, and for every name
    its `tracer.instrument(module, layer, [names], ...)` calls wrap."""
    used = set()
    for node in ast.walk(ast.parse(RUN_PY.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES:
            used.add((node.value.id, node.attr))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "instrument"
            and len(node.args) >= 3
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in MODULES
        ):
            used.update((node.args[0].id, ast.literal_eval(name)) for name in node.args[2].elts)
    return used


def test_benchmark_names_exist():
    used = _used_names()
    assert ("graph", "log_squared_degree_family") in used  # the walk finds calls
    assert ("graph", "generate_inhomogeneous") in used  # and instrumented names
    missing = sorted(f"{module}.{name}" for module, name in used if not hasattr(MODULES[module], name))
    assert missing == [], f"benchmarks/run.py uses names that sparselb lacks: {missing}"


def test_benchmark_cli_call_is_valid_usage():
    # run.py counts the degree sweep's exit 1 as a known generation failure,
    # so a usage error in its argv would pass unseen there
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    (argv,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "DEGREE_SWEEP_ARGV"
    ]
    parser, _ = cli.build_parser()
    args = parser.parse_args([*argv, "--out", "degree-sweep.csv"])
    assert args.func is cli.cmd_reproduce
    cli._resolve_recipe(args)  # raises CliUsageError on a flag the recipe does not read
