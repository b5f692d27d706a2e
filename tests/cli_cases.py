"""Shared CLI invocation samples, taken from the benchmark's grid, the loader of its modules, and the work budget's refusal."""

import functools
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from demoivre import cli
from demoivre.exactnum import charge

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@functools.cache
def load_bench(name):
    """`bench/<name>.py` as a module, loaded from its file and only read."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their defining module by name
    spec.loader.exec_module(module)
    return module


# one call per subcommand: the first variant of each row of the benchmark's CLI mix
SAMPLE_INVOCATIONS = [variants[0] for variants in load_bench("cases").CLI_MIX]


def rebuild_argv(payload):
    """Reconstruct an invocation from a result object's echoed inputs."""
    argv = list(cli.REGISTRY[payload["op"]][0]) + ["--format", "json"]
    for key, value in payload["inputs"].items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return argv


def refusal(cost, name, value):
    """A pattern matching exactly the refusal of charge(cost, name, value), which must refuse."""
    with pytest.raises(ValueError) as refused:
        charge(cost, name, value)
    return f"^{re.escape(str(refused.value))}$"
