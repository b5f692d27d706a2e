"""Shared CLI invocation samples, taken from the benchmark's grid, and the loader of its modules."""

import functools
import importlib.util
import sys
from pathlib import Path

from demoivre import cli

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
