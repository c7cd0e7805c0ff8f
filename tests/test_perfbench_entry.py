"""The benchmark's workloads still run against the package: each set-up's
construction calls succeed and each command line parses."""

import importlib.util
import sys
from pathlib import Path

import pytest

import cobcalc
from cobcalc.cli import build_parser

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # the frozen dataclass looks its module up in sys.modules while it is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_setup_and_argv(name):
    workload = WORKLOADS[name]
    assert workload.setup(cobcalc)
    argv = workload.argv(0)
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{name}: the CLI rejects {argv}")
