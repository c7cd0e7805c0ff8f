"""The benchmark's workloads still run against the package: each set-up's
construction calls succeed, each command line parses, and each command's
report hashes to the value that the benchmark expects."""

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

import cobcalc
from cobcalc.cli import build_parser, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS_PATH = PERFBENCH / "workloads.py"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


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


def _output_hash(report: dict) -> str:
    """The hash of ``perfbench/child.py``'s ``output_hash``: sha256 of the
    report without its ``config`` key, as sorted compact JSON."""
    body = {k: v for k, v in report.items() if k != "config"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_report_matches_the_expected_hash(name, monkeypatch, capsys):
    for key in [k for k in os.environ if k.startswith("COBCALC_")]:
        monkeypatch.delenv(key)
    assert main(WORKLOADS[name].argv(0)) == 0
    assert _output_hash(json.loads(capsys.readouterr().out)) == EXPECTED[name]
