"""The benchmark's bindings to the package, checked without running it.

``bench/tracer.py`` patches the functions it names in ``TARGETS``, and binds
parameters of two of them by name; ``bench/workloads.py`` imports package
functions to build each pass's inputs and CLI invocations.  A rename or
removal in the package breaks the benchmark without failing any other test
here, so this module loads both files (from source, writing nothing under
``bench/``) and checks every binding.
"""

import importlib
import sys
import time
import types
from pathlib import Path

import pytest

from ccsched import cli, symmetric, verifier
from ccsched.model import ScheduleColumn, table_from_json

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str, monkeypatch) -> types.ModuleType:
    """``bench/<name>.py`` as a module, compiled from its source so that no
    bytecode cache is written; registered in sys.modules for this test only."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves(monkeypatch):
    tracer = load_bench("tracer", monkeypatch)
    assert tracer.TARGETS
    for module_name, path in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{module_name}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), f"{module_name}.{path}"


def test_tracer_hooks_bind_their_parameters(monkeypatch):
    """The tracer installs over the package and its hooks bind
    ``build_beamformers(column=...)`` and ``build_base_partition(omega=, t=)``;
    the calls go through the modules, whose bindings it patches."""
    tracer = load_bench("tracer", monkeypatch)
    spans = tracer.Tracer(time.perf_counter)
    spans.install()
    try:
        spans.recording = True
        first = spans.begin_pass()
        column = ScheduleColumn.of([(1, 2), (1, 3)])
        verifier.build_beamformers(column, verifier.ChannelRealization.draw((1, 2, 3), G=2, L=4, seed=1))
        symmetric.build_base_partition(4, 1)
        symmetric.build_base_partition(4, 1)
        metrics = spans.pass_metrics(first, 1.0)
    finally:
        spans.recording = False
        spans.uninstall()
    assert metrics["verifier.build_beamformers.calls"] == 1
    assert metrics["verifier.nullspace_basis.calls"] == 2
    assert metrics["symmetric.build_base_partition.calls"] == 2
    assert metrics["symmetric.build_base_partition.repeat_calls"] == 1


@pytest.mark.parametrize("workload", ["construct", "oracle", "sweep"])
def test_workload_generators_build_their_ops(workload, tmp_path, monkeypatch):
    """Every workload builds its inputs with the package and its invocations
    parse as CLI commands; every table input it writes loads."""
    workloads = load_bench("workloads", monkeypatch)
    ops = workloads.WORKLOADS[workload](0, tmp_path)
    assert ops
    parser = cli.make_parser()
    for op in ops:
        args = cli.parse_args(parser, cli.join_snr_grid(op.argv))
        assert args.command == op.argv[0] and callable(op.check)
        if getattr(args, "table", None):
            table_from_json(Path(args.table).read_text()).validate()
