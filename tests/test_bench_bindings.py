"""The benchmark's expected spans name functions that still exist.

perfbench/spans.py wraps the public functions of each layer module and the
functions in each ``*Ops`` class's own ``vars()``; a workload whose expected
span names something else fails only in a traced benchmark run.  This check
reads the same names without running anything.
"""

import importlib
import importlib.util
import inspect
import pathlib

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# spans the benchmark records from outside the package
NOT_PACKAGE = ("numpy.fft.", "cli.open(w)")


def expected_spans():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)     # imports only the standard library
    names = set()
    for obj in vars(module).values():
        if inspect.isclass(obj):
            names.update(getattr(obj, "expected_spans", ()))
    return sorted(n for n in names if not n.startswith(NOT_PACKAGE))


def test_expected_spans_are_bound():
    names = expected_spans()
    assert any(n.startswith("models.") and n.count(".") == 2 for n in names)
    for name in names:
        parts = name.split(".")
        module = importlib.import_module("saltpde." + parts[0])
        if len(parts) == 3:
            # class-level method, wrapped only if the class defines it itself
            cls = getattr(module, parts[1])
            assert inspect.isfunction(vars(cls).get(parts[2])), name
        else:
            fn = getattr(module, parts[1], None)
            assert inspect.isfunction(fn), name
            assert not parts[1].startswith("_"), name
            assert fn.__module__ == module.__name__, name
