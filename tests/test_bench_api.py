"""The benchmark in `perfbench/` traces `seqfilt` functions by module and
name; a renamed one would only show when the benchmark runs, so every
traced name is checked here."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))

import workload  # noqa: E402


def test_every_traced_function_exists():
    targets = workload.trace_targets()
    assert len(targets) == 30
    missing = [f"{module.__name__}.{name}" for module, name, _, _ in targets if not hasattr(module, name)]
    assert missing == []
