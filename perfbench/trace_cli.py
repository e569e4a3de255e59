"""Run one ``plethysm`` CLI command in this interpreter with layer spans.

    python3 perfbench/trace_cli.py <cli arguments...>

The public functions that bound each module are wrapped from outside; the
package itself is not changed.  Each wrapped call records a span (name,
start, end, parent) in memory.  At exit the spans are reduced to calls,
total and self time per name, and one JSON object is printed:
``{"exit", "stdout", "import_s", "spans", "counters"}``, where ``stdout`` is
what the CLI printed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from array import array
from time import perf_counter

# "module.function" of every span, with the counter its result feeds
SPANS = [
    ("coefficients.stable_plethysm", None),
    ("coefficients.stable_table", None),
    ("coefficients.plethysm_coefficient", None),
    ("characters.generalized_plethysm", None),
    ("characters.set_partitions_of_shape", ("characters.set_partitions_of_shape.objects", len)),
    ("characters.character_value", None),
    ("characters.homogeneous_plethysm", None),
    ("setpartitions.foulkes_pairs", ("setpartitions.pairs", len)),
    ("foulkes.depth_quotient_basis", None),
    ("foulkes.action_matrix", ("foulkes.action_matrix.entries", lambda m: len(m.entries))),
    ("foulkes.layer_matrix", None),
    ("foulkes.orbit_decomposition", None),
    ("diagrams.multiply_diagrams", None),
    ("diagrams.act_on_set_partition", None),
    ("tensor.integer_matrix_rank", None),
    ("tensor.diagram_tensor_matrix", None),
    ("tensor.tensor_action_consistent", None),
]
# hot helpers that only get a call counter: a span each would cost more than they do
COUNTED = [
    "setpartitions.set_partitions",
    "setpartitions.from_blocks",  # the SetPartition.from_blocks classmethod
    "tensor.block_constant_vector",
]


class Tracer:
    """In-memory span store; parents come from the stack of open spans."""

    def __init__(self):
        self.names: list[str] = []  # one per wrapped function
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open: list[int] = []
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, func, count=None):
        name_id = len(self.names)
        self.names.append(name)
        counters = self.counters

        @functools.wraps(func)
        def span(*args, **kwargs):
            index = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(self.open[-1] if self.open else -1)
            self.start.append(perf_counter())
            self.end.append(0.0)
            self.open.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self.open.pop()
                self.end[index] = perf_counter()
            if count is not None:
                counters[count[0]] = counters.get(count[0], 0) + count[1](result)
            return result

        return span

    def counted(self, name: str, func):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(func)
        def counting(*args, **kwargs):
            counters[name] += 1
            return func(*args, **kwargs)

        return counting

    def summary(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds]."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * len(duration)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent] += duration[index]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for index, name_id in enumerate(self.span_name):
            row = out[self.names[name_id]]
            row[0] += 1
            row[1] += duration[index]
            row[2] += duration[index] - children[index]
        return out


def rebind(old, new) -> None:
    """Point every plethysm module's binding of ``old`` at ``new``.

    Modules import these functions by name, so patching only the defining
    module would let calls from the other modules escape their span.
    """
    for name, module in list(sys.modules.items()):
        if name == "plethysm" or name.startswith("plethysm."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def install(tracer: Tracer) -> None:
    import plethysm

    for name, count in SPANS:
        module, attr = name.split(".")
        old = getattr(getattr(plethysm, module), attr)
        rebind(old, tracer.wrap(name, old, count))
    for name in COUNTED:
        module, attr = name.split(".")
        if attr == "from_blocks":
            cls = plethysm.setpartitions.SetPartition
            cls.from_blocks = classmethod(tracer.counted(name, cls.__dict__[attr].__func__))
        else:
            old = getattr(getattr(plethysm, module), attr)
            rebind(old, tracer.counted(name, old))
    verify = plethysm.verify
    tracer.counters["verify.checks_failed"] = 0

    def failures_counted(check):
        @functools.wraps(check)
        def run(full):
            try:
                return check(full)
            except verify.CheckFailure:
                tracer.counters["verify.checks_failed"] += 1
                raise

        return run

    verify.CHECKS[:] = [
        (name, tracer.wrap(f"verify.{name}", failures_counted(check)))
        for name, check in verify.CHECKS
    ]


def main(argv: list[str]) -> int:
    begin = perf_counter()
    import plethysm.cli

    import_s = perf_counter() - begin
    tracer = Tracer()
    install(tracer)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tracer.wrap("cli.main", plethysm.cli.main)(argv)
    envelope = {
        "exit": code,
        "stdout": out.getvalue(),
        "import_s": import_s,
        "spans": tracer.summary(),
        "counters": tracer.counters,
    }
    print(json.dumps(envelope))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
