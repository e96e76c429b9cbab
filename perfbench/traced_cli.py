"""Run one unionclosed CLI command with spans around every module boundary.

Usage: python3 perfbench/traced_cli.py SPANS.json <unionclosed arguments...>

Behaves like `python -m unionclosed <arguments>` (same stdout, stderr and
exit code) in a fresh interpreter, so module-level caches start cold as
they do untraced. Before the command runs, every public function of the
modules family, certificates, search and cli is wrapped in each module
that holds it, imported names included, as are the __post_init__ checks
of their dataclasses. Each call records a span (name, start, end, parent)
in memory; the spans are written to SPANS.json when the command ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

MODULES = ("family", "certificates", "search", "cli")


class Spans:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.monotonic  # the launcher's clock too, for the start-up time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, modules) -> None:
        ours = {m.__name__ for m in modules}
        wrappers: dict[int, object] = {}  # one wrapper per function, shared by every alias
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) not in ours:
                    continue
                label = f"{value.__module__.rpartition('.')[2]}.{value.__qualname__}"
                if inspect.isfunction(value):
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self.wrap(label, value)
                    setattr(mod, attr, wrappers[id(value)])
                elif inspect.isclass(value) and "__post_init__" in vars(value):
                    if id(value) not in wrappers:
                        value.__post_init__ = self.wrap(label, value.__post_init__)
                        wrappers[id(value)] = value.__post_init__

    def dump(self, path: str, install_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "install_s": install_s,
                },
                fh,
            )


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import importlib

    modules = [importlib.import_module(f"unionclosed.{m}") for m in MODULES]
    began = time.monotonic()
    spans = Spans()
    spans.install(modules)
    install_s = time.monotonic() - began
    cli = modules[-1]
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        spans.dump(out_path, install_s)
    sys.exit(code)


if __name__ == "__main__":
    main()
