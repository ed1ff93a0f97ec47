"""File/function -> layer table and the cProfile bucketing built on it.

A *layer* is one of this repo's modules as the per-layer metrics name
them.  Every ``src/repro/**/*.py`` file must match a rule below:
:func:`check_complete` raises on a file that matches none, so a new
module cannot vanish into "other".  Python frames outside the package
land in ``ext.numpy`` or ``ext.stdlib`` (the benchmark's own frames
included); a C function's time goes to the layer of the Python function
that called it, read from the profile's caller table.
"""

from __future__ import annotations

import ast
from pathlib import Path

#: First match wins; patterns are POSIX paths relative to ``src/repro``,
#: a trailing ``/`` matching the whole directory.
FILE_RULES: tuple[tuple[str, str], ...] = (
    ("sim/engine.py", "sim.engine"),
    ("sim/nic.py", "sim.host"),
    ("sim/transport.py", "sim.host"),
    ("sim/flow.py", "sim.host"),
    ("sim/", "sim.datapath"),
    ("core/", "core"),
    ("metrics/", "metrics"),
    ("analysis/", "metrics"),
    ("fluid/adapters.py", "fluid.fire"),
    ("fluid/programs.py", "runner"),
    ("fluid/", "fluid.kernels"),
    ("hybrid/programs.py", "runner"),
    ("hybrid/", "hybrid"),
    ("runner/", "runner"),
    ("report/", "report"),
    ("experiments/", "report"),
    ("cli.py", "report"),
    ("topology/", "topology"),
    ("network.py", "topology"),
    ("workloads/", "workloads"),
    ("dynamics/", "dynamics"),
    ("obs/", "obs"),
    ("__init__.py", "runner"),
)

#: Functions carved out of their file's layer: (file, qualified name, layer).
#: Code objects nested inside (comprehensions, lambdas) follow by line range.
FUNCTION_RULES: tuple[tuple[str, str, str], ...] = (
    ("fluid/engine.py", "FluidEngine._fire", "fluid.fire"),
)

EXTERNAL = ("ext.numpy", "ext.stdlib")

LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in FILE_RULES)
) + EXTERNAL


def layer_of_file(rel: str) -> str | None:
    """The layer of a path relative to ``src/repro``, or ``None``."""
    for pattern, layer in FILE_RULES:
        if rel == pattern or (pattern.endswith("/") and rel.startswith(pattern)):
            return layer
    return None


def check_complete(package_root: Path) -> dict[str, str]:
    """Map every package file to its layer; raise if one matches no rule."""
    table: dict[str, str] = {}
    unmatched = []
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        layer = layer_of_file(rel)
        if layer is None:
            unmatched.append(rel)
        else:
            table[rel] = layer
    if unmatched:
        raise LookupError(
            "no layer rule for: " + ", ".join(unmatched)
            + " (add one to benchmarks/ledger/layers.py FILE_RULES)"
        )
    return table


def _function_range(source: str, qualname: str) -> tuple[int, int] | None:
    """(first, last) line of ``Class.method`` / ``function`` in ``source``."""
    body = ast.parse(source).body
    node = None
    for part in qualname.split("."):
        node = next(
            (n for n in body
             if isinstance(n, (ast.ClassDef, ast.FunctionDef,
                               ast.AsyncFunctionDef)) and n.name == part),
            None,
        )
        if node is None:
            return None
        body = node.body
    return node.lineno, node.end_lineno


class Bucketer:
    """Assign profile entries ``(filename, lineno, funcname)`` to layers."""

    def __init__(self, package_root: Path) -> None:
        self.package_root = Path(package_root).resolve()
        check_complete(self.package_root)
        self._ranges: list[tuple[str, int, int, str]] = []
        for rel, qualname, layer in FUNCTION_RULES:
            span = _function_range(
                (self.package_root / rel).read_text(), qualname
            )
            if span is None:
                raise LookupError(
                    f"{qualname} not found in {rel}: the {layer} carve-out "
                    "in benchmarks/ledger/layers.py FUNCTION_RULES is stale"
                )
            self._ranges.append((rel, span[0], span[1], layer))

    def layer(self, func: tuple[str, int, str]) -> str:
        """The layer of one *Python* function of the profile."""
        filename, lineno, _ = func
        path = Path(filename)
        try:
            rel = path.resolve().relative_to(self.package_root).as_posix()
        except (ValueError, OSError):
            return "ext.numpy" if "numpy" in path.parts else "ext.stdlib"
        for rule_rel, first, last, layer in self._ranges:
            if rel == rule_rel and first <= lineno <= last:
                return layer
        layer = layer_of_file(rel)
        if layer is None:
            raise LookupError(f"no layer rule for profiled file {rel}")
        return layer

    def bucket(self, stats: dict) -> dict[str, dict[str, float]]:
        """Per-layer ``self_s`` and ``calls`` from ``pstats.Stats(...).stats``.

        ``stats`` maps ``func -> (cc, nc, tt, ct, callers)`` with
        ``callers`` mapping ``caller -> (nc, cc, tt, ct)``.  A C function
        is split over its callers' layers (a C caller resolves through
        the caller it spent most time under); with no caller on record
        it counts as ``ext.stdlib``.
        """
        out = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
        known: dict[tuple, str] = {}

        def resolve(func: tuple) -> str:
            if func not in known:
                if func[0] != "~":
                    known[func] = self.layer(func)
                else:
                    known[func] = "ext.stdlib"  # cycle guard and the fallback
                    callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
                    if callers:
                        known[func] = resolve(
                            max(callers, key=lambda c: callers[c][2]))
            return known[func]

        for func, (_cc, nc, tt, _ct, callers) in stats.items():
            if func[0] != "~":
                slot = out[resolve(func)]
                slot["self_s"] += tt
                slot["calls"] += nc
            elif callers:
                for caller, (c_nc, _c_cc, c_tt, _c_ct) in callers.items():
                    slot = out[resolve(caller)]
                    slot["self_s"] += c_tt
                    slot["calls"] += c_nc
            else:
                slot = out["ext.stdlib"]
                slot["self_s"] += tt
                slot["calls"] += nc
        return out
