"""Per-package call counts and self time, measured from outside ``src/``.

A traced run installs ``cProfile`` (a C-level profile hook) in every
process that executes simulation code.  Each Python and builtin
function's call count and self time are then attributed to the
``src/repro`` package that defines it (the layers declared in
``[tool.simlint.layers]``).  Time spent in code outside ``src/repro``
(the standard library, builtins, numpy) is charged to the package that
called it, split by the callers' share of its cumulative time.

Spans: a call that crosses from one package into another is a span
boundary.  A fifty-year run crosses millions of them, so spans are kept
aggregated per (caller package, callee function): call count plus
cumulative time.  The self time of a package is the time its own
functions ran, which is its spans' duration minus the time covered by
the spans it opened into other packages.

Pool workers: the Monte-Carlo scheduler and the scenario service fork
their workers.  ``Recorder.install`` registers fork hooks, so each forked
child restarts a fresh profiler and dumps it when its multiprocessing
bootstrap finalizes.  A worker whose dump is missing is reported in
``trace.unmeasured_workers``; its work is never reported as zero.

Time a package spends blocked (on a lock, a sleep, a select, a pipe
read) is its ``wait_s``, kept apart from the self time of its work;
blocked time with no ``src/repro`` caller (an idle event loop or pool
worker) is ``idle_s``.
"""

from __future__ import annotations

import ast
import cProfile
import glob
import os
import pstats
from multiprocessing import util as mp_util
from typing import Dict, List, Optional, Tuple

#: The packages of ``src/repro`` whose time and calls the benchmark
#: reports, in ``[tool.simlint.layers]`` order of dependency.
PACKAGES = (
    "core", "obs", "energy", "radio", "reliability", "faults", "analysis",
    "net", "experiment", "city", "runtime", "serve",
)

#: Builtins that block: their time is waiting, not work, and is charged
#: to the calling package's ``wait_s`` instead of its self time.
BLOCKING_BUILTINS = (
    "'acquire' of '_thread.", "time.sleep", "select.select",
    "'poll' of 'select.", "'select' of 'select.", "posix.read",
)

#: Functions whose cumulative time is the shard-artifact write cost.
SHARD_WRITE_FUNCS = ("write_result", "write_failure", "close")


class Recorder:
    """One process's profiler, restarted in every forked child."""

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        self.profile: Optional[cProfile.Profile] = None

    def install(self) -> "Recorder":
        """Start profiling here and in every child forked from here."""
        os.register_at_fork(after_in_child=self._restart_in_child)
        mp_util.register_after_fork(self, Recorder._dump_at_child_exit)
        self._start()
        return self

    def _start(self) -> None:
        self.profile = cProfile.Profile()
        self.profile.enable()

    def _restart_in_child(self) -> None:
        # The inherited profiler holds the parent's counts; drop them.
        if self.profile is not None:
            self.profile.disable()
        self._start()

    def _dump_at_child_exit(self) -> None:
        # Runs after multiprocessing clears the child's finalizer
        # registry, so this finalizer is the child's own; pool workers
        # leave through os._exit, which skips atexit but not these.
        mp_util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> None:
        """Stop profiling and write this process's stats file."""
        if self.profile is None:
            return
        self.profile.disable()
        path = os.path.join(self.trace_dir, f"prof-{os.getpid()}.prof")
        self.profile.dump_stats(path)
        self.profile = None


def load_stats(trace_dir: str) -> Tuple[Optional[pstats.Stats], int]:
    """All stats files in ``trace_dir`` merged, and how many there were."""
    paths = sorted(glob.glob(os.path.join(trace_dir, "prof-*.prof")))
    if not paths:
        return None, 0
    stats = pstats.Stats(paths[0])
    for path in paths[1:]:
        stats.add(path)
    return stats, len(paths)


def package_of(filename: str, src_repro: str) -> Optional[str]:
    """The ``src/repro`` package a code file belongs to, else None."""
    if not filename.startswith(src_repro):
        return None
    rest = filename[len(src_repro):].lstrip(os.sep)
    head = rest.split(os.sep, 1)[0]
    return head[:-3] if head.endswith(".py") else head


_COROUTINE_LINES: Dict[str, frozenset] = {}


def is_coroutine(func: tuple) -> bool:
    """Whether a profiled function is an ``async def``.

    The profiler counts every resumption of a coroutine as a call, so a
    coroutine's count is how often it waited, which depends on timing.
    """
    filename, line = func[0], func[1]
    if filename not in _COROUTINE_LINES:
        try:
            with open(filename, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
        except (OSError, SyntaxError, ValueError):
            tree = ast.Module(body=[], type_ignores=[])
        _COROUTINE_LINES[filename] = frozenset(
            min([node.lineno] + [d.lineno for d in node.decorator_list])
            for node in ast.walk(tree)
            if isinstance(node, ast.AsyncFunctionDef)
        )
    return line in _COROUTINE_LINES[filename]


def function_name(func: tuple, src_repro: str) -> str:
    """``pkg/module.py:function`` of a ``src/repro`` function."""
    path = os.path.relpath(func[0], src_repro).replace(os.sep, "/")
    return f"{path}:{func[2]}"


def is_blocking(func: tuple) -> bool:
    return func[0] == "~" and any(b in func[2] for b in BLOCKING_BUILTINS)


def _external_shares(raw: dict, owner: dict) -> Dict[tuple, Dict[str, float]]:
    """For each function outside ``src/repro``: the packages it ran for.

    Its callers' cumulative time weights the split; a caller outside
    ``src/repro`` passes on its own split.  Shares summing to less than
    1 mean some of the time had no ``src/repro`` caller (the benchmark
    itself, an event loop's idle polling).
    """
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func: tuple, active: set) -> Dict[str, float]:
        pkg = owner.get(func)
        if pkg is not None:
            return {pkg: 1.0}
        if func in memo:
            return memo[func]
        if func in active or func not in raw:
            return {}
        active.add(func)
        callers = raw[func][4]
        weights = {c: v[3] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {c: float(v[1]) for c, v in callers.items()}
            total = sum(weights.values())
        result: Dict[str, float] = {}
        if total > 0.0:
            for caller, weight in weights.items():
                for pkg_name, share in shares(caller, active).items():
                    result[pkg_name] = (
                        result.get(pkg_name, 0.0) + share * weight / total
                    )
        active.discard(func)
        memo[func] = result
        return result

    return {
        func: shares(func, set()) for func in raw if owner.get(func) is None
    }


def summarize(stats: Optional[pstats.Stats], src_repro: str) -> dict:
    """Per-package calls and self time, plus the aggregated span table."""
    calls = {pkg: 0 for pkg in PACKAGES}
    #: "pkg/module.py:function" -> calls of the plain (not async)
    #: functions, for the exact call-count check.
    function_calls: Dict[str, int] = {}
    self_s = {pkg: 0.0 for pkg in PACKAGES}
    wait_s = {pkg: 0.0 for pkg in PACKAGES}
    unattributed_s = 0.0
    idle_s = 0.0
    shard_write_s = 0.0
    boundaries: Dict[Tuple[str, str, str], List[float]] = {}
    raw = stats.stats if stats is not None else {}
    owner = {func: package_of(func[0], src_repro) for func in raw}
    external = _external_shares(raw, owner)

    def caller_package(caller: tuple) -> str:
        pkg = owner.get(caller)
        if pkg is not None:
            return pkg
        split = external.get(caller) or {}
        return max(split, key=split.get) if split else "host"

    total_s = 0.0
    for func, (_cc, nc, tt, ct, callers) in raw.items():
        total_s += tt
        pkg = owner[func]
        if pkg is None:
            split = external[func]
            blocking = is_blocking(func)
            charged = wait_s if blocking else self_s
            rest = tt * max(0.0, 1.0 - sum(split.values()))
            for name, share in split.items():
                if name in charged:
                    charged[name] += tt * share
                else:
                    rest += tt * share
            if blocking:
                idle_s += rest
            else:
                unattributed_s += rest
            continue
        if pkg in calls:
            calls[pkg] += nc
            self_s[pkg] += tt
            if not is_coroutine(func):
                name = function_name(func, src_repro)
                function_calls[name] = function_calls.get(name, 0) + nc
        else:
            unattributed_s += tt
        if (
            pkg == "runtime"
            and func[0].endswith(os.sep + "shard.py")
            and func[2] in SHARD_WRITE_FUNCS
        ):
            shard_write_s += ct
        for caller, (_ccc, cnc, _ctt, cct) in callers.items():
            source = caller_package(caller)
            if source == pkg:
                continue
            key = (source, pkg, f"{os.path.basename(func[0])}:{func[2]}")
            entry = boundaries.setdefault(key, [0, 0.0])
            entry[0] += cnc
            entry[1] += cct
    table = sorted(
        (
            {"from": k[0], "to": k[1], "function": k[2],
             "calls": int(v[0]), "cumulative_s": v[1]}
            for k, v in boundaries.items()
        ),
        key=lambda row: (-row["cumulative_s"], row["from"], row["function"]),
    )
    return {
        "calls": calls,
        "function_calls": function_calls,
        "self_s": self_s,
        "wait_s": wait_s,
        "unattributed_s": unattributed_s,
        "idle_s": idle_s,
        "total_s": total_s,
        "shard_write_s": shard_write_s,
        "boundary_calls": sum(row["calls"] for row in table),
        "boundaries": table,
    }
