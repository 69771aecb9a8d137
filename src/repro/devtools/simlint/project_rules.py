"""The cross-module simlint rules, SL010–SL014.

Each rule runs against a :class:`~.project.ProjectIndex` instead of one
module's AST, which is what lets it see the bug classes the repo has
actually shipped fixes for: RNG stream aliasing between subsystems
(PR 1), stale topology caches (PR 3/6), and metric shape collisions
(PR 5).  Findings reuse the per-file :class:`~.findings.Finding` model
and the in-place ``# simlint: ignore[SL01x]`` pragma semantics, so the
reporters, the JSON schema, and the suppression discipline are shared
with SL001–SL009.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .findings import Finding
from .project import (
    CallFact,
    FunctionFact,
    MetricFact,
    ProjectIndex,
    RESERVED_STREAM_PREFIXES,
    StreamFact,
    unit_suffix,
)
from .rules import SIM_LAYERS


class ProjectRule:
    """Base class for whole-program rules: ``check`` sees the index."""

    id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, path: str, line: int, message: str, col: int = 1) -> Finding:
        return Finding(path=path, line=line, col=col, rule=self.id, message=message)


#: Registry in catalog order (continues the per-file RULES numbering).
PROJECT_RULES: List[ProjectRule] = []


def register(cls: type) -> type:
    """Class decorator adding one instance of ``cls`` to the registry."""
    instance = cls()
    if not instance.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if any(rule.id == instance.id for rule in PROJECT_RULES):
        raise ValueError(f"duplicate rule id {instance.id}")
    PROJECT_RULES.append(instance)
    return cls


def get_project_rule(rule_id: str) -> ProjectRule:
    """Look a project rule up by id (raises ``KeyError`` if unknown)."""
    for rule in PROJECT_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(rule_id)


def _site(fact) -> str:
    return f"{fact.module}:{fact.line}"


# ----------------------------------------------------------------------
# SL010 — duplicate RNG stream names across subsystems
# ----------------------------------------------------------------------

@register
class DuplicateStreamName(ProjectRule):
    """Two subsystems claiming one stream name silently share draws —
    the exact aliasing class PR 1 fixed dynamically, now caught
    statically before it runs."""

    id = "SL010"
    title = "RNG stream name claimed by distinct subsystems"
    rationale = (
        "RandomStreams guarantees independence *per name*: two subsystems "
        "using the same name share one generator, so adding a draw in one "
        "perturbs the other (the PR 1 aliasing bug).  Within one subsystem "
        "a shared name can be a contract (the cohort engine replays the "
        "per-device streams bit-exactly and so must share them); across "
        "top-level packages it is almost certainly an accident.  The "
        "'faults:' prefix is reserved for the fault controller's "
        "content-keyed streams."
    )

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        claims: Dict[str, List[StreamFact]] = {}
        for fact in index.stream_claims():
            if fact.api == "fork" or fact.name is None:
                continue
            claims.setdefault(fact.name, []).append(fact)
        for name in sorted(claims):
            facts = claims[name]
            packages = sorted(
                {index.modules[f.module].package for f in facts}
            )
            if len(packages) > 1:
                for fact in facts:
                    others = ", ".join(
                        _site(f)
                        for f in facts
                        if index.modules[f.module].package
                        != index.modules[fact.module].package
                    )
                    yield self.finding(
                        fact.path,
                        fact.line,
                        f"stream {name!r} is also claimed by another "
                        f"subsystem ({others}); shared names share draws — "
                        "rename one (e.g. prefix with the package name)",
                    )
        # Reserved prefixes: literal names and f-string prefixes both count.
        for fact in index.stream_claims():
            if fact.api == "fork":
                continue
            text = fact.name if fact.name is not None else (fact.prefix or "")
            for prefix, owner in sorted(RESERVED_STREAM_PREFIXES.items()):
                if text.startswith(prefix) and (
                    index.modules[fact.module].package != owner
                ):
                    yield self.finding(
                        fact.path,
                        fact.line,
                        f"stream name {text!r} uses the {prefix!r} prefix "
                        f"reserved for repro.{owner} content-keyed streams",
                    )


# ----------------------------------------------------------------------
# SL011 — topology mutation without a topology_version bump
# ----------------------------------------------------------------------

@register
class TopologyMutationWithoutBump(ProjectRule):
    """``topology_version`` is the only invalidation signal the
    candidate-gateway, live-hotspot, and spatial-index caches have; a
    mutation path that skips the bump serves stale topology forever."""

    id = "SL011"
    title = "topology mutation without topology_version bump"
    rationale = (
        "Every cache derived from the entity graph is keyed on "
        "sim.topology_version, directly (live_hotspots, the GatewayIndex "
        "hearing list) or through the index generation derived from it "
        "(device and cohort candidate lists), and revalidated by "
        "comparison, never by callback.  A function that rewires "
        "depends_on/dependents or flips an entity's state without bumping "
        "the version in the same function is the stale-cache bug class: "
        "everything keeps running, against yesterday's topology."
    )

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for fact in index.topology_mutations():
            if fact.bumps_version:
                continue
            summary = ", ".join(dict.fromkeys(fact.mutations))
            yield self.finding(
                fact.path,
                fact.line,
                f"{fact.function}() mutates the entity graph ({summary}) "
                "but never bumps sim.topology_version; version-keyed "
                "caches will serve the old topology",
            )


# ----------------------------------------------------------------------
# SL012 — metric registered with conflicting shapes across modules
# ----------------------------------------------------------------------

@register
class ConflictingMetricRegistration(ProjectRule):
    """One metric name must mean one thing everywhere: one instrument
    kind, one label schema, one gauge aggregation, one edge vector."""

    id = "SL012"
    title = "metric name registered with conflicting kind or labels"
    rationale = (
        "MetricsRegistry raises on a cross-kind re-registration — but only "
        "when both sites run in the *same* simulation, so a conflict "
        "between two scenarios ships silently until someone composes "
        "them.  Conflicting label-key sets are worse: both register "
        "cleanly, and the merged snapshot holds two incompatible series "
        "under one name.  The registry's runtime check, made whole-program "
        "and static."
    )

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        by_name: Dict[str, List[MetricFact]] = {}
        for fact in index.metric_registrations():
            if fact.name is None:
                continue
            by_name.setdefault(fact.name, []).append(fact)
        for name in sorted(by_name):
            facts = by_name[name]
            yield from self._kind_conflicts(name, facts)
            yield from self._label_conflicts(name, facts, index)
            yield from self._gauge_agg_conflicts(name, facts)
            yield from self._edge_conflicts(name, facts)

    def _kind_conflicts(
        self, name: str, facts: List[MetricFact]
    ) -> Iterator[Finding]:
        kinds = sorted({f.kind for f in facts})
        if len(kinds) <= 1:
            return
        for fact in facts:
            others = ", ".join(
                f"{f.kind} at {_site(f)}" for f in facts if f.kind != fact.kind
            )
            yield self.finding(
                fact.path,
                fact.line,
                f"metric {name!r} registered as {fact.kind} here but also "
                f"as {others}; one name, one instrument kind",
            )

    def _label_conflicts(
        self, name: str, facts: List[MetricFact], index: ProjectIndex
    ) -> Iterator[Finding]:
        concrete = [f for f in facts if not f.dynamic_labels]
        by_module_keys = {(f.module, f.label_keys) for f in concrete}
        key_sets = {keys for _, keys in by_module_keys}
        if len(key_sets) <= 1:
            return
        # Only a *cross-module* disagreement is reportable: within one
        # module, distinct label sets under one name would already be a
        # single reviewable diff.
        modules_by_keys: Dict[frozenset, Set[str]] = {}
        for module, keys in by_module_keys:
            modules_by_keys.setdefault(keys, set()).add(module)
        if len({m for ms in modules_by_keys.values() for m in ms}) <= 1:
            return
        for fact in concrete:
            others = sorted(
                f"{{{', '.join(sorted(f.label_keys)) or 'no labels'}}} at {_site(f)}"
                for f in concrete
                if f.label_keys != fact.label_keys and f.module != fact.module
            )
            if not others:
                continue
            yield self.finding(
                fact.path,
                fact.line,
                f"metric {name!r} registered with label keys "
                f"{{{', '.join(sorted(fact.label_keys)) or 'no labels'}}} here "
                f"but with {'; '.join(others)}; merged snapshots would hold "
                "incompatible series under one name",
            )

    def _gauge_agg_conflicts(
        self, name: str, facts: List[MetricFact]
    ) -> Iterator[Finding]:
        gauges = [f for f in facts if f.kind == "gauge" and f.agg is not None]
        aggs = sorted({f.agg for f in gauges})
        if len(aggs) <= 1:
            return
        for fact in gauges:
            others = ", ".join(
                f"agg={f.agg!r} at {_site(f)}" for f in gauges if f.agg != fact.agg
            )
            yield self.finding(
                fact.path,
                fact.line,
                f"gauge {name!r} registered with agg={fact.agg!r} here but "
                f"{others}; snapshot merge needs one aggregation per name",
            )

    def _edge_conflicts(
        self, name: str, facts: List[MetricFact]
    ) -> Iterator[Finding]:
        hists = [f for f in facts if f.kind == "histogram" and f.edges is not None]
        edge_sets = {f.edges for f in hists}
        if len(edge_sets) <= 1:
            return
        for fact in hists:
            others = ", ".join(
                f"{f.edges} at {_site(f)}" for f in hists if f.edges != fact.edges
            )
            yield self.finding(
                fact.path,
                fact.line,
                f"histogram {name!r} registered with edges {fact.edges} here "
                f"but {others}; bucket merges require identical edges",
            )


# ----------------------------------------------------------------------
# SL013 — import cycles and the declared package DAG
# ----------------------------------------------------------------------

@register
class ImportGraphViolation(ProjectRule):
    """The whole-graph successor to SL006: no import-time module cycles,
    and every cross-package import must be an edge of the DAG declared
    in ``[tool.simlint.layers]`` (pyproject.toml)."""

    id = "SL013"
    title = "import cycle or undeclared cross-package import"
    rationale = (
        "SL006 bans a fixed list of upward imports per file; SL013 checks "
        "the whole graph.  Import-time module cycles make module "
        "initialization order-dependent (and pickling from worker "
        "processes fragile), so they are banned outright — break one with "
        "a deferred (function-scope) import, the sanctioned idiom already "
        "used for the runtime/experiment inversion.  Cross-package edges "
        "must appear in the [tool.simlint.layers] DAG, so adding a "
        "dependency between subsystems is a reviewable pyproject.toml "
        "diff, not an accident.  Deferred imports are exempt from the DAG "
        "(they cannot create import-time cycles); SL006 still polices the "
        "always-banned upward ones."
    )

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        yield from self._cycles(index)
        yield from self._dag(index)

    # -- cycle detection (top-level runtime imports only) ---------------

    def _cycles(self, index: ProjectIndex) -> Iterator[Finding]:
        graph = index.import_graph(top_level_only=True, include_type_only=False)
        for scc in _strongly_connected(graph):
            if len(scc) < 2:
                continue
            members = sorted(scc)
            anchor = members[0]
            target = next(t for t in graph[anchor] if t in scc)
            line = index.import_line(anchor, target)
            yield self.finding(
                index.modules[anchor].path,
                line,
                "import cycle at module import time: "
                + " <-> ".join(members)
                + "; defer one import into the function that needs it",
            )

    # -- declared package DAG -------------------------------------------

    def _dag(self, index: ProjectIndex) -> Iterator[Finding]:
        layers = index.config.layers
        if layers is None:
            return  # no [tool.simlint.layers] table: DAG check disabled
        pyproject = index.config.pyproject_path or "pyproject.toml"
        cycle = _declared_cycle(layers)
        if cycle:
            yield self.finding(
                pyproject,
                1,
                "[tool.simlint.layers] declares a cyclic DAG: "
                + " -> ".join(cycle),
            )
            return
        for (src, dst), facts in sorted(index.package_edges().items()):
            allowed = layers.get(src)
            fact = facts[0]
            if allowed is None:
                yield self.finding(
                    index.modules[fact.module].path,
                    fact.line,
                    f"package {src!r} imports {dst!r} but has no entry in "
                    "[tool.simlint.layers]; declare its allowed imports",
                )
            elif dst not in allowed:
                for fact in facts:
                    yield self.finding(
                        index.modules[fact.module].path,
                        fact.line,
                        f"package {src!r} imports {dst!r}, not an edge of "
                        "the [tool.simlint.layers] DAG; declare it there "
                        "or invert the dependency",
                    )


def _strongly_connected(graph: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan's SCCs, iterative (deterministic order, no recursion cap)."""
    index_of: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in sorted(graph):
        if root in index_of:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = graph.get(node, [])
            for position in range(child_index, len(children)):
                child = children[position]
                if child not in index_of:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if advanced:
                continue
            if low[node] == index_of[node]:
                scc: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def _declared_cycle(layers: Dict[str, Tuple[str, ...]]) -> Optional[List[str]]:
    """A cycle in the declared DAG itself, or None if it is acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {name: WHITE for name in layers}
    trail: List[str] = []

    def visit(node: str) -> Optional[List[str]]:
        color[node] = GREY
        trail.append(node)
        for succ in layers.get(node, ()):
            if color.get(succ, BLACK) == GREY:
                return trail[trail.index(succ):] + [succ]
            if color.get(succ) == WHITE:
                found = visit(succ)
                if found:
                    return found
        trail.pop()
        color[node] = BLACK
        return None

    for name in sorted(layers):
        if color[name] == WHITE:
            found = visit(name)
            if found:
                return found
    return None


# ----------------------------------------------------------------------
# SL014 — unit-suffix mismatches at call sites
# ----------------------------------------------------------------------

@register
class UnitSuffixMismatch(ProjectRule):
    """A seconds value flowing into a meters parameter type-checks,
    runs, and is wrong for fifty simulated years."""

    id = "SL014"
    title = "unit-suffixed argument mismatches the parameter's unit"
    rationale = (
        "All state is kept in SI base units and the suffix convention "
        "(_s seconds, _m meters, _j joules, _w watts) is the only place "
        "the unit is written down — Python will happily pass airtime_s "
        "where a distance_m is expected.  With the whole-program symbol "
        "table, the suffix at the call site can be checked against the "
        "suffix in the public sim-layer signature it feeds."
    )

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        table = self._public_sim_functions(index)
        for info in index.infos():
            for call in info.calls:
                yield from self._check_call(call, table, index)

    def _public_sim_functions(
        self, index: ProjectIndex
    ) -> Dict[str, List[FunctionFact]]:
        table: Dict[str, List[FunctionFact]] = {}
        for name, facts in index.functions_by_name().items():
            kept = [
                fact
                for fact in facts
                if fact.is_public
                and index.modules[fact.module].package in SIM_LAYERS
            ]
            if kept:
                table[name] = kept
        return table

    def _check_call(
        self,
        call: CallFact,
        table: Dict[str, List[FunctionFact]],
        index: ProjectIndex,
    ) -> Iterator[Finding]:
        candidates = table.get(call.callee)
        if not candidates:
            return
        if not call.is_attribute and call.resolved and "." in call.resolved:
            # `module.func(...)` / `from x import func` — narrow to the
            # module the import map names, when it is indexed.
            narrowed = [
                fact
                for fact in candidates
                if call.resolved in (fact.name, f"{fact.module}.{fact.name}")
            ]
            if narrowed:
                candidates = narrowed
        for position, arg_name in enumerate(call.positional):
            arg_unit = unit_suffix(arg_name)
            if arg_unit is None:
                continue
            verdicts = [
                self._positional_mismatch(fact, position, arg_unit)
                for fact in candidates
            ]
            # Flag only when *every* plausible callee disagrees with the
            # argument's unit — name collisions stay silent.
            if verdicts and all(v is not None for v in verdicts):
                param = verdicts[0]
                yield self.finding(
                    call.path,
                    call.line,
                    f"{call.callee}() argument {position + 1} is "
                    f"{arg_name!r} (unit '_{arg_unit}') but the parameter "
                    f"is {param!r} — mismatched unit suffix",
                )
        for kw_name, value_name in call.keywords:
            kw_unit = unit_suffix(kw_name)
            value_unit = unit_suffix(value_name)
            if kw_unit is None or value_unit is None or kw_unit == value_unit:
                continue
            if any(
                kw_name in fact.params or kw_name in fact.kwonly
                for fact in candidates
            ):
                yield self.finding(
                    call.path,
                    call.line,
                    f"{call.callee}(..., {kw_name}={value_name}) passes a "
                    f"'_{value_unit}' value into a '_{kw_unit}' parameter "
                    "— mismatched unit suffix",
                )

    @staticmethod
    def _positional_mismatch(
        fact: FunctionFact, position: int, arg_unit: str
    ) -> Optional[str]:
        """The conflicting parameter name, or None if compatible."""
        if position >= len(fact.params):
            return None
        param = fact.params[position]
        param_unit = unit_suffix(param)
        if param_unit is None or param_unit == arg_unit:
            return None
        return param


def project_catalog() -> Sequence[Tuple[str, str, str]]:
    """(id, title, rationale) for every project rule, in order."""
    return [(rule.id, rule.title, rule.rationale) for rule in PROJECT_RULES]


def lint_project(paths) -> List[Finding]:
    """Build a :class:`ProjectIndex` over ``paths`` and run SL010–SL014.

    Suppressions are honored exactly as in the per-file pass: an
    ``# simlint: ignore[SL011]`` pragma on the finding's line (in the
    file the finding points at) silences it.
    """
    index = ProjectIndex.build(paths)
    return lint_index(index)


def lint_index(index: ProjectIndex) -> List[Finding]:
    """Run every project rule over an already-built index."""
    path_to_info = {info.path: info for info in index.infos()}
    findings: List[Finding] = []
    for rule in PROJECT_RULES:
        for finding in rule.check(index):
            info = path_to_info.get(finding.path)
            if info is not None and info.is_suppressed(finding.line, finding.rule):
                continue
            findings.append(finding)
    return sorted(set(findings))
