"""Effect-parity rule pack (RPLY001-RPLY002 rebuilt, EFF001-EFF004).

A session-replay cache hit (:mod:`repro.sim.replay`) or an analytic
injection (:mod:`repro.sim.analytic`) never drives the TCP stack, so
every side effect a simulated session leaves on the session path —
``tcp/``, ``services/``, ``measure/`` — must be replicated explicitly
by the fast-path managers.  The contract is recorded in
``sim/replay/effects.py`` as the ``REPLICATED_EFFECTS`` allowlist,
which is now a **generated artifact**: ``python -m repro.lint src
--emit-effects`` rewrites it from the derived effect closures, and CI
fails if the checked-in copy is stale.

The first two rules keep code and contract in sync syntactically, as
before, but their effect sites now come from the shared
:mod:`repro.lint.effectflow` extraction (so ``port.allocate()`` on a
port-pool receiver and ``reserve_port()`` compare equal):

* RPLY001 — a session-path effect site whose signature is not
  allowlisted (a new ground-truth log or registry write that a fast
  path would silently drop);
* RPLY002 — an allowlist entry matching no session-path site (a stale
  contract that would mask a future RPLY001).

The EFF rules close the interprocedural gap the syntactic pair cannot
see — an effect hidden one helper call away from the manager:

* EFF001 — a session-path effect signature missing from the effect
  *closure* of a replication root (``SessionReplayManager._replay``,
  the one injector of both fast paths): the fast path genuinely does
  not reproduce it, wherever the replication would have been buried;
* EFF002 — an effect performed by a replication root's module that is
  neither part of the derived session contract nor delegated to
  session-path code: over-replication that fabricates ground truth the
  packet path never wrote;
* EFF003 — one obs metric name written with conflicting ``sim``/
  ``host`` scopes across the session path and the replication
  closures, which silently splits one counter into two;
* EFF004 — the checked-in ``REPLICATED_EFFECTS`` differs from the
  derived allowlist: regenerate with ``--emit-effects``.

Constructor bodies (``__init__``) are exempt from *site* collection —
effects there are topology setup that happens before any session
exists — but still contribute to closures.  All rules stand down when
the linted file set has no allowlist module, and the EFF rules
additionally stand down when it has no replication roots or no
session-path modules (linting ``tests/`` alone must not light up).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.effectflow import (
    EffectAnalysis,
    EffectSite,
    PARITY_KINDS,
    is_session_module,
    replication_roots,
    shared_effects,
)
from repro.lint.framework import register
from repro.lint.project import (
    FunctionFacts,
    ModuleFacts,
    ProjectContext,
    ProjectRule,
)

#: Module-level constant the fast paths declare their contract in.
ALLOWLIST_NAME = "REPLICATED_EFFECTS"

#: Command that regenerates the allowlist artifact.
EMIT_COMMAND = "python -m repro.lint src --emit-effects"


def _find_allowlist(project: ProjectContext
                    ) -> Optional[Tuple[str, int, List[str]]]:
    for module in sorted(project.modules):
        facts = project.modules[module]
        if "replay" not in str(facts.path).replace("\\", "/"):
            continue
        if ALLOWLIST_NAME in facts.module_constants:
            line, strings = facts.module_constants[ALLOWLIST_NAME]
            return str(facts.path), line, list(strings)
    return None


def _parity_sites(analysis: EffectAnalysis, qualname: str
                  ) -> List[EffectSite]:
    """Parity-kind effect sites of one function, [] for ``__init__``."""
    _facts, fn = analysis.project.functions[qualname]
    if fn.name == "__init__":
        return []
    return [site for site in analysis.sites.get(qualname, ())
            if site.effect[0] in PARITY_KINDS]


def _session_sites(analysis: EffectAnalysis
                   ) -> List[Tuple[ModuleFacts, FunctionFacts,
                                   EffectSite]]:
    """Every parity site in session-path modules, in stable order."""
    out = []
    for qualname in sorted(analysis.sites):
        facts, fn = analysis.project.functions[qualname]
        if not is_session_module(facts):
            continue
        for site in _parity_sites(analysis, qualname):
            out.append((facts, fn, site))
    out.sort(key=lambda item: (str(item[0].path), item[2].line,
                               item[2].effect[1]))
    return out


def derive_allowlist(project: ProjectContext,
                     analysis: Optional[EffectAnalysis] = None
                     ) -> List[str]:
    """The allowlist the checked-in artifact must equal.

    A signature belongs iff (a) every replication root's effect closure
    contains it — both fast paths replicate it — and (b) at least one
    session-path site performs it — it is real packet-path ground
    truth, not replication machinery.
    """
    if analysis is None:
        analysis = shared_effects(project)
    roots = replication_roots(project)
    if not roots:
        return []
    common: Optional[Set[str]] = None
    for root in roots:
        sigs = {effect[1] for effect in analysis.closure(root)
                if effect[0] in PARITY_KINDS}
        common = sigs if common is None else (common & sigs)
    session = {site.effect[1]
               for _facts, _fn, site in _session_sites(analysis)}
    return sorted((common or set()) & session)


def allowlist_site_index(analysis: EffectAnalysis
                         ) -> Dict[str, List[str]]:
    """signature -> sorted session-path module paths performing it."""
    index: Dict[str, Set[str]] = {}
    for facts, _fn, site in _session_sites(analysis):
        index.setdefault(site.effect[1], set()).add(str(facts.path))
    return {sig: sorted(paths) for sig, paths in index.items()}


def render_effects_module(derived: Iterable[str],
                          site_index: Dict[str, List[str]]) -> str:
    """Source text of the generated ``sim/replay/effects.py``."""
    lines = [
        '"""Replicated-effects contract for the session fast paths.',
        "",
        "GENERATED FILE - do not edit by hand.  Regenerate with::",
        "",
        "    %s" % EMIT_COMMAND,
        "",
        "A replay hit (:mod:`repro.sim.replay`) or analytic injection",
        "(:mod:`repro.sim.analytic`) never drives :mod:`repro.tcp`",
        "packet-by-packet, so every side effect a simulated session",
        "leaves behind must be replicated explicitly by the session",
        "executor's one injector.  The signatures below are derived by",
        ":mod:`repro.lint.effectflow` as the intersection of the",
        "replication roots' effect closures, restricted to signatures",
        "with at least one session-path site; the EFF004 simlint rule",
        "fails when this file no longer matches the derivation, and",
        "EFF001 names any session-path effect the closures miss.",
        "",
        'Signature syntax: a bare name means "a call to a method of',
        'that name" (``register_keywords``); a trailing ``[]`` means "a',
        'subscript store into an attribute of that name"',
        "(``fetch_log[]``).",
        '"""',
        "",
        "from __future__ import annotations",
        "",
        "#: Session-path effect signatures replicated on a fast-path",
        "#: hit, with the module(s) performing each one.",
        "REPLICATED_EFFECTS = (",
    ]
    for signature in derived:
        for path in site_index.get(signature, []):
            lines.append("    # %s" % path)
        lines.append('    "%s",' % signature)
    lines.append(")")
    return "\n".join(lines) + "\n"


@register
class UnreplicatedEffectRule(ProjectRule):
    id = "RPLY001"
    name = "unreplicated-effect"
    severity = "error"
    description = ("Session-path side effect not in the replicated-"
                   "effects allowlist; a replay hit would silently "
                   "drop it.")
    scope = "project"

    def check(self, project: ProjectContext) -> None:
        allowlist = _find_allowlist(project)
        if allowlist is None:
            return
        _path, _line, allowed = allowlist
        analysis = shared_effects(project)
        for facts, _fn, site in _session_sites(analysis):
            signature = site.effect[1]
            if signature in allowed:
                continue
            self.report(
                facts.path, site.line,
                "session-path side effect %r is not in "
                "REPLICATED_EFFECTS; a replay hit will not "
                "reproduce it — replicate it in the replay manager "
                "and regenerate sim/replay/effects.py (%s)"
                % (signature, EMIT_COMMAND))


@register
class StaleAllowlistRule(ProjectRule):
    id = "RPLY002"
    name = "stale-allowlist"
    severity = "error"
    description = ("REPLICATED_EFFECTS entry matches no session-path "
                   "code; stale entries mask future unreplicated "
                   "effects.")
    scope = "project"

    def check(self, project: ProjectContext) -> None:
        allowlist = _find_allowlist(project)
        if allowlist is None:
            return
        path, line, allowed = allowlist
        analysis = shared_effects(project)
        session_modules = sum(
            1 for facts in project.modules.values()
            if is_session_module(facts))
        if session_modules == 0:
            return  # partial lint: nothing to compare against
        observed = {site.effect[1]
                    for _facts, _fn, site in _session_sites(analysis)}
        for entry in allowed:
            if entry not in observed:
                self.report(
                    path, line,
                    "REPLICATED_EFFECTS entry %r matches no effect "
                    "site in the linted session-path modules; "
                    "regenerate the artifact (%s) or restore the "
                    "effect it documented" % (entry, EMIT_COMMAND))


class _EffRule(ProjectRule):
    """Shared stand-down logic for the closure-parity rules."""

    scope = "project"

    def check(self, project: ProjectContext) -> None:
        roots = replication_roots(project)
        if not roots:
            return
        analysis = shared_effects(project)
        if not any(is_session_module(facts)
                   for facts in project.modules.values()):
            return
        self.check_effects(project, analysis, roots)

    def check_effects(self, project: ProjectContext,
                      analysis: EffectAnalysis,
                      roots: List[str]) -> None:
        raise NotImplementedError


@register
class MissingReplicationRule(_EffRule):
    id = "EFF001"
    name = "missing-replication"
    severity = "error"
    description = ("Session-path effect signature absent from a "
                   "replication root's derived effect closure; the "
                   "fast path does not reproduce it.")

    def check_effects(self, project: ProjectContext,
                      analysis: EffectAnalysis,
                      roots: List[str]) -> None:
        closures = {
            root: {effect[1] for effect in analysis.closure(root)
                   if effect[0] in PARITY_KINDS}
            for root in roots}
        for facts, _fn, site in _session_sites(analysis):
            signature = site.effect[1]
            missing = [root for root in roots
                       if signature not in closures[root]]
            if not missing:
                continue
            self.report(
                facts.path, site.line,
                "session-path effect %r is missing from the derived "
                "effect closure of %s; a fast-path hit would not "
                "reproduce it — replicate it there and regenerate "
                "sim/replay/effects.py (%s)"
                % (signature,
                   " and ".join(_short(root) for root in missing),
                   EMIT_COMMAND))


@register
class OverReplicationRule(_EffRule):
    id = "EFF002"
    name = "over-replication"
    severity = "error"
    description = ("Replication-root module performs an effect outside "
                   "the derived session contract; a fast-path hit "
                   "fabricates ground truth the packet path never "
                   "wrote.")

    def check_effects(self, project: ProjectContext,
                      analysis: EffectAnalysis,
                      roots: List[str]) -> None:
        derived = set(derive_allowlist(project, analysis))
        root_modules = {analysis.project.functions[root][0].module
                        for root in roots}
        for qualname in sorted(analysis.sites):
            facts, fn = project.functions[qualname]
            if facts.module not in root_modules:
                continue
            for site in _parity_sites(analysis, qualname):
                signature = site.effect[1]
                if signature in derived:
                    continue
                if self._delegates_to_session(project, facts, fn, site):
                    continue
                self.report(
                    facts.path, site.line,
                    "replication-root effect %r is outside the derived "
                    "session-path contract; a fast-path hit would "
                    "fabricate ground truth the packet path never "
                    "wrote — remove it or add the session-path effect "
                    "it replicates" % signature)

    @staticmethod
    def _delegates_to_session(project: ProjectContext,
                              facts: ModuleFacts, fn: FunctionFacts,
                              site: EffectSite) -> bool:
        """True when the site is a call into session-path code — the
        *mechanism* of replication (``record_replayed_fetch``,
        ``capture.inject``), not an effect of its own."""
        for call in fn.calls:
            if call.line != site.line:
                continue
            for callee in project.resolve_call(facts, fn, call):
                callee_facts = project.functions[callee][0]
                if is_session_module(callee_facts):
                    return True
        return False


@register
class MetricScopeMismatchRule(_EffRule):
    id = "EFF003"
    name = "metric-scope-mismatch"
    severity = "error"
    description = ("One obs metric name written with conflicting "
                   "sim/host scopes across the session path and the "
                   "replication closures.")

    def check_effects(self, project: ProjectContext,
                      analysis: EffectAnalysis,
                      roots: List[str]) -> None:
        in_closure = set(analysis.reachable_from(roots))
        by_name: Dict[str, Dict[str, Tuple[str, int]]] = {}
        for qualname in sorted(analysis.sites):
            facts, fn = project.functions[qualname]
            relevant = (is_session_module(facts)
                        or qualname in in_closure)
            if not relevant or fn.name == "__init__":
                continue
            for site in analysis.sites[qualname]:
                kind, name, scope = site.effect
                if kind != "metric" or "*" in name \
                        or scope not in ("sim", "host"):
                    continue
                scopes = by_name.setdefault(name, {})
                where = (str(facts.path), site.line)
                if scope not in scopes or where < scopes[scope]:
                    scopes[scope] = where
        for name in sorted(by_name):
            scopes = by_name[name]
            if len(scopes) < 2:
                continue
            path, line = min(scopes.values())
            self.report(
                path, line,
                "obs metric %r is written with conflicting scopes "
                "(%s) across the session path and the replication "
                "closures; pick one scope or split the metric name"
                % (name, ", ".join("%s at %s:%d" % (s, p, l)
                                   for s, (p, l)
                                   in sorted(scopes.items()))))


@register
class StaleDerivedAllowlistRule(_EffRule):
    id = "EFF004"
    name = "stale-derived-allowlist"
    severity = "error"
    description = ("Checked-in REPLICATED_EFFECTS differs from the "
                   "derived allowlist; the generated artifact is "
                   "stale.")

    def check_effects(self, project: ProjectContext,
                      analysis: EffectAnalysis,
                      roots: List[str]) -> None:
        allowlist = _find_allowlist(project)
        if allowlist is None:
            return
        path, line, checked_in = allowlist
        derived = derive_allowlist(project, analysis)
        if sorted(checked_in) == derived:
            return
        missing = sorted(set(derived) - set(checked_in))
        extra = sorted(set(checked_in) - set(derived))
        detail = "; ".join(part for part in (
            ("missing %s" % ", ".join(repr(s) for s in missing))
            if missing else "",
            ("stale %s" % ", ".join(repr(s) for s in extra))
            if extra else "") if part)
        self.report(
            path, line,
            "REPLICATED_EFFECTS is stale against the derived "
            "session-path contract (%s); regenerate with `%s`"
            % (detail, EMIT_COMMAND))


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qualname
