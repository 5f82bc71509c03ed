#!/usr/bin/env python
"""Fail on any definition in ``src/repro`` that nothing else names.

An AST scan: every module-level function and class, and every method of
a module-level class, is a definition; a reference is a name load
(``foo``), an attribute access (``x.foo``) or a duck-typed lookup
(``getattr(x, "foo", ...)`` / ``hasattr(x, "foo")``) anywhere in
``src/``, ``examples/``, ``scripts/``, ``benchmarks/`` or ``ledger/``,
outside the definition's own body.  Imports, ``__all__`` strings, comments and
docstrings are not references, so a re-export or a doc cross-reference
does not keep a definition alive.  Tests are not callers either: a
definition only a test names is the test's subject, not the program's.

Exempt by shape: ``handle_*`` (the network dispatches on the message
class name), dunders, and ``cmd_*`` (the CLI dispatches on the
sub-command name).  Anything else kept without a caller goes in
:data:`ALLOWED`, with its reason.

Usage::

    python scripts/check_orphans.py          # exit 1 and list orphans

``make lint`` runs it.
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "repro")
CALLER_DIRS = ("src", "examples", "scripts", "benchmarks", "ledger")

#: Definitions kept without a caller in the scanned trees, and why, keyed
#: ``relpath:Qualname`` so each entry names exactly one definition.
ALLOWED = {
    # Query APIs the tests read the program through.
    "src/repro/workloads/open_loop.py:OpenLoopWorkload.rate_at":
        "open-loop step table: the rate at time t",
    "src/repro/workloads/open_loop.py:OpenLoopWorkload.next_change":
        "open-loop step table: the next rate boundary after t",
    "src/repro/tree/topology.py:TreeConfiguration.from_layout":
        "TreeConfiguration from a layout with the paper's branch factor",
    "src/repro/core/log.py:AppendOnlyLog.entries_of_type":
        "the log's per-type query, served from its type index",
    "src/repro/metrics/runmetrics.py:MetricsSketch.error_bound":
        "the histogram sketch's documented relative-error bound",
    "src/repro/core/timeouts.py:PbftTimeouts.round_duration":
        "PBFT's d_rnd (Appendix C), Aware's score",
    "src/repro/tree/score.py:TreeTimeouts.round_duration":
        "the tree's d_rnd (Appendix C, TR3)",
    "src/repro/tree/score.py:TreeTimeouts.expected_messages":
        "the tree round's expected messages with their d_m",
    "src/repro/core/roundplan.py:RoundPlan.expected_messages":
        "a round plan's expected messages with their d_m, decoded",
    "src/repro/sim/network.py:NetworkStats.per_type_bytes":
        "the network's byte ledger per message type",
    # Called by machinery rather than by name.
    "src/repro/experiments/checkpoint.py:_CheckpointPickler.reducer_override":
        "pickle.Pickler hook: pickle calls it for the checkpoint writer",
    "src/repro/sim/engine.py:Simulator.post":
        "the engine's no-handle event push that Network's delivery inlines",
    "src/repro/crypto/signatures.py:KeyRegistry.forge":
        "the one way to make a signature every verifier rejects",
    # Held for an open ROADMAP item that wires or deletes them.
    "src/repro/tree/optitree.py:OptiTree":
        "the per-replica OptiTree stack (ROADMAP item 2(b))",
    "src/repro/core/misbehavior.py:MisbehaviorSensor.complain":
        "MisbehaviorSensor's input (ROADMAP item 2(e): feed or delete)",
    "src/repro/core/misbehavior.py:InvalidSignatureProof":
        "a MisbehaviorSensor proof (ROADMAP item 2(e))",
    "src/repro/core/misbehavior.py:IncompleteAggregateProof":
        "a MisbehaviorSensor proof (ROADMAP item 2(e))",
}


def _python_files(directory):
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _definitions(tree):
    """``(qualname, node)`` for every scanned definition of one module."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds):
                    yield f"{node.name}.{member.name}", member


def _exempt(name):
    return name.startswith(("handle_", "cmd_")) or (
        name.startswith("__") and name.endswith("__")
    )


def find_orphans(root=ROOT, allowed=ALLOWED):
    """``(orphans, stale)`` for the tree at ``root``.

    ``orphans`` lists ``path:line: Qualname`` for each definition in
    ``src/repro`` with no caller that is neither exempt nor in
    ``allowed``; ``stale`` lists the ``allowed`` keys
    (``relpath:Qualname``, ``/``-separated) that gained a caller or no
    longer name a definition.
    """
    references = {}  # name -> [(path, line)]
    trees = {}
    for directory in CALLER_DIRS:
        for path in _python_files(os.path.join(root, directory)):
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            trees[path] = tree
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)
                ):
                    name = node.args[1].value
                else:
                    continue
                references.setdefault(name, []).append((path, node.lineno))

    orphans = []
    allowed_orphans = set()
    package = os.path.join(root, PACKAGE)
    for path, tree in sorted(trees.items()):
        if not path.startswith(package + os.sep):
            continue
        relpath = os.path.relpath(path, root)
        for qualname, node in _definitions(tree):
            if _exempt(node.name):
                continue
            uses = [
                (where, line)
                for where, line in references.get(node.name, ())
                if not (where == path and node.lineno <= line <= node.end_lineno)
            ]
            if uses:
                continue
            key = f"{relpath.replace(os.sep, '/')}:{qualname}"
            if key in allowed:
                allowed_orphans.add(key)
            else:
                orphans.append(f"{relpath}:{node.lineno}: {qualname}")
    # An entry whose definition gained a caller or went away is stale.
    stale = sorted(set(allowed) - allowed_orphans)
    return orphans, stale


def main():
    orphans, stale = find_orphans()
    for orphan in orphans:
        print(f"orphan: {orphan}")
    for key in stale:
        print(f"stale allowlist entry (has a caller, or no definition): {key}")
    if orphans or stale:
        print(
            f"{len(orphans)} orphan(s) in {PACKAGE}, {len(stale)} stale allowlist "
            f"entr(ies): give each orphan a caller in {', '.join(CALLER_DIRS)}, "
            f"delete it with its tests, or allow it in ALLOWED with a reason"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
