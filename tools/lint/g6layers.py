#!/usr/bin/env python3
"""g6layers — the architecture's layer graph, enforced from #include edges.

The repo is layered (docs/STATIC_ANALYSIS.md, "Layer graph"): util at the
bottom, the observability and execution runtimes above it, the physics
and hardware emulation in the middle, the serving layer and the core
facade on top. Each layer may include only the layers listed for it in
ALLOWED below — the declared DAG. Anything else is a back-edge: a lower
layer reaching up (util including obs), a lateral reach between siblings
(tree including grape), or an application layer bypassing the core
facade. Back-edges are how layer graphs rot into balls of mud, so they
fail the build here, not in review.

Additionally, the serving layer's scheduling internals (job_queue.hpp,
scheduler.hpp, partition.hpp, admission.hpp, job.hpp) are private to
src/serve/ even though `serve` is an includable layer: clients use the
public surface (serve/serve.hpp, serve/types.hpp, ...). This is the
include half of g6lint's serve-isolation rule, generalized: the layer
checker sees every include edge anyway, so it owns the boundary.

A file's layer is its first path segment under src/ (src/grape/... is
layer "grape"); tools/, bench/ and examples/ are layers of their own.
tests/ are exempt (white-box tests reach anywhere). Only quoted
repo-relative includes are edges; system headers are not.

Suppressing an edge requires a reason, same contract as g6lint:

    #include "grape/pipeline.hpp"  // g6layers: allow -- why this edge is ok

The tool self-checks: if ALLOWED itself ever acquires a cycle, that is a
config error (exit 2) — the declared graph must stay a DAG for the
layering to mean anything.

Exit status: 0 clean, 1 findings, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# --------------------------------------------------------------------------
# The declared DAG. Key = layer, value = layers it may include (its own
# layer is always allowed). Listed bottom-up; a layer may only ever
# depend downward. Edit this table together with docs/STATIC_ANALYSIS.md.
# --------------------------------------------------------------------------

ALLOWED: dict[str, set[str]] = {
    # foundations
    "util": set(),
    "obs": {"util"},
    "exec": {"obs", "util"},
    # physics + wire formats
    "nbody": {"util"},
    "net": {"obs", "util"},
    "hermite": {"exec", "nbody", "obs", "util"},
    # the host<->board data contract, then the machinery above it
    "hw": {"hermite", "obs", "util"},
    "fault": {"hw", "hermite", "net", "obs", "util"},
    "grape": {"exec", "fault", "hw", "hermite", "obs", "util"},
    "perf": {"grape", "hw", "hermite", "nbody", "net", "obs", "util"},
    "tree": {"exec", "hermite", "nbody", "obs", "util"},
    "parallel": {"exec", "fault", "grape", "hw", "hermite", "net", "obs",
                 "perf", "util"},
    "serve": {"exec", "fault", "grape", "hw", "hermite", "nbody", "obs",
              "util"},
    # remote serving: the socket front for serve (and the ONLY layer
    # allowed to touch raw socket primitives — g6lint raw-socket rule)
    "wire": {"exec", "nbody", "obs", "serve", "util"},
    # the facade: re-exports everything below
    "core": {"exec", "fault", "grape", "hw", "hermite", "nbody", "net",
             "obs", "parallel", "perf", "serve", "tree", "util", "wire"},
    # applications: the facade plus the cross-cutting foundations
    "tools": {"core", "obs", "util"},
    "bench": {"core", "obs", "util"},
    "examples": {"core", "obs", "util"},
}

# serve internals: includable from src/serve/ only (the include half of
# g6lint serve-isolation; type-name usage is still g6lint's half).
SERVE_INTERNAL_HEADERS = (
    "serve/job_queue.hpp",
    "serve/scheduler.hpp",
    "serve/partition.hpp",
    "serve/admission.hpp",
    "serve/job.hpp",
    "serve/journal.hpp",
)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+["<]([^">]+)[">]')
ALLOW_RE = re.compile(r"g6layers:\s*allow\s*(?:--\s*(.*))?")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def check_dag(findings_out: list[str]) -> bool:
    """The declared graph must be acyclic and closed over its own keys."""
    ok = True
    for layer, deps in ALLOWED.items():
        for d in deps:
            if d not in ALLOWED:
                findings_out.append(
                    f"ALLOWED['{layer}'] names unknown layer '{d}'")
                ok = False
    # Peel dependency-free layers repeatedly (Kahn); anything left after
    # no more can be peeled is a cycle.
    remaining = {k: set(v) & set(ALLOWED) for k, v in ALLOWED.items()}
    while remaining:
        leaves = [k for k, v in remaining.items() if not v]
        if not leaves:
            cyc = ", ".join(sorted(remaining))
            findings_out.append(
                f"declared layer graph has a cycle among: {cyc}")
            ok = False
            break
        for leaf in leaves:
            remaining.pop(leaf)
        for v in remaining.values():
            v.difference_update(leaves)
    return ok


def layer_of(relpath: str) -> str | None:
    parts = relpath.split("/")
    if parts[0] == "src":
        return parts[1] if len(parts) > 2 else None
    if parts[0] in ("tools", "bench", "examples"):
        return parts[0]
    return None


def comment_part(line: str) -> str:
    idx = line.find("//")
    return line[idx:] if idx != -1 else ""


def check_file(root: pathlib.Path, relpath: str,
               findings: list[Finding]) -> None:
    layer = layer_of(relpath)
    if layer is None:
        return
    in_serve = relpath.startswith("src/serve/")
    for lineno, raw in enumerate(
            (root / relpath).read_text(encoding="utf-8").split("\n"),
            start=1):
        m = INCLUDE_RE.match(raw)
        if not m:
            continue
        target = m.group(1)
        if not (root / "src" / target).is_file():
            continue  # system or third-party header: not a layer edge
        am = ALLOW_RE.search(comment_part(raw))
        if am:
            if not (am.group(1) and am.group(1).strip()):
                findings.append(Finding(
                    relpath, lineno, "suppression",
                    "g6layers suppression without a reason "
                    "(write: g6layers: allow -- why)"))
            else:
                continue
        if target in SERVE_INTERNAL_HEADERS and not in_serve:
            findings.append(Finding(
                relpath, lineno, "serve-internal",
                f"include of serving-layer internal header {target} "
                "outside src/serve/ — include serve/serve.hpp and go "
                "through GrapeService / ServeClient"))
            continue
        tlayer = target.split("/")[0]
        if tlayer == layer or tlayer in ALLOWED.get(layer, set()):
            continue
        findings.append(Finding(
            relpath, lineno, "back-edge",
            f"layer '{layer}' must not include layer '{tlayer}' "
            f"({target}) — allowed from '{layer}': "
            f"{', '.join(sorted(ALLOWED.get(layer, set()))) or '(nothing)'}"
            ". If the dependency is genuinely downward, move the shared "
            "type down; do not widen ALLOWED casually (g6layers.py + "
            "docs/STATIC_ANALYSIS.md change together)."))


def collect_targets(root: pathlib.Path) -> list[str]:
    targets = []
    for sub in ("src", "tools", "bench", "examples"):
        if not (root / sub).is_dir():
            continue
        for p in sorted((root / sub).rglob("*")):
            if p.suffix in (".hpp", ".cpp") and p.is_file():
                targets.append(str(p.relative_to(root)))
    return targets


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--dump-dag", action="store_true",
                    help="print the declared DAG (topological order) and exit")
    ap.add_argument("paths", nargs="*",
                    help="files to check (default: src/tools/bench/examples)")
    args = ap.parse_args()

    config_errors: list[str] = []
    if not check_dag(config_errors):
        for e in config_errors:
            print(f"g6layers: config error: {e}", file=sys.stderr)
        return 2

    if args.dump_dag:
        remaining = {k: set(v) for k, v in ALLOWED.items()}
        while remaining:
            leaves = sorted(k for k, v in remaining.items() if not v)
            print(" ".join(leaves))
            for leaf in leaves:
                remaining.pop(leaf)
            for v in remaining.values():
                v.difference_update(leaves)
        return 0

    root = pathlib.Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"g6layers: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    targets = args.paths or collect_targets(root)
    findings: list[Finding] = []
    for rel in targets:
        rp = pathlib.Path(rel)
        if rp.is_absolute():
            try:
                rel = str(rp.relative_to(root))
            except ValueError:
                print(f"g6layers: {rp} is outside the repo root {root}",
                      file=sys.stderr)
                return 2
        if not (root / rel).is_file():
            print(f"g6layers: no such file: {rel}", file=sys.stderr)
            return 2
        check_file(root, rel, findings)

    for f in findings:
        print(f)
    if findings:
        print(f"g6layers: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"g6layers: clean ({len(targets)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
