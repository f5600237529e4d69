#!/usr/bin/env python3
"""Guard the include surface of layering-sensitive files.

Each rule names a glob of files (relative to the repository root) and what
they may not include:

  * src/core/system.hpp -- the god-object decomposition pruned the public
    façade from 21 direct project includes down to 14: the engine, chip,
    simulator and mapper-impl headers moved behind forward declarations so
    façade consumers stop recompiling on every internal change. The check
    fails when the header grows past its budget or when one of the
    deliberately-hidden headers reappears.

  * every header and source under src/sim/ -- the simulation substrate
    must stay below the architecture, telemetry and engine layers: the
    queue holds (time, seq, callback, record) entries whose EventRecord is
    opaque to it, the simulator holds no tracer (callers record events with
    explicit times), and mcs_sim links mcs_util alone, so no file may reach
    up into arch/, telemetry/ or core/ headers.

  * every header and source under the component layers (util, sim, arch,
    noc, power, thermal, aging, sbst, mapping, app, isa) -- the engines
    and the façade in core/ sit above them. Each stateful component saves
    and loads its own snapshot fields through the telemetry JSON codecs,
    so none of them needs a core/ header.

A forbidden *prefix* guards a whole subtree, so a new core/foo.hpp cannot
slip in unnamed.

Usage: check_includes.py [--root REPO_ROOT]
Exit code 0 on success, 1 on violation (with a per-violation message).
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import sys


@dataclasses.dataclass(frozen=True)
class Rule:
    # Glob of the guarded files, relative to the repository root; it must
    # match at least one file.
    files: str
    # Budget for direct project includes per file; carries one-include
    # headroom over the current count so a legitimately needed value-type
    # header does not require touching this file in the same PR. None = no
    # budget.
    max_project_includes: int | None = None
    # Exact headers that must never be included. If one of these comes
    # back, incomplete-type firewalls are broken -- fix the code, do not
    # widen this list.
    forbidden: tuple[str, ...] = ()
    # Directory prefixes (e.g. "core/") that must never be included --
    # layering guards where the whole subtree is off limits.
    forbidden_prefixes: tuple[str, ...] = ()


# The layers below core/: components, models and the simulation substrate.
COMPONENT_LAYERS = ("util", "sim", "arch", "noc", "power", "thermal",
                    "aging", "sbst", "mapping", "app", "isa")

# Layers above a component layer, besides core/, that it must not include.
EXTRA_FORBIDDEN_PREFIXES = {"sim": ("arch/", "telemetry/")}

RULES = (
    Rule(
        files="src/core/system.hpp",
        max_project_includes=15,
        forbidden=(
            "core/platform_engine.hpp",
            "core/workload_engine.hpp",
            "core/test_engine.hpp",
            "core/system_context.hpp",
            "core/system_observer.hpp",
            "arch/chip.hpp",
            "sim/simulator.hpp",
            "mapping/mapper.hpp",
            "telemetry/observer_adapter.hpp",
        ),
    ),
    *(Rule(files=f"src/{layer}/*.[ch]pp",
           forbidden_prefixes=("core/",
                               *EXTRA_FORBIDDEN_PREFIXES.get(layer, ())))
      for layer in COMPONENT_LAYERS),
)

PROJECT_INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def check_file(root: pathlib.Path, path: pathlib.Path, rule: Rule,
               errors: list[str]) -> int:
    name = path.relative_to(root).as_posix()
    includes = [
        m.group(1)
        for line in path.read_text(encoding="utf-8").splitlines()
        if (m := PROJECT_INCLUDE.match(line))
    ]

    budget = rule.max_project_includes
    if budget is not None and len(includes) > budget:
        listing = "\n".join(f"    {inc}" for inc in includes)
        errors.append(
            f"{name} has {len(includes)} direct project includes "
            f"(budget: {budget}). Prefer a forward declaration "
            f"and an out-of-line accessor.\n{listing}"
        )
    for inc in includes:
        if inc in rule.forbidden:
            errors.append(
                f"{name} includes {inc}, which must only be "
                f"forward-declared (see docs/architecture.md)."
            )
        for prefix in rule.forbidden_prefixes:
            if inc.startswith(prefix):
                errors.append(
                    f"{name} includes {inc}: the {prefix} layer is above "
                    f"this file (see docs/architecture.md)."
                )
    return len(includes)


def check_rule(root: pathlib.Path, rule: Rule, errors: list[str]) -> str:
    paths = sorted(p for p in root.glob(rule.files) if p.is_file())
    if not paths:
        errors.append(f"{root / rule.files} matches no file")
        return ""
    counts = [check_file(root, p, rule, errors) for p in paths]

    if len(paths) > 1:
        return f"{rule.files} OK ({len(paths)} files)"
    if rule.max_project_includes is not None:
        return (f"{rule.files} OK ({counts[0]}/{rule.max_project_includes} "
                f"project includes)")
    return f"{rule.files} OK ({counts[0]} project includes)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: parent of this script's directory)",
    )
    args = parser.parse_args()

    errors: list[str] = []
    summaries = [check_rule(args.root, rule, errors) for rule in RULES]

    if errors:
        for err in errors:
            print(f"check_includes: {err}", file=sys.stderr)
        return 1
    for summary in summaries:
        print(f"check_includes: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
