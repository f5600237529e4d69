#!/usr/bin/env python3
"""Guard the include surface of layering-sensitive headers.

Two kinds of rule, one per guarded header:

  * src/core/system.hpp -- the god-object decomposition pruned the public
    façade from 21 direct project includes down to 14: the engine, chip,
    simulator and mapper-impl headers moved behind forward declarations so
    façade consumers stop recompiling on every internal change. The check
    fails when the header grows past its budget or when one of the
    deliberately-hidden headers reappears.

  * src/sim/event_queue.hpp, src/sim/simulator.hpp -- the simulation
    substrate must stay below the architecture/engine layers: the queue
    holds (time, seq, callback, record) entries whose EventRecord is opaque
    to it, and neither header may reach up into arch/ or core/ headers. A
    forbidden *prefix* guards the whole subtree, so a new core/foo.hpp
    cannot slip in unnamed.

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
    header: str
    # Budget for direct project includes; carries one-include headroom over
    # the current count so a legitimately needed value-type header does not
    # require touching this file in the same PR. None = no budget.
    max_project_includes: int | None = None
    # Exact headers that must never be included. If one of these comes
    # back, incomplete-type firewalls are broken -- fix the code, do not
    # widen this list.
    forbidden: tuple[str, ...] = ()
    # Directory prefixes (e.g. "core/") that must never be included --
    # layering guards where the whole subtree is off limits.
    forbidden_prefixes: tuple[str, ...] = ()


RULES = (
    Rule(
        header="src/core/system.hpp",
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
    Rule(
        header="src/sim/event_queue.hpp",
        forbidden_prefixes=("arch/", "core/"),
    ),
    Rule(
        header="src/sim/simulator.hpp",
        forbidden_prefixes=("arch/", "core/"),
    ),
)

PROJECT_INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def check_rule(root: pathlib.Path, rule: Rule, errors: list[str]) -> str:
    header = root / rule.header
    if not header.is_file():
        errors.append(f"{header} not found")
        return ""

    includes = [
        m.group(1)
        for line in header.read_text(encoding="utf-8").splitlines()
        if (m := PROJECT_INCLUDE.match(line))
    ]

    budget = rule.max_project_includes
    if budget is not None and len(includes) > budget:
        listing = "\n".join(f"    {inc}" for inc in includes)
        errors.append(
            f"{rule.header} has {len(includes)} direct project includes "
            f"(budget: {budget}). Prefer a forward declaration "
            f"and an out-of-line accessor.\n{listing}"
        )
    for inc in includes:
        if inc in rule.forbidden:
            errors.append(
                f"{rule.header} includes {inc}, which must only be "
                f"forward-declared (see docs/architecture.md)."
            )
        for prefix in rule.forbidden_prefixes:
            if inc.startswith(prefix):
                errors.append(
                    f"{rule.header} includes {inc}: the {prefix} layer is "
                    f"above this header (see docs/hot_paths.md)."
                )

    if budget is not None:
        return f"{rule.header} OK ({len(includes)}/{budget} project includes)"
    return f"{rule.header} OK ({len(includes)} project includes)"


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
