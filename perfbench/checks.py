"""Output checks: pinned figure rows, simulated statistics, serve tenant tables.

The model has no hardware reference, so correctness here means "the same
outputs as the pinned reference", not accuracy against a real machine.
"""

from __future__ import annotations

import hashlib
import json

#: Simulated statistics that must repeat exactly for identical inputs.
SIM_STATS = (
    "executor.accesses",
    "executor.misses",
    "executor.sim_seconds",
    "migration.bytes_committed",
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table_rows(rendered: str) -> list[str]:
    """The data rows of a ``Table.render()`` string, one per figure cell."""
    lines = rendered.splitlines()
    rule = next(i for i, line in enumerate(lines) if line and set(line) == {"-"})
    return [line for line in lines[rule + 1:] if not line.startswith("note: ")]


def failed_cells(rendered: str | None, reference: dict) -> int:
    """Cells of one figure whose row differs from the pinned row.

    ``reference`` holds the pinned ``sha256`` of the whole rendering and its
    ``rows``.  A figure that raised (``rendered is None``) fails every cell.
    Extra or missing rows count as failed cells too.
    """
    expected = reference["rows"]
    if rendered is None:
        return len(expected)
    if sha256(rendered) == reference["sha256"]:
        return 0
    got = table_rows(rendered)
    failed = sum(1 for a, b in zip(got, expected) if a != b)
    failed += abs(len(got) - len(expected))
    # A changed title or note with identical rows is still a mismatch.
    return max(failed, 1)


def sim_stats(counters: dict) -> dict:
    return {name: counters.get(name, 0.0) for name in SIM_STATS}


def canonical_tenant_table(table: list[dict]) -> str:
    """The VA-independent tenant table as one comparable JSON string."""
    return json.dumps(
        [
            {
                "name": t["name"],
                "app": t.get("app"),
                "phase": t.get("phase", 0),
                "placements": t["placements"],
            }
            for t in table
        ],
        sort_keys=True,
    )


def expected_tenants(jobs) -> dict[str, dict]:
    """Which tenants an arrival trace leaves resident, with app and phase.

    Computed from the trace alone, as an oracle for the served table.
    """
    live: dict[str, dict] = {}
    for job in jobs:
        if job.op == "admit":
            live[job.tenant] = {"app": job.app.to_json(), "phase": 0}
        elif job.op == "phase-change":
            live[job.tenant]["phase"] += 1
        elif job.op == "depart":
            live.pop(job.tenant)
    return live


def tenant_table_mismatches(table: list[dict], jobs) -> int:
    """Resident tenants whose name, app or phase the trace does not predict."""
    expected = expected_tenants(jobs)
    got = {t["name"]: {"app": t.get("app"), "phase": t.get("phase", 0)} for t in table}
    names = set(expected) | set(got)
    return sum(1 for name in names if expected.get(name) != got.get(name))
