"""``python -m repro fleet``: run and inspect tenant fleets.

Subcommands:

* ``run``    build a synthetic fleet (or catalog-scenario tenants),
             run it across a worker pool, print per-tenant standings,
             and optionally write the ``fleet.json`` manifest +
             ``fleet.prom`` rollup + per-tenant stores to ``--out``.
* ``status`` read a previous run's ``fleet.json`` manifest back.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

__all__ = ["add_fleet_arguments", "run_fleet"]


def add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="fleet_command", required=True)

    run = sub.add_parser("run", help="run a tenant fleet across a worker pool")
    run.add_argument("--tenants", type=int, default=8, help="synthetic tenant count")
    run.add_argument("--nodes", type=int, default=20, help="nodes per tenant WAN")
    run.add_argument("--epochs", type=int, default=10, help="epochs per tenant")
    run.add_argument("--workers", type=int, default=2, help="worker processes")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--scenario",
        action="append",
        default=[],
        metavar="ID",
        help="add one catalog-scenario tenant (repeatable)",
    )
    run.add_argument(
        "--backend", choices=("python", "vector"), default="python",
        help="engine backend for every tenant",
    )
    run.add_argument(
        "--history", action="store_true",
        help="write per-tenant history stores (requires --out)",
    )
    run.add_argument(
        "--out", default="", metavar="DIR",
        help="write fleet.json, fleet.prom, and tenant stores here",
    )
    run.add_argument("--json", action="store_true", help="emit the manifest as JSON")
    run.set_defaults(fleet_func=_cmd_run)

    status = sub.add_parser("status", help="read a fleet run's manifest back")
    status.add_argument("out", help="directory a previous `fleet run --out` wrote")
    status.add_argument("--json", action="store_true", help="emit raw manifest JSON")
    status.set_defaults(fleet_func=_cmd_status)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import format_table
    from repro.fleet.spec import FleetConfig, TenantSpec, synthetic_fleet
    from repro.fleet.supervisor import FleetSupervisor

    if args.history and not args.out:
        print("--history requires --out DIR", file=sys.stderr)
        return 2
    specs: List[TenantSpec] = list(
        synthetic_fleet(
            args.tenants,
            nodes=args.nodes,
            epochs=args.epochs,
            seed=args.seed,
            backend=args.backend,
            history=args.history,
        )
    )
    for scenario_id in args.scenario:
        specs.append(
            TenantSpec(
                tenant=f"scenario-{scenario_id}",
                scenario=scenario_id,
                epochs=args.epochs,
                seed=args.seed,
                backend=args.backend,
                history=args.history,
            )
        )
    if not specs:
        print("nothing to run: --tenants 0 and no --scenario", file=sys.stderr)
        return 2
    store_dir = os.path.join(args.out, "stores") if args.history else None
    supervisor = FleetSupervisor(
        specs, FleetConfig(workers=args.workers, store_dir=store_dir)
    )
    result = supervisor.run()
    if args.out:
        manifest = result.write_manifest(args.out)
        print(f"wrote {manifest}", file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        rows = [
            [
                summary.tenant,
                summary.status,
                f"{summary.epochs_sealed}/{summary.epochs_streamed}",
                summary.updates,
                summary.shed_epochs,
                f"{summary.p99_latency_s() * 1000.0:.2f}",
                summary.reschedules,
            ]
            for summary in result.tenants.values()
        ]
        print(
            format_table(
                ["tenant", "status", "sealed", "updates", "shed", "p99 ms", "resched"],
                rows,
            )
        )
        print()
        statuses = ", ".join(
            f"{status}={count}" for status, count in sorted(result.statuses().items())
        )
        print(
            f"fleet: {len(result.tenants)} tenants on {result.workers} workers "
            f"({statuses}); {result.total_updates} updates, "
            f"{result.crashes} crashes recovered"
        )
    failed = sum(
        1 for s in result.tenants.values() if s.status not in ("done", "quarantined")
    )
    return 1 if failed else 0


def _cmd_status(args: argparse.Namespace) -> int:
    manifest = os.path.join(args.out, "fleet.json")
    try:
        with open(manifest, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        print(f"cannot read {manifest}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    from repro.experiments import format_table

    tenants = payload.get("tenants", {})
    rows = [
        [
            tenant,
            entry.get("status", "?"),
            f"{entry.get('epochs_sealed', 0)}/{entry.get('epochs_streamed', 0)}",
            entry.get("updates", 0),
            f"{float(entry.get('p99_latency_s', 0.0)) * 1000.0:.2f}",
            entry.get("reschedules", 0),
        ]
        for tenant, entry in sorted(tenants.items())
    ]
    print(
        format_table(
            ["tenant", "status", "sealed", "updates", "p99 ms", "resched"], rows
        )
    )
    statuses = payload.get("statuses", {})
    summary = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
    print()
    print(
        f"workers={payload.get('workers')} crashes={payload.get('crashes')} "
        f"updates={payload.get('total_updates')} ({summary})"
    )
    return 0


def run_fleet(args: argparse.Namespace) -> int:
    return args.fleet_func(args)
