#!/usr/bin/env python
"""CI smoke for the multi-tenant service: chaos loadgen + cold restart.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [--out DIR]

Two acts, mirroring the ISSUE 7 acceptance criteria:

1. **Chaos campaign** -- ``repro.service.loadgen`` drives mixed-tenant
   traffic (4 tenants, 2 shards), SIGKILLs one worker mid-run, restarts
   it, and verifies every acknowledged write against the client-side
   shadow.  Any silent data corruption fails the job.
2. **Cold restart** -- a *fresh* supervisor is started over the same
   on-disk root (as after a host reboot).  Every shard must come back
   healthy with a verified recovery for each tenant it owns, and its
   ``/metrics`` and ``/health`` endpoints are scraped into the artifact
   directory for inspection.

Artifacts written to ``--out``: ``BENCH_service.json`` (throughput +
p50/p99 + per-tenant verification), ``shard-N.metrics.json`` and
``shard-N.health.json`` per shard.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile

from repro.harness.reporting import dump_json
from repro.service.endpoints import scrape
from repro.service.loadgen import LoadgenSpec, run_loadgen
from repro.service.server import ServiceSupervisor


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="service-smoke",
                        help="artifact directory")
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--ops", type=int, default=150)
    parser.add_argument("--kill-shard", type=int, default=0)
    args = parser.parse_args(argv)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = LoadgenSpec(
        tenants=args.tenants, shards=args.shards,
        ops_per_tenant=args.ops, region_kb=8,
        kill_shard=args.kill_shard,
    )

    # The service root lives in /tmp, not the artifact dir: AF_UNIX
    # socket paths are limited to ~104 bytes and CI workspaces are deep.
    with tempfile.TemporaryDirectory(prefix="svc-smoke-") as root:
        report = run_loadgen(spec, root)
        dump_json(report.to_json(), out / "BENCH_service.json")
        print(report.format_summary())
        if not report.ok:
            print("service_smoke: FAIL: shadow verification found "
                  "corruption", file=sys.stderr)
            return 1
        if not report.to_json()["results"]["kill_events"]:
            print("service_smoke: FAIL: chaos kill never fired",
                  file=sys.stderr)
            return 1

        # Act two: cold restart over the same root.
        supervisor = ServiceSupervisor(root, num_shards=spec.shards,
                                       secret_seed=spec.secret_seed)
        supervisor.start()
        try:
            supervisor.wait_ready()
            failures = []
            recovered = 0
            for shard in range(spec.shards):
                http = str(supervisor.router.http_socket_path(shard))
                health = scrape(http, "/health")
                metrics = scrape(http, "/metrics")
                dump_json(health, out / f"shard-{shard}.health.json")
                dump_json(metrics, out / f"shard-{shard}.metrics.json")
                recovery = health.get("recovery", {})
                recovered += recovery.get("recovered", 0)
                print(
                    f"service_smoke: shard {shard} status="
                    f"{health['status']} recovered="
                    f"{recovery.get('recovered')} "
                    f"verified={recovery.get('all_verified')}"
                )
                if health["status"] != "ok":
                    failures.append(f"shard {shard} unhealthy")
                if not recovery.get("all_verified"):
                    failures.append(
                        f"shard {shard} recovery not verified"
                    )
            if recovered != spec.tenants:
                failures.append(
                    f"recovered {recovered} tenants, "
                    f"expected {spec.tenants}"
                )
        finally:
            supervisor.stop()

    for failure in failures:
        print(f"service_smoke: FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("service_smoke: PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
