#!/usr/bin/env bash
# Wall-clock bench runner: builds the default preset and runs the host-engine
# worker sweep plus the collectives, recovery, codec and preconditioner
# sections, writing BENCH_wallclock.json at the repo root. Extra arguments
# pass straight through to the bench binary (e.g. --matrix=cant --scale=1.0
# --ng=2); see `wallclock --help`.
#
#   --compare   after the run, gate on the scale_sweep and
#               node_kill_recovery sections: every sweep point must have
#               run, and partner checkpointing must beat the flat
#               host-checkpoint restart at every ng >= 16 shape present.
#               The hier_reduce section gates too: the hierarchical
#               two-stage fold must charge strictly less than the flat
#               per-device fold at every ng >= 16 shape, send at most one
#               inter-node message per node per reduction, and match the
#               flat results bitwise. The compress section gates on every
#               coded run shipping strictly fewer net bytes than the
#               uncoded one while staying within the convergence health
#               budget (a coded run may not unconverge a converging shape).
#               The precond section gates on the ILU(k) subsystem earning
#               its keep: on every shape whose unpreconditioned run
#               exhausted the iteration budget, some ILU row must converge
#               with strictly fewer iterations; at least one capped shape
#               must exist at all, and on at least one of them the best
#               ILU row must also charge a lower total (setup + solve)
#               than the capped run.
#               Every gate runs even after one fails: each failure is
#               printed as it is found, all of them are listed again at the
#               end, and the stage then fails once. A JSON missing a section
#               (e.g. an older baseline written before that section
#               existed) only warns; the remaining gates still run.
#               Then, whether or not those gates passed, the new JSON is
#               diffed against the committed baseline (git show
#               HEAD:BENCH_wallclock.json): every simulated-seconds row
#               that moved is printed with its old and new value, every
#               wall-seconds row that moved by more than the noise band
#               (WALL_BAND, 25%) is printed, and the run fails if any
#               simulated-seconds row increased. Rows are matched by their
#               identifying fields (solver, workers, ng, nodes, codec,
#               matrix, precond).
#
# Note: the worker-sweep speedup needs real cores. On a single-core machine
# the sweep still runs (and still checks result identity across worker
# counts) but can show no wall-clock win; "nproc" is recorded in the JSON so
# readers can tell.
set -euo pipefail
cd "$(dirname "$0")/.."

compare=0
passthrough=()
for arg in "$@"; do
  case "$arg" in
    --compare) compare=1 ;;
    *) passthrough+=("$arg") ;;
  esac
done

cmake --preset default
cmake --build --preset default -j --target wallclock

./build/bench/wallclock --out BENCH_wallclock.json ${passthrough[@]+"${passthrough[@]}"}

echo
echo "Wrote $(pwd)/BENCH_wallclock.json"

if [[ "$compare" == 1 ]]; then
  # Both compare stages always run; the script fails if either did.
  status=0
  echo
  echo "== compare: section gates =="
  python3 - BENCH_wallclock.json <<'EOF' || status=1
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)

# Every gate runs: a failure is recorded and reported at the end, so one
# red gate never hides the verdict of the gates after it.
failures = []

def fail(msg):
    print(f"compare FAIL: {msg}")
    failures.append(msg)

def warn_missing(name):
    # Older baselines predate some sections; a missing one is a warning,
    # not a gate failure, so comparisons against old JSONs keep working.
    print(f"compare WARNING: JSON has no {name} section (old baseline?)")

sweep = doc.get("scale_sweep")
if not sweep:
    warn_missing("scale_sweep")
kills = doc.get("node_kill_recovery")
if kills is None:
    warn_missing("node_kill_recovery")
    kills = []
for row in kills:
    # Convergence is not gated: g3_circuit runs out its iteration budget at
    # full size with or without faults (see ROADMAP's preconditioning item).
    # The gate is the charged-cost story: partner restore must win at scale.
    if row["ng"] >= 16 and not row.get("partner_cheaper"):
        fail(
            "partner checkpoint lost to host-checkpoint restart "
            f"at ng={row['ng']}: partner {row['partner_sim_seconds']:.6f}s "
            f"vs host {row['host_sim_seconds']:.6f}s"
        )
        continue
    print(
        f"compare OK: ng={row['ng']} node-kill partner "
        f"{row['partner_sim_seconds']:.6f}s vs host "
        f"{row['host_sim_seconds']:.6f}s "
        f"(partner_cheaper={row['partner_cheaper']})"
    )
if sweep:
    print(f"compare OK: scale_sweep covers {len(sweep)} (ng, nodes) points")

hier = doc.get("hier_reduce")
if not hier:
    warn_missing("hier_reduce")
    hier = []
for row in hier:
    n_failed = len(failures)
    if not row.get("identical_results"):
        fail(f"hier and flat folds produced different x: {row}")
    if not row.get("at_most_one_msg_per_node"):
        fail(
            "reduction sent more than one inter-node message per "
            f"node: {row}"
        )
    if row["ng"] >= 16 and not row.get("hier_cheaper"):
        fail(
            "hierarchical fold lost to flat fold at "
            f"ng={row['ng']}: hier {row['hier_sim_seconds']:.6f}s vs "
            f"flat {row['flat_sim_seconds']:.6f}s"
        )
    if len(failures) == n_failed:
        print(
            f"compare OK: ng={row['ng']} ({row['nodes']} nodes) hier "
            f"{row['hier_sim_seconds']:.6f}s vs flat "
            f"{row['flat_sim_seconds']:.6f}s "
            f"(speedup {row['speedup']:.4f}x, "
            f"reduction net msgs {row['flat_reduction_net_msgs']} -> "
            f"{row['hier_reduction_net_msgs']})"
        )

comp = doc.get("compress")
if not comp:
    warn_missing("compress")
    comp = []
base = next((r for r in comp if r["codec"] == "none"), None)
if comp and base is None:
    fail("compress section has no uncoded baseline row")
    comp = []
for row in comp:
    if row is base:
        continue
    # Every coded run must ship strictly fewer bytes over the inter-node
    # network than the uncoded baseline...
    if row["net_bytes"] >= base["net_bytes"]:
        fail(
            f"codec '{row['codec']}' did not shrink net bytes: "
            f"{row['net_bytes']:.0f} vs {base['net_bytes']:.0f}"
        )
        continue
    # ...and stay within the convergence health budget: quantized wires may
    # cost extra restarts, but may not unconverge a converging shape.
    if base["converged"] and not row["converged"]:
        fail(
            f"codec '{row['codec']}' broke convergence "
            f"(baseline converged, coded run did not)"
        )
        continue
    print(
        f"compare OK: codec '{row['codec']}' net bytes "
        f"{base['net_bytes']:.3g} -> {row['net_bytes']:.3g} "
        f"(x{base['net_bytes'] / row['net_bytes']:.2f}), "
        f"sim {base['sim_seconds']:.6f}s -> {row['sim_seconds']:.6f}s, "
        f"iterations {base['iterations']} -> {row['iterations']}"
    )

pre = doc.get("precond")
if pre is None:
    warn_missing("precond")
    pre = []
by_matrix = {}
for row in pre:
    by_matrix.setdefault(row["matrix"], {})[row["precond"]] = row
capped = 0
rescued = 0
for matrix, rows in by_matrix.items():
    none = rows.get("none")
    if none is None:
        fail(f"precond section has no 'none' row for {matrix}")
        continue
    ilus = [rows[k] for k in ("ilu0", "ilu1") if k in rows]
    if not ilus:
        fail(f"precond section has no ILU rows for {matrix}")
        continue
    if none["converged"]:
        continue
    # This shape exhausted its unpreconditioned iteration budget: some ILU
    # row must converge it with strictly fewer iterations. Charged total is
    # allowed to lose per shape (deep level schedules price each
    # preconditioned iteration up), but at least ONE capped shape across
    # the section must also win on total — see the `rescued` check below.
    capped += 1
    winners = [
        r for r in ilus
        if r["converged"] and r["iterations"] < none["iterations"]
    ]
    if not winners:
        fail(
            f"no ILU row converges the capped shape {matrix} in "
            f"fewer iterations: none it={none['iterations']} vs "
            + "; ".join(
                f"{r['precond']} it={r['iterations']} "
                f"converged={r['converged']}" for r in ilus
            )
        )
        continue
    best = min(winners, key=lambda r: r["total_sim_seconds"])
    cheaper = best["total_sim_seconds"] < none["total_sim_seconds"]
    if cheaper:
        rescued += 1
    print(
        f"compare OK: {matrix} capped at {none['iterations']} iterations "
        f"unpreconditioned; {best['precond']} converges in "
        f"{best['iterations']} (setup {best['setup_sim_seconds']:.6f}s + "
        f"solve {best['solve_sim_seconds']:.6f}s = "
        f"{best['total_sim_seconds']:.6f}s vs "
        f"{none['total_sim_seconds']:.6f}s"
        f"{', cheaper' if cheaper else ', dearer per-shape'})"
    )
if pre and capped == 0:
    fail(
        "precond section has no budget-capped unpreconditioned "
        "shape — the ILU gate never engaged"
    )
if pre and capped > 0 and rescued == 0:
    fail(
        "ILU converged every capped shape but never beat the "
        "unpreconditioned charged total on any of them"
    )

if failures:
    print(f"compare: {len(failures)} section gate(s) failed:")
    for msg in failures:
        print(f"  - {msg}")
    sys.exit(1)
EOF
  echo
  echo "== compare: diff against the committed baseline (HEAD) =="
  if ! git show HEAD:BENCH_wallclock.json > build/BENCH_wallclock.head.json \
      2>/dev/null; then
    echo "compare WARNING: no committed BENCH_wallclock.json at HEAD; skipped"
  else
    python3 - build/BENCH_wallclock.head.json BENCH_wallclock.json <<'EOF' \
      || status=1
import json, sys

WALL_BAND = 0.25  # relative wall-clock noise band on a shared machine
ID_FIELDS = ("solver", "workers", "ng", "nodes", "codec", "matrix", "precond")

def rows(doc):
    """Flattens the bench JSON into {(section, row id, field): (kind, value)}
    for every timing field; kind is "sim" or "wall"."""
    out = {}
    for section, body in doc.items():
        for row in body if isinstance(body, list) else [body]:
            if not isinstance(row, dict):
                continue
            rid = ",".join(f"{k}={row[k]}" for k in ID_FIELDS if k in row)
            for field, val in row.items():
                if isinstance(val, bool) or not isinstance(val, (int, float)):
                    continue
                if "sim_seconds" in field or "time_lost" in field:
                    kind = "sim"
                elif "wall_seconds" in field:
                    kind = "wall"
                else:
                    continue
                out[(section, rid, field)] = (kind, val)
    return out

with open(sys.argv[1]) as f:
    old = rows(json.load(f))
with open(sys.argv[2]) as f:
    new = rows(json.load(f))
increased = []
moved = 0
for key in sorted(old.keys() & new.keys()):
    kind, a = old[key]
    b = new[key][1]
    name = "/".join(k for k in key if k)
    if kind == "sim" and a != b:
        moved += 1
        rel = f"{(b - a) / a:+.2%}" if a else "from 0"
        print(f"compare sim moved: {name}: {a:.6g} -> {b:.6g} ({rel})")
        if b > a:
            increased.append(name)
    elif kind == "wall" and a > 0 and abs(b - a) / a > WALL_BAND:
        print(f"compare wall outside +-{WALL_BAND:.0%}: {name}: "
              f"{a:.6g} -> {b:.6g} ({(b - a) / a:+.2%})")
for key in sorted(old.keys() ^ new.keys()):
    where = "baseline" if key in old else "new run"
    print(f"compare WARNING: row only in {where}: "
          + "/".join(k for k in key if k))
print(f"compare: {moved} simulated-seconds rows moved vs HEAD")
if increased:
    sys.exit("compare: simulated seconds increased vs HEAD: "
             + ", ".join(increased))
EOF
  fi
  exit "$status"
fi
