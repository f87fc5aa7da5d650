#!/usr/bin/env bash
# figdiff.sh — do two builds print the same figures?
#
# Usage: scripts/figdiff.sh <parent-build> <change-build>
#
# Runs each deterministic figure bench from both build directories (each
# run in its own scratch directory, so their BENCH_*.json files cannot
# collide) and diffs, per bench, its stdout and the `counters` section of
# every BENCH_*.json it writes. A refactor that claims to leave the figures
# alone must report `same` on every line.
#
# fig8_hybrid_cache and qos_antagonist are listed as skipped: both differ
# from run to run on one build (ROADMAP item 9), so a diff between two
# builds would say nothing about the change.
#
# Exit status: 0 = every bench identical, 1 = a diff, 2 = usage or a
# missing/failing binary.
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <parent-build> <change-build>" >&2
  exit 2
fi
parent=$(cd "$1" && pwd) || exit 2
change=$(cd "$2" && pwd) || exit 2

BENCHES=(fig1_motivation fig2_fig4_dma_count fig6_raw_transmission
         fig7_standalone fig9_dfs table2_bandwidth ablation_offload nvmlog
         tail_tolerance chaos_recovery)
SKIPPED=(fig8_hybrid_cache qos_antagonist)

work=$(mktemp -d "${TMPDIR:-/tmp}/figdiff.XXXXXX") || exit 2
trap 'rm -rf "$work"' EXIT

# counters <dir>: "<file> <counter> <value>" for every counter of every
# BENCH_*.json in <dir>, sorted.
counters() {
  python3 - "$1" <<'EOF'
import json, pathlib, sys
for f in sorted(pathlib.Path(sys.argv[1]).glob("BENCH_*.json")):
    for name, value in sorted(json.loads(f.read_text()).get("counters", {}).items()):
        print(f.name, name, value)
EOF
}

# run <build> <bench> <out-dir>: runs the bench in <out-dir>, stdout to
# <out-dir>/stdout, counters to <out-dir>/counters.
run() {
  local bin="$1/bench/$2" out="$3"
  if [[ ! -x "$bin" ]]; then
    echo "figdiff: missing $bin" >&2
    return 2
  fi
  mkdir -p "$out/run"
  if ! (cd "$out/run" && "$bin" > "$out/stdout"); then
    echo "figdiff: $bin failed" >&2
    return 2
  fi
  counters "$out/run" > "$out/counters"
}

status=0
for b in "${BENCHES[@]}"; do
  run "$parent" "$b" "$work/$b/parent" || exit 2
  run "$change" "$b" "$work/$b/change" || exit 2
  verdict=same
  for part in stdout counters; do
    if ! cmp -s "$work/$b/parent/$part" "$work/$b/change/$part"; then
      [[ $verdict == same ]] && verdict=DIFF
      verdict+=" $part"
      status=1
    fi
  done
  printf '%-24s %s\n' "$b" "$verdict"
  if [[ $verdict != same ]]; then
    for part in stdout counters; do
      diff -u --label "parent/$part" --label "change/$part" \
        "$work/$b/parent/$part" "$work/$b/change/$part" | head -40
    done
  fi
done
for b in "${SKIPPED[@]}"; do
  printf '%-24s %s\n' "$b" "skipped (differs run to run on one build)"
done
exit $status
