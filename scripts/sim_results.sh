#!/usr/bin/env bash
# Full-scale regression guard for the simulator: run each experiment that
# finishes in minutes at -scale full and require its output to appear
# verbatim in results/all-experiments-full.txt, the file EXPERIMENTS.md
# quotes. About 3 minutes on a 2-vCPU machine.
#
# The slow sections (fig9, fig11, fig12, fig13, dispatch; about 25
# minutes together) are checked only by regenerating the whole file:
#
#   go run ./cmd/jordsim -experiment all -scale full > results/all-experiments-full.txt
#
# A deliberate model change regenerates the file; a refactor must leave
# every section byte-identical.
#
# Usage: scripts/sim_results.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WANT=results/all-experiments-full.txt
BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/jordsim" ./cmd/jordsim

failed=0
for e in params motivation coldstart table4 fig10 fig14 overheads cluster mpk; do
  start=$SECONDS
  got="$("$BIN/jordsim" -experiment "$e" -scale full)"
  if [[ "$(cat "$WANT")" == *"$got"* ]]; then
    echo "ok    $e ($((SECONDS - start)) s)"
    continue
  fi
  failed=1
  echo "FAIL  $e: output is not in $WANT"
  # Diff against the section that starts with the same title line.
  title="$(head -n 1 <<<"$got")"
  line="$(grep -nxF -- "$title" "$WANT" | head -n 1 | cut -d: -f1 || true)"
  if [[ -n "$line" ]]; then
    diff <(tail -n "+$line" "$WANT" | head -n "$(wc -l <<<"$got")") <(printf '%s\n' "$got") || true
  else
    printf '%s\n' "$got"
  fi
done
exit "$failed"
