#!/bin/sh
# Print the last BENCH_e2e.json row's change against the row before it.
#
# Usage:
#   scripts/bench_e2e_delta.sh [BENCH_e2e.json]
#
# One tab-separated line per workload and metric present in both rows: the
# earlier and later medians, the relative change, and "beyond-IQR" when the
# medians differ by more than the earlier row's interquartile range, the bar
# a claimed gain has to clear. Per-layer metrics come from one traced run
# (n = 1) and have no spread to compare against.
set -eu

cd "$(dirname "$0")/.."
file="${1:-BENCH_e2e.json}"

jq -r '
  def abs: if . < 0 then -. else . end;
  if (.rows | length) < 2 then error("\(.rows | length) rows; a delta needs two") else . end
  | .rows[-2] as $a | .rows[-1] as $b
  | "# \($a.commit) -> \($b.commit)",
    "workload\tmetric\tbefore\tafter\tchange\tspread",
    ( $b.workloads | keys[] as $w
      | ($a.workloads[$w].metrics // {}) as $am
      | $b.workloads[$w].metrics | to_entries[]
      | select($am[.key] != null)
      | $am[.key] as $x | .value as $y
      | [ $w, .key, $x.median, $y.median,
          (if $x.median == 0 then "-"
           else "\((($y.median - $x.median) / $x.median * 1000 | round) / 10)%" end),
          (if $x.n > 1 and (($y.median - $x.median) | abs) > ($x.q3 - $x.q1)
           then "beyond-IQR" else "" end) ]
      | @tsv )
' "$file"
