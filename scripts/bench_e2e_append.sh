#!/bin/sh
# Append one row to BENCH_e2e.json from a `bench/run.sh -reps 5 -trace` run.
#
# Usage:
#   bash bench/run.sh -reps 5 -trace > run.txt
#   scripts/bench_e2e_append.sh COMMIT run.txt [note]
#   scripts/bench_e2e_delta.sh
#
# A row keeps, per workload, the golden check's verdict and every metric's
# median, quartiles and sample count as the run's summary prints them: n is
# the -reps count for the end-to-end metrics and 1 for the per-layer metrics,
# which only the traced run reports. The file holds one row per line.
set -eu

commit="$1"
run="$2"
note="${3:-}"
cd "$(dirname "$0")/.."
file=BENCH_e2e.json

row="$(awk '
/^# == .*: median unit, quartiles, n$/ { w = $3; sub(/:$/, "", w); next }
w != "" && /^\{/ { printf "{\"workload\":\"%s\",\"correct\":%s}\n", w, ($0 ~ /"correct":true/ ? "true" : "false"); w = ""; next }
w != "" && $4 == "q1" && $6 == "q3" && $8 == "n" {
    printf "{\"workload\":\"%s\",\"metric\":\"%s\",\"median\":%s,\"unit\":\"%s\",\"q1\":%s,\"q3\":%s,\"n\":%s}\n", w, $1, $2, $3, $5, $7, $9
}' "$run" | jq -c -s --arg commit "$commit" --arg note "$note" --arg go "$(go version | awk '{print $3}')" '
  if length == 0 then error("no run summary found") else . end
  | { commit: $commit, note: $note, go: $go, date: (now | todate),
      command: "bench/run.sh -reps 5 -trace",
      workloads: (reduce .[] as $x ({};
        if $x.metric then .[$x.workload].metrics[$x.metric] = ($x | {median, unit, q1, q3, n})
        else .[$x.workload].correct = $x.correct end)) }')"

{
	printf '{\n  "description": %s,\n  "rows": [\n' "$(jq '.description' "$file")"
	{ jq -c '.rows[]' "$file"; echo "$row"; } | sed 's/^/    /; $!s/$/,/'
	printf '  ]\n}\n'
} > "$file.tmp"
mv "$file.tmp" "$file"
