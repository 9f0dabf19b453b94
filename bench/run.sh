#!/usr/bin/env bash
# Builds the dtl benchmark driver and runs it with the given arguments. Every
# path it writes is under .bench_build/ at the repository root: the driver
# binary, the Go build cache and the workloads' artifacts and spans.
#
#   bench/run.sh --workload selfrefresh --seed 1 --seconds 25 --trace 0
#   bench/run.sh -seed 1 -reps 5 -workloads suite,replay -trace
#   bench/run.sh -update
#
# The driver checks the arguments; see bench/README.md.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/work"
# Keep the toolchain's caches and temporary files inside the checkout and
# the build offline.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$out/dtlbench.$$" .)
mv -f "$out/dtlbench.$$" "$out/dtlbench"

# A bare -trace means -trace 1, which Go's flag package cannot express.
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	-trace | --trace)
		if [[ ${2:-} =~ ^[0-9]+$ ]]; then
			args+=(-trace "$2")
			shift
		else
			args+=(-trace 1)
		fi
		;;
	*) args+=("$1") ;;
	esac
	shift
done
exec "$out/dtlbench" -golden "$root/bench/testdata/golden.json" -workdir "$out/work" "${args[@]}"
