#!/usr/bin/env bash
# The reach gate: run every committed run with covered binaries, byte-compare
# each against its golden, run the named failure-path tests covered into the
# same directory, then fail if a function under internal/ that no run entered
# is missing from internal/lint's allow-list (or a listed one was entered).
#
#   bash scripts/reach.sh [workdir]     # workdir defaults to a fresh temp dir
#
# Takes about a minute and a half on two cores; most of it is the
# all_seeds2 golden. It prints the never-entered functions before gating.
set -euo pipefail
cd "$(dirname "$0")/.."

work=${1:-$(mktemp -d)}
bin=$work/bin
cover=$work/cover
rm -rf "$bin" "$cover"
mkdir -p "$bin" "$cover"

mains="./cmd/dfsim ./cmd/dfexp ./cmd/dfanalysis ./examples/analysis ./examples/multijob ./examples/quickstart ./examples/timeline ./examples/wordcount"
# A binary writes no counters unless its own main package is covered too.
go build -cover -coverpkg="./internal/...,${mains// /,}" -o "$bin/" $mains
export GOCOVERDIR=$cover

echo "== goldens"
"$bin/dfsim" -sched EDF -nodes 400 -racks 40 -blocks 14400 -seed 1 | diff - cmd/dfsim/testdata/edf_400.golden
"$bin/dfexp" -all -seeds 2 -format json -results "$work/results" | diff - cmd/dfexp/testdata/all_seeds2.jsonl
"$bin/dfsim" -timeline -trace "$work/timeline.jsonl" -sched EDF -nodes 8 -racks 2 -n 4 -k 2 -blocks 16 -reducers 1 |
	diff - cmd/dfsim/testdata/timeline.golden
diff "$work/timeline.jsonl" cmd/dfsim/testdata/timeline_trace.jsonl
# Text output reports each experiment's wall time; that line is dropped.
"$bin/dfexp" -format text -run fig3,fig4,fig5a | grep -v '^(took ' | diff - cmd/dfexp/testdata/fast.txt
"$bin/dfexp" -format csv -run fig3,fig4,fig5a | diff - cmd/dfexp/testdata/fast.csv
"$bin/dfexp" -list | diff - cmd/dfexp/testdata/list.txt
"$bin/dfanalysis" | diff - cmd/dfanalysis/testdata/default.golden
for ex in analysis multijob quickstart timeline wordcount; do
	"$bin/$ex" | diff - "examples/testdata/$ex.golden"
done
unset GOCOVERDIR

echo "== named tests"
# The loopback tests and the real-process run (its dfmaster and dfworker
# are built covered when the test binary is), then one deterministic test
# per failure path, so no function counts as reached by loopback timing.
covtest() {
	local pkg=$1 run=$2
	go test -count=1 -cover -coverpkg=./internal/... -run "$run" "$pkg" -args -test.gocoverdir="$cover"
}
covtest ./internal/cluster 'TestLoopback|^TestProcessClusterSurvivesWorkerKill$|^TestPeerErrorMessages$'
covtest ./internal/runtime '^(TestRepairCommitToDeadNodeRequeues|TestSecondFailureMidRepair|TestUnrepairableReportedOnceNeverLaunched|TestAsyncReduceFailureReowesLateFetch|TestBuilderRejectsMalformedTraces)$'
covtest ./internal/gf256 '^TestInvertZeroPivot$'
covtest ./internal/dfs '^TestReadBlock$'

echo "== never entered"
go tool covdata func -i "$cover" | awk '$1 ~ /\/internal\// && $NF == "0.0%"'

echo "== gate"
go test -count=1 -run '^TestReachGate$' ./internal/lint -args -reach.coverdir="$cover"
