#!/usr/bin/env bash
# Every pinned output of the repository, made from one list.
#
#   bash scripts/goldens.sh check [bindir]   # compare the rows marked "check"
#   bash scripts/goldens.sh update           # rewrite every pinned file
#
# Each row of the list names a pinned file, what compares it, and the
# command that makes it; a file has one row. What compares a row is one
# of:
#   - "check": this script's check mode diffs the command's output
#     against the file;
#   - a test name: that tier-1 test compares the file, so check skips the
#     row and nothing is diffed twice.
# A command runs in the repository root, with the binaries of ./cmd and
# ./examples first on PATH and $tmp a scratch directory. It prints the
# output on stdout, except a "go test ... -update" command, which rewrites
# its file itself: internal/runtime and internal/mapred keep their pins
# under testdata/ and write them under -update.
#
# Both print one line per moved output with its first differing line (for
# a trace, its first divergent event), and exit 1 if a command fails.
# check runs the binaries in bindir (scripts/reach.sh passes its covered
# build) or builds them, and exits 1 if an output moved. update builds the
# binaries and rewrites each file that moved, so its report names every
# moved output, the tests' rows included. A change that moves pinned
# outputs pastes that report into CHANGES.md.
#
# Not on the list:
#   - bench/'s result digests belong to the benchmark and move only in a
#     benchmark-only change; update prints the command that change runs.
#   - TestRackConstrainedRandomPlacementPinned's hashes stay in its source
#     (internal/placement): they pin reference implementations' RNG draws,
#     which no re-baseline may move.
set -euo pipefail
cd "$(dirname "$0")/.."

goldens='
cmd/dfsim/testdata/edf_400.golden                  check                    dfsim -scenario examples/scenarios/edf_400.json
cmd/dfsim/testdata/map_3000.golden                 check                    dfsim -scenario examples/scenarios/map_3000.json
cmd/dfsim/testdata/timeline.golden                 check                    dfsim -timeline -scenario examples/scenarios/timeline.json
cmd/dfexp/testdata/all_seeds2.jsonl                check                    dfexp -all -seeds 2 -format json -results "$tmp/all"
cmd/dfsim/testdata/timeline_trace.jsonl            check                    dfsim -timeline -trace "$tmp/timeline.jsonl" -scenario examples/scenarios/timeline.json >/dev/null && cat "$tmp/timeline.jsonl"
cmd/dfexp/testdata/fast.txt                        check                    dfexp -format text -run fig3,fig4,fig5a | grep -v "^(took "
cmd/dfexp/testdata/fast.csv                        check                    dfexp -format csv -run fig3,fig4,fig5a
cmd/dfexp/testdata/list.txt                        check                    dfexp -list
cmd/dfanalysis/testdata/default.golden             check                    dfanalysis
examples/testdata/analysis.golden                  check                    analysis
examples/testdata/multijob.golden                  check                    multijob
examples/testdata/quickstart.golden                check                    quickstart
examples/testdata/timeline.golden                  check                    timeline
examples/testdata/wordcount.golden                 check                    wordcount
internal/exp/testdata/quick.golden                 TestQuickGolden          dfexp -all -quick -seeds 2 -format json -results "$tmp/quick"
cmd/dfexp/testdata/hedge_quick.json                TestHedgeJSONGolden      dfexp -run hedge -quick -seeds 2 -format json -results "$tmp/hedge" >/dev/null && cat "$tmp/hedge/hedge.json"
cmd/dfexp/testdata/jobsched_quick.json             TestJobSchedJSONGolden   dfexp -run jobsched -quick -jobsched fairshare -format json -results "$tmp/jobsched" >/dev/null && cat "$tmp/jobsched/jobsched.json"
cmd/dfexp/testdata/repair_quick.json               TestRepairJSONGolden     dfexp -run repair -quick -seeds 2 -format json -results "$tmp/repair" >/dev/null && cat "$tmp/repair/repair.json"
internal/runtime/testdata/seed_fifo_mapred.jsonl   TestSeedGoldenFIFOMapred go test -count=1 -run "^TestSeedGoldenFIFOMapred\$" ./internal/runtime -update
internal/runtime/testdata/seed_fifo_minimr.jsonl   TestSeedGoldenFIFOMinimr go test -count=1 -run "^TestSeedGoldenFIFOMinimr\$" ./internal/runtime -update
internal/mapred/testdata/repair_trace_hashes.json  TestRepairTracePinned    go test -count=1 -run "^TestRepairTracePinned\$" ./internal/mapred -update
internal/mapred/testdata/paper_scale_counters.json TestPaperScalePerf       go test -count=1 -run "^TestPaperScalePerf\$" ./internal/mapred -update
internal/mapred/testdata/storm_scale_counters.json TestStormScalePerf       go test -count=1 -run "^TestStormScalePerf\$" ./internal/mapred -update
'

mains="./cmd/dfsim ./cmd/dfexp ./cmd/dfanalysis ./examples/analysis ./examples/multijob ./examples/quickstart ./examples/timeline ./examples/wordcount"

usage() {
	echo "usage: bash scripts/goldens.sh check [bindir] | update" >&2
	exit 2
}

# firstdiff GOT WANT prints where GOT first departs from WANT: the line
# (the event, in a trace) and both versions of it, cut to a window around
# the first differing character when the line is long.
firstdiff() {
	awk -v gotf="$1" -v wantf="$2" '
	function clip(s, from) {
		if (length(s) <= 160) return s
		return (from > 1 ? "..." : "") substr(s, from, 120) (from + 120 <= length(s) ? "..." : "")
	}
	BEGIN {
		for (n = 1; ; n++) {
			a = (getline g < gotf) > 0
			b = (getline w < wantf) > 0
			if (!a && !b) { print "differs only in its last line ending"; exit }
			if (a && b && g == w) continue
			if (!a) g = "<end of output>"
			if (!b) w = "<end of file>"
			for (p = 1; substr(g, p, 1) == substr(w, p, 1); p++) {}
			from = p > 40 ? p - 40 : 1
			unit = (g ~ /^\{"t":/ || w ~ /^\{"t":/) ? "event" : "line"
			printf "%s %d: got %s | want %s\n", unit, n, clip(g, from), clip(w, from)
			exit
		}
	}'
}

mode=${1:-}
case $mode in
check) [ $# -le 2 ] || usage ;;
update) [ $# -eq 1 ] || usage ;;
*) usage ;;
esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=${2:-}
if [ -z "$bin" ]; then
	bin=$tmp/bin
	mkdir -p "$bin"
	go build -o "$bin/" $mains
fi
bin=$(cd "$bin" && pwd)

status=0
while read -r file by cmd; do
	[ -n "$file" ] || continue
	[ "$mode" = update ] || [ "$by" = check ] || continue
	cp "$file" "$tmp/want" 2>/dev/null || : >"$tmp/want"
	case $mode:$cmd in
	update:"go test "*) (eval "$cmd") >&2 && cp "$file" "$tmp/out" ;;
	*) (PATH=$bin:$PATH && eval "$cmd") >"$tmp/out" ;;
	esac || {
		echo "failed $file: $cmd"
		status=1
		continue
	}
	if ! cmp -s "$tmp/out" "$tmp/want"; then
		echo "moved $file $(firstdiff "$tmp/out" "$tmp/want")"
		if [ "$mode" = update ]; then cp "$tmp/out" "$file"; else status=1; fi
	fi
done <<<"$goldens"

if [ "$mode" = update ]; then
	echo "bench/ is left alone: its digests move only in a benchmark-only change, which runs" >&2
	echo "  (cd bench && go run . -aa -out baseline.json && go run . -trace 1 -out baseline-traced.json)" >&2
fi
exit $status
