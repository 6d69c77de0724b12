#!/usr/bin/env bash
# The reach gate, at two levels. Run every committed run with covered
# binaries and byte-compare each against its golden (scripts/goldens.sh
# check, on the rows that list marks "check"), then run the named
# deterministic tests covered into the same directory, then the whole
# tier-1 suite covered into a second one. Two tests in internal/lint read
# the result:
#   - TestReachGate fails if a function under internal/ that no run or
#     named test entered is missing from allowList (or a listed one was
#     entered);
#   - TestBranchReach does the same for blocks. A never-entered block that
#     only fails (an error path) passes if some tier-1 test enters it;
#     any other block must be entered by a run or a named test, or be on
#     branchAllowList.
#
#   bash scripts/reach.sh [workdir]     # workdir defaults to a fresh temp dir
#
# Takes about two minutes on two cores: a third is the all_seeds2 golden,
# a third the covered tier-1 run. It prints the never-entered functions
# before gating.
set -euo pipefail
cd "$(dirname "$0")/.."

work=${1:-$(mktemp -d)}
bin=$work/bin
cover=$work/cover
tier1=$work/tier1
rm -rf "$bin" "$cover" "$tier1"
mkdir -p "$bin" "$cover" "$tier1"

mains="./cmd/dfsim ./cmd/dfexp ./cmd/dfanalysis ./examples/analysis ./examples/multijob ./examples/quickstart ./examples/timeline ./examples/wordcount"
# A binary writes no counters unless its own main package is covered too.
go build -cover -coverpkg="./internal/...,${mains// /,}" -o "$bin/" $mains
export GOCOVERDIR=$cover

echo "== goldens"
bash scripts/goldens.sh check "$bin"
unset GOCOVERDIR

echo "== tier-1"
go test -count=1 -cover -coverpkg=./internal/... ./... -args -test.gocoverdir="$tier1"

echo "== named tests"
# The loopback tests and the real-process run (its dfmaster and dfworker
# are built covered when the test binary is), then the deterministic
# tests that enter the branches no committed run takes, so no block counts
# as reached by loopback timing alone. The tier-1 run above built these
# test binaries with the same flags, so they come from the build cache.
covtest() {
	local pkg=$1
	shift
	local IFS='|'
	go test -count=1 -cover -coverpkg=./internal/... -run "^($*)\$" "$pkg" -args -test.gocoverdir="$cover"
}
covtest . TestFacadeLRCAndTimeline
covtest ./cmd/dfsim TestRunEachScheduler
covtest ./internal/scenario TestSchedulerAndFailureParsing TestSetMerges TestFlags TestBuildTestbed TestSetRejectsKeysDifferingInCase
covtest ./internal/cluster 'TestLoopback.*' TestProcessClusterSurvivesWorkerKill TestPeerErrorMessages \
	TestFitPrefix TestLateResponseAfterTimeoutIsDropped TestPlanInputPlansWholeFanIn TestRunReduceNamesDeadHostsTogether \
	TestReconstructShortOfSources TestStartupErrors TestWorkerHandshakeErrors TestRegisterRejects TestMasterRunErrors \
	TestWorkerRejectsBadRequests TestHeartbeatStopsOnSendError TestConnErrors TestCancelSkipsUnstartedResponse \
	TestCancelForAnsweredSeqIsNoOp TestLoserLateResponseIsDropped TestBackendErrors
covtest ./internal/dfs TestReadBlock TestNewValidation TestPlanStripeLRCUnrepairableIsExact TestRepairBlockRejectsWrongRebuild \
	TestRepairBlockReusesBuffer TestSelectionStrategyString TestWriteErrors TestPreferSameRackTrimsToK \
	TestNodeContentsSkipsMetadataOnlyFiles
covtest ./internal/erasure TestForEachChunkCoversRange TestLRCGroupOf
covtest ./internal/exp TestQuickGolden TestRunnerCancellation TestFig3TraceCarriesTransfers TestJobSchedPolicyFilter \
	TestHealerColumnsWithoutRepairs TestQuickDefaultSeeds
covtest ./internal/gf256 TestInvertZeroPivot TestDetectKernel
covtest ./internal/jobsched TestKindStringAndParse TestQueueMatchesRecomputeOracle
covtest ./internal/mapred TestRepairTracePinned TestSchedulerKindString
covtest ./internal/minimr TestNoWorkerLeak TestScannersMatchReference TestSumReducerSkipsNonNumbers TestRepairWithNowhereToRebuild
covtest ./internal/netsim TestModeString TestUnlimitedPathsFinishAtOnce TestStarvedFlowGetsNoCompletion TestDeepPathIndexes \
	TestCancelFlow TestFlowRecordsReusedAfterRelease TestReplayWithoutRecord TestReplayStopsWhereDirtyLinkUndercuts TestReplayStopsAtDirtyWitness \
	TestReplayStopsWhereSaturationMoves TestReplayStopsWhereRecordedSaturationGoes TestReplayStopsWhereNewFlowsSaturate \
	TestReplaySkipsEmptiedLinks
covtest ./internal/placement TestReassign TestPlaceMatchesScanOracle TestNodeBlocksBeyondHolders
covtest ./internal/runtime TestWaitingSchedulersAreNotStalls TestRepairCommitToDeadNodeRequeues TestSecondFailureMidRepair TestUnrepairableReportedOnceNeverLaunched \
	TestAsyncReduceFailureReowesLateFetch TestBuilderRejectsMalformedTraces TestFeaturesTable TestHealerPlanInput \
	TestRepairedBlockRestoresLateJobTask TestShuffleCancelTouchesOnlyDeadNodes TestRemoteSourceDeathRequeuesTask \
	TestFailureMissingRepairLeavesItRunning TestStripeTurnsUnrepairableWhileQueued TestRepairRefPastTaskCount \
	TestFailureDuringThrottleWait TestBackendFailuresAbortRun TestEmptyJobResults TestRequeueCancelsPendingHedgeTimers
covtest ./internal/sim TestRescheduleMatchesCancelAndSchedule
covtest ./internal/sched TestClassString TestDelayKindRegistered TestPacingNeverDeadlocks TestPendingLocalCountersMatchRecount \
	TestPoolsMatchScanOracle
covtest ./internal/stats TestMeanOfNothing TestNormalMomentsAndTruncation TestPickKZeroAndNegative TestQuantile \
	TestReductionIncreasePercent TestSummarizeEmptyAndDegenerate TestSummarizeWhiskerCollapseCorner TestSummarizeNonFinite
covtest ./internal/topology TestHopDistanceMetric TestPickFailureErrors TestSharedTierOfOneNode
covtest ./internal/trace TestJSONLCloseSurfacesCloserError TestJSONLCloseSurfacesDeferredWriteError TestJSONLRetainsFirstError \
	TestJSONLRejectsUnencodableEvent
covtest ./internal/workload TestReferenceCounters TestShareDefaultsToOne

echo "== never entered"
go tool covdata func -i "$cover" | awk '$1 ~ /\/internal\// && $NF == "0.0%"'
go tool covdata textfmt -i "$cover" -o "$work/runs.cov"
go tool covdata textfmt -i "$tier1" -o "$work/tier1.cov"

echo "== gate"
go test -count=1 -run '^(TestReachGate|TestBranchReach)$' ./internal/lint -args \
	-reach.coverdir="$cover" -reach.runs="$work/runs.cov" -reach.tier1="$work/tier1.cov"
