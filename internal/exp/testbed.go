package exp

import (
	"context"
	"fmt"
	"slices"

	"degradedfirst/internal/cluster"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/scenario"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// The Section VI testbed figures, run on minimr over real bytes.

func init() {
	register("fig9a", "Testbed (minimr): single-job runtimes, LF vs EDF",
		"EDF cuts runtime 27.0% (WordCount), 26.1% (Grep), 24.8% (LineCount); LF has higher variance (Fig. 9a)",
		singleJobs("testbed single-job runtimes (virtual seconds)", nil, fig9aCols,
			"paper: 27.0% / 26.1% / 24.8% reductions; LF varies more across runs"))
	register("fig9b", "Testbed (minimr): multi-job runtimes, LF vs EDF",
		"EDF cuts runtime 16.6% (WordCount), 28.4% (Grep), 22.6% (LineCount) (Fig. 9b)",
		sweep{
			title: "testbed multi-job runtimes (virtual seconds)",
			notes: []string{"paper: 16.6% / 28.4% / 22.6% reductions; WordCount gains least (its degraded tasks compete with nothing earlier)"},
			seeds: [2]int{5, 2},
			kinds: lfEDF,
			points: list(testbed("", 9500, wordCount,
				cluster.JobSpec{Kind: "grep", Input: scenario.Input, Word: "whale", NumReducers: 8, SubmitAt: 1},
				cluster.JobSpec{Kind: "linecount", Input: scenario.Input, NumReducers: 8, SubmitAt: 2})),
			split: perJob,
			cols: []column[row]{
				nameCol("job"),
				meanCol("LF mean", sched.KindLF, jobRuntime, f1),
				meanCol("EDF mean", sched.KindEDF, jobRuntime, f1),
				cutCol("EDF vs LF", sched.KindEDF, jobRuntime),
			},
		}.run)
	register("table1", "Testbed (minimr): per-task-type runtime breakdown",
		"EDF cuts degraded-map runtime 43.0%/34.6%/47.7% and reduce ~26%; normal maps unchanged (Table I)",
		singleJobs("average task runtimes by type, single-job scenario (virtual seconds)", perTaskType, []column[row]{
			labelCol("job"),
			nameCol("task type"),
			{"count", func(r row) string { return fmt.Sprintf("%d", r.task.count(r.jobAt(0, sched.KindLF))) }},
			{"LF", func(r row) string { return f2(stats.Mean(r.of(sched.KindLF, r.task.mean))) }},
			{"EDF", func(r row) string { return f2(stats.Mean(r.of(sched.KindEDF, r.task.mean))) }},
			{"EDF vs LF", func(r row) string {
				return pct(stats.ReductionPercent(stats.Mean(r.of(sched.KindLF, r.task.mean)), stats.Mean(r.of(sched.KindEDF, r.task.mean))))
			}},
		},
			"paper Table I (64 MB real blocks): normal maps ~equal; degraded maps cut 43.0%/34.6%/47.7%; reduces cut ~26%",
			"the same runs as fig9a"))
}

// testbed declares a point of the Section VI testbed running jobs, each
// seed failing a different random node.
func testbed(label string, seed int64, jobs ...cluster.JobSpec) func(Options) point {
	return func(o Options) point {
		p := point{label: label, seed: seed, Scenario: scenario.Testbed()}
		p.NumBlocks, p.Failure, p.Testbed = minimr.TestbedNumBlocks, topology.SingleNodeFailure, jobs
		if o.Quick {
			p.NumBlocks = 60
		}
		return p
	}
}

// The testbed's jobs, each with 8 reducers as in the paper.
var (
	wordCount = cluster.JobSpec{Kind: "wordcount", Input: scenario.Input, NumReducers: 8}
	grep      = cluster.JobSpec{Kind: "grep", Input: scenario.Input, Word: "whale", NumReducers: 8}
	lineCount = cluster.JobSpec{Kind: "linecount", Input: scenario.Input, NumReducers: 8}
)

// runTestbed runs s's Testbed jobs on minimr, in the world s builds.
func runTestbed(ctx context.Context, s scenario.Scenario) (*runtime.Result, error) {
	fs, err := s.BuildTestbed()
	if err != nil {
		return nil, err
	}
	jobs, err := cluster.BuildJobs(s.Testbed)
	if err != nil {
		return nil, err
	}
	rep, err := minimr.RunContext(ctx, fs, s.Options, jobs)
	if err != nil {
		return nil, err
	}
	// A copy, not &rep.Result: a pointer into the Report would keep the
	// jobs' Outputs live as long as the sweep (and a memo) keeps the run.
	res := rep.Result
	return &res, nil
}

// fig9aMemo shares Fig. 9a's single-job testbed runs with Table I: the
// paper draws both from one set of runs.
var fig9aMemo memo

// singleJobs declares a view of the single-job testbed runs: WordCount,
// Grep and LineCount each alone under LF and EDF.
func singleJobs(title string, split func(row) []row, cols []column[row], notes ...string) func(context.Context, Options) (*Table, error) {
	return sweep{
		title: title,
		notes: notes,
		seeds: [2]int{5, 2},
		kinds: lfEDF,
		points: list(
			testbed("WordCount", 9100, wordCount),
			testbed("Grep", 9200, grep),
			testbed("LineCount", 9300, lineCount),
		),
		split: split,
		cols:  cols,
		memo:  &fig9aMemo,
	}.run
}

// fig9aCols show each job's mean runtime and the true extremes of its LF
// and EDF runs: a box plot's whiskers would stop short of an outlier run,
// and the spread across runs is what the columns report. The means come
// from Summarize, which sums in sorted order, as the goldens were taken.
var fig9aCols = []column[row]{
	labelCol("job"),
	{"LF mean", func(r row) string { return f1(stats.Summarize(r.of(sched.KindLF, jobRuntime)).Mean) }},
	{"LF min/max", func(r row) string { return minMax(r.of(sched.KindLF, jobRuntime)) }},
	{"EDF mean", func(r row) string { return f1(stats.Summarize(r.of(sched.KindEDF, jobRuntime)).Mean) }},
	{"EDF min/max", func(r row) string { return minMax(r.of(sched.KindEDF, jobRuntime)) }},
	{"EDF vs LF", func(r row) string {
		return pct(stats.ReductionPercent(stats.Summarize(r.of(sched.KindLF, jobRuntime)).Mean,
			stats.Summarize(r.of(sched.KindEDF, jobRuntime)).Mean))
	}},
}

func minMax(xs []float64) string { return fmt.Sprintf("%.1f/%.1f", slices.Min(xs), slices.Max(xs)) }

// A taskType is one kind of Table I row: the mean runtime of a job's
// tasks of that type, and their count.
type taskType struct {
	name  string
	mean  func(*runtime.JobResult) float64
	count func(*runtime.JobResult) int
}

// perTaskType lays a point out as a row per task type.
func perTaskType(r row) []row {
	degraded := func(j *runtime.JobResult) int { return j.CountByClass()[sched.ClassDegraded] }
	types := []taskType{
		{"normal map", (*runtime.JobResult).MeanNormalMapRuntime, func(j *runtime.JobResult) int { return len(j.Tasks) - degraded(j) }},
		{"degraded map", (*runtime.JobResult).MeanDegradedRuntime, degraded},
		{"reduce", (*runtime.JobResult).MeanReduceRuntime, func(j *runtime.JobResult) int { return len(j.Reduces) }},
	}
	rows := make([]row, len(types))
	for i, t := range types {
		rows[i], rows[i].task, rows[i].name = r, t, t.name
	}
	return rows
}
