package exp

import (
	"context"
	"fmt"
	"slices"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/workload"
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
			points: list(testbed("", 9500, func() []minimr.Job {
				jobs := []minimr.Job{
					minimr.WordCountJob("input.txt", 8),
					minimr.GrepJob("input.txt", "whale", 8),
					minimr.LineCountJob("input.txt", 8),
				}
				jobs[1].SubmitAt = 1
				jobs[2].SubmitAt = 2
				return jobs
			})),
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
func testbed(label string, seed int64, jobs func() []minimr.Job) func(Options) point {
	return func(o Options) point {
		p := point{label: label, seed: seed, testbed: jobs}
		p.cfg.NumBlocks = minimr.TestbedNumBlocks
		if o.Quick {
			p.cfg.NumBlocks = 60
		}
		return p
	}
}

// runTestbed builds the Section VI testbed (12 slaves, 3 racks, (12,10)
// code, c.NumBlocks scaled blocks of block-aligned text, round-robin
// placement), fails a node drawn from c.Seed, and runs jobs on it.
func runTestbed(ctx context.Context, c mapred.Config, jobs []minimr.Job) (*runtime.Result, error) {
	cluster := topology.MustNew(topology.Config{Nodes: 12, Racks: 3, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1})
	fs := must(dfs.New(cluster, erasure.MustNew(12, 10), minimr.TestbedBlockSize, placement.RoundRobin{}, stats.NewRNG(c.Seed)))
	must(fs.Write("input.txt", must(workload.GenerateBlockAlignedCorpus(c.NumBlocks, minimr.TestbedBlockSize, c.Seed))))
	cluster.FailNode(topology.NodeID(stats.NewRNG(c.Seed).Intn(12)))
	rep, err := minimr.RunContext(ctx, fs, minimr.Options{Scheduler: c.Scheduler, RackBps: minimr.TestbedRackBps,
		Seed: c.Seed, Trace: c.Trace, TraceLabel: c.TraceLabel}, jobs)
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
			testbed("WordCount", 9100, func() []minimr.Job { return []minimr.Job{minimr.WordCountJob("input.txt", 8)} }),
			testbed("Grep", 9200, func() []minimr.Job { return []minimr.Job{minimr.GrepJob("input.txt", "whale", 8)} }),
			testbed("LineCount", 9300, func() []minimr.Job { return []minimr.Job{minimr.LineCountJob("input.txt", 8)} }),
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
