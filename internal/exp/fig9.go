package exp

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
	"degradedfirst/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig9a",
		Title: "Testbed (minimr): single-job runtimes, LF vs EDF",
		Paper: "EDF cuts runtime 27.0% (WordCount), 26.1% (Grep), 24.8% (LineCount); LF has higher variance (Fig. 9a)",
		Run:   runFig9a,
	})
	register(Experiment{
		ID:    "fig9b",
		Title: "Testbed (minimr): multi-job runtimes, LF vs EDF",
		Paper: "EDF cuts runtime 16.6% (WordCount), 28.4% (Grep), 22.6% (LineCount) (Fig. 9b)",
		Run:   runFig9b,
	})
	register(Experiment{
		ID:    "table1",
		Title: "Testbed (minimr): per-task-type runtime breakdown",
		Paper: "EDF cuts degraded-map runtime 43.0%/34.6%/47.7% and reduce ~26%; normal maps unchanged (Table I)",
		Run:   runTable1,
	})
}

// testbedRun builds the Section VI testbed (12 slaves, 3 racks, (12,10)
// code, 240 scaled blocks of block-aligned text, round-robin placement),
// fails node `failNode`, and runs the given jobs.
func testbedRun(ctx context.Context, kind sched.Kind, failNode topology.NodeID, numBlocks int,
	seed int64, mkJobs func() []minimr.Job, sink trace.Sink, label string) (*minimr.Report, error) {

	cluster, err := topology.New(topology.Config{
		Nodes: 12, Racks: 3, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1,
	})
	if err != nil {
		return nil, err
	}
	fs, err := dfs.New(cluster, erasure.MustNew(12, 10), minimr.TestbedBlockSize,
		placement.RoundRobin{}, stats.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	corpus, err := workload.GenerateBlockAlignedCorpus(numBlocks, minimr.TestbedBlockSize, seed)
	if err != nil {
		return nil, err
	}
	if _, err := fs.Write("input.txt", corpus); err != nil {
		return nil, err
	}
	if failNode >= 0 {
		cluster.FailNode(failNode)
	}
	opts := minimr.Options{
		Scheduler:  kind,
		RackBps:    minimr.TestbedRackBps,
		Seed:       seed,
		Trace:      sink,
		TraceLabel: label,
	}
	return minimr.RunContext(ctx, fs, opts, mkJobs())
}

// fig9Jobs builds the three Section VI jobs with eight reducers each.
func fig9Jobs() map[string]func() []minimr.Job {
	return map[string]func() []minimr.Job{
		"WordCount": func() []minimr.Job { return []minimr.Job{minimr.WordCountJob("input.txt", 8)} },
		"Grep":      func() []minimr.Job { return []minimr.Job{minimr.GrepJob("input.txt", "whale", 8)} },
		"LineCount": func() []minimr.Job { return []minimr.Job{minimr.LineCountJob("input.txt", 8)} },
	}
}

var _fig9JobOrder = []string{"WordCount", "Grep", "LineCount"}

func fig9Blocks(o Options) int {
	if o.Quick {
		return 60
	}
	return minimr.TestbedNumBlocks
}

// testbedSamples runs `runs` repetitions (each failing a different random
// node) for both schedulers and returns per-scheduler reports.
func testbedSamples(ctx context.Context, o Options, runs, numBlocks int, mkJobs func() []minimr.Job,
	baseSeed int64) (map[sched.Kind][]*minimr.Report, error) {

	out := map[sched.Kind][]*minimr.Report{
		sched.KindLF:  make([]*minimr.Report, runs),
		sched.KindEDF: make([]*minimr.Report, runs),
	}
	var mu sync.Mutex
	type task struct {
		kind sched.Kind
		i    int
	}
	var tasks []task
	for i := 0; i < runs; i++ {
		tasks = append(tasks, task{sched.KindLF, i}, task{sched.KindEDF, i})
	}
	err := parallelMap(ctx, len(tasks), o.parallelism(), func(ti int) error {
		tk := tasks[ti]
		seed := baseSeed + int64(tk.i)
		failNode := topology.NodeID(stats.NewRNG(seed).Intn(12))
		label := fmt.Sprintf("%v/seed%d", tk.kind, seed)
		rep, err := testbedRun(ctx, tk.kind, failNode, numBlocks, seed, mkJobs, o.Trace, label)
		if err != nil {
			return err
		}
		mu.Lock()
		out[tk.kind][tk.i] = rep
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fig9aMemo shares Fig. 9a's single-job testbed runs with Table I: the
// paper draws both from one set of runs.
var fig9aMemo memo[[]map[sched.Kind][]*minimr.Report]

// fig9aRuns returns, per job of _fig9JobOrder, the LF and EDF samples of
// the single-job testbed scenario.
func fig9aRuns(ctx context.Context, o Options) ([]map[sched.Kind][]*minimr.Report, error) {
	runs := o.seeds(5, 2)
	return fig9aMemo.get(o, runs, func() ([]map[sched.Kind][]*minimr.Report, error) {
		jobs := fig9Jobs()
		out := make([]map[sched.Kind][]*minimr.Report, len(_fig9JobOrder))
		for i, name := range _fig9JobOrder {
			samples, err := testbedSamples(ctx, o, runs, fig9Blocks(o), jobs[name], int64(9100+100*i))
			if err != nil {
				return nil, fmt.Errorf("single-job testbed %s: %w", name, err)
			}
			out[i] = samples
		}
		return out, nil
	})
}

func runFig9a(ctx context.Context, o Options) (*Table, error) {
	all, err := fig9aRuns(ctx, o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig9a",
		Title:   "testbed single-job runtimes (virtual seconds)",
		Columns: []string{"job", "LF mean", "LF min/max", "EDF mean", "EDF min/max", "EDF vs LF"},
		Notes:   []string{"paper: 27.0% / 26.1% / 24.8% reductions; LF varies more across runs"},
	}
	for i, name := range _fig9JobOrder {
		lf := runtimesOf(all[i][sched.KindLF], 0)
		edf := runtimesOf(all[i][sched.KindEDF], 0)
		t.Rows = append(t.Rows, fig9aRow(name, lf, edf))
	}
	return t, nil
}

// fig9aRow is one job's row: the mean and the true extremes of its LF and
// EDF runtimes. A box plot's whiskers would stop short of an outlier run,
// and the spread across runs is what the column reports. The means come
// from Summarize, which sums in sorted order, as the goldens were taken.
func fig9aRow(name string, lf, edf []float64) []string {
	ml, me := stats.Summarize(lf).Mean, stats.Summarize(edf).Mean
	return []string{
		name,
		f1(ml), fmt.Sprintf("%.1f/%.1f", slices.Min(lf), slices.Max(lf)),
		f1(me), fmt.Sprintf("%.1f/%.1f", slices.Min(edf), slices.Max(edf)),
		pct(stats.ReductionPercent(ml, me)),
	}
}

func runtimesOf(reps []*minimr.Report, jobIdx int) []float64 {
	out := make([]float64, 0, len(reps))
	for _, r := range reps {
		out = append(out, r.Jobs[jobIdx].Runtime())
	}
	return out
}

func runFig9b(ctx context.Context, o Options) (*Table, error) {
	runs := o.seeds(5, 2)
	numBlocks := fig9Blocks(o)
	mkJobs := func() []minimr.Job {
		jobs := []minimr.Job{
			minimr.WordCountJob("input.txt", 8),
			minimr.GrepJob("input.txt", "whale", 8),
			minimr.LineCountJob("input.txt", 8),
		}
		jobs[1].SubmitAt = 1
		jobs[2].SubmitAt = 2
		return jobs
	}
	samples, err := testbedSamples(ctx, o, runs, numBlocks, mkJobs, 9500)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig9b",
		Title:   "testbed multi-job runtimes (virtual seconds)",
		Columns: []string{"job", "LF mean", "EDF mean", "EDF vs LF"},
		Notes:   []string{"paper: 16.6% / 28.4% / 22.6% reductions; WordCount gains least (its degraded tasks compete with nothing earlier)"},
	}
	for j, name := range _fig9JobOrder {
		lf := stats.Mean(runtimesOf(samples[sched.KindLF], j))
		edf := stats.Mean(runtimesOf(samples[sched.KindEDF], j))
		t.Rows = append(t.Rows, []string{
			name, f1(lf), f1(edf), pct(stats.ReductionPercent(lf, edf)),
		})
	}
	return t, nil
}

func runTable1(ctx context.Context, o Options) (*Table, error) {
	all, err := fig9aRuns(ctx, o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table1",
		Title:   "average task runtimes by type, single-job scenario (virtual seconds)",
		Columns: []string{"job", "task type", "count", "LF", "EDF", "EDF vs LF"},
		Notes: []string{
			"paper Table I (64 MB real blocks): normal maps ~equal; degraded maps cut 43.0%/34.6%/47.7%; reduces cut ~26%",
			"the same runs as fig9a",
		},
	}
	for i, name := range _fig9JobOrder {
		samples := all[i]
		type agg func(r *mapred.JobResult) float64
		rows := []struct {
			label string
			count int
			fn    agg
		}{
			{"normal map", 0, func(r *mapred.JobResult) float64 { return r.MeanNormalMapRuntime() }},
			{"degraded map", 0, func(r *mapred.JobResult) float64 { return r.MeanDegradedRuntime() }},
			{"reduce", 8, func(r *mapred.JobResult) float64 { return r.MeanReduceRuntime() }},
		}
		// Counts from the first LF sample.
		first := samples[sched.KindLF][0].Jobs[0]
		counts := first.CountByClass()
		deg := counts[sched.ClassDegraded]
		rows[0].count = len(first.Tasks) - deg
		rows[1].count = deg
		for _, row := range rows {
			var lfVals, edfVals []float64
			for _, rep := range samples[sched.KindLF] {
				lfVals = append(lfVals, row.fn(&rep.Jobs[0]))
			}
			for _, rep := range samples[sched.KindEDF] {
				edfVals = append(edfVals, row.fn(&rep.Jobs[0]))
			}
			lf, edf := stats.Mean(lfVals), stats.Mean(edfVals)
			t.Rows = append(t.Rows, []string{
				name, row.label, fmt.Sprintf("%d", row.count),
				f2(lf), f2(edf), pct(stats.ReductionPercent(lf, edf)),
			})
		}
	}
	return t, nil
}
