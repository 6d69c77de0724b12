package exp

import (
	"context"
	"fmt"

	"degradedfirst/internal/mapred"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
)

// Extension experiments beyond the paper's artifacts: the LRC study that
// footnote 1 gestures at, and the delay-scheduling baseline from the
// related work.

func init() {
	register(Experiment{
		ID:    "ext-lrc",
		Title: "Extension: RS(16,12) vs LRC(12,2,2) under LF and EDF",
		Paper: "footnote 1: degraded-first also applies to repair-efficient codes; LRC repairs from k/l=6 blocks so LF's end-of-phase pain shrinks but EDF still wins",
		Run:   runExtLRC,
	})
	register(Experiment{
		ID:    "ext-delay",
		Title: "Extension: delay scheduling baseline (Zaharia et al. 2010) in failure mode",
		Paper: "related work [35]: delay scheduling optimizes locality, not degraded reads — it behaves like LF in failure mode while EDF wins",
		Run:   runExtDelay,
	})
}

func runExtLRC(ctx context.Context, o Options) (*Table, error) {
	seeds := o.seeds(15, 4)
	t := &Table{
		ID:    "ext-lrc",
		Title: "repair-efficient codes: degraded-read cost vs scheduling gains",
		Columns: []string{"code", "repair blocks", "LF mean norm", "EDF mean norm",
			"EDF vs LF", "LF deg read (s)", "EDF deg read (s)"},
		Notes: []string{
			"LRC(12,2,2) repairs a single lost block from its 6-block local group instead of k=12 blocks",
			"cheaper repairs shrink LF's degraded-read tail, so EDF's margin narrows — but never inverts",
		},
	}
	cases := []struct {
		label  string
		groups int
		repair int
	}{
		{"RS(16,12)", 0, 12},
		{"LRC(12,2,2)", 2, 6}, // same stripe width/rate; local-group repair
	}
	for i, cse := range cases {
		cfg, job := defaultSimConfig(o)
		cfg.N, cfg.K, cfg.LocalGroups = 16, 12, cse.groups
		runs, err := runSeeds(ctx, cfg, []mapred.JobSpec{job},
			[]sched.Kind{sched.KindLF, sched.KindEDF}, seeds, int64(9600+100*i), o, true)
		if err != nil {
			return nil, err
		}
		lf := stats.Mean(normalizedRuntimes(runs, sched.KindLF, 0))
		edf := stats.Mean(normalizedRuntimes(runs, sched.KindEDF, 0))
		var lfRead, edfRead []float64
		for _, r := range runs {
			lfRead = append(lfRead, r.byKind[sched.KindLF].Jobs[0].MeanDegradedReadTime())
			edfRead = append(edfRead, r.byKind[sched.KindEDF].Jobs[0].MeanDegradedReadTime())
		}
		t.Rows = append(t.Rows, []string{
			cse.label, f1(float64(cse.repair)),
			f3(lf), f3(edf), pct(stats.ReductionPercent(lf, edf)),
			f2(stats.Mean(lfRead)), f2(stats.Mean(edfRead)),
		})
	}
	return t, nil
}

func runExtDelay(ctx context.Context, o Options) (*Table, error) {
	seeds := o.seeds(15, 4)
	cfg, job := defaultSimConfig(o)
	kinds := []sched.Kind{sched.KindLF, sched.KindDelayLF, sched.KindEDF}
	runs, err := runSeeds(ctx, cfg, []mapred.JobSpec{job}, kinds, seeds, 9700, o, true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-delay",
		Title:   "delay scheduling vs degraded-first in failure mode",
		Columns: []string{"scheduler", "mean norm runtime", "remote tasks (mean)", "deg read (s)"},
		Notes: []string{
			"delay scheduling trades slot idleness for locality; it does nothing about degraded-read bunching",
		},
	}
	for _, k := range kinds {
		var remotes, reads []float64
		for _, r := range runs {
			remotes = append(remotes, float64(r.byKind[k].Jobs[0].RemoteTasks()))
			reads = append(reads, r.byKind[k].Jobs[0].MeanDegradedReadTime())
		}
		t.Rows = append(t.Rows, []string{
			k.String(),
			f3(stats.Mean(normalizedRuntimes(runs, k, 0))),
			f1(stats.Mean(remotes)),
			f2(stats.Mean(reads)),
		})
	}
	return t, nil
}

func init() {
	register(Experiment{
		ID:    "ext-midjob",
		Title: "Extension: node fails mid-job (Hadoop-style recovery)",
		Paper: "not in paper (it fails the node before the job): with a mid-map-phase failure EDF still beats LF, though both pay the re-execution cost",
		Run:   runExtMidJob,
	})
}

func runExtMidJob(ctx context.Context, o Options) (*Table, error) {
	seeds := o.seeds(15, 4)
	t := &Table{
		ID:      "ext-midjob",
		Title:   "mid-job failure: runtime vs failure time",
		Columns: []string{"failure time", "LF mean norm", "EDF mean norm", "EDF vs LF"},
		Notes: []string{
			"failure injected while the job runs; running tasks on the dead node re-execute, lost map outputs regenerate, reducers restart",
			"the paper's experiments fail the node before the job starts (first row reproduces that)",
		},
	}
	// The default map phase is roughly 180-250 s of virtual time. Quick mode
	// halves the block count (and so the phase length): the mid-phase
	// injection times scale with it, otherwise the late injection can land
	// after the job already finished and measure nothing.
	failTimes := []float64{0, 60, 150}
	if o.Quick {
		failTimes = []float64{0, 30, 75}
	}
	for i, failAt := range failTimes {
		cfg, job := defaultSimConfig(o)
		cfg.FailAt = failAt
		runs, err := runSeeds(ctx, cfg, []mapred.JobSpec{job},
			[]sched.Kind{sched.KindLF, sched.KindEDF}, seeds, int64(9900+100*i), o, true)
		if err != nil {
			return nil, err
		}
		lf := stats.Mean(normalizedRuntimes(runs, sched.KindLF, 0))
		edf := stats.Mean(normalizedRuntimes(runs, sched.KindEDF, 0))
		label := "before job (t=0)"
		if failAt > 0 {
			label = fmt.Sprintf("t=%.0fs (mid map phase)", failAt)
		}
		t.Rows = append(t.Rows, []string{
			label, f3(lf), f3(edf), pct(stats.ReductionPercent(lf, edf)),
		})
	}
	return t, nil
}
