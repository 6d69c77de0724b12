package exp

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"degradedfirst/internal/mapred"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/scenario"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// A point is one labelled setting of a sweep: the scenario its runs start
// from and the first of its seeds.
type point struct {
	label string
	seed  int64
	scenario.Scenario
}

// at declares a point of the Section V-B default scenario, changed by
// set unless set is nil.
func at(label string, seed int64, set func(*point)) func(Options) point {
	return func(o Options) point {
		p := point{label: label, seed: seed, Scenario: scenario.Paper()}
		if o.Quick {
			p.NumBlocks = 720
		}
		if set != nil {
			set(&p)
		}
		return p
	}
}

// list declares a sweep's points as a fixed list.
func list(points ...func(Options) point) func(Options) []point {
	return func(o Options) []point {
		out := make([]point, len(points))
		for i, p := range points {
			out[i] = p(o)
		}
		return out
	}
}

// A sweep declares an experiment: its points, the schedulers each runs
// under at each seed, and its table's columns. The table has a row per
// point unless split lays a point out over several.
type sweep struct {
	title   string
	caption func(first point, seeds int) string // if set, titles the table instead
	notes   []string
	// seeds are the default and -quick sample counts. Without them a
	// sweep runs one seed, whatever Options.Seeds says.
	seeds  [2]int
	kinds  []sched.Kind // empty: each point's own Scheduler
	normal bool         // also run each seed failure-free under LF, to normalize by
	points func(Options) []point
	split  func(row) []row
	cols   []column[row]
	trace  func(label string, c mapred.Config) string // nil: "<scheduler>/seed<seed>"
	memo   *memo
}

func (s sweep) run(ctx context.Context, o Options) (*Table, error) {
	if err := ctx.Err(); err != nil { // even when the memo holds the runs
		return nil, err
	}
	pts := s.points(o)
	for i := range pts {
		if o.Scenario != nil {
			if err := o.Scenario(&pts[i].Scenario); err != nil {
				return nil, err
			}
		}
	}
	seeds := s.seeds[0]
	switch {
	case seeds == 0:
		seeds = 1
	case o.Seeds > 0:
		seeds = o.Seeds
	case o.Quick:
		seeds = s.seeds[1]
	}
	runs, err := s.memo.get(fmt.Sprintf("%d-%v", seeds, o.Quick), o.Trace != nil || o.Scenario != nil, func() ([][][]*runtime.Result, error) {
		return s.runAll(ctx, o, pts, seeds)
	})
	if err != nil {
		return nil, err
	}
	t := &Table{Title: s.title, Notes: s.notes}
	if s.caption != nil {
		t.Title = s.caption(pts[0], seeds)
	}
	var rows []row
	for i, p := range pts {
		r := row{point: p, runs: runs[i], kinds: s.kinds}
		if s.split == nil {
			rows = append(rows, r)
		} else {
			rows = append(rows, s.split(r)...)
		}
	}
	return tabulate(t, rows, s.cols), nil
}

// runAll runs every point under every scheduler at every seed in one
// parallelMap. It returns the results indexed [point][seed][scheduler],
// the failure-free run last.
func (s sweep) runAll(ctx context.Context, o Options, pts []point, seeds int) ([][][]*runtime.Result, error) {
	slots := max(len(s.kinds), 1)
	if s.normal {
		slots++
	}
	out := make([][][]*runtime.Result, len(pts))
	for i := range out {
		out[i] = make([][]*runtime.Result, seeds)
		for j := range out[i] {
			out[i][j] = make([]*runtime.Result, slots)
		}
	}
	perPoint := seeds * slots
	err := parallelMap(ctx, len(pts)*perPoint, func(i int) error {
		p, seed, slot := pts[i/perPoint], i%perPoint/slots, i%slots
		c := p.Scenario
		c.Seed, c.Trace = p.seed+int64(seed), o.Trace
		if slot < len(s.kinds) {
			c.Scheduler = s.kinds[slot]
		}
		c.TraceLabel = fmt.Sprintf("%v/seed%d", c.Scheduler, c.Seed)
		switch {
		case s.normal && slot == slots-1:
			c.Scheduler, c.Failure, c.FailNodes = sched.KindLF, topology.NoFailure, nil
			c.TraceLabel = fmt.Sprintf("normal/seed%d", c.Seed)
		case s.trace != nil:
			c.TraceLabel = s.trace(p.label, c.Config)
		}
		var err error
		if len(c.Testbed) == 0 {
			out[i/perPoint][seed][slot], err = mapred.RunContext(ctx, c.Config, c.Jobs)
		} else {
			out[i/perPoint][seed][slot], err = runTestbed(ctx, c)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c.TraceLabel, err)
		}
		return nil
	})
	return out, err
}

// A memo holds the last runs of a sweep that several experiments view, so
// in one process each after the first reuses them: figs 8a-c share one
// set of simulations, and Fig. 9a and Table I one set of testbed runs.
type memo struct {
	mu   sync.Mutex
	key  string
	runs [][][]*runtime.Result
}

// get returns the runs remembered under key, or calls run and remembers
// what it returns. Errors are not remembered. A nil memo always calls
// run, and so does a fresh one: a traced run, which must emit its runs'
// events, or one whose scenarios Options.Scenario changed.
func (m *memo) get(key string, fresh bool, run func() ([][][]*runtime.Result, error)) ([][][]*runtime.Result, error) {
	if m == nil || fresh {
		return run()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.key != key {
		runs, err := run()
		if err != nil {
			return nil, err
		}
		m.key, m.runs = key, runs
	}
	return m.runs, nil
}

// A column is one declared table column: its header and how a row
// renders its cell.
type column[R any] struct {
	name string
	cell func(R) string
}

// tabulate fills t with the columns' header and a line of cells per row.
func tabulate[R any](t *Table, rows []R, cols []column[R]) *Table {
	for _, c := range cols {
		t.Columns = append(t.Columns, c.name)
	}
	for _, r := range rows {
		cells := make([]string, len(cols))
		for i, c := range cols {
			cells[i] = c.cell(r)
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}

// A row is what one table row summarizes: a point's runs at every seed
// and, when a split lays the point out over several rows, the label and
// the scheduler, job, task type or tenant of this one.
type row struct {
	point
	runs   [][]*runtime.Result // [seed][scheduler], the failure-free run last
	kinds  []sched.Kind
	name   string
	kind   sched.Kind
	job    int
	task   taskType
	tenant string // if set, pool reads only this tenant's jobs
}

// rowKind, in a column declaration, stands for a per-scheduler row's own
// scheduler.
const rowKind sched.Kind = -1

// jobAt returns the row's job in scheduler k's run at the given seed.
func (r row) jobAt(seed int, k sched.Kind) *runtime.JobResult {
	if k == rowKind {
		k = r.kind
	}
	return &r.runs[seed][slices.Index(r.kinds, k)].Jobs[r.job]
}

// of returns metric of the row's job under scheduler k, per seed, and
// norm the job's runtime over its failure-free runtime.
func (r row) of(k sched.Kind, metric func(*runtime.JobResult) float64) []float64 {
	out := make([]float64, len(r.runs))
	for s := range r.runs {
		out[s] = metric(r.jobAt(s, k))
	}
	return out
}

func (r row) norm(k sched.Kind) []float64 {
	out := r.of(k, jobRuntime)
	for s, runs := range r.runs {
		out[s] /= runs[len(runs)-1].Jobs[r.job].Runtime()
	}
	return out
}

// vsLF is the mean over seeds of scheduler k's change in metric against
// LF's, in percent: a cut if cut is set, else an increase. Seeds where
// LF's value is zero are left out.
func (r row) vsLF(k sched.Kind, metric func(*runtime.JobResult) float64, cut bool) float64 {
	lf, got := r.of(sched.KindLF, metric), r.of(k, metric)
	var vals []float64
	for s := range lf {
		switch {
		case lf[s] == 0:
		case cut:
			vals = append(vals, stats.ReductionPercent(lf[s], got[s]))
		default:
			vals = append(vals, stats.IncreasePercent(lf[s], got[s]))
		}
	}
	return stats.Mean(vals)
}

// pool gathers values from each job of every seed's run, and total and
// mean sum and average metric over those runs, in sweeps whose points
// run one scheduler.
func (r row) pool(values func(*runtime.JobResult) []float64) []float64 {
	var out []float64
	for _, runs := range r.runs {
		for j := range runs[0].Jobs {
			if job := &runs[0].Jobs[j]; r.tenant == "" || job.Tenant == r.tenant {
				out = append(out, values(job)...)
			}
		}
	}
	return out
}

func (r row) total(metric func(*runtime.Result) float64) float64 {
	var sum float64
	for _, runs := range r.runs {
		sum += metric(runs[0])
	}
	return sum
}

func (r row) mean(metric func(*runtime.Result) float64) float64 {
	return r.total(metric) / float64(len(r.runs))
}

// perKind lays a point out as a row per scheduler, and perJob as a row
// per job.
func perKind(r row) []row {
	rows := make([]row, len(r.kinds))
	for i, k := range r.kinds {
		rows[i], rows[i].kind, rows[i].name = r, k, k.String()
	}
	return rows
}

func perJob(r row) []row {
	rows := make([]row, len(r.runs[0][0].Jobs))
	for j := range rows {
		rows[j], rows[j].job, rows[j].name = r, j, r.runs[0][0].Jobs[j].Name
	}
	return rows
}

// Column declarations shared by the tables: the row's point and split
// labels; the mean of a job metric under scheduler k, and its cut of
// LF's mean; the mean normalized runtime under k, and its cut of LF's;
// and the q-quantile of values pooled over a row's runs ("-" if none).

func labelCol(name string) column[row] {
	return column[row]{name, func(r row) string { return r.label }}
}

func nameCol(name string) column[row] {
	return column[row]{name, func(r row) string { return r.name }}
}

func meanCol(name string, k sched.Kind, metric func(*runtime.JobResult) float64, format func(float64) string) column[row] {
	return column[row]{name, func(r row) string { return format(stats.Mean(r.of(k, metric))) }}
}

func cutCol(name string, k sched.Kind, metric func(*runtime.JobResult) float64) column[row] {
	return column[row]{name, func(r row) string {
		return pct(stats.ReductionPercent(stats.Mean(r.of(sched.KindLF, metric)), stats.Mean(r.of(k, metric))))
	}}
}

func normCol(name string, k sched.Kind) column[row] {
	return column[row]{name, func(r row) string { return f3(stats.Mean(r.norm(k))) }}
}

func normCut(name string, k sched.Kind) column[row] {
	return column[row]{name, func(r row) string {
		return pct(stats.ReductionPercent(stats.Mean(r.norm(sched.KindLF)), stats.Mean(r.norm(k))))
	}}
}

func poolCol(name string, q float64, format func(float64) string, values func(*runtime.JobResult) []float64) column[row] {
	return column[row]{name, func(r row) string {
		pooled := r.pool(values)
		if len(pooled) == 0 {
			return "-"
		}
		return format(stats.Quantile(pooled, q))
	}}
}
