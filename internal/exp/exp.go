// Package exp is the experiment registry: one runner per table and figure
// of the paper's evaluation. Each runner regenerates the corresponding
// artifact as a printable table; cmd/dfexp and the root bench suite drive
// them.
package exp

import (
	"context"
	"encoding/csv"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"degradedfirst/internal/scenario"
	"degradedfirst/internal/trace"
)

// Table is a printable experiment result. Its JSON form keeps this field
// order, so a table's JSON line is stable.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Notes carries the paper's expectation and any caveats.
	Notes []string `json:"notes,omitempty"`
}

// String renders the table as aligned text. Each column is as wide as its
// widest cell, so a ragged row wider than the header renders too.
func (t *Table) String() string {
	lines := append([][]string{t.Columns}, t.Rows...)
	var widths []int
	for _, cells := range lines {
		for i, cell := range cells {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len(cell))
		}
	}
	rule := make([]string, len(widths))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	for _, cells := range slices.Insert(lines, 1, rule) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as CSV, header row first; notes are omitted.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(t.Columns)
	w.WriteAll(t.Rows) // flushes; a strings.Builder does not fail
	return b.String()
}

// Options tunes experiment cost.
type Options struct {
	// Seeds overrides each experiment's default sample count (0 keeps the
	// default — 30 for simulation figures, 5 for testbed figures, as in
	// the paper).
	Seeds int
	// Quick shrinks workloads (fewer seeds, smaller F) for smoke runs and
	// benchmarks. Shapes still hold; absolute precision drops.
	Quick bool
	// Trace receives every underlying run's structured lifecycle events
	// (nil = no tracing). Events are labeled per run (scheduler and seed)
	// so one sink can absorb a whole experiment.
	Trace trace.Sink
	// JobSched restricts the jobsched experiment to one job-level policy
	// ("fifo", "fairshare", "quota" or "deadline"; empty = sweep all).
	// Other experiments ignore it.
	JobSched string
	// Scenario, if set, changes every point's scenario once its sweep
	// declares it; each run then takes its own seed and scheduler.
	Scenario func(*scenario.Scenario) error
}

// Experiment is one registered artifact reproduction.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes what the paper reports for this artifact.
	Paper string
	// Run regenerates the artifact. The context cancels in-flight
	// simulation runs at their next heartbeat.
	Run func(context.Context, Options) (*Table, error)
}

// _registry holds the experiments by ID. Only init functions write it.
var _registry = map[string]Experiment{}

// register adds an experiment; the tables its run returns take its ID.
func register(id, title, paper string, run func(context.Context, Options) (*Table, error)) {
	if _, dup := _registry[id]; dup {
		panic("exp: duplicate experiment " + id)
	}
	_registry[id] = Experiment{ID: id, Title: title, Paper: paper, Run: func(ctx context.Context, o Options) (*Table, error) {
		t, err := run(ctx, o)
		if err != nil {
			return nil, err
		}
		t.ID = id
		return t, nil
	}}
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := _registry[id]
	return e, ok
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(_registry))
	for _, e := range _registry {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b Experiment) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// parallelMap runs fn for i in [0, n), in order of i, on at most
// GOMAXPROCS goroutines and returns the first error. Once ctx is
// cancelled no further i starts; those running finish (their own ctx
// checks abort them promptly).
func parallelMap(ctx context.Context, n int, fn func(i int) error) error {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		once sync.Once
		err  error
	)
	for range max(min(runtime.GOMAXPROCS(0), n), 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
				if e := fn(i); e != nil {
					once.Do(func() { err = e })
				}
			}
		}()
	}
	wg.Wait()
	if err == nil {
		err = ctx.Err()
	}
	return err
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
