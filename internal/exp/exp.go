// Package exp is the experiment registry: one runner per table and figure
// of the paper's evaluation. Each runner regenerates the corresponding
// artifact as a printable table; cmd/dfexp and the root bench suite drive
// them.
package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"degradedfirst/internal/trace"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries the paper's expectation and any caveats.
	Notes []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	// Size widths to the widest row, not just the header: a ragged row with
	// more cells than Columns previously made writeRow index past the end
	// of widths and panic.
	ncols := len(t.Columns)
	for _, row := range t.Rows {
		if len(row) > ncols {
			ncols = len(row)
		}
	}
	widths := make([]int, ncols)
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (header row first; notes
// omitted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			// \r must force quoting too: a bare carriage return inside an
			// unquoted field breaks RFC 4180 consumers.
			if strings.ContainsAny(cell, ",\"\r\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// MarshalJSON implements json.Marshaler with a stable field layout.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Columns, t.Rows, t.Notes})
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
	// Parallelism bounds concurrent simulation runs (0 = NumCPU).
	Parallelism int
	// Trace receives every underlying run's structured lifecycle events
	// (nil = no tracing). Events are labeled per run (scheduler and seed)
	// so one sink can absorb a whole experiment.
	Trace trace.Sink
	// JobSched restricts the jobsched experiment to one job-level policy
	// ("fifo", "fairshare", "quota" or "deadline"; empty = sweep all).
	// Other experiments ignore it.
	JobSched string
}

func (o Options) seeds(def, quick int) int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	if o.Quick {
		return quick
	}
	return def
}

func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.NumCPU()
}

// memo holds the last runs of an experiment that several artifacts view,
// keyed by sample count and workload size, so within one process every
// artifact after the first reuses them: figs 8a-c share one set of
// simulations, and Fig. 9a and Table I one set of testbed runs.
type memo[T any] struct {
	mu  sync.Mutex
	key string
	val T
}

// get returns the runs for o at the given sample count, calling run on a
// miss. Errors are not remembered.
func (m *memo[T]) get(o Options, seeds int, run func() (T, error)) (T, error) {
	key := fmt.Sprintf("%d-%v", seeds, o.Quick)
	m.mu.Lock()
	if m.key == key {
		defer m.mu.Unlock()
		return m.val, nil
	}
	m.mu.Unlock()
	val, err := run()
	if err == nil {
		m.mu.Lock()
		m.key, m.val = key, val
		m.mu.Unlock()
	}
	return val, err
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

var (
	_mu       sync.Mutex
	_registry = map[string]Experiment{}
)

func register(e Experiment) {
	_mu.Lock()
	defer _mu.Unlock()
	if _, dup := _registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	_registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	_mu.Lock()
	defer _mu.Unlock()
	e, ok := _registry[id]
	return e, ok
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	_mu.Lock()
	defer _mu.Unlock()
	out := make([]Experiment, 0, len(_registry))
	for _, e := range _registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// parallelMap runs fn for i in [0, n) with bounded parallelism, collecting
// the first error. Cancelling ctx stops dispatching new work; indices
// already dispatched still run to completion (their own ctx checks abort
// them promptly).
func parallelMap(ctx context.Context, n, parallelism int, fn func(i int) error) error {
	if parallelism > n {
		parallelism = n
	}
	if parallelism < 1 {
		parallelism = 1
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
	)
	work := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	if firstEr == nil {
		firstEr = ctx.Err()
	}
	return firstEr
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
