package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"degradedfirst/internal/runtime"
	"degradedfirst/internal/scenario"
	"degradedfirst/internal/trace"
)

func quickOpts() Options {
	return Options{Quick: true, Seeds: 2}
}

// quick holds one quickOpts run of every registered experiment. The golden
// test pins its JSON lines and the shape tests read its tables, so each
// experiment runs once per test binary.
var quick struct {
	once   sync.Once
	tables map[string]*Table
	lines  []byte
	err    error
}

// quickRun runs every experiment under quickOpts on its first call and
// returns the tables by ID and their JSON lines.
func quickRun(t *testing.T) (map[string]*Table, []byte) {
	t.Helper()
	quick.once.Do(func() {
		quick.tables = map[string]*Table{}
		var buf bytes.Buffer
		for _, e := range All() {
			tab, err := e.Run(context.Background(), quickOpts())
			if err != nil {
				quick.err = err
				return
			}
			js, err := json.Marshal(tab)
			if err != nil {
				quick.err = err
				return
			}
			buf.Write(js)
			buf.WriteByte('\n')
			quick.tables[e.ID] = tab
		}
		quick.lines = buf.Bytes()
	})
	if quick.err != nil {
		t.Fatal(quick.err)
	}
	return quick.tables, quick.lines
}

// quickTable returns experiment id's table from the shared quick run.
func quickTable(t *testing.T, id string) *Table {
	t.Helper()
	tables, _ := quickRun(t)
	checkTable(t, id, tables[id])
	return tables[id]
}

func runExp(t *testing.T, id string, o Options) *Table {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	tab, err := e.Run(context.Background(), o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	checkTable(t, id, tab)
	return tab
}

func checkTable(t *testing.T, id string, tab *Table) {
	t.Helper()
	if tab == nil || tab.ID != id || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
		t.Fatalf("%s: malformed table %+v", id, tab)
	}
	if tab.String() == "" {
		t.Fatalf("%s: empty rendering", id)
	}
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

// TestQuickGolden pins every experiment's quick output byte for byte, one
// JSON line per experiment in ID order: what dfexp -all -quick -seeds 2
// -format json prints. Regenerate with: bash scripts/goldens.sh update.
func TestQuickGolden(t *testing.T) {
	_, lines := quickRun(t)
	golden := filepath.Join("testdata", "quick.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: bash scripts/goldens.sh update)", err)
	}
	if bytes.Equal(lines, want) {
		return
	}
	got, wantLines := strings.Split(string(lines), "\n"), strings.Split(string(want), "\n")
	for i := range wantLines {
		if i < len(got) && got[i] != wantLines[i] {
			t.Fatalf("line %d drifted from golden.\ngot:\n%s\nwant:\n%s", i+1, got[i], wantLines[i])
		}
	}
	t.Fatalf("got %d lines, golden has %d", len(got), len(wantLines))
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig5a", "fig5b", "fig5c",
		"fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f",
		"fig8a", "fig8b", "fig8c", "fig8d",
		"fig9a", "fig9b", "table1",
		"ablation-netmode", "ablation-sources", "ablation-pacing",
		"ext-lrc", "ext-delay", "ext-midjob",
		"jobsched", "hedge", "scale", "repair",
	}
	all := All()
	got := map[string]bool{}
	for _, e := range all {
		got[e.ID] = true
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(all) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(all), len(want))
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get must miss unknown IDs")
	}
}

func TestFig3ReproducesPaper(t *testing.T) {
	tab := quickTable(t, "fig3")
	lf := cellFloat(t, tab.Rows[0][1])
	df := cellFloat(t, tab.Rows[1][1])
	if lf < 39 || lf > 43 {
		t.Errorf("LF map phase %.1f not ~40 s", lf)
	}
	if df < 29 || df > 33 {
		t.Errorf("DF map phase %.1f not ~30 s", df)
	}
	saving := cellFloat(t, tab.Rows[2][1])
	if saving < 20 || saving > 30 {
		t.Errorf("saving %.1f%% not ~25%%", saving)
	}
}

func TestFig4ReproducesPaper(t *testing.T) {
	tab := quickTable(t, "fig4")
	// Three degraded launches plus a map-phase-end row.
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4: %v", len(tab.Rows), tab.Rows)
	}
	wantPos := []string{"#1", "#5", "#9"}
	wantTimes := []float64{0, 10, 30}
	for i := 0; i < 3; i++ {
		if tab.Rows[i][0] != wantPos[i] {
			t.Errorf("degraded launch %d at position %s, want %s", i, tab.Rows[i][0], wantPos[i])
		}
		at := cellFloat(t, tab.Rows[i][2])
		if at < wantTimes[i]-1.5 || at > wantTimes[i]+2.5 {
			t.Errorf("degraded launch %d at %.1f s, want ~%.0f s", i, at, wantTimes[i])
		}
	}
}

func TestFig5Family(t *testing.T) {
	for _, id := range []string{"fig5a", "fig5b", "fig5c"} {
		tab := quickTable(t, id)
		for _, row := range tab.Rows {
			lf := cellFloat(t, row[1])
			df := cellFloat(t, row[2])
			if df >= lf {
				t.Errorf("%s %s: DF %.3f not below LF %.3f", id, row[0], df, lf)
			}
		}
	}
}

func TestFig7aShape(t *testing.T) {
	tab := quickTable(t, "fig7a")
	var prev float64
	for i, row := range tab.Rows {
		red := cellFloat(t, row[5])
		if red <= 0 {
			t.Errorf("fig7a %s: EDF not better than LF (%.1f%%)", row[0], red)
		}
		if i > 0 && red < prev-12 {
			t.Errorf("fig7a: reduction collapsed between rows (%.1f%% -> %.1f%%)", prev, red)
		}
		prev = red
	}
}

func TestFig7dShape(t *testing.T) {
	tab := quickTable(t, "fig7d")
	single := cellFloat(t, tab.Rows[0][5])
	rack := cellFloat(t, tab.Rows[2][5])
	if single <= 0 {
		t.Errorf("single-node reduction %.1f%% not positive", single)
	}
	if rack >= single {
		t.Errorf("rack-failure gain (%.1f%%) should trail single-node gain (%.1f%%)", rack, single)
	}
}

func TestFig7fShape(t *testing.T) {
	tab := quickTable(t, "fig7f")
	positive := 0
	for _, row := range tab.Rows {
		if cellFloat(t, row[4]) > 0 {
			positive++
		}
	}
	if positive < len(tab.Rows)/2 {
		t.Errorf("EDF beat LF for only %d/%d jobs", positive, len(tab.Rows))
	}
}

func TestFig8Shapes(t *testing.T) {
	a := quickTable(t, "fig8a")
	for _, row := range a.Rows {
		bdf := cellFloat(t, row[1])
		edf := cellFloat(t, row[2])
		if bdf <= edf {
			t.Errorf("fig8a %s: BDF remote increase (%.1f%%) should exceed EDF's (%.1f%%)", row[0], bdf, edf)
		}
	}
	b := quickTable(t, "fig8b")
	for _, row := range b.Rows {
		if cellFloat(t, row[1]) < 30 || cellFloat(t, row[2]) < 30 {
			t.Errorf("fig8b %s: degraded-read cuts too small: %v", row[0], row)
		}
	}
	c := quickTable(t, "fig8c")
	for _, row := range c.Rows {
		if cellFloat(t, row[2]) <= 0 {
			t.Errorf("fig8c %s: EDF runtime cut not positive", row[0])
		}
	}
	d := quickTable(t, "fig8d")
	bdf := cellFloat(t, d.Rows[0][1])
	edf := cellFloat(t, d.Rows[0][2])
	if edf <= bdf {
		t.Errorf("fig8d: EDF (%.1f%%) should beat BDF (%.1f%%) in the extreme case", edf, bdf)
	}
}

func TestFig9aShape(t *testing.T) {
	tab := quickTable(t, "fig9a")
	for _, row := range tab.Rows {
		if cellFloat(t, row[5]) <= 0 {
			t.Errorf("fig9a %s: EDF not better (%s)", row[0], row[5])
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tab := quickTable(t, "table1")
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 (3 jobs x 3 task types)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[1] != "degraded map" {
			continue
		}
		if cellFloat(t, row[5]) <= 0 {
			t.Errorf("table1 %s: degraded-map runtime not reduced (%s)", row[0], row[5])
		}
	}
}

func TestAblationPacingShape(t *testing.T) {
	tab := quickTable(t, "ablation-pacing")
	byName := map[string]float64{}
	for _, row := range tab.Rows {
		byName[row[0]] = cellFloat(t, row[1])
	}
	if byName["BDF"] >= byName["LF"] {
		t.Errorf("BDF (%.3f) should beat LF (%.3f)", byName["BDF"], byName["LF"])
	}
	if byName["EDF"] > byName["BDF"]+0.1 {
		t.Errorf("EDF (%.3f) should not trail BDF (%.3f) badly", byName["EDF"], byName["BDF"])
	}
}

func TestTableCSVAndJSON(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", `with "quote", and comma`}},
		Notes:   []string{"n"},
	}
	csv := tab.CSV()
	if !strings.Contains(csv, "a,b\n") || !strings.Contains(csv, `"with ""quote"", and comma"`) {
		t.Fatalf("CSV rendering wrong: %q", csv)
	}
	js, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id":"x"`, `"columns":["a","b"]`, `"notes":["n"]`} {
		if !strings.Contains(string(js), want) {
			t.Fatalf("JSON missing %s: %s", want, js)
		}
	}
}

func TestExtLRCShape(t *testing.T) {
	tab := quickTable(t, "ext-lrc")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	rsGain := cellFloat(t, tab.Rows[0][4])
	lrcGain := cellFloat(t, tab.Rows[1][4])
	if lrcGain <= 0 {
		t.Errorf("EDF should still beat LF under LRC (got %.1f%%)", lrcGain)
	}
	if lrcGain >= rsGain {
		t.Errorf("LRC gain (%.1f%%) should be smaller than RS gain (%.1f%%)", lrcGain, rsGain)
	}
	// LRC's LF degraded reads must be cheaper than RS's.
	if cellFloat(t, tab.Rows[1][5]) >= cellFloat(t, tab.Rows[0][5]) {
		t.Error("LRC degraded reads should be cheaper than RS")
	}
}

func TestExtDelayShape(t *testing.T) {
	tab := quickTable(t, "ext-delay")
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	lf := cellFloat(t, byName["LF"][1])
	edf := cellFloat(t, byName["EDF"][1])
	if edf >= lf {
		t.Errorf("EDF (%.3f) should beat LF (%.3f)", edf, lf)
	}
	// Delay scheduling reduces remote tasks relative to LF.
	if cellFloat(t, byName["DelayLF"][2]) > cellFloat(t, byName["LF"][2]) {
		t.Error("delay scheduling should not increase remote tasks")
	}
}

func TestFig3TraceCarriesTransfers(t *testing.T) {
	var mem trace.Memory
	o := quickOpts()
	o.Trace = &mem
	runExp(t, "fig3", o)
	events := mem.Events()
	if len(events) == 0 {
		t.Fatal("fig3 produced no trace events")
	}
	labels := map[string]int{}
	for _, e := range events {
		if e.Type == trace.EvTransferEnd {
			labels[e.Run]++
		}
	}
	// Both scripted schedules issue four degraded-read downloads each.
	if labels["fig3/lf"] != 4 || labels["fig3/df"] != 4 {
		t.Fatalf("completed transfers per schedule = %v, want 4 under fig3/lf and fig3/df", labels)
	}
}

func TestExperimentTraceLabels(t *testing.T) {
	var mem trace.Memory
	o := quickOpts()
	o.Trace = &mem
	runExp(t, "fig4", o)
	events := mem.Events()
	if len(events) == 0 {
		t.Fatal("fig4 produced no trace events")
	}
	for _, e := range events {
		if e.Run != "fig4" {
			t.Fatalf("event label = %q, want fig4", e.Run)
		}
	}
}

// TestRunnerCancellation: cancelling the context aborts every runner
// shape, whether before the run or in flight: a mapred sweep normalized
// by failure-free runs, a testbed sweep, a sweep of points that run their
// own scheduler, and a one-seed storm. In flight, the first traced event
// cancels, so the runs and the dispatch of the rest must stop.
func TestRunnerCancellation(t *testing.T) {
	for _, id := range []string{"fig7a", "fig9a", "hedge", "jobsched"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		t.Run(id+"/before", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := e.Run(ctx, quickOpts()); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
		t.Run(id+"/in-flight", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			o := quickOpts()
			o.Trace = cancelSink(cancel)
			if _, err := e.Run(ctx, o); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// cancelSink cancels its context at the first event it receives.
type cancelSink context.CancelFunc

func (c cancelSink) Emit(trace.Event) { c() }

// countSink counts the events it receives.
type countSink struct {
	mu sync.Mutex
	n  int
}

func (c *countSink) Emit(trace.Event) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// TestMemoizedRunsTrace: an experiment that views another's runs must
// still emit their events when traced. Table I shares Fig. 9a's runs; a
// traced table1 right after a traced fig9a must trace the same runs
// rather than serve them silently from the memo.
func TestMemoizedRunsTrace(t *testing.T) {
	o := Options{Quick: true, Seeds: 1} // a sample count no other test uses
	var counts []int
	for _, id := range []string{"fig9a", "table1"} {
		sink := &countSink{}
		o.Trace = sink
		runExp(t, id, o)
		counts = append(counts, sink.n)
	}
	if counts[0] == 0 || counts[1] != counts[0] {
		t.Fatalf("events traced by fig9a, table1 = %v, want the same nonzero count", counts)
	}
}

// TestSerialMatchesGolden: the runner spreads a sweep's points, schedulers
// and seeds over GOMAXPROCS workers in any order, so one worker must
// produce the golden tables too. The memos are reset first, so the tables
// are computed here rather than served from the shared quick run.
func TestSerialMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	fig8Memo, fig9aMemo = memo{}, memo{}
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	o := quickOpts()
	for _, id := range []string{"fig7a", "fig7f", "fig8a", "fig9a", "hedge", "repair", "jobsched"} {
		js, err := json.Marshal(runExp(t, id, o))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(want, append(js, '\n')) {
			t.Errorf("%s on one worker differs from the golden line:\n%s", id, js)
		}
	}
}

func TestExtMidJobShape(t *testing.T) {
	tab := quickTable(t, "ext-midjob")
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if cellFloat(t, row[3]) <= 0 {
			t.Errorf("%s: EDF should beat LF (got %s)", row[0], row[3])
		}
	}
}

func TestJobSchedShape(t *testing.T) {
	tab := quickTable(t, "jobsched")
	// Four policies, each with an (all) row plus one row per tenant.
	if len(tab.Rows) != 4*4 {
		t.Fatalf("rows = %d, want 16", len(tab.Rows))
	}
	byPolicy := map[string][][]string{}
	for _, row := range tab.Rows {
		byPolicy[row[0]] = append(byPolicy[row[0]], row)
	}
	for _, policy := range []string{"fifo", "fairshare", "quota", "deadline"} {
		rows := byPolicy[policy]
		if len(rows) != 4 {
			t.Fatalf("%s: %d rows", policy, len(rows))
		}
		if rows[0][1] != "(all)" || rows[1][1] != "alpha" || rows[2][1] != "beta" || rows[3][1] != "gamma" {
			t.Fatalf("%s: tenant order wrong: %v", policy, rows)
		}
		// The summary row carries the makespan; percentiles are ordered.
		if cellFloat(t, rows[0][8]) <= 0 {
			t.Fatalf("%s: makespan %q not positive", policy, rows[0][8])
		}
		for _, row := range rows {
			p50, p90, p99 := cellFloat(t, row[3]), cellFloat(t, row[4]), cellFloat(t, row[5])
			if p50 < 0 || p90 < p50 || p99 < p90 {
				t.Fatalf("%s %s: wait percentiles not monotone: %v", policy, row[1], row[3:6])
			}
		}
	}
	// Fair-share must serve the heavy tenant at least as fast as the light
	// one at the median (that is the policy's whole point).
	fsAlpha := cellFloat(t, byPolicy["fairshare"][1][3])
	fsGamma := cellFloat(t, byPolicy["fairshare"][3][3])
	if fsAlpha > fsGamma {
		t.Errorf("fairshare: alpha median wait %.2f exceeds gamma's %.2f", fsAlpha, fsGamma)
	}
}

func TestJobSchedPolicyFilter(t *testing.T) {
	o := quickOpts()
	o.JobSched = "fairshare"
	tab := runExp(t, "jobsched", o)
	if len(tab.Rows) != 4 {
		t.Fatalf("filtered rows = %d, want 4", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[0] != "fairshare" {
			t.Fatalf("filter leaked policy %q", row[0])
		}
	}
	o.JobSched = "lottery"
	e, _ := Get("jobsched")
	if _, err := e.Run(context.Background(), o); err == nil {
		t.Fatal("unknown policy filter must fail")
	}
}

// TestHedgeShape pins the hedge table's headline claims: under the
// queueing (hold) regime eager k+Δ races strictly cut the degraded-read
// tail, and under fair sharing the redundant flows' extra bytes are
// reported as waste. Unhedged rows must stay waste-free with no per-flow
// latency columns.
func TestHedgeShape(t *testing.T) {
	tab := quickTable(t, "hedge")
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 (2 net modes x 5 policies)", len(tab.Rows))
	}
	byKey := map[string][]string{}
	for _, row := range tab.Rows {
		byKey[row[0]+"/"+row[1]] = row
		p50, p90, p99 := cellFloat(t, row[3]), cellFloat(t, row[4]), cellFloat(t, row[5])
		if p50 <= 0 || p90 < p50 || p99 < p90 {
			t.Fatalf("%s/%s: read percentiles not monotone: %v", row[0], row[1], row[3:6])
		}
	}
	// The acceptance claim: under failure, Δ>=1 pulls the p99 degraded-read
	// latency strictly below the Δ=0 baseline.
	base := cellFloat(t, byKey["hold/delta=0"][5])
	d1 := cellFloat(t, byKey["hold/delta=1"][5])
	d2 := cellFloat(t, byKey["hold/delta=2"][5])
	if d1 >= base {
		t.Errorf("hold: delta=1 p99 %.1f not below delta=0 baseline %.1f", d1, base)
	}
	if d2 >= base {
		t.Errorf("hold: delta=2 p99 %.1f not below delta=0 baseline %.1f", d2, base)
	}
	// Unhedged rows record no per-flow latencies and waste nothing.
	for _, mode := range []string{"hold", "fluid"} {
		row := byKey[mode+"/delta=0"]
		if row[6] != "-" || row[7] != "-" {
			t.Errorf("%s/delta=0: flow columns %v, want '-'", mode, row[6:8])
		}
		if cellFloat(t, row[9]) != 0 {
			t.Errorf("%s/delta=0: wasted %s, want 0", mode, row[9])
		}
	}
	// Fair sharing pays for redundancy in reported extra bytes.
	if cellFloat(t, byKey["fluid/delta=1"][9]) <= 0 {
		t.Error("fluid/delta=1: no wasted bytes reported")
	}
	if cellFloat(t, byKey["fluid/delta=2"][9]) <= cellFloat(t, byKey["fluid/delta=1"][9]) {
		t.Error("fluid: delta=2 should waste more than delta=1")
	}
}

// TestRepairShape pins the repair table's headline trade-off: raising
// the healer's bandwidth cap monotonically shortens time-to-full-
// redundancy under every scheduler, the disabled baseline reports no
// repair columns, and every enabled run heals (moves repair bytes and
// commits blocks).
func TestRepairShape(t *testing.T) {
	tab := quickTable(t, "repair")
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 (3 scheds x 4 throttles)", len(tab.Rows))
	}
	bySched := map[string][][]string{}
	for _, row := range tab.Rows {
		bySched[row[0]] = append(bySched[row[0]], row)
	}
	for schedName, rows := range bySched {
		if len(rows) != 4 {
			t.Fatalf("%s: %d rows, want 4", schedName, len(rows))
		}
		if rows[0][1] != "off" {
			t.Fatalf("%s: first row %q, want the disabled baseline", schedName, rows[0][1])
		}
		for _, cell := range rows[0][4:8] {
			if cell != "-" {
				t.Errorf("%s/off: repair cell %q, want '-'", schedName, cell)
			}
		}
		prevHealed := -1.0
		for _, row := range rows[1:] {
			if cellFloat(t, row[6]) <= 0 || cellFloat(t, row[7]) <= 0 {
				t.Fatalf("%s/%s: no repair work reported: %v", schedName, row[1], row)
			}
			healed := cellFloat(t, row[5])
			if healed <= 0 {
				t.Fatalf("%s/%s: healed-at %.1f not after the failure", schedName, row[1], healed)
			}
			if cellFloat(t, row[4]) > healed {
				t.Errorf("%s/%s: first fix after full redundancy: %v", schedName, row[1], row)
			}
			if prevHealed >= 0 && healed > prevHealed {
				t.Errorf("%s: healed-at not monotone in throttle (%.1f after %.1f at %s)",
					schedName, healed, prevHealed, row[1])
			}
			prevHealed = healed
		}
		// The extreme ends of the sweep must be strictly ordered.
		if hi, lo := cellFloat(t, rows[1][5]), cellFloat(t, rows[3][5]); lo >= hi {
			t.Errorf("%s: 100%% throttle heals in %.1f, not below 5%%'s %.1f", schedName, lo, hi)
		}
	}
}

func TestTableStringRaggedRows(t *testing.T) {
	// Regression: a row wider than the header used to index past the end of
	// the widths slice and panic. Ragged tables must render, padding the
	// extra columns by their own width.
	tab := &Table{
		ID:      "ragged",
		Title:   "ragged rows",
		Columns: []string{"a", "b"},
		Rows: [][]string{
			{"1", "2", "extra-wide-cell", "x"},
			{"3"},
		},
	}
	out := tab.String()
	if !strings.Contains(out, "extra-wide-cell") {
		t.Fatalf("ragged render lost cells:\n%s", out)
	}
	if !strings.Contains(out, "ragged rows") {
		t.Fatalf("render lost title:\n%s", out)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tab := &Table{
		ID:      "csv",
		Title:   "quoting",
		Columns: []string{"plain", "comma", "quote", "newline", "cr"},
		Rows: [][]string{
			{"v", "a,b", `say "hi"`, "line1\nline2", "carriage\rreturn"},
		},
	}
	got := tab.CSV()
	wantRow := `v,"a,b","say ""hi""","line1` + "\n" + `line2","carriage` + "\r" + `return"` + "\n"
	lines := strings.SplitN(got, "\n", 2)
	if len(lines) != 2 || lines[0] != "plain,comma,quote,newline,cr" {
		t.Fatalf("CSV header wrong:\n%s", got)
	}
	if lines[1] != wantRow {
		t.Fatalf("CSV row = %q, want %q", lines[1], wantRow)
	}
}

// TestFig9aRowReportsTrueExtremes: one outlier run among five must show
// up in the min/max column, not be cut off at a box plot's whisker.
func TestFig9aRowReportsTrueExtremes(t *testing.T) {
	lf := []float64{100, 101, 102, 103, 160}
	edf := []float64{80, 20, 81, 82, 83}
	r := row{point: point{label: "wordcount"}, kinds: lfEDF}
	for s := range lf {
		r.runs = append(r.runs, []*runtime.Result{
			{Jobs: []runtime.JobResult{{FinishTime: lf[s]}}},
			{Jobs: []runtime.JobResult{{FinishTime: edf[s]}}},
		})
	}
	cells := tabulate(&Table{}, []row{r}, fig9aCols).Rows[0]
	if got, want := cells[2], "100.0/160.0"; got != want {
		t.Errorf("LF min/max = %s, want %s", got, want)
	}
	if got, want := cells[4], "20.0/83.0"; got != want {
		t.Errorf("EDF min/max = %s, want %s", got, want)
	}
}

// TestTestbedRunsKeepNoOutputs: fig9aMemo keeps every run of the last
// Fig. 9a sweep for Table I, so a run must keep its Result and not the
// jobs' outputs with it. After a 3-seed quick fig9a the live heap may grow
// by at most twice the bytes of the records the memo holds, plus one heap
// page for each object holding them (the most a live object can pin in a
// collected heap). It grows by about a third of that bound; a pointer into
// minimr's Report kept each run's output maps, and the heap grew by about
// 90 times the bound.
func TestTestbedRunsKeepNoOutputs(t *testing.T) {
	const page = 8 << 10
	fig9aMemo.key, fig9aMemo.runs = "", nil
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	runExp(t, "fig9a", Options{Quick: true, Seeds: 3})
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	var records, objects, runs int
	for _, point := range fig9aMemo.runs {
		for _, seed := range point {
			for _, res := range seed {
				runs++
				objects += 3 // the Result, its Failed and its Jobs
				for _, j := range res.Jobs {
					objects += 3 // the job's name, Tasks and Reduces
					records += cap(j.Tasks)*int(unsafe.Sizeof(runtime.TaskRecord{})) +
						cap(j.Reduces)*int(unsafe.Sizeof(runtime.ReduceRecord{}))
				}
			}
		}
	}
	if runs != 18 {
		t.Fatalf("memo holds %d runs, want 3 seeds x 3 jobs x LF and EDF", runs)
	}
	grew, bound := int(after.HeapInuse)-int(before.HeapInuse), 2*records+objects*page
	t.Logf("%d runs kept: live heap grew %d bytes, bound %d (%d bytes of records in %d objects)",
		runs, grew, bound, records, objects)
	if grew > bound {
		t.Errorf("live heap grew %d bytes (%d per run) keeping %d testbed runs, bound %d: a run keeps more than its Result",
			grew, grew/runs, runs, bound)
	}
}

// TestScenarioChangesEveryPoint: Options.Scenario changes each point's
// scenario before its runs, and a change that fails, a testbed world it
// leaves unbuildable or a job it leaves unknown fails the experiment.
func TestScenarioChangesEveryPoint(t *testing.T) {
	set := func(path, value string) Options {
		return Options{Quick: true, Seeds: 1, Scenario: func(s *scenario.Scenario) error { return s.Set(path, value) }}
	}
	hedge, _ := Get("hedge")
	tab, err := hedge.Run(context.Background(), set("NumBlocks", "24"))
	if err != nil || !strings.Contains(tab.Title, "24 blocks") {
		t.Fatalf("hedge with NumBlocks=24: %v, %v", tab, err)
	}
	fig9a, _ := Get("fig9a")
	for _, c := range [][3]string{
		{"Bogus", "1", `unknown field "Bogus"`},
		{"FailAt", "5", "FailAt"},
		{"Testbed.0.kind", "sort", `unknown job kind "sort"`},
	} {
		if _, err := fig9a.Run(context.Background(), set(c[0], c[1])); err == nil || !strings.Contains(err.Error(), c[2]) {
			t.Errorf("fig9a with %s=%s: %v, want an error about %s", c[0], c[1], err, c[2])
		}
	}
}
