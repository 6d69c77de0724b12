package exp

import (
	"context"
	"errors"
	"testing"

	"degradedfirst/internal/runtime"
)

// TestHealerColumnsWithoutRepairs: a run whose healer never acted
// contributes zero stats, and a row with a run that never healed shows
// "-" for its healer times.
func TestHealerColumnsWithoutRepairs(t *testing.T) {
	if st := healerStats(&runtime.Result{}); st != (runtime.RepairStats{}) {
		t.Errorf("stats of a run without a healer: %+v, want zero", st)
	}
	r := row{runs: [][]*runtime.Result{{{Repair: &runtime.RepairStats{FirstRepairAt: 3, FullRedundancyAt: -1}}}}}
	if got := healedMean(func(st *runtime.RepairStats) float64 { return st.FirstRepairAt })(r); got != "-" {
		t.Errorf("healer time of a run that never healed: %q, want -", got)
	}
}

// TestQuickDefaultSeeds: a quick run that names no seed count takes the
// sweep's quick one. The memo already holds runs under that count's key,
// so any other count would start real runs of an empty point.
func TestQuickDefaultSeeds(t *testing.T) {
	runs := [][][]*runtime.Result{{{&runtime.Result{}}}}
	s := sweep{
		seeds:  [2]int{5, 2},
		points: func(Options) []point { return []point{{label: "p"}} },
		cols:   []column[row]{labelCol("setting")},
		memo:   &memo{key: "2-true", runs: runs},
	}
	tab, err := s.run(context.Background(), Options{Quick: true})
	if err != nil || len(tab.Rows) != 1 || tab.Rows[0][0] != "p" {
		t.Fatalf("quick run: table %+v, err %v", tab, err)
	}
}

// TestMemoForgetsErrors: a failed run is not remembered, so the next
// call runs again.
func TestMemoForgetsErrors(t *testing.T) {
	var m memo
	boom := errors.New("boom")
	if _, err := m.get("k", false, func() ([][][]*runtime.Result, error) { return nil, boom }); err != boom {
		t.Fatalf("get returned %v, want the run's error", err)
	}
	ran := false
	m.get("k", false, func() ([][][]*runtime.Result, error) { ran = true; return nil, nil })
	if !ran {
		t.Fatal("a failed run was remembered")
	}
}

// TestRegistryGuards: registering an ID twice and building from an
// invalid constant setting are programming errors, and panic.
func TestRegistryGuards(t *testing.T) {
	for name, f := range map[string]func(){
		"duplicate ID":    func() { register("fig3", "", "", nil) },
		"invalid setting": func() { must(0, errors.New("bad")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestFig4Cancelled: fig4's single run stops at a cancelled context.
func TestFig4Cancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, _ := Get("fig4")
	if _, err := e.Run(ctx, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
