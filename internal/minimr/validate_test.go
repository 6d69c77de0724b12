package minimr

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/sched"
)

// TestOptionsValidateDefaults: zero Options describe the paper's master
// (LF over a fluid network, 3 s heartbeats, RandomK degraded sources), and
// the harness's planner reads the defaulted source
// strategy, not the zero one.
func TestOptionsValidateDefaults(t *testing.T) {
	fs, _ := testbedFS(t, 1)
	h, err := NewHarness("minimr", fs, Options{}, []Job{WordCountJob("input.txt", 1)})
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		Scheduler:         sched.KindLF,
		NetMode:           netsim.FluidFairSharing,
		HeartbeatInterval: 3,
		SourceStrategy:    dfs.RandomK,
	}
	if !reflect.DeepEqual(h.Params.Options, want) {
		t.Errorf("harness options = %+v, want %+v", h.Params.Options, want)
	}
	if h.Healer.Strategy != dfs.RandomK {
		t.Errorf("planner source strategy = %v, want RandomK", h.Healer.Strategy)
	}
}

func TestJobValidate(t *testing.T) {
	mapper := func([]byte, func(string, string)) {}
	reducer := func(string, []string, func(string, string)) {}
	valid := func() Job {
		return Job{Name: "j", Input: "f", Map: mapper, Reduce: reducer, NumReducers: 2}
	}
	cases := []struct {
		name   string
		mutate func(*Job)
		want   error // nil means valid
	}{
		{"well-formed", func(*Job) {}, nil},
		{"map-only", func(j *Job) { j.Reduce = nil; j.NumReducers = 0 }, nil},
		{"combining", func(j *Job) { j.Combine = reducer }, nil},
		{"no input", func(j *Job) { j.Input = "" }, ErrNoInput},
		{"no mapper", func(j *Job) { j.Map = nil }, ErrNoMapper},
		{"negative reducers", func(j *Job) { j.NumReducers = -1 }, ErrNegativeReducers},
		{"reducers without reduce", func(j *Job) { j.Reduce = nil }, ErrReducersWithoutReduce},
		{"reduce without reducers", func(j *Job) { j.NumReducers = 0 }, ErrReduceWithoutReducers},
		{"map-only with a combiner", func(j *Job) { j.Reduce = nil; j.NumReducers = 0; j.Combine = reducer }, ErrCombineWithoutReduce},
		{"negative submit time", func(j *Job) { j.SubmitAt = -1 }, ErrBadSubmitTime},
		{"NaN submit time", func(j *Job) { j.SubmitAt = math.NaN() }, ErrBadSubmitTime},
		{"negative fixed map cost", func(j *Job) { j.MapCost.Fixed = -1 }, ErrNegativeCost},
		{"negative per-MB map cost", func(j *Job) { j.MapCost.PerMB = -1 }, ErrNegativeCost},
		{"negative fixed reduce cost", func(j *Job) { j.ReduceCost.Fixed = -1 }, ErrNegativeCost},
		{"negative per-MB reduce cost", func(j *Job) { j.ReduceCost.PerMB = -1 }, ErrNegativeCost},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := valid()
			tc.mutate(&j)
			err := j.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

func TestValidateJobs(t *testing.T) {
	mapper := func([]byte, func(string, string)) {}
	job := func(at float64) Job {
		return Job{Name: "j", Input: "f", Map: mapper, SubmitAt: at}
	}
	if err := ValidateJobs(nil); !errors.Is(err, ErrNoJobs) {
		t.Fatalf("ValidateJobs(nil) = %v, want ErrNoJobs", err)
	}
	if err := ValidateJobs([]Job{job(0), {Name: "bad"}}); !errors.Is(err, ErrNoInput) {
		t.Fatalf("per-job validation not applied: %v", err)
	}
	if err := ValidateJobs([]Job{job(5), job(1)}); !errors.Is(err, ErrSubmitOrder) {
		t.Fatalf("decreasing submit times accepted: %v", err)
	}
	if err := ValidateJobs([]Job{job(1), job(1), job(2)}); err != nil {
		t.Fatalf("nondecreasing submit times rejected: %v", err)
	}
}
