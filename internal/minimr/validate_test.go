package minimr

import (
	"errors"
	"math"
	"testing"

	"degradedfirst/internal/netsim"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want error // nil means valid
	}{
		{"zero value is valid", Options{}, nil},
		{"explicit settings are valid", Options{
			Scheduler: sched.KindBDF, RackBps: 1e9, Features: runtime.Features{HeartbeatInterval: 1},
		}, nil},
		{"negative rack bandwidth", Options{RackBps: -1}, ErrNegativeBandwidth},
		{"negative node bandwidth", Options{NodeBps: -1}, ErrNegativeBandwidth},
		{"negative core bandwidth", Options{CoreBps: -1}, ErrNegativeBandwidth},
		{"NaN bandwidth", Options{RackBps: math.NaN()}, ErrNegativeBandwidth},
		{"negative heartbeat", Options{Features: runtime.Features{HeartbeatInterval: -3}}, ErrBadHeartbeat},
		{"NaN heartbeat", Options{Features: runtime.Features{HeartbeatInterval: math.NaN()}}, ErrBadHeartbeat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate(nil)
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

func TestOptionsValidateDefaults(t *testing.T) {
	var o Options
	if err := o.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if o.Scheduler != sched.KindLF {
		t.Errorf("Scheduler default = %v, want KindLF", o.Scheduler)
	}
	if o.HeartbeatInterval != 3 {
		t.Errorf("HeartbeatInterval default = %v, want 3", o.HeartbeatInterval)
	}
	if o.NetMode != netsim.FluidFairSharing {
		t.Errorf("NetMode default = %v, want FluidFairSharing", o.NetMode)
	}
	if o.MaxSimTime != 1e7 {
		t.Errorf("MaxSimTime default = %v, want 1e7", o.MaxSimTime)
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
		{"no input", func(j *Job) { j.Input = "" }, ErrNoInput},
		{"no mapper", func(j *Job) { j.Map = nil }, ErrNoMapper},
		{"negative reducers", func(j *Job) { j.NumReducers = -1 }, ErrNegativeReducers},
		{"reducers without reduce", func(j *Job) { j.Reduce = nil }, ErrReducersWithoutReduce},
		{"reduce without reducers", func(j *Job) { j.NumReducers = 0 }, ErrReduceWithoutReducers},
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
