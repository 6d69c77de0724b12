package minimr

import (
	"strings"
	"testing"

	"degradedfirst/internal/sched"
)

// TestSumReducerSkipsNonNumbers: a value that is not a count adds nothing.
func TestSumReducerSkipsNonNumbers(t *testing.T) {
	var got string
	sumReducer("k", []string{"2", "x", "3"}, func(_, v string) { got = v })
	if got != "5" {
		t.Fatalf("sum of 2, x and 3 = %q, want 5", got)
	}
}

// TestRunFailures: a reduce function that panics and a degraded read of a
// stripe past its tolerance each abort the run with an error.
func TestRunFailures(t *testing.T) {
	fs, _ := testbedFS(t, 9)
	boom := WordCountJob("input.txt", 2)
	boom.Reduce = func(string, []string, func(k, v string)) { panic("minimr: test reduce function fails") }
	if _, err := Run(fs, testOpts(sched.KindEDF), []Job{boom}); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("run with a panicking reduce function returned %v", err)
	}
	for _, id := range fs.Cluster().AliveNodes()[:3] { // (12,10) tolerates two
		fs.Cluster().FailNode(id)
	}
	if _, err := Run(fs, testOpts(sched.KindEDF), []Job{WordCountJob("input.txt", 2)}); err == nil || !strings.Contains(err.Error(), "degraded read") {
		t.Errorf("run past the code's tolerance returned %v", err)
	}
}
