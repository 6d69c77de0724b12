package mapred

import (
	"strings"
	"testing"
)

// TestRunRejectsUnplaceableWork: a job with a negative block count, and
// one whose (20,15) stripes cannot keep five blocks a rack on two racks,
// fail before any simulated time passes.
func TestRunRejectsUnplaceableWork(t *testing.T) {
	job := DefaultJob()
	job.NumBlocks = -1
	if _, err := Run(DefaultConfig(), []JobSpec{job}); err == nil || !strings.Contains(err.Error(), "invalid block count -1") {
		t.Errorf("a negative block count: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Racks = 2
	if _, err := Run(cfg, []JobSpec{DefaultJob()}); err == nil || !strings.Contains(err.Error(), `mapred: placing job "job"`) {
		t.Errorf("a code the racks cannot hold: %v", err)
	}
}
