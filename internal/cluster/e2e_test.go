package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"degradedfirst/internal/minimr"
	"degradedfirst/internal/workload"
)

// TestProcessClusterSurvivesWorkerKill runs the real binaries — one
// dfmaster and twelve dfworker OS processes over loopback TCP — and
// SIGKILLs one worker mid-job. The master must detect the death and
// converge to the correct WordCount output. On failure it prints the
// master's stderr, whose "lost" lines name every node the master declared
// dead and why, and every worker's stderr.
func TestProcessClusterSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	dir := t.TempDir()
	masterBin := filepath.Join(dir, "dfmaster")
	workerBin := filepath.Join(dir, "dfworker")
	// A covered test run that keeps its counters (-test.gocoverdir)
	// builds the binaries covered too and has them write beside it, so
	// the processes' code counts as reached.
	build := []string{"build"}
	var coverEnv []string
	if cov := flag.Lookup("test.gocoverdir"); testing.CoverMode() != "" && cov != nil && cov.Value.String() != "" {
		build = append(build, "-cover", "-covermode", testing.CoverMode(),
			"-coverpkg", "degradedfirst/internal/...,degradedfirst/cmd/dfmaster,degradedfirst/cmd/dfworker")
		coverEnv = append(os.Environ(), "GOCOVERDIR="+cov.Value.String())
	}
	for bin, pkg := range map[string]string{
		masterBin: "degradedfirst/cmd/dfmaster",
		workerBin: "degradedfirst/cmd/dfworker",
	} {
		out, err := exec.Command("go", append(build, "-o", bin, pkg)...).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	var masterOut bytes.Buffer
	master := exec.Command(masterBin,
		"-addr", "127.0.0.1:0",
		"-hb-every", "50ms", "-hb-miss", "4")
	master.Env = coverEnv
	master.Stdout = &masterOut
	stderr, err := master.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}
	defer master.Process.Kill()

	// The master announces its kernel-assigned port on stderr, and logs
	// there each worker it declares dead; all of it is kept for a failure.
	addrCh := make(chan string, 1)
	var masterErr strings.Builder
	stderrDone := make(chan struct{})
	go func() {
		defer close(stderrDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			masterErr.WriteString(line + "\n")
			if i := strings.Index(line, "listening on "); i >= 0 {
				addrCh <- strings.Fields(line[i+len("listening on "):])[0]
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("master never announced its address")
	}

	workers := make([]*exec.Cmd, 12)
	workerErr := make([]*bytes.Buffer, 12)
	// logs stops every process and returns what each wrote to stderr; it
	// is read only once the master has exited or been killed.
	logs := func() string {
		var b strings.Builder
		<-stderrDone
		fmt.Fprintf(&b, "master stderr:\n%s", masterErr.String())
		for i, w := range workers {
			if w == nil {
				continue
			}
			w.Process.Kill()
			w.Wait()
			fmt.Fprintf(&b, "worker %d stderr:\n%s", i, workerErr[i].String())
		}
		return b.String()
	}
	for i := range workers {
		buf := &bytes.Buffer{}
		w := exec.Command(workerBin, "-master", addr, "-drag", "150ms")
		w.Env = coverEnv
		w.Stderr = buf
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		workerErr[i] = buf
		defer w.Process.Kill()
	}

	// Let registration and the first map wave happen, then SIGKILL one
	// worker mid-job (with -drag 150ms the job runs well past this).
	time.Sleep(250 * time.Millisecond)
	victim := workers[4]
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	// Reap the victim so exec's stderr copier finishes before the test
	// reads its buffer (a killed process returns a non-nil error).
	_ = victim.Wait()

	// Wait closes the stderr pipe, so it follows the last read of it.
	done := make(chan error, 1)
	go func() {
		<-stderrDone
		done <- master.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("master failed: %v\nstdout:\n%s%s", err, masterOut.String(), logs())
		}
	case <-time.After(90 * time.Second):
		master.Process.Kill()
		t.Fatalf("master did not finish after the worker kill\n%s", logs())
	}

	var doc struct {
		Failed  []int               `json:"failed"`
		Outputs []map[string]string `json:"outputs"`
	}
	if err := json.Unmarshal(masterOut.Bytes(), &doc); err != nil {
		t.Fatalf("decoding master output: %v\n%s", err, masterOut.String())
	}

	// The victim's node ID is in its own startup banner.
	victimNode := -1
	if line := workerErr[4].String(); line != "" {
		fmt.Sscanf(line, "dfworker: registered as node %d", &victimNode)
	}
	if victimNode < 0 {
		t.Fatalf("victim never registered: %q", workerErr[4].String())
	}
	foundVictim := false
	for _, id := range doc.Failed {
		if id == victimNode {
			foundVictim = true
		}
	}
	if !foundVictim || len(doc.Failed) != 1 {
		t.Logf("killed node %d, failed list %v\n%s", victimNode, doc.Failed, logs())
	}
	if !foundVictim {
		t.Fatalf("killed node %d not in failed list %v", victimNode, doc.Failed)
	}

	// The output must match the corpus the master generated (same
	// deterministic generator, same seed and geometry as its defaults).
	corpus, err := workload.GenerateBlockAlignedCorpus(60, minimr.TestbedBlockSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := wantCounts(workload.CountWords(corpus))
	if len(doc.Outputs) != 1 || !reflect.DeepEqual(doc.Outputs[0], want) {
		t.Fatalf("process-cluster output diverges from ground truth (%d vs %d keys)\n%s",
			len(doc.Outputs[0]), len(want), logs())
	}
}
