package mapred

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"degradedfirst/internal/netsim"
	"degradedfirst/internal/sim"
)

// The exact values TestRepairTracePinned and the *ScalePerf tests compare
// against are kept as JSON objects under testdata/, so one command
// rewrites them along with every other pinned output:
//
//	bash scripts/goldens.sh update
//
// which runs those tests with -update.
var update = flag.Bool("update", false, "rewrite the pinned hashes and counters under testdata/")

const regenerate = "regenerate with: bash scripts/goldens.sh update"

// corePins are the simulator core's counters over one run.
type corePins struct {
	Engine sim.Stats
	Net    netsim.Stats
}

// readPins decodes the pins in path. A missing file, one that does not
// decode (an unknown field included), or one that pins nothing is an
// error naming the file and the command that regenerates it.
func readPins[V comparable](path string) (map[string]V, error) {
	var pins map[string]V
	data, err := os.ReadFile(path)
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		err = dec.Decode(&pins)
	}
	if err == nil && len(pins) == 0 {
		err = errors.New("pins nothing")
	}
	if err != nil {
		return nil, fmt.Errorf("pin file %s: %v (%s)", path, err, regenerate)
	}
	return pins, nil
}

// checkPins compares got with the pins in testdata/file exactly, key by
// key, or under -update writes got there.
func checkPins[V comparable](t *testing.T, file string, got map[string]V) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		data, err := json.MarshalIndent(got, "", "\t")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readPins[V](path)
	if err != nil {
		t.Fatal(err)
	}
	union := maps.Clone(want)
	maps.Copy(union, got)
	keys := make([]string, 0, len(union))
	for k := range union {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s %q: got %+v, want %+v (if the change is meant, %s)", path, k, got[k], want[k], regenerate)
		}
	}
}
