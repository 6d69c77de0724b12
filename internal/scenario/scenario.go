// Package scenario declares a run once, as data: the paper's two worlds,
// the Section V-B simulation (Paper) and the Section VI testbed
// (Testbed), behind one JSON type that dfsim, dfexp and dfmaster read
// from a -scenario file and change with -set Path=value.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"degradedfirst/internal/cluster"
	"degradedfirst/internal/dfs"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/workload"
)

// A Scenario is one run's settings. Its JSON form names fields as Go
// does and enums by name ("Scheduler": "EDF"); Config's fields, the
// embedded runtime.Options' among them, sit at the top level.
type Scenario struct {
	// Config holds the fabric, code, placement, blocks, the shared
	// runtime.Options and the failure.
	mapred.Config
	// Jobs are the simulated jobs.
	Jobs []mapred.JobSpec
	// Testbed are real-bytes jobs over the testbed's corpus, the file
	// Input. A scenario with any runs on real bytes.
	Testbed []cluster.JobSpec
}

// Input is the DFS file the testbed's corpus is written to.
const Input = "input.txt"

// Paper is Section V-B's default simulation: mapred.DefaultConfig
// running mapred.DefaultJob.
func Paper() Scenario {
	return Scenario{Config: mapred.DefaultConfig(), Jobs: []mapred.JobSpec{mapred.DefaultJob()}}
}

// Testbed is Section VI's testbed at 1/1024 scale: 12 nodes in 3 racks,
// a (12,10) code over 64 KiB blocks placed round-robin, and WordCount
// with 8 reducers over a 60-block corpus drawn from seed 1. No node
// fails.
func Testbed() Scenario {
	return Scenario{
		Config: mapred.Config{
			Nodes: 12, Racks: 3, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1,
			N: 12, K: 10, BlockSizeBytes: minimr.TestbedBlockSize, NumBlocks: 60,
			Policy:  placement.RoundRobin{},
			Options: runtime.Options{RackBps: minimr.TestbedRackBps, Seed: 1},
		},
		Testbed: []cluster.JobSpec{{Kind: "wordcount", Input: Input, NumReducers: 8}},
	}
}

// Set decodes value, JSON or else a bare string, at the dotted path onto
// s: "Hedge.Extra" and "2" decode {"Hedge":{"Extra":2}}. An object merges
// into what is there; a number indexes a list ("Jobs.0.Name"), and one
// past its end appends. An error names the path.
func (s *Scenario) Set(path, value string) error {
	var v any = value
	var err error
	if json.Valid([]byte(value)) {
		err = decode([]byte(value), &v)
	}
	if err == nil {
		err = s.patch(strings.Split(path, "."), v)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// patch merges v in at path in s's JSON form and decodes the result
// into a fresh scenario, which shares no slice or map with s. An unknown
// field or enum name, or a value of the wrong type, fails.
func (s *Scenario) patch(path []string, v any) error {
	if err := caseClash(v, nil); err != nil {
		return err
	}
	var tree any
	doc, err := json.Marshal(s)
	if err == nil {
		err = decode(doc, &tree)
	}
	if err == nil {
		tree, err = place(tree, path, v)
	}
	if err == nil {
		doc, err = json.Marshal(tree)
	}
	// The Go-only fields carry over.
	out := Scenario{Config: mapred.Config{Policy: s.Policy, Options: runtime.Options{Trace: s.Trace}}}
	if err == nil {
		err = decode(doc, &out)
	}
	if err == nil {
		*s = out
	}
	return err
}

// decode reads one JSON value into v, numbers exact and unknown fields
// rejected.
func decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// place returns node with v merged in at path, making objects on the way.
func place(node any, path []string, v any) (any, error) {
	if len(path) == 0 {
		return merge(node, v), nil
	}
	var err error
	switch n := node.(type) {
	case nil:
		return place(map[string]any{}, path, v)
	case map[string]any:
		k := key(n, path[0])
		n[k], err = place(n[k], path[1:], v)
		return n, err
	case []any:
		i, aerr := strconv.Atoi(path[0])
		if aerr != nil || i < 0 || i > len(n) {
			return nil, fmt.Errorf("no element %q in a list of %d", path[0], len(n))
		}
		if i == len(n) {
			n = append(n, nil)
		}
		n[i], err = place(n[i], path[1:], v)
		return n, err
	}
	return nil, fmt.Errorf("no field %q in %v", path[0], node)
}

// merge returns node with v merged in: objects key by key, a key
// matching in any case as encoding/json matches fields, and anything
// else replaced.
func merge(node, v any) any {
	obj, ok := node.(map[string]any)
	add, isObj := v.(map[string]any)
	if !ok || !isObj {
		return v
	}
	for k, sub := range add {
		k = key(obj, k)
		obj[k] = merge(obj[k], sub)
	}
	return obj
}

// caseClash fails on the first object in v, in key order, that holds two
// keys differing only in case, naming where in v it sits: both would
// decode onto one field, and which won would depend on map order.
func caseClash(v any, at []string) error {
	switch n := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(n))
		for k := range n {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for i, k := range keys {
			for _, prev := range keys[:i] {
				if strings.EqualFold(prev, k) {
					where := ""
					if len(at) > 0 {
						where = " in " + strings.Join(at, ".")
					}
					return fmt.Errorf("keys %q and %q%s differ only in case", prev, k, where)
				}
			}
			if err := caseClash(n[k], append(at, k)); err != nil {
				return err
			}
		}
	case []any:
		for i, e := range n {
			if err := caseClash(e, append(at, strconv.Itoa(i))); err != nil {
				return err
			}
		}
	}
	return nil
}

// key is obj's key that equals k in any case, else k.
func key(obj map[string]any, k string) string {
	for have := range obj {
		if strings.EqualFold(have, k) {
			return have
		}
	}
	return k
}

// Flags registers -scenario and -set on fs. After fs.Parse, the
// function it returns applies them to a scenario in command-line order.
func Flags(fs *flag.FlagSet) func(*Scenario) error {
	var changes []func(*Scenario) error
	fs.Func("scenario", "decode the JSON scenario `file` onto the scenario", func(file string) error {
		data, err := os.ReadFile(file)
		var doc any
		if err == nil {
			err = decode(data, &doc)
		}
		if err != nil {
			return err
		}
		changes = append(changes, func(s *Scenario) error {
			if err := s.patch(nil, doc); err != nil {
				return fmt.Errorf("%s: %w", file, err)
			}
			return nil
		})
		return nil
	})
	fs.Func("set", "set the scenario field at `Path=value` (value is JSON or a bare string)", func(kv string) error {
		path, value, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("want Path=value, got %q", kv)
		}
		changes = append(changes, func(s *Scenario) error { return s.Set(path, value) })
		return nil
	})
	return func(s *Scenario) error {
		for _, change := range changes {
			if err := change(s); err != nil {
				return err
			}
		}
		return nil
	}
}

// BuildTestbed builds the testbed world s describes: its cluster and
// code, a DFS that places BlockSizeBytes blocks by Policy from Seed, a
// corpus of NumBlocks blocks generated from Seed and written to Input,
// and FailNodes failed, or else the nodes Failure draws from Seed. A
// field the testbed cannot honor is an error that names it.
func (s *Scenario) BuildTestbed() (*dfs.FS, error) {
	switch {
	case s.FailAt != 0:
		return nil, errors.New("scenario: the testbed fails its nodes before the run, so it takes no FailAt")
	case len(s.Jobs) > 0:
		return nil, errors.New("scenario: the testbed runs Testbed jobs, not simulated Jobs")
	case math.Mod(s.BlockSizeBytes, 1) != 0:
		return nil, fmt.Errorf("scenario: the testbed's BlockSizeBytes must be whole bytes, got %v", s.BlockSizeBytes)
	}
	clu, err := s.Cluster()
	if err != nil {
		return nil, err
	}
	code, err := s.Code()
	if err != nil {
		return nil, err
	}
	fs, err := dfs.New(clu, code, int(s.BlockSizeBytes), s.Policy, stats.NewRNG(s.Seed))
	if err != nil {
		return nil, err
	}
	corpus, err := workload.GenerateBlockAlignedCorpus(s.NumBlocks, int(s.BlockSizeBytes), s.Seed)
	if err == nil {
		_, err = fs.Write(Input, corpus)
	}
	failed := s.FailNodes
	if err == nil && len(failed) == 0 {
		failed, err = topology.PickFailure(clu, s.Failure, stats.NewRNG(s.Seed))
	}
	if err != nil {
		return nil, err
	}
	for _, id := range failed {
		if id < 0 || int(id) >= clu.NumNodes() {
			return nil, fmt.Errorf("scenario: no node %d to fail", id)
		}
		clu.FailNode(id)
	}
	return fs, nil
}
