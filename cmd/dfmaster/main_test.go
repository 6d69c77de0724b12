package main

import (
	"bytes"
	"encoding"
	"encoding/json"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"degradedfirst/internal/mapred"
)

// TestBadFlags pins that every malformed cluster, code or liveness
// setting is a clean error returned before the master listens, not a
// panic and not a silent default.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-set", "Nodes=0"}, "topology: Nodes must be positive"},
		{[]string{"-set", "N=3", "-set", "K=5"}, "erasure: invalid (n, k) parameters: n=3 k=5"},
		{[]string{"-hb-every", "-1s"}, "cluster: negative HeartbeatEvery -1s"},
		{[]string{"-hb-miss", "-1"}, "cluster: negative HeartbeatMiss -1"},
		{[]string{"-rpc-timeout", "-5s"}, "cluster: negative RPCTimeout -5s"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("dfmaster %s: error %v, want %q", strings.Join(tc.args, " "), err, tc.want)
		}
	}
}

// TestSetReachesEveryLeaf sets every leaf field of mapred.Config, the
// embedded runtime.Options' among them, through dfmaster's -set, and
// checks that each value lands where its path says. BuildTestbed then
// takes each or rejects it by name.
func TestSetReachesEveryLeaf(t *testing.T) {
	n := 0
	leaves(reflect.TypeOf(mapred.Config{}), "", func(path, value string) {
		n++
		s, _, err := parse([]string{"-set", path + "=" + value})
		if err != nil {
			t.Errorf("-set %s=%s: %v", path, value, err)
			return
		}
		got := reflect.ValueOf(s.Config)
		for _, name := range strings.Split(path, ".") {
			got = reflect.Indirect(got).FieldByName(name)
		}
		want := reflect.New(got.Type())
		if err := json.Unmarshal([]byte(value), want.Interface()); err != nil || !reflect.DeepEqual(got.Interface(), want.Elem().Interface()) {
			t.Errorf("-set %s=%s: got %v, want %v (%v)", path, value, got, want.Elem(), err)
		}
	})
	if n < 30 {
		t.Errorf("walked %d leaves, want every leaf of mapred.Config", n)
	}
}

// leaves calls visit with the -set path and a sample JSON value of every
// leaf field of t: a scalar, enum, list or map, or a field reached
// through an embedding or a pointer. The Go-only Trace and Policy, and
// TraceLabel beside Trace, are left out.
func leaves(t reflect.Type, prefix string, visit func(path, value string)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch {
		case f.Name == "Trace" || f.Name == "TraceLabel" || f.Name == "Policy":
		case f.Anonymous:
			leaves(f.Type, prefix, visit)
		case f.Type.Kind() == reflect.Pointer:
			leaves(f.Type.Elem(), prefix+f.Name+".", visit)
		case f.Type.Kind() == reflect.Struct && !reflect.PointerTo(f.Type).Implements(textUnmarshaler):
			leaves(f.Type, prefix+f.Name+".", visit)
		default:
			visit(prefix+f.Name, sample(f.Type))
		}
	}
}

var textUnmarshaler = reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()

// sample is a JSON value of type t that neither default scenario holds:
// an enum's value 2, or 1 where 2 is no value of it.
func sample(t reflect.Type) string {
	if reflect.PointerTo(t).Implements(textUnmarshaler) {
		for _, n := range []int64{2, 1} {
			v := reflect.New(t)
			v.Elem().SetInt(n)
			name, _ := v.Elem().Interface().(encoding.TextMarshaler).MarshalText()
			if v.Interface().(encoding.TextUnmarshaler).UnmarshalText(name) == nil {
				return strconv.Quote(string(name))
			}
		}
	}
	switch t.Kind() {
	case reflect.Bool:
		return "true"
	case reflect.Int, reflect.Int64:
		return "7"
	case reflect.Float64:
		return "0.5"
	case reflect.String:
		return `"x"`
	case reflect.Slice:
		return "[" + sample(t.Elem()) + "]"
	case reflect.Map:
		return `{"5":` + sample(t.Elem()) + "}"
	case reflect.Struct:
		var fields []string
		for i := 0; i < t.NumField(); i++ {
			fields = append(fields, strconv.Quote(t.Field(i).Name)+":"+sample(t.Field(i).Type))
		}
		return "{" + strings.Join(fields, ",") + "}"
	}
	panic("no sample of " + t.String())
}

// TestHelpExitsZero runs main with -help and with -h in a child
// process, this test binary re-entered through DFMASTER_HELP_ARG: each
// prints the usage once and exits 0, with no error line.
func TestHelpExitsZero(t *testing.T) {
	if arg := os.Getenv("DFMASTER_HELP_ARG"); arg != "" {
		os.Args = []string{"dfmaster", arg}
		main()
		return
	}
	for _, arg := range []string{"-help", "-h"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestHelpExitsZero$")
		cmd.Env = append(os.Environ(), "DFMASTER_HELP_ARG="+arg)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Run(); err != nil {
			t.Fatalf("dfmaster %s: %v\n%s", arg, err, out.String())
		}
		if n := strings.Count(out.String(), "Usage of dfmaster:"); n != 1 || strings.Contains(out.String(), "help requested") {
			t.Errorf("dfmaster %s printed the usage %d times, or an error:\n%s", arg, n, out.String())
		}
	}
}
