package main

import (
	"strings"
	"testing"
)

// TestBadFlags pins that every malformed cluster, code or liveness flag
// is a clean error returned before the master listens, not a panic and
// not a silent default.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-nodes", "0"}, "topology: Nodes must be positive"},
		{[]string{"-n", "3", "-k", "5"}, "erasure: invalid (n, k) parameters: n=3 k=5"},
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
