// Package fixture exercises the errsink analyzer: error values discarded
// with the blank identifier.
package fixture

import (
	"strconv"

	"degradedfirst/internal/trace"
)

func droppedClose(j *trace.JSONL) {
	_ = j.Close() // want `error result discarded`
}

func droppedPair(s string) int {
	n, _ := strconv.Atoi(s) // want `error result discarded`
	return n
}

func parse(s string) (int, error) {
	return strconv.Atoi(s)
}

func droppedBoth(s string) {
	_, _ = parse(s) // want `error result discarded`
}
