package runtime

import (
	"fmt"
	"strings"

	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
)

// Timeline renders a job's map-slot activity as ASCII art in the style of
// the paper's Figure 3: one row per node, time flowing left to right,
// with each column showing what dominates that node at that instant —
// 'D' a degraded task, 'R' a remote task, 'r' rack-local, 'L' node-local,
// '.' idle, 'x' a failed node. Degraded > remote > rack-local > local in
// display priority so contention phases stand out. Since Result itself is
// rebuilt from the trace stream, a recorded JSONL trace reconstructs this
// rendering byte-identically through a Builder. minimr's reports render
// through the Result they embed.
func Timeline(res *Result, jobIdx, width int) string {
	if res == nil || jobIdx < 0 || jobIdx >= len(res.Jobs) || width < 10 {
		return ""
	}
	jr := &res.Jobs[jobIdx]
	start := jr.FirstMapLaunch
	end := jr.MapPhaseEnd
	if end <= start {
		return ""
	}
	failed := make(map[topology.NodeID]bool, len(res.Failed))
	maxNode := topology.NodeID(0)
	for _, id := range res.Failed {
		failed[id] = true
		if id > maxNode {
			maxNode = id
		}
	}
	for _, t := range jr.Tasks {
		if t.Node > maxNode {
			maxNode = t.Node
		}
	}

	// rank maps a class to display priority (higher wins per column).
	rank := [...]int{sched.ClassNodeLocal: 1, sched.ClassRackLocal: 2, sched.ClassRemote: 3, sched.ClassDegraded: 4}
	glyph := [5]byte{'.', 'L', 'r', 'R', 'D'}

	rows := make([][]int, int(maxNode)+1)
	for i := range rows {
		rows[i] = make([]int, width)
	}
	colOf := func(t float64) int {
		return min(max(int((t-start)/(end-start)*float64(width)), 0), width-1)
	}
	for _, t := range jr.Tasks {
		r := rank[t.Class]
		for col := colOf(t.LaunchTime); col <= colOf(t.FinishTime); col++ {
			if r > rows[t.Node][col] {
				rows[t.Node][col] = r
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "map phase %.1fs..%.1fs (L=local r=rack-local R=remote D=degraded)\n", start, end)
	for id := topology.NodeID(0); id <= maxNode; id++ {
		fmt.Fprintf(&b, "node%-3d |", id)
		if failed[id] {
			b.WriteString(strings.Repeat("x", width))
		} else {
			line := make([]byte, width)
			for col, r := range rows[id] {
				line[col] = glyph[r]
			}
			b.Write(line)
		}
		b.WriteString("|\n")
	}
	return b.String()
}
