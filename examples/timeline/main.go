// Timeline: render the map-slot activity of locality-first vs
// degraded-first scheduling as ASCII timelines — a simulation-generated
// version of the paper's Figure 3. Under LF the 'D' (degraded) burst sits
// at the right edge of the map phase, all competing for rack bandwidth;
// under EDF the 'D's are spread across the whole phase. The same story is
// read off the run's trace, recorded in memory: when the degraded reads
// finished.
package main

import (
	"fmt"
	"log"

	degradedfirst "degradedfirst"
)

func main() {
	for _, kind := range []degradedfirst.Scheduler{
		degradedfirst.LocalityFirst,
		degradedfirst.EnhancedDegradedFirst,
	} {
		cfg := degradedfirst.DefaultSimConfig()
		cfg.Nodes = 12
		cfg.Racks = 3
		cfg.N, cfg.K = 6, 4
		cfg.NumBlocks = 96
		cfg.BlockSizeBytes = 64e6
		cfg.RackBps = 200 * degradedfirst.Mbps
		cfg.Scheduler = kind
		cfg.Seed = 4
		mem := &degradedfirst.MemoryTrace{}
		cfg.Trace = mem

		job := degradedfirst.DefaultJob()
		job.NumReduceTasks = 0
		job.ShuffleRatio = 0
		job.MapTime = degradedfirst.Dist{Mean: 15, Std: 1}

		res, err := degradedfirst.Simulate(cfg, job)
		if err != nil {
			log.Fatal(err)
		}
		jr := res.Jobs[0]
		fmt.Printf("── %s ── map phase %.1f s, mean degraded read %.1f s ──\n",
			res.Scheduler, jr.MapPhaseEnd-jr.FirstMapLaunch, jr.MeanDegradedReadTime())
		fmt.Print(degradedfirst.SlotTimeline(res, 0, 100))
		var done []float64
		for _, e := range mem.Events() {
			// A degraded read finishes at its task's map-start.
			if e.Type == "map-start" && jr.Tasks[e.Task].Class.String() == "degraded" {
				done = append(done, e.T-jr.FirstMapLaunch)
			}
		}
		fmt.Printf("%d degraded reads finished, the first %.1f s and the last %.1f s into the map phase\n\n",
			len(done), done[0], done[len(done)-1])
	}
}
