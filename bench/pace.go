package main

import (
	"encoding/binary"
	"sort"
	"syscall"
)

// The sandbox the benchmark runs on is a slice of a shared host. Its
// neighbours' load moves the core clock in steps and, far more, the
// latency of every access that misses the private L2 — for minutes at a
// time, by tens of percent, the same for every iteration of a run. No
// statistic over a 15 s run averages that out. So every timed section is
// bracketed by two readings of the host's pace — a fixed kernel of the
// benchmark's own, touching no code of the repository — and its wall time
// is divided by the pace factor of the two: the seconds the section would
// have taken at the reference pace. Swings of the host cancel to the
// extent the kernel feels them as the workload does; a change to the
// repository's code cannot move the kernel, so ratios between commits
// stay what they are. The wall times stay in the report beside the scaled
// ones (see README "Host pace").

const (
	// A reading is paceRounds rounds of a clock burst and an L3 burst,
	// about 30 ms a round on the reference host; the median burst of each
	// kind is the reading.
	paceRounds = 5
	// clock burst: a dependent chain of multiply-adds, all in registers.
	paceClockSteps = 8_000_000
	// L3 burst: a dependent pointer chase over 12 MiB, six times a core's
	// L2 on this host, so nearly every hop is an L3 (and second-level TLB)
	// access.
	paceChainWords = 3 << 20
	paceChainHops  = 200_000

	// Burst times of the reference host: this sandbox with quiet
	// neighbours, at the commit that added the benchmark.
	paceClockRefS = 0.0100
	paceL3RefS    = 0.0164

	// paceL3Share is the share of a timed section taken to scale with L3
	// latency; the rest scales with the core clock. Fitted on sim-storm,
	// the workload the host's swings move most, over 46 iterations under
	// changing load: at 0.2 the spread between iterations fell from 20 %
	// to 11 %, anything from 0.1 to 0.3 did about as well, and the other
	// workloads moved by between one point down and two up.
	paceL3Share = 0.2
)

// pace is one reading of the host's speed: seconds per burst.
type pace struct {
	ClockS float64
	L3S    float64
}

// paceFactor is how much slower than the reference host a section timed
// between readings a and b ran, by the kernel's account.
func paceFactor(a, b pace) float64 {
	clock := (a.ClockS + b.ClockS) / 2 / paceClockRefS
	l3 := (a.L3S + b.L3S) / 2 / paceL3RefS
	return (1-paceL3Share)*clock + paceL3Share*l3
}

// pacer holds the chase's chain: paceChainWords little-endian uint32
// slots, each the index of the next, mapped outside the Go heap, so the
// collector's pacing — and with it alloc_gb and most of peak_rss_mb — is
// what it would be without it. One per measured workload.
type pacer struct {
	chain  []byte
	mapped bool
	at     uint32
	sink   uint64 // keeps the bursts' results alive
}

func (p *pacer) close() {
	if p.mapped {
		//lint:ignore errsink the mapping is this process's own and is not read again: a failed unmap leaves nothing to do
		_ = syscall.Munmap(p.chain)
	}
	p.chain = nil
}

// readPace takes one reading (a single round at -scale tiny, which only
// has to exercise the code).
func (e *env) readPace() pace {
	if e.tiny {
		return e.pacer.read(1)
	}
	return e.pacer.read(paceRounds)
}

// newPacer links paceChainWords slots into one random cycle (Sattolo's
// shuffle from a fixed seed), so a chase visits every slot before it
// repeats and no prefetcher can guess the next one.
func newPacer() *pacer {
	chain, err := syscall.Mmap(-1, 0, 4*paceChainWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	mapped := err == nil
	if !mapped {
		chain = make([]byte, 4*paceChainWords)
	}
	slot := func(i int) []byte { return chain[4*i : 4*i+4] }
	for i := 0; i < paceChainWords; i++ {
		binary.LittleEndian.PutUint32(slot(i), uint32(i))
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := paceChainWords - 1; i > 0; i-- {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		j := int((x * 0x2545F4914F6CDD1D) % uint64(i))
		a, b := binary.LittleEndian.Uint32(slot(i)), binary.LittleEndian.Uint32(slot(j))
		binary.LittleEndian.PutUint32(slot(i), b)
		binary.LittleEndian.PutUint32(slot(j), a)
	}
	return &pacer{chain: chain, mapped: mapped}
}

func (p *pacer) read(rounds int) pace {
	clock := make([]float64, rounds)
	l3 := make([]float64, rounds)
	for r := 0; r < rounds; r++ {
		t0 := startWatch()
		s := p.sink | 1
		for i := 0; i < paceClockSteps; i++ {
			s = s*6364136223846793005 + 1442695040888963407
		}
		p.sink = s
		clock[r] = t0.seconds()

		t0 = startWatch()
		at := p.at
		for i := 0; i < paceChainHops; i++ {
			at = binary.LittleEndian.Uint32(p.chain[4*at:])
		}
		p.at = at
		l3[r] = t0.seconds()
	}
	sort.Float64s(clock)
	sort.Float64s(l3)
	return pace{ClockS: clock[rounds/2], L3S: l3[rounds/2]}
}
