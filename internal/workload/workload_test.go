package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"degradedfirst/internal/mapred"
	"degradedfirst/internal/stats"
)

// zipfSkewness returns the ratio between the most frequent and the median
// word frequency of a corpus, to verify the distribution is actually
// skewed (real-text-like), not uniform.
func zipfSkewness(text []byte) float64 {
	counts := CountWords(text)
	if len(counts) == 0 {
		return 0
	}
	freqs := make([]float64, 0, len(counts))
	//lint:ignore maporder freqs is reduced by max and median, both order-insensitive
	for _, c := range counts {
		freqs = append(freqs, float64(c))
	}
	maxF := 0.0
	for _, f := range freqs {
		if f > maxF {
			maxF = f
		}
	}
	med := stats.Median(freqs)
	if med == 0 || math.IsNaN(med) {
		return 0
	}
	return maxF / med
}

// TestGenerateCorpusExactSize pins the size of the corpus behind the root
// package's GenerateCorpus: exactly numBlocks * blockSize bytes.
func TestGenerateCorpusExactSize(t *testing.T) {
	for _, shape := range [][2]int{{1, 64}, {3, 100}, {2, 4096}, {7, 65536}} {
		text, err := GenerateBlockAlignedCorpus(shape[0], shape[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(text) != shape[0]*shape[1] {
			t.Fatalf("%d blocks of %d: got %d bytes", shape[0], shape[1], len(text))
		}
	}
}

func TestGenerateCorpusDeterministic(t *testing.T) {
	a, _ := GenerateBlockAlignedCorpus(20, 512, 7)
	b, _ := GenerateBlockAlignedCorpus(20, 512, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed must give same corpus")
	}
	c, _ := GenerateBlockAlignedCorpus(20, 512, 8)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
}

func TestCorpusLooksLikeText(t *testing.T) {
	text, err := GenerateBlockAlignedCorpus(400, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(text, []byte{'\n'}) {
		t.Fatal("corpus has no lines")
	}
	words := CountWords(text)
	if len(words) < 50 {
		t.Fatalf("vocabulary too small: %d", len(words))
	}
	// Zipf skew: the top word should dominate the median word.
	if skew := zipfSkewness(text); skew < 5 {
		t.Fatalf("corpus not skewed enough (max/median = %.1f)", skew)
	}
	if words["the"] < words["whale"] {
		t.Fatal("frequency order violates Zipf rank")
	}
}

func TestReferenceCounters(t *testing.T) {
	text := []byte("the whale\nthe whale\nship ahoy\n")
	wc := CountWords(text)
	if wc["the"] != 2 || wc["whale"] != 2 || wc["ship"] != 1 || wc["ahoy"] != 1 {
		t.Fatalf("CountWords = %v", wc)
	}
	lc := CountLines(text)
	if lc["the whale"] != 2 || lc["ship ahoy"] != 1 || len(lc) != 2 {
		t.Fatalf("CountLines = %v", lc)
	}
	gl := GrepLines(text, "whale")
	if gl["the whale"] != 2 || len(gl) != 1 {
		t.Fatalf("GrepLines = %v", gl)
	}
	if got := GrepLines(text, "submarine"); len(got) != 0 {
		t.Fatalf("GrepLines miss = %v", got)
	}
	if zipfSkewness(nil) != 0 {
		t.Fatal("empty skewness must be 0")
	}
}

func TestGenerateMultiJob(t *testing.T) {
	tpl := mapred.DefaultJob()
	tpl.NumBlocks = 300
	jobs, err := GenerateMultiJob(MultiJobOptions{
		NumJobs:          10,
		MeanInterArrival: 120,
		Template:         tpl,
		VaryBlocks:       3,
		Seed:             5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 10 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	if jobs[0].SubmitAt != 0 {
		t.Fatal("first job must arrive at 0")
	}
	varied := false
	for i, j := range jobs {
		if i > 0 && j.SubmitAt < jobs[i-1].SubmitAt {
			t.Fatal("arrivals must be nondecreasing")
		}
		if j.NumBlocks < 100 || j.NumBlocks > 300 {
			t.Fatalf("job %d blocks %d outside [100,300]", i, j.NumBlocks)
		}
		if j.NumBlocks != 300 {
			varied = true
		}
		if j.Name == "" {
			t.Fatal("job must be named")
		}
	}
	if !varied {
		t.Fatal("VaryBlocks had no effect")
	}
}

func TestGenerateMultiJobErrors(t *testing.T) {
	if _, err := GenerateMultiJob(MultiJobOptions{NumJobs: 0}); err == nil {
		t.Fatal("zero jobs must fail")
	}
	if _, err := GenerateMultiJob(MultiJobOptions{NumJobs: 1, MeanInterArrival: -1}); err == nil {
		t.Fatal("negative inter-arrival must fail")
	}
}

func TestMultiJobDeterministicProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		opts := MultiJobOptions{
			NumJobs:          1 + int(n)%12,
			MeanInterArrival: 60,
			Template:         mapred.DefaultJob(),
			Seed:             seed,
		}
		a, err1 := GenerateMultiJob(opts)
		b, err2 := GenerateMultiJob(opts)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGenerateStorm(t *testing.T) {
	tpl := mapred.DefaultJob()
	tpl.NumBlocks = 4
	jobs, err := GenerateStorm(StormOptions{
		NumJobs: 200,
		Tenants: []TenantSpec{
			{Name: "alpha", Weight: 4, Share: 0.5},
			{Name: "beta", Weight: 2, Share: 0.3},
			{Name: "gamma", Weight: 1, Share: 0.2},
		},
		MeanInterArrival: 0.5,
		Template:         tpl,
		VaryBlocks:       4,
		DeadlineSlack:    60,
		Seed:             11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 200 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	counts := map[string]int{}
	for i, j := range jobs {
		if i > 0 && j.SubmitAt < jobs[i-1].SubmitAt {
			t.Fatal("arrivals must be nondecreasing")
		}
		if j.Tenant == "" || j.Name == "" {
			t.Fatalf("job %d missing tenant/name: %+v", i, j)
		}
		counts[j.Tenant]++
		if j.NumBlocks < 1 || j.NumBlocks > 4 {
			t.Fatalf("job %d blocks %d outside [1,4]", i, j.NumBlocks)
		}
		if j.Deadline < j.SubmitAt+30 || j.Deadline > j.SubmitAt+90 {
			t.Fatalf("job %d deadline %v outside slack window of %v", i, j.Deadline, j.SubmitAt)
		}
		switch j.Tenant {
		case "alpha":
			if j.Weight != 4 {
				t.Fatalf("alpha weight = %v", j.Weight)
			}
		case "beta", "gamma":
		default:
			t.Fatalf("unknown tenant %q", j.Tenant)
		}
	}
	// All tenants submit, with share order roughly respected over 200 draws.
	if counts["alpha"] == 0 || counts["beta"] == 0 || counts["gamma"] == 0 {
		t.Fatalf("tenant draw skipped someone: %v", counts)
	}
	if counts["alpha"] < counts["gamma"] {
		t.Fatalf("share weighting inverted: %v", counts)
	}

	// Determinism.
	again, err := GenerateStorm(StormOptions{
		NumJobs:          200,
		Tenants:          []TenantSpec{{Name: "alpha", Weight: 4, Share: 0.5}, {Name: "beta", Weight: 2, Share: 0.3}, {Name: "gamma", Weight: 1, Share: 0.2}},
		MeanInterArrival: 0.5,
		Template:         tpl,
		VaryBlocks:       4,
		DeadlineSlack:    60,
		Seed:             11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("job %d not deterministic", i)
		}
	}
}

func TestGenerateStormErrors(t *testing.T) {
	tenants := []TenantSpec{{Name: "a"}}
	if _, err := GenerateStorm(StormOptions{NumJobs: 0, Tenants: tenants}); err == nil {
		t.Fatal("zero jobs must fail")
	}
	if _, err := GenerateStorm(StormOptions{NumJobs: 1}); err == nil {
		t.Fatal("no tenants must fail")
	}
	if _, err := GenerateStorm(StormOptions{NumJobs: 1, Tenants: []TenantSpec{{}}}); err == nil {
		t.Fatal("unnamed tenant must fail")
	}
	if _, err := GenerateStorm(StormOptions{NumJobs: 1, Tenants: tenants, MeanInterArrival: -1}); err == nil {
		t.Fatal("negative inter-arrival must fail")
	}
	if _, err := GenerateStorm(StormOptions{NumJobs: 1, Tenants: tenants, DeadlineSlack: -1}); err == nil {
		t.Fatal("negative slack must fail")
	}
}

func TestGenerateBlockAlignedCorpus(t *testing.T) {
	const blocks, bs = 8, 512
	text, err := GenerateBlockAlignedCorpus(blocks, bs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(text) != blocks*bs {
		t.Fatalf("size %d, want %d", len(text), blocks*bs)
	}
	// No line crosses a block boundary: the byte before each boundary is a
	// newline (blocks are newline-padded).
	for b := 1; b <= blocks; b++ {
		if text[b*bs-1] != '\n' {
			t.Fatalf("block %d does not end on a line boundary", b)
		}
	}
	// Per-block word counts sum to the whole-corpus count.
	whole := CountWords(text)
	merged := map[string]int{}
	for b := 0; b < blocks; b++ {
		for w, c := range CountWords(text[b*bs : (b+1)*bs]) {
			merged[w] += c
		}
	}
	if len(whole) != len(merged) {
		t.Fatalf("per-block counting diverges: %d vs %d words", len(merged), len(whole))
	}
	for w, c := range whole {
		if merged[w] != c {
			t.Fatalf("word %q: %d vs %d", w, merged[w], c)
		}
	}
	// Determinism.
	again, _ := GenerateBlockAlignedCorpus(blocks, bs, 3)
	if !bytes.Equal(text, again) {
		t.Fatal("not deterministic")
	}
}

func TestGenerateBlockAlignedCorpusErrors(t *testing.T) {
	if _, err := GenerateBlockAlignedCorpus(0, 512, 1); err == nil {
		t.Fatal("zero blocks must fail")
	}
	if _, err := GenerateBlockAlignedCorpus(1, 0, 1); err == nil {
		t.Fatal("zero block size must fail")
	}
	if _, err := GenerateBlockAlignedCorpus(1, 32, 1); err == nil {
		t.Fatal("too-small block size must fail")
	}
}

// harmonic is the harmonic sum 1/1 + … + 1/n, added in that order.
func harmonic(n int) float64 {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}

// scanZipfIndex is the original draw's inverse CDF: recompute the
// harmonic partial sums, and scan linearly for the first at or above the
// target.
func scanZipfIndex(target float64) int {
	var acc float64
	for i := range len(_vocabulary) {
		acc += 1 / float64(i+1)
		if acc >= target {
			return i
		}
	}
	return len(_vocabulary) - 1
}

// TestZipfIndexMatchesScan holds the guide-table draw to the original
// scan, draw by draw: same index from the same RNG state.
func TestZipfIndexMatchesScan(t *testing.T) {
	h := harmonic(len(_vocabulary))
	for seed := int64(1); seed <= 8; seed++ {
		a, b := stats.NewRNG(seed), stats.NewRNG(seed)
		for d := 0; d < 20000; d++ {
			if got, want := zipfIndex(a), scanZipfIndex(b.Float64()*h); got != want {
				t.Fatalf("seed %d draw %d: index %d, scan gives %d", seed, d, got, want)
			}
		}
	}
}

// TestZipfOfAtEveryEdge holds zipfOf to the scan where the guide table
// could go wrong: a few ulps either side of both edges of every bucket
// and of every CDF boundary, and the ends 0 and H.
func TestZipfOfAtEveryEdge(t *testing.T) {
	h := harmonic(len(_vocabulary))
	if h != _zipfH {
		t.Fatalf("harmonic sum %v, table's %v", h, _zipfH)
	}
	check := func(what string, x float64) {
		for _, v := range []float64{
			math.Nextafter(math.Nextafter(x, -1), -1), math.Nextafter(x, -1),
			x, math.Nextafter(x, 2*h), math.Nextafter(math.Nextafter(x, 2*h), 2*h),
		} {
			if v < 0 || v > h {
				continue
			}
			if got, want := zipfOf(v), scanZipfIndex(v); got != want {
				t.Fatalf("%s: zipfOf(%v) = %d, scan gives %d", what, v, got, want)
			}
		}
	}
	for k := 0; k <= zipfBuckets; k++ {
		check(fmt.Sprintf("bucket edge %d", k), float64(k)/_zipfScale)
	}
	for i, c := range _zipfCum {
		check(fmt.Sprintf("boundary %d", i), c)
	}
	check("zero", 0)
	check("H", h)
	if got := zipfOf(h); got != len(_vocabulary)-1 {
		t.Fatalf("zipfOf(H) = %d, want the last word", got)
	}
}

// FuzzZipfDraw holds zipfOf to the scan at any target in [0, H]; a
// fuzzed value outside it is folded in by its magnitude modulo H.
func FuzzZipfDraw(f *testing.F) {
	for _, target := range []float64{
		0, _zipfCum[0], math.Nextafter(_zipfCum[0], 0), _zipfCum[53],
		float64(zipfBuckets-1) / _zipfScale, _zipfH,
	} {
		f.Add(target)
	}
	f.Fuzz(func(t *testing.T, target float64) {
		if math.IsNaN(target) || math.IsInf(target, 0) {
			t.Skip()
		}
		if target < 0 || target > _zipfH {
			target = math.Mod(math.Abs(target), _zipfH)
		}
		if got, want := zipfOf(target), scanZipfIndex(target); got != want {
			t.Fatalf("zipfOf(%v) = %d, scan gives %d", target, got, want)
		}
	})
}

// TestCorpusBytesPinned pins the generator's output, byte for byte, to
// digests taken with the original scan and bytes.Buffer generator: the
// minimr testbed, the benchmark and every corpus-derived golden depend on
// it. The shapes are the callers': 16 blocks (the minimr and cluster
// tests), 240 at seeds 1, 9100 and 9500 (the benchmark and Fig. 9), 60
// (quick mode), 120 at seed 7 (the examples), and 64 B and 100 B blocks,
// where most lines are rejected and the last block's line overflows the
// text.
func TestCorpusBytesPinned(t *testing.T) {
	const kib64 = 64 << 10
	for _, c := range []struct {
		blocks, size int
		seed         int64
		sha256       string
	}{
		{16, kib64, 1, "2b73eab1c5c6afe69deb5966a5a9e1b4785b346b98d3888bb47acbea9cd82112"},
		{16, kib64, 23, "7da068ac2250248b538b36eccc41d6b5418981e1ba3865daafc3fa9af9f38a0e"},
		{240, kib64, 1, "5d75bee27a1c9d77a11079ab21e02b7cf19d1cbf1e74f246d53596208f3559a9"},
		{240, kib64, 9100, "0bf4e82e05b69daea7a79179f37ab86cf816a888ce6bedea44024fdc9eb00f84"},
		{240, kib64, 9500, "18b617ba18ea9527becb7a2a2e250ac4eb332fe1d35fd6c8d95bf37043ab5030"},
		{60, kib64, 9100, "f478df2b0e5cc0011bf41c8c087ed71fd2612e58a266f5fb2b026a0b024cf5bd"},
		{120, kib64, 7, "4f7b775950ade1f009f83b2137a47e2113fdade4ac6078e376c05a7a0466214c"},
		{1, 64, 1, "e2744e4d9850bdba221f7a992ac92045b164c4ee89c81e7418a344903de85752"},
		{50, 64, 3, "5a75cb50f944a6decf7a3697259bb5c04e1f54732ae01343d3365a5d84536bc4"},
		{7, 100, 2, "243c9111b8525c74f60096279261b034238029484872522cb656b437b57e97a6"},
		{40, 100, 5, "d451df479ca05776f99c32bb42bbcd22a7a7c73c46a0cea29af32c2eb4aa5993"},
	} {
		text, err := GenerateBlockAlignedCorpus(c.blocks, c.size, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(text)); got != c.sha256 {
			t.Errorf("%d blocks of %d B, seed %d: sha256 %s, want %s", c.blocks, c.size, c.seed, got, c.sha256)
		}
	}
}

// TestCorpusOneAllocation holds GenerateBlockAlignedCorpus to its
// contract: a testbed-shape corpus costs one allocation beside those of
// its seeded RNG.
func TestCorpusOneAllocation(t *testing.T) {
	rngAllocs := testing.AllocsPerRun(3, func() { stats.NewRNG(1).Float64() })
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := GenerateBlockAlignedCorpus(240, 64<<10, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != rngAllocs+1 {
		t.Fatalf("a 240-block corpus costs %v allocations, want 1 beside the RNG's %v", allocs, rngAllocs)
	}
}

// BenchmarkGenerateBlockAlignedCorpus times one testbed-shape corpus:
// 240 blocks of 64 KiB, the benchmark's and Fig. 9's.
func BenchmarkGenerateBlockAlignedCorpus(b *testing.B) {
	b.SetBytes(240 << 16)
	b.ReportAllocs()
	for range b.N {
		if _, err := GenerateBlockAlignedCorpus(240, 64<<10, 1); err != nil {
			b.Fatal(err)
		}
	}
}
