package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"testing/quick"

	"degradedfirst/internal/mapred"
	"degradedfirst/internal/stats"
)

func TestGenerateCorpusExactSize(t *testing.T) {
	for _, size := range []int{1, 100, 4096, 100000} {
		text, err := GenerateCorpus(CorpusOptions{Bytes: size, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(text) != size {
			t.Fatalf("size %d: got %d bytes", size, len(text))
		}
	}
	if _, err := GenerateCorpus(CorpusOptions{Bytes: 0}); err == nil {
		t.Fatal("zero size must fail")
	}
}

func TestGenerateCorpusDeterministic(t *testing.T) {
	a, _ := GenerateCorpus(CorpusOptions{Bytes: 10000, Seed: 7})
	b, _ := GenerateCorpus(CorpusOptions{Bytes: 10000, Seed: 7})
	if !bytes.Equal(a, b) {
		t.Fatal("same seed must give same corpus")
	}
	c, _ := GenerateCorpus(CorpusOptions{Bytes: 10000, Seed: 8})
	if bytes.Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
}

func TestCorpusLooksLikeText(t *testing.T) {
	text, err := GenerateCorpus(CorpusOptions{Bytes: 200000, Seed: 2, WordsPerLine: 8})
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
	if skew := ZipfSkewness(text); skew < 5 {
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
	if ZipfSkewness(nil) != 0 {
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

// scanZipfIndex is the original draw: recompute the harmonic sum, then
// scan linearly for the first partial sum at or above the target.
func scanZipfIndex(rng *stats.RNG, n int) int {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	target := rng.Float64() * h
	var acc float64
	for i := 0; i < n; i++ {
		acc += 1 / float64(i+1)
		if acc >= target {
			return i
		}
	}
	return n - 1
}

// TestZipfIndexMatchesScan holds the prefix-sum table and binary search to
// the original scan, draw by draw: same index from the same RNG state.
func TestZipfIndexMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		a, b := stats.NewRNG(seed), stats.NewRNG(seed)
		for d := 0; d < 20000; d++ {
			if got, want := zipfIndex(a), scanZipfIndex(b, len(_vocabulary)); got != want {
				t.Fatalf("seed %d draw %d: index %d, scan gives %d", seed, d, got, want)
			}
		}
	}
}

// TestCorpusBytesPinned pins both generators' output, byte for byte, to
// digests taken with the original scan: the minimr testbed and every
// corpus-derived golden depend on it.
func TestCorpusBytesPinned(t *testing.T) {
	want := map[int64][2]string{
		1:  {"2b73eab1c5c6afe69deb5966a5a9e1b4785b346b98d3888bb47acbea9cd82112", "f9de7d1e64d721521d5d0ab7e1446f1df9590085bf072581e25b0e275ce5e210"},
		23: {"7da068ac2250248b538b36eccc41d6b5418981e1ba3865daafc3fa9af9f38a0e", "51734a028295422698fbb41cc3eeb51b16748c151898887c2d74c5960953d715"},
	}
	for seed, w := range want {
		aligned, err := GenerateBlockAlignedCorpus(16, 64<<10, seed)
		if err != nil {
			t.Fatal(err)
		}
		text, err := GenerateCorpus(CorpusOptions{Bytes: 1 << 20, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(aligned)); got != w[0] {
			t.Errorf("seed %d: block-aligned corpus sha256 %s, want %s", seed, got, w[0])
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(text)); got != w[1] {
			t.Errorf("seed %d: corpus sha256 %s, want %s", seed, got, w[1])
		}
	}
}
