package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.N = 1 },
		func(p *Params) { p.R = 0 },
		func(p *Params) { p.L = 0 },
		func(p *Params) { p.K = 0 },
		func(p *Params) { p.F = 0 },
		func(p *Params) { p.T = 0 },
		func(p *Params) { p.S = 0 },
		func(p *Params) { p.W = 0 },
		func(p *Params) { p.R = 100 },
	}
	for i, mutate := range bad {
		p := Default()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestKnownValues(t *testing.T) {
	p := Default()
	// Normal: 1440*20/(40*4) = 180 s.
	if got := p.NormalRuntime(); math.Abs(got-180) > 1e-9 {
		t.Fatalf("NormalRuntime = %v, want 180", got)
	}
	// Degraded read: 0.75 * 12 * 128e6 / 125e6 = 9.216 s.
	if got := p.DegradedReadTime(); math.Abs(got-9.216) > 1e-9 {
		t.Fatalf("DegradedReadTime = %v, want 9.216", got)
	}
	// LF: 180 + 9*9.216 + 20 = 282.944 s.
	if got := p.LocalityFirstRuntime(); math.Abs(got-282.944) > 1e-6 {
		t.Fatalf("LF runtime = %v, want 282.944", got)
	}
	// DF: max(1440*20/(39*4)+20, 9*9.216+20) = max(204.615, 102.944).
	if got := p.DegradedFirstRuntime(); math.Abs(got-204.6153846) > 1e-6 {
		t.Fatalf("DF runtime = %v", got)
	}
	if got := p.ReductionPercent(); got < 27 || got > 28 {
		t.Fatalf("reduction = %v%%, want ~27.7%%", got)
	}
}

// sweep evaluates the model at the default setting changed by each of
// set, returning the normalized LF and DF runtimes and the reductions.
func sweep(t *testing.T, set ...func(*Params)) (lf, df, cut []float64) {
	t.Helper()
	for _, s := range set {
		p := Default()
		s(&p)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		lf, df, cut = append(lf, p.NormalizedLF()), append(df, p.NormalizedDF()), append(cut, p.ReductionPercent())
	}
	return lf, df, cut
}

func TestPaperReductionRange(t *testing.T) {
	// Figure 5(a): reductions between 15% and 32% over the code sweep.
	var set []func(*Params)
	for _, k := range []int{6, 9, 12, 15} {
		set = append(set, func(p *Params) { p.K = k })
	}
	lf, df, cut := sweep(t, set...)
	for i := range cut {
		if cut[i] < 14 || cut[i] > 33 {
			t.Errorf("point %d: reduction %.1f%% outside the paper's 15-32%% band", i, cut[i])
		}
		if df[i] >= lf[i] {
			t.Errorf("point %d: DF not better than LF", i)
		}
	}
	// LF worsens with k; DF stays flat (degraded reads fit in one round).
	for i := 1; i < len(lf); i++ {
		if lf[i] <= lf[i-1] {
			t.Error("LF should increase with k")
		}
		if math.Abs(df[i]-df[i-1]) > 1e-9 {
			t.Error("DF should be flat across the code sweep in the default setting")
		}
	}
}

func TestSweepBlocksShape(t *testing.T) {
	// Figure 5(b): normalized runtimes decrease with F; reduction 25-28%.
	var set []func(*Params)
	for _, f := range []int{720, 1440, 2160, 2880} {
		set = append(set, func(p *Params) { p.F = f })
	}
	lf, _, cut := sweep(t, set...)
	for i := range cut {
		if cut[i] < 24 || cut[i] > 29 {
			t.Errorf("point %d: reduction %.1f%% outside 25-28%%", i, cut[i])
		}
		if i > 0 && lf[i] >= lf[i-1] {
			t.Error("normalized LF should decrease with F")
		}
	}
}

func TestSweepBandwidthShape(t *testing.T) {
	// Figure 5(c): runtime decreases with W; DF equal at 500 Mbps and
	// 1 Gbps (degraded reads fit in one round); reduction 18-43%.
	var set []func(*Params)
	for _, w := range []float64{100e6 / 8, 250e6 / 8, 500e6 / 8, 1e9 / 8} {
		set = append(set, func(p *Params) { p.W = w })
	}
	lf, df, cut := sweep(t, set...)
	for i := range cut {
		if cut[i] < 17 || cut[i] > 45 {
			t.Errorf("point %d: reduction %.1f%% outside the paper's ~18-43%% band", i, cut[i])
		}
		if i > 0 && lf[i] > lf[i-1] {
			t.Error("normalized LF should not increase with W")
		}
	}
	if math.Abs(df[2]-df[3]) > 1e-9 {
		t.Error("DF should be identical at 500 Mbps and 1 Gbps")
	}
}

func TestDFNeverWorseProperty(t *testing.T) {
	// Property: over random valid parameters, degraded-first is never
	// slower than locality-first in this model, and both are at least the
	// normal-mode runtime.
	f := func(nSeed, rSeed, lSeed, kSeed, fSeed uint8, tSeed, sSeed, wSeed uint16) bool {
		p := Params{
			N: 2 + int(nSeed)%99,
			R: 1 + int(rSeed)%8,
			L: 1 + int(lSeed)%8,
			K: 1 + int(kSeed)%20,
			F: 10 + int(fSeed)*10,
			T: 1 + float64(tSeed%100),
			S: 1e6 * (1 + float64(sSeed%500)),
			W: 1e6 * (1 + float64(wSeed%1000)),
		}
		if p.R > p.N {
			p.R = p.N
		}
		if p.Validate() != nil {
			return true
		}
		lf, df := p.LocalityFirstRuntime(), p.DegradedFirstRuntime()
		// LF always pays normal-mode compute plus degraded reads plus T.
		if lf < p.NormalRuntime()+p.T-1e-9 {
			return false
		}
		// DF can exceed LF only via its (N-1)-node compute term; whenever
		// that term is within LF's budget, DF must not be slower.
		compute := float64(p.F)*p.T/float64((p.N-1)*p.L) + p.T
		if compute <= lf+1e-9 && df > lf+1e-9 {
			return false
		}
		// Both models include the trailing slot duration.
		return df >= p.T
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
