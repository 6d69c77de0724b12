package minimr

import (
	"bytes"
	"slices"
	"testing"

	"degradedfirst/internal/workload"
)

// splitLines is the line splitter the map functions used before eachLine:
// the reference eachLine must match.
func splitLines(block []byte) [][]byte {
	var lines [][]byte
	for _, line := range bytes.Split(block, []byte{'\n'}) {
		line = bytes.Trim(line, "\x00 ")
		if len(line) > 0 {
			lines = append(lines, line)
		}
	}
	return lines
}

// collect gathers what an in-place scanner yields.
func collect(scan func([]byte, func([]byte)), b []byte) [][]byte {
	var out [][]byte
	scan(b, func(s []byte) { out = append(out, s) })
	return out
}

// checkScanners holds eachField to bytes.Fields and eachLine to
// splitLines on one block.
func checkScanners(t *testing.T, block []byte) {
	t.Helper()
	if got, want := collect(eachField, block), bytes.Fields(block); !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("eachField(%q) = %q, bytes.Fields says %q", block, got, want)
	}
	if got, want := collect(eachLine, block), splitLines(block); !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("eachLine(%q) = %q, splitLines says %q", block, got, want)
	}
}

var _scanSeeds = []string{
	"",
	"the whale\n\x00\x00\x00\x00",          // NUL padding
	"\x00 \x00\n \n\x00whale \x00\n",       // padding on both sides of a line
	"call me\tishmael\r\nsome years\r\n",   // tabs, CRLF endings
	"x\u0085y\u00a0z\u2003w\u0085",         // NEL, NBSP, EM SPACE
	"x\x85y \xa0z\t\x85",                   // NEL's and NBSP's code points as raw bytes: invalid, not space
	"ab\xffcd \xc3 e\xe2\x80 \xe2\x80\x83", // invalid UTF-8, a split and a whole U+2003
	"first line\nlast line",                // no trailing newline
	"\v\f  lone\n\n\n",
}

// TestScannersMatchReference pins the in-place scanners on edge cases
// and on real testbed blocks.
func TestScannersMatchReference(t *testing.T) {
	for _, s := range _scanSeeds {
		checkScanners(t, []byte(s))
	}
	corpus, err := workload.GenerateBlockAlignedCorpus(4, TestbedBlockSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(corpus); off += TestbedBlockSize {
		checkScanners(t, corpus[off:off+TestbedBlockSize])
	}
}

// FuzzMapScan holds the in-place scanners to the allocating functions
// they replaced on arbitrary bytes.
func FuzzMapScan(f *testing.F) {
	for _, s := range _scanSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkScanners)
}
