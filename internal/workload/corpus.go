// Package workload generates the inputs the paper's evaluation uses:
// a synthetic English-like text corpus (standing in for the Project
// Gutenberg data of Section VI) and multi-job arrival patterns
// (Section V-B's 10 jobs with exponential inter-arrival times).
package workload

import (
	"bytes"
	"fmt"

	"degradedfirst/internal/stats"
)

// _vocabulary is a base vocabulary; word frequency follows a Zipf-like
// distribution so WordCount/Grep behave like they would on real text.
var _vocabulary = [...]string{
	"the", "of", "and", "a", "to", "in", "is", "you", "that", "it",
	"he", "was", "for", "on", "are", "as", "with", "his", "they", "I",
	"at", "be", "this", "have", "from", "or", "one", "had", "by", "word",
	"but", "not", "what", "all", "were", "we", "when", "your", "can", "said",
	"there", "use", "an", "each", "which", "she", "do", "how", "their", "if",
	"will", "up", "other", "about", "out", "many", "then", "them", "these", "so",
	"some", "her", "would", "make", "like", "him", "into", "time", "has", "look",
	"two", "more", "write", "go", "see", "number", "no", "way", "could", "people",
	"my", "than", "first", "water", "been", "call", "who", "oil", "its", "now",
	"find", "long", "down", "day", "did", "get", "come", "made", "may", "part",
	"gutenberg", "whale", "ocean", "ship", "captain", "storm", "harbor", "voyage",
}

// _zipfCum[i] is the harmonic partial sum 1/1 + … + 1/(i+1), added in
// that order, so its last entry is the whole vocabulary's harmonic sum.
var _zipfCum = func() []float64 {
	cum := make([]float64, len(_vocabulary))
	var acc float64
	for i := range cum {
		acc += 1 / float64(i+1)
		cum[i] = acc
	}
	return cum
}()

// The draw inverts the harmonic CDF through a guide table (Chen & Asau,
// 1974): a target t in [0, H], H the harmonic sum, falls in bucket
// ⌊t·zipfBuckets/H⌋, and the bucket's entry is the word every target in it
// draws. A bucket that a CDF boundary may fall in, with zipfSlack of
// relative margin for the rounding of t·zipfBuckets/H, holds instead the
// first word it can draw with zipfEdge set, and its draw steps past the
// boundaries below the target (at most one: boundaries lie at least
// 1/len(_vocabulary) apart and a bucket spans H/zipfBuckets).
const (
	zipfBuckets = 1 << 16
	zipfEdge    = 0x80
	zipfSlack   = 1e-9
)

// A word index must fit below zipfEdge.
const _ = uint8(zipfEdge - len(_vocabulary))

var (
	_zipfH     = _zipfCum[len(_zipfCum)-1]
	_zipfScale = zipfBuckets / _zipfH
	_zipfGuide = func() (g [zipfBuckets]uint8) {
		k := 0 // the first bucket not yet filled
		for i, c := range _zipfCum {
			for lo := int(c * _zipfScale * (1 - zipfSlack)); k < lo; k++ {
				g[k] = uint8(i)
			}
			for hi := min(int(c*_zipfScale*(1+zipfSlack)), zipfBuckets-1); k <= hi; k++ {
				g[k] = zipfEdge | uint8(i)
			}
		}
		return g
	}()
)

// zipfOf is the inverse CDF of the harmonic law: the first i with
// _zipfCum[i] >= target, for a target in [0, H].
func zipfOf(target float64) int {
	g := _zipfGuide[min(int(target*_zipfScale), zipfBuckets-1)]
	if g < zipfEdge {
		return int(g)
	}
	i := int(g &^ zipfEdge)
	for _zipfCum[i] < target {
		i++
	}
	return i
}

// zipfIndex draws a vocabulary index with probability proportional to
// 1/(i+1) — a simple Zipf(1) law by inverse CDF on the harmonic sum.
func zipfIndex(rng *stats.RNG) int {
	return zipfOf(rng.Float64() * _zipfH)
}

// A line holds lineMinWords to lineMaxWords words. Each word is written as
// a wordRec-byte record, the word padded with spaces, so writing one is a
// single fixed-size copy; the next word starts at _wordAdv[i], one past
// the word's space, and overwrites the rest.
const (
	lineMinWords = 3
	lineMaxWords = 14
	wordRec      = 16
)

var _wordRecs, _wordAdv = func() (rec [len(_vocabulary)][wordRec]byte, adv [len(_vocabulary)]uint8) {
	for i, w := range _vocabulary {
		for j := range rec[i] {
			rec[i][j] = ' '
		}
		copy(rec[i][:], w)
		rec[i][len(w)] = ' ' // panics at start-up if the word leaves no room for its space
		adv[i] = uint8(len(w) + 1)
	}
	return rec, adv
}()

// GenerateBlockAlignedCorpus produces exactly numBlocks * blockSize bytes
// of text in which no line crosses a block boundary (blocks are padded
// with newlines). Hadoop's input splits re-align records across block
// boundaries; minimr's mappers see raw blocks, so the corpus guarantees
// alignment instead. Empty lines from the padding are skipped by both the
// reference counters and the jobs.
//
// The text costs one allocation, beside the seeded RNG's own: lines are
// written in place into a buffer with a line's worth of records of slack,
// so a line that overruns the last block is written, then cut back off,
// without growing it.
func GenerateBlockAlignedCorpus(numBlocks, blockSize int, seed int64) ([]byte, error) {
	if numBlocks <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("workload: numBlocks and blockSize must be positive")
	}
	if blockSize < 64 {
		return nil, fmt.Errorf("workload: blockSize %d too small for text lines", blockSize)
	}
	rng := stats.NewRNG(seed)
	size := numBlocks * blockSize
	out := make([]byte, size+lineMaxWords*wordRec)
	pos := 0
	for end := blockSize; end <= size; end += blockSize {
		for {
			start := pos
			for range lineMinWords + rng.Intn(lineMaxWords-lineMinWords+1) {
				i := zipfIndex(rng)
				*(*[wordRec]byte)(out[pos:]) = _wordRecs[i]
				pos += int(_wordAdv[i])
			}
			out[pos-1] = '\n'
			if pos > end {
				pos = start
				break
			}
		}
		for ; pos < end; pos++ {
			out[pos] = '\n'
		}
	}
	return out[:size:size], nil
}

// CountWords returns the reference word counts of a corpus — ground truth
// for validating MapReduce outputs.
func CountWords(text []byte) map[string]int {
	counts := make(map[string]int)
	for _, w := range bytes.Fields(text) {
		counts[string(w)]++
	}
	return counts
}

// CountLines returns the reference per-line counts of a corpus.
func CountLines(text []byte) map[string]int {
	counts := make(map[string]int)
	for _, line := range bytes.Split(text, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		counts[string(line)]++
	}
	return counts
}

// GrepLines returns the lines containing the given word, with
// multiplicity — ground truth for the Grep job.
func GrepLines(text []byte, word string) map[string]int {
	counts := make(map[string]int)
	needle := []byte(word)
	for _, line := range bytes.Split(text, []byte{'\n'}) {
		if len(line) == 0 || !bytes.Contains(line, needle) {
			continue
		}
		counts[string(line)]++
	}
	return counts
}
