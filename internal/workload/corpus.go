// Package workload generates the inputs the paper's evaluation uses:
// a synthetic English-like text corpus (standing in for the Project
// Gutenberg data of Section VI) and multi-job arrival patterns
// (Section V-B's 10 jobs with exponential inter-arrival times).
package workload

import (
	"bytes"
	"fmt"
	"slices"

	"degradedfirst/internal/stats"
)

// corpusVocabulary is a base vocabulary; word frequency follows a Zipf-like
// distribution so WordCount/Grep behave like they would on real text.
var _vocabulary = []string{
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

// zipfIndex draws a vocabulary index with probability proportional to
// 1/(i+1) — a simple Zipf(1) law via inverse-CDF on the harmonic sum: the
// first i with _zipfCum[i] >= target.
func zipfIndex(rng *stats.RNG) int {
	target := rng.Float64() * _zipfCum[len(_zipfCum)-1]
	i, _ := slices.BinarySearch(_zipfCum, target)
	return min(i, len(_zipfCum)-1)
}

// GenerateBlockAlignedCorpus produces exactly numBlocks * blockSize bytes
// of text in which no line crosses a block boundary (blocks are padded
// with newlines). Hadoop's input splits re-align records across block
// boundaries; minimr's mappers see raw blocks, so the corpus guarantees
// alignment instead. Empty lines from the padding are skipped by both the
// reference counters and the jobs.
func GenerateBlockAlignedCorpus(numBlocks, blockSize int, seed int64) ([]byte, error) {
	if numBlocks <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("workload: numBlocks and blockSize must be positive")
	}
	if blockSize < 64 {
		return nil, fmt.Errorf("workload: blockSize %d too small for text lines", blockSize)
	}
	rng := stats.NewRNG(seed)
	out := make([]byte, 0, numBlocks*blockSize)
	var line bytes.Buffer
	for b := 0; b < numBlocks; b++ {
		used := 0
		for {
			line.Reset()
			words := 3 + rng.Intn(12)
			for w := 0; w < words; w++ {
				if w > 0 {
					line.WriteByte(' ')
				}
				line.WriteString(_vocabulary[zipfIndex(rng)])
			}
			line.WriteByte('\n')
			if used+line.Len() > blockSize {
				break
			}
			out = append(out, line.Bytes()...)
			used += line.Len()
		}
		for ; used < blockSize; used++ {
			out = append(out, '\n')
		}
	}
	return out, nil
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
