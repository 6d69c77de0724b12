package minimr

import (
	"bytes"
	"strconv"
	"unicode"
	"unicode/utf8"

	"degradedfirst/internal/netsim"
)

// The paper's testbed (Section VI) uses 64 MB blocks, 1 Gbps switches, and
// 15 GB of text (240 blocks). The reproduction scales all data volumes by
// 1024 so runs are laptop-sized, and scales bandwidth by the same factor so
// every transfer takes the same virtual time as on the testbed. CPU cost
// rates are calibrated per *real* megabyte from Table I's normal-map
// runtimes, then multiplied by the scale factor, so one scaled block costs
// exactly what one real block cost.
const (
	// TestbedScaleFactor shrinks data volumes relative to the testbed.
	TestbedScaleFactor = 1024
	// TestbedBlockSize is the scaled block size (64 MB / 1024 = 64 KB).
	TestbedBlockSize = 64 * 1024 * 1024 / TestbedScaleFactor
	// TestbedRackBps is the scaled switch bandwidth (1 Gbps / 1024).
	TestbedRackBps = netsim.Gbps / TestbedScaleFactor
	// TestbedNumBlocks is the testbed's input size in blocks (15 GB).
	TestbedNumBlocks = 240
)

// calibrated converts a per-real-MB CPU rate into the scaled Cost.
func calibrated(secPerRealMB float64) Cost {
	return Cost{PerMB: secPerRealMB * TestbedScaleFactor}
}

// Per-real-MB map rates derived from Table I's normal-map runtimes over
// 64 MB blocks: WordCount 30.94 s, Grep 11.69 s, LineCount 35.91 s.
var (
	_wordCountMapCost = calibrated(30.94 / 64)
	_grepMapCost      = calibrated(11.69 / 64)
	_lineCountMapCost = calibrated(35.91 / 64)
	// Reduce CPU rates per real MB of shuffled data (the bulk of the
	// paper's reduce runtimes is waiting for the map phase, which emerges
	// from the engine; this is only the compute tail).
	_sumReduceCost = calibrated(0.04)
)

// eachLine calls fn with every non-empty line of a block, trimmed of the
// NUL and space padding that block-aligned corpora carry. The lines alias
// the block; nothing is allocated.
func eachLine(block []byte, fn func(line []byte)) {
	for len(block) > 0 {
		line := block
		if i := bytes.IndexByte(block, '\n'); i >= 0 {
			line, block = block[:i], block[i+1:]
		} else {
			block = nil
		}
		if line = bytes.Trim(line, "\x00 "); len(line) > 0 {
			fn(line)
		}
	}
}

// _asciiSpace marks the white-space bytes below utf8.RuneSelf. It has
// 256 entries so that indexing it by a byte needs no bounds check; a
// byte at or above utf8.RuneSelf starts a multi-byte (or invalid)
// sequence, which eachField decodes instead.
var _asciiSpace = func() (t [256]bool) {
	for c := range utf8.RuneSelf {
		t[c] = unicode.IsSpace(rune(c))
	}
	return t
}()

// eachField calls fn with every field of b exactly as bytes.Fields would
// split it — runs of bytes between Unicode white space, an invalid UTF-8
// byte counting as non-space — without building the slice of fields. The
// fields alias b.
func eachField(b []byte, fn func(field []byte)) {
	start := -1 // start of the current field, -1 between fields
	for i := 0; i < len(b); {
		space, w := _asciiSpace[b[i]], 1
		if b[i] >= utf8.RuneSelf {
			var r rune
			r, w = utf8.DecodeRune(b[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if start >= 0 {
				fn(b[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += w
	}
	if start >= 0 {
		fn(b[start:])
	}
}

// sumReducer adds up numeric values for a key ("1" counts in all three
// jobs).
func sumReducer(key string, values []string, emit func(k, v string)) {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			continue
		}
		total += n
	}
	emit(key, strconv.Itoa(total))
}

// WordCountJob builds the paper's WordCount as Hadoop's examples write
// it: map tokenizes words and emits (word, 1), a combiner sums each map
// task's counts per word, and reduce sums the partial counts. The
// combiner shuffles one record per distinct word of a block where the
// raw map output has one per word. The map cost is unchanged by it:
// Table I's map runtimes already include Hadoop's combiner.
func WordCountJob(input string, reducers int) Job {
	return Job{
		Name:  "WordCount",
		Input: input,
		Map: func(block []byte, emit func(k, v string)) {
			eachField(bytes.Trim(block, "\x00"), func(w []byte) { emit(string(w), "1") })
		},
		Combine:     sumReducer,
		Reduce:      sumReducer,
		NumReducers: reducers,
		MapCost:     _wordCountMapCost,
		ReduceCost:  _sumReduceCost,
	}
}

// GrepJob builds the paper's Grep: map emits the lines containing the
// given word; reduce aggregates their occurrence counts.
func GrepJob(input, word string, reducers int) Job {
	needle := []byte(word)
	return Job{
		Name:  "Grep",
		Input: input,
		Map: func(block []byte, emit func(k, v string)) {
			eachLine(block, func(line []byte) {
				if bytes.Contains(line, needle) {
					emit(string(line), "1")
				}
			})
		},
		Reduce:      sumReducer,
		NumReducers: reducers,
		MapCost:     _grepMapCost,
		ReduceCost:  _sumReduceCost,
	}
}

// LineCountJob builds the paper's LineCount: like WordCount over whole
// lines — it shuffles more data than Grep.
func LineCountJob(input string, reducers int) Job {
	return Job{
		Name:  "LineCount",
		Input: input,
		Map: func(block []byte, emit func(k, v string)) {
			eachLine(block, func(line []byte) { emit(string(line), "1") })
		},
		Reduce:      sumReducer,
		NumReducers: reducers,
		MapCost:     _lineCountMapCost,
		ReduceCost:  _sumReduceCost,
	}
}
