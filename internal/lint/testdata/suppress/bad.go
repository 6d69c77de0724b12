// Package fixture exercises the suppression machinery, run under the
// errsink analyzer. Expectations live in lint_test.go rather than in
// want comments, because malformed directives are reported on their own
// comment line.
package fixture

import "degradedfirst/internal/trace"

func suppressedAbove(j *trace.JSONL) {
	//lint:ignore errsink best-effort close on shutdown
	_ = j.Close()
}

func suppressedInline(j *trace.JSONL) {
	_ = j.Close() //lint:ignore errsink demo of same-line suppression
}

func missingReason(j *trace.JSONL) {
	//lint:ignore errsink
	_ = j.Close()
}

func unknownAnalyzer(j *trace.JSONL) {
	//lint:ignore nosuchcheck the analyzer list must name real analyzers
	_ = j.Close()
}
