package fixture

import (
	"strconv"

	"degradedfirst/internal/trace"
)

// Handling the error, or discarding a non-error result, is fine.
func handledClose(j *trace.JSONL) error {
	if err := j.Close(); err != nil {
		return err
	}
	return nil
}

func discardedValue(s string) error {
	_, err := strconv.Atoi(s)
	return err
}
