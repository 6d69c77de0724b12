// Package fixture exercises the serial analyzer: no go statements in the
// simulation core.
package fixture

func spawn(work func()) {
	go work() // want `go statement in the serial simulation core`
}

func spawnLiteral(done chan<- struct{}) {
	go func() { // want `go statement in the serial simulation core`
		done <- struct{}{}
	}()
}
