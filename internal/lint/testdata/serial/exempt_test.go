package fixture

// Tests may start goroutines: they drive the core from outside it.
func driveConcurrently(work func()) {
	go work()
}
