package fixture

// await receives from a future another package's goroutine fills: waiting
// is allowed, starting the goroutine is not.
func await(fut <-chan int) int {
	return <-fut
}

// deferred calls are not go statements.
func deferred(f func()) {
	defer f()
}
