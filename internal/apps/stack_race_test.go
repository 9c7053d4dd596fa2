//go:build race

package apps

// The race detector instruments every function and grows its frames, so a
// race build measures its own instrumentation, not the ranks' stack budget.
func init() { raceBuild = true }
