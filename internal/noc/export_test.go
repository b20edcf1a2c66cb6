package noc

// CheckStep runs checkStep for the package's external tests, which import
// packages that import noc (internal/traffic).
func CheckStep(n *Network, injectedFlits int64) error { return checkStep(n, injectedFlits) }

// DebugDump runs debugDump for the external fuzz test's failure reports.
func DebugDump(n *Network) string { return n.debugDump() }

// AttachFlightRecorder attaches a flight recorder that records every
// lifecycle event of n and returns a count of the events it has recorded.
// internal/flight imports noc, so the external tests set it (see
// flight_recorder_test.go) and TestStepDoesNotAllocate calls it.
var AttachFlightRecorder func(n *Network) (recorded func() int64)
