package noc

// CheckStep runs checkStep for the package's external tests, which import
// packages that import noc (internal/traffic).
func CheckStep(n *Network, injectedFlits int64) error { return checkStep(n, injectedFlits) }
