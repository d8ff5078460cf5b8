package netsim

import "testing"

// CheckWiredAgainstModel asserts that n, wired from w, matches the
// name-keyed model of w's nodes and cables (see checkAgainstModel), for
// the external wiring tests (package netsim_test, which can import the
// topology builders).
func CheckWiredAgainstModel(t testing.TB, n *Network, w *Wiring) {
	t.Helper()
	checkAgainstModel(t, 0, n, newModel(fabricOf(w)))
}
