package netsim

// Internals the external wiring tests (package netsim_test, which can
// import the topology builders) compare a wired network by.

// LinkList returns n's links in creation order.
func LinkList(n *Network) []*Link { return n.linkList }

// LinkNet returns the network a link belongs to.
func LinkNet(l *Link) *Network { return l.net }

// LinkRev returns a link's reverse leg.
func LinkRev(l *Link) *Link { return l.rev }
