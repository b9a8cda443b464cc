package cluster

// Methods and functions only tests call live here, so the package
// exports nothing that production code does not use.

// PortJaccard returns the Jaccard index between the port sets of two
// profiles (§7.3.1's inter-cluster overlap measure).
func PortJaccard(a, b Profile) float64 {
	if len(a.PortShare) == 0 && len(b.PortShare) == 0 {
		return 1
	}
	inter := 0
	for k := range a.PortShare {
		if _, ok := b.PortShare[k]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a.PortShare)+len(b.PortShare)-inter)
}
