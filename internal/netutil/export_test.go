package netutil

// Methods and functions only tests call live here, so the package
// exports nothing that production code does not use.

// Octets returns the four address bytes in network order.
func (ip IPv4) Octets() [4]byte {
	return [4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
