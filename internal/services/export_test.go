package services

import (
	"github.com/darkvec/darkvec/internal/trace"
)

// Methods and functions only tests call live here, so the package
// exports nothing that production code does not use.

// Table7 exposes the named-service port lists for documentation and tests.
func Table7() map[string][]trace.PortKey {
	out := make(map[string][]trace.PortKey, len(table7))
	for name, keys := range table7 {
		out[name] = append([]trace.PortKey(nil), keys...)
	}
	return out
}
