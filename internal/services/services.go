// Package services implements the three service-definition strategies of the
// paper (§5.2): single service, auto-defined top-n ports, and the
// domain-knowledge map of Table 7. A service groups destination ports so the
// corpus builder can split the packet stream into per-service word
// sequences.
package services

import (
	"fmt"
	"sort"

	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/trace"
)

// Definition maps a packet's destination port to a service name.
type Definition interface {
	// Service returns the service a port key belongs to.
	Service(k trace.PortKey) string
	// Names returns all service names the definition can produce, in a
	// stable order.
	Names() []string
	// Kind returns a short identifier for reports ("single", "auto",
	// "domain").
	Kind() string
}

// Single assigns every port to one service, the paper's degenerate baseline.
type Single struct{}

// Service implements Definition.
func (Single) Service(trace.PortKey) string { return "all" }

// Names implements Definition.
func (Single) Names() []string { return []string{"all"} }

// Kind implements Definition.
func (Single) Kind() string { return "single" }

// Auto gives each of the top-n busiest ports its own service and lumps the
// rest into an (n+1)-th "other" service, per §5.2 (paper uses n = 10).
type Auto struct {
	top   map[trace.PortKey]string
	names []string
}

// NewAuto ranks ports by packet count in t and builds the auto definition.
func NewAuto(t *trace.Trace, n int) *Auto {
	a := &Auto{top: make(map[trace.PortKey]string, n)}
	for _, ps := range t.TopPorts(n, 0) {
		name := ps.Key.String()
		a.top[ps.Key] = name
		a.names = append(a.names, name)
	}
	a.names = append(a.names, "other")
	return a
}

// Service implements Definition.
func (a *Auto) Service(k trace.PortKey) string {
	if s, ok := a.top[k]; ok {
		return s
	}
	return "other"
}

// Names implements Definition.
func (a *Auto) Names() []string { return a.names }

// Kind implements Definition.
func (a *Auto) Kind() string { return "auto" }

// Domain is the paper's Table 7 domain-knowledge map: 12 named services plus
// three catch-alls by port range.
type Domain struct {
	byKey map[trace.PortKey]string
}

// Catch-all names for ports not covered by Table 7's named services.
const (
	UnknownSystem    = "unknown-system"    // [0,1023]
	UnknownUser      = "unknown-user"      // [1024,49151]
	UnknownEphemeral = "unknown-ephemeral" // [49152,65535]
	ICMPService      = "icmp"
)

func tcp(p uint16) trace.PortKey { return trace.PortKey{Port: p, Proto: packet.IPProtocolTCP} }
func udp(p uint16) trace.PortKey { return trace.PortKey{Port: p, Proto: packet.IPProtocolUDP} }

// table7 is the paper's Table 7, verbatim.
var table7 = map[string][]trace.PortKey{
	"telnet":   {tcp(23), tcp(992)},
	"ssh":      {tcp(22)},
	"kerberos": {tcp(88), udp(88), tcp(543), tcp(544), tcp(749), tcp(7004), udp(750), tcp(750), tcp(751), udp(752), tcp(754), udp(464), tcp(464)},
	"http":     {tcp(80), tcp(443), tcp(8080)},
	"proxy":    {tcp(1080), tcp(6446), tcp(2121), tcp(8081), tcp(57000)},
	"mail":     {tcp(25), tcp(143), tcp(174), tcp(209), tcp(465), tcp(587), tcp(110), tcp(995), tcp(993)},
	"database": {tcp(210), tcp(5432), tcp(775), tcp(1433), udp(1433), tcp(1434), udp(1434), tcp(3306), tcp(27017), tcp(27018), tcp(27019), tcp(3050), tcp(3351), tcp(1583)},
	"dns":      {tcp(853), udp(853), udp(5353), tcp(53), udp(53)},
	"netbios":  {tcp(137), udp(137), tcp(138), udp(138), tcp(139), udp(139)},
	"netbios-smb": {
		tcp(445),
	},
	"p2p": {tcp(119), tcp(375), tcp(425), tcp(1214), tcp(412), tcp(1412), tcp(2412),
		tcp(4662), udp(12155), udp(6771), udp(6881), udp(6882), udp(6883), udp(6884),
		udp(6885), udp(6886), udp(6887), tcp(6881), tcp(6882), tcp(6883), tcp(6884),
		tcp(6885), tcp(6886), tcp(6887), tcp(6969), tcp(7000), tcp(9000), tcp(9091),
		tcp(6346), udp(6346), tcp(6347), udp(6347)},
	"ftp": {tcp(20), tcp(21), udp(69), tcp(989), tcp(990), udp(2431), udp(2433), tcp(2811), tcp(8021)},
}

// NewDomain builds the Table 7 definition.
func NewDomain() *Domain {
	d := &Domain{byKey: make(map[trace.PortKey]string, 128)}
	for name, keys := range table7 {
		for _, k := range keys {
			if prev, dup := d.byKey[k]; dup {
				panic(fmt.Sprintf("services: port %s in both %s and %s", k, prev, name))
			}
			d.byKey[k] = name
		}
	}
	return d
}

// Service implements Definition.
func (d *Domain) Service(k trace.PortKey) string {
	if k.Proto == packet.IPProtocolICMPv4 {
		return ICMPService
	}
	if s, ok := d.byKey[k]; ok {
		return s
	}
	switch {
	case k.Port <= 1023:
		return UnknownSystem
	case k.Port <= 49151:
		return UnknownUser
	default:
		return UnknownEphemeral
	}
}

// Names implements Definition.
func (d *Domain) Names() []string {
	names := make([]string, 0, len(table7)+4)
	for n := range table7 {
		names = append(names, n)
	}
	sort.Strings(names)
	return append(names, ICMPService, UnknownSystem, UnknownUser, UnknownEphemeral)
}

// Kind implements Definition.
func (d *Domain) Kind() string { return "domain" }
