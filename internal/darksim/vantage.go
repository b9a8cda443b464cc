package darksim

import (
	"fmt"
	"math/bits"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
)

// Vantage is one telescope's share of a simulated darknet: the destination
// block it monitors and the name its observations are tagged with.
type Vantage struct {
	Name  string
	Block netutil.Subnet
}

// CarveDarknet splits block into len(names) equal, consecutive sub-blocks —
// the multi-vantage geometry of the paper's transfer experiment (§8), where
// one darknet's address space is viewed as several independent telescopes.
// The vantage count must be a power of two no larger than the block.
func CarveDarknet(block netutil.Subnet, names ...string) ([]Vantage, error) {
	n := len(names)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("darksim: vantage count %d is not a power of two", n)
	}
	extra := bits.TrailingZeros(uint(n))
	if block.Bits+extra > 32 {
		return nil, fmt.Errorf("darksim: cannot carve %s into %d blocks", block, n)
	}
	out := make([]Vantage, n)
	per := block.Size() / uint64(n)
	for i, name := range names {
		out[i] = Vantage{
			Name:  name,
			Block: netutil.Subnet{Base: block.Addr(uint64(i) * per), Bits: block.Bits + extra},
		}
	}
	return out, nil
}

// TagVantages partitions a trace's events across vantages by destination:
// each event lands in the first vantage whose block contains its dst and is
// tagged with that vantage's name. Events no vantage monitors are dropped —
// address space nobody watches produces no observations. Event order is
// preserved; the input trace is not mutated. A name the vantage table does
// not admit (trace.InternVantage) is an error.
func TagVantages(tr *trace.Trace, vantages []Vantage) (*trace.Trace, error) {
	ids, err := internNames(vantages)
	if err != nil {
		return nil, err
	}
	events := make([]trace.Event, 0, tr.Len())
	for _, e := range tr.Events {
		for i, v := range vantages {
			if v.Block.Contains(e.Dst) {
				e.Vantage = ids[i]
				events = append(events, e)
				break
			}
		}
	}
	return trace.New(events), nil
}

// SplitVantages is TagVantages delivered as per-vantage views: every
// vantage gets its own trace holding exactly the (tagged) events aimed at
// its block, in original order — the per-daemon feed of a federated
// deployment. Every configured vantage is present in the result, empty or
// not.
func SplitVantages(tr *trace.Trace, vantages []Vantage) (map[string]*trace.Trace, error) {
	ids, err := internNames(vantages)
	if err != nil {
		return nil, err
	}
	parts := make(map[string][]trace.Event, len(vantages))
	for _, v := range vantages {
		parts[v.Name] = nil
	}
	for _, e := range tr.Events {
		for i, v := range vantages {
			if v.Block.Contains(e.Dst) {
				e.Vantage = ids[i]
				parts[v.Name] = append(parts[v.Name], e)
				break
			}
		}
	}
	out := make(map[string]*trace.Trace, len(vantages))
	for name, events := range parts {
		out[name] = trace.New(events)
	}
	return out, nil
}

// internNames resolves each vantage's name to its event tag.
func internNames(vantages []Vantage) ([]trace.VantageID, error) {
	ids := make([]trace.VantageID, len(vantages))
	for i, v := range vantages {
		id, err := trace.InternVantage(v.Name)
		if err != nil {
			return nil, fmt.Errorf("darksim: vantage %q: %w", v.Name, err)
		}
		ids[i] = id
	}
	return ids, nil
}
