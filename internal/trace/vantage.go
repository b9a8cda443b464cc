package trace

import (
	"fmt"
	"strings"
	"sync"
)

// VantageID names the telescope that observed a packet as an index into one
// process-wide name table: two bytes on every event of every copy of a
// window instead of a sixteen-byte string header, for the handful of names a
// deployment has. The zero id is the untagged vantage "". Names cross only
// the boundaries that carry text — CSV column 7, the line protocol, the
// binary record, flags — and are interned there, so the id never reaches
// disk or the wire.
type VantageID uint16

// MaxVantageLen caps a vantage tag; anything longer is corruption, not a
// telescope name.
const MaxVantageLen = 255

// maxVantages is the table's capacity, the untagged id 0 included. The table
// is bounded because its names come off the wire: a peer inventing a tag per
// line must run into a wall, not grow the process.
const maxVantages = 1 << 16

var vantages = struct {
	sync.RWMutex
	ids   map[string]VantageID
	names []string // names[id]; names[0] == ""
}{ids: map[string]VantageID{"": 0}, names: []string{""}}

// InternVantage returns the id of the named vantage, assigning the next free
// one to a name not seen before. A name longer than MaxVantageLen or holding
// a CSV separator is malformed, and so is a new name once the table is full:
// the caller charges the record to its error budget like any other bad
// field, and no id is ever reused for a second name.
func InternVantage(name string) (VantageID, error) {
	if name == "" {
		return 0, nil
	}
	vantages.RLock()
	id, ok := vantages.ids[name]
	vantages.RUnlock()
	if ok {
		return id, nil
	}
	if len(name) > MaxVantageLen {
		return 0, fmt.Errorf("vantage length %d exceeds %d", len(name), MaxVantageLen)
	}
	if strings.ContainsAny(name, ",\n\r") {
		return 0, fmt.Errorf("bad vantage %q", name)
	}
	vantages.Lock()
	defer vantages.Unlock()
	if id, ok := vantages.ids[name]; ok {
		return id, nil
	}
	if len(vantages.names) == maxVantages {
		return 0, fmt.Errorf("vantage table full (%d names): %q not admitted", maxVantages-1, name)
	}
	// The caller's name is usually a slice of a whole protocol line; the
	// table must not pin that line.
	name = strings.Clone(name)
	id = VantageID(len(vantages.names))
	vantages.names = append(vantages.names, name)
	vantages.ids[name] = id
	return id, nil
}

// internVantageBytes is InternVantage for a tag still sitting in a decode
// buffer: a name already in the table costs no allocation (the compiler
// elides the conversion inside a map index).
func internVantageBytes(b []byte) (VantageID, error) {
	vantages.RLock()
	id, ok := vantages.ids[string(b)]
	vantages.RUnlock()
	if ok {
		return id, nil
	}
	return InternVantage(string(b))
}

// MustVantage is InternVantage for names known to be valid (literals in
// tests and generators); it panics on a malformed name or a full table.
func MustVantage(name string) VantageID {
	id, err := InternVantage(name)
	if err != nil {
		panic("trace: " + err.Error())
	}
	return id
}

// String returns the vantage's name, "" for the untagged id. Only
// InternVantage mints ids, so every id in an Event has a name.
func (v VantageID) String() string {
	if v == 0 {
		return ""
	}
	vantages.RLock()
	defer vantages.RUnlock()
	return vantages.names[v]
}
