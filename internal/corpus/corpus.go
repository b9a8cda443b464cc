// Package corpus turns a darknet trace into the word sequences DarkVec
// trains on (§5.2): senders' IP addresses are words; packets are split by
// service and by fixed ΔT time windows; within one (service, window) cell
// the arrival-ordered sender addresses form one sequence. The union of all
// sequences over all services is the corpus for a single Word2Vec model.
//
// The data path is integer end-to-end: sequences are []int32 of interned
// sender ids (see Interner), built by a parallel, deterministic builder
// that shards the event stream across workers and merges per-worker cells
// into the stable (window, service) order. The interner maps ids back to
// the dotted-quad words.
package corpus

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/services"
	"github.com/darkvec/darkvec/internal/trace"
)

// Sequence is one "sentence": the senders hitting one service during one ΔT
// window, in arrival order, as interned sender ids.
type Sequence struct {
	Service string
	Window  int     // zero-based window index from the trace start
	Tokens  []int32 // interned sender ids, arrival order
}

// Corpus is the full training input.
type Corpus struct {
	Sequences []Sequence
	DeltaT    int64 // seconds
	Kind      string
	// Counts is the corpus frequency of every interned token id
	// (len = Interner().Len()); senders the interner knows from earlier
	// builds but that are absent here count 0.
	Counts []int64

	in *Interner
}

// DefaultDeltaT is the paper's ΔT of one hour.
const DefaultDeltaT = int64(3600)

// Options tunes BuildOpts.
type Options struct {
	// Workers shards the event scan and the sequence assembly; 0 picks
	// automatically (GOMAXPROCS, falling back to the serial path below
	// serialCutoff events, where goroutine and merge overheads dominate),
	// 1 is the serial reference path. Output is identical at any worker
	// count.
	Workers int
	// Interner supplies (and accumulates) the sender id space; nil builds
	// a private one. Reuse across builds keeps ids stable so a retrain
	// skips string conversion for already-seen senders. An Interner must
	// not be shared by concurrently running Builds.
	Interner *Interner
}

// cell keys pack (serviceID, window) into one uint64: service in the high
// 24 bits, window in the low 40 — wide enough for any trace at any ΔT,
// and cheap to group by in the per-worker scan.
const windowBits = 40

// svcRegistry assigns dense ids to service names, seeded from the
// definition's stable Names order; lookup handles (and registers) any name
// a definition produces beyond its declared set. Grouping uses the ids,
// final ordering uses the names, so registration order never leaks into
// the output.
type svcRegistry struct {
	mu    sync.Mutex
	id    map[string]uint32
	names []string
}

func newSvcRegistry(def services.Definition) *svcRegistry {
	r := &svcRegistry{id: make(map[string]uint32)}
	for _, n := range def.Names() {
		r.lookup(n)
	}
	return r
}

func (r *svcRegistry) lookup(name string) uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.id[name]; ok {
		return id
	}
	id := uint32(len(r.names))
	r.id[name] = id
	r.names = append(r.names, name)
	return id
}

// senderStat accumulates one sender's chunk-local bookkeeping: the global
// index of its first appearance (which orders new-id assignment) and its
// packet count (which becomes the vocabulary frequency).
type senderStat struct {
	first int
	count int64
}

// partial is one worker's view of its contiguous event chunk.
type partial struct {
	cells map[uint64][]netutil.IPv4
	stats map[netutil.IPv4]*senderStat
}

// scan accumulates one contiguous chunk. base is the chunk's global start
// index; the per-chunk PortKey → packed-service cache keeps the service
// resolution to one small-map hit per event.
func scan(events []trace.Event, base int, def services.Definition, reg *svcRegistry, first, deltaT int64) *partial {
	p := &partial{
		cells: make(map[uint64][]netutil.IPv4, 64),
		stats: make(map[netutil.IPv4]*senderStat, 256),
	}
	svc := make(map[trace.PortKey]uint64, 32)
	for i := range events {
		e := &events[i]
		k := e.Key()
		svcBits, ok := svc[k]
		if !ok {
			svcBits = uint64(reg.lookup(def.Service(k))) << windowBits
			svc[k] = svcBits
		}
		key := svcBits | uint64((e.Ts-first)/deltaT)
		p.cells[key] = append(p.cells[key], e.Src)
		st := p.stats[e.Src]
		if st == nil {
			st = &senderStat{first: base + i}
			p.stats[e.Src] = st
		}
		st.count++
	}
	return p
}

// serialCutoff is the event count below which the automatic worker choice
// takes the serial path: at benchmark scale the parallel builder's chunk
// scans, map merges, and goroutine startup cost more than they save
// (bench/README's "Parallel = serial" table: `corpus.build_speedup` is only
// 1.0–1.2× on two cores at 30k–190k events), and the crossover sits well
// above this bound on every machine measured.
const serialCutoff = 1 << 18

// autoWorkers resolves a requested worker count against the input size.
// Explicit requests (including 1) are honoured — identity tests rely on
// pinning both paths — while the automatic choice (requested <= 0) only
// pays for parallelism when the event count is large enough to amortise it.
func autoWorkers(requested, events int) int {
	w := requested
	if w <= 0 {
		if events < serialCutoff {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > events {
		w = events
	}
	return w
}

// BuildOpts constructs the corpus for the trace under the given service
// definition and window width in seconds (0 means DefaultDeltaT).
//
// Determinism: events are split into contiguous, order-preserving chunks;
// per-worker cells concatenate back in chunk order, so every cell holds
// its senders in arrival order exactly as a serial pass would produce.
// New sender ids are assigned by global first-appearance order (the
// minimum event index across chunks), which is precisely the order the
// serial pass interns them in. The corpus is therefore identical — ids,
// sequences, counts — at any worker count.
func BuildOpts(t *trace.Trace, def services.Definition, deltaT int64, o Options) *Corpus {
	if deltaT <= 0 {
		deltaT = DefaultDeltaT
	}
	in := o.Interner
	if in == nil {
		in = NewInterner()
	}
	out := &Corpus{DeltaT: deltaT, Kind: def.Kind(), in: in}
	events := t.Events
	if len(events) == 0 {
		out.Counts = make([]int64, in.Len())
		return out
	}
	workers := autoWorkers(o.Workers, len(events))
	first := events[0].Ts
	reg := newSvcRegistry(def)

	// Phase 1: parallel scan over contiguous chunks.
	parts := make([]*partial, workers)
	if workers == 1 {
		parts[0] = scan(events, 0, def, reg, first, deltaT)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := len(events)*w/workers, len(events)*(w+1)/workers
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				parts[w] = scan(events[lo:hi], lo, def, reg, first, deltaT)
			}(w, lo, hi)
		}
		wg.Wait()
	}

	// Phase 2 (serial, O(distinct senders + distinct cells)): merge sender
	// stats, intern new senders in first-appearance order, merge cell keys
	// into the stable (window, service) output order.
	merged := parts[0].stats
	for _, p := range parts[1:] {
		for ip, st := range p.stats {
			m := merged[ip]
			if m == nil {
				merged[ip] = st
				continue
			}
			if st.first < m.first {
				m.first = st.first
			}
			m.count += st.count
		}
	}
	type newSender struct {
		ip    netutil.IPv4
		first int
	}
	news := make([]newSender, 0, len(merged))
	for ip, st := range merged {
		if _, ok := in.ID(ip); !ok {
			news = append(news, newSender{ip, st.first})
		}
	}
	sort.Slice(news, func(i, j int) bool { return news[i].first < news[j].first })
	for _, ns := range news {
		in.Intern(ns.ip)
	}
	idOf := in.index() // read-only from here on
	out.Counts = make([]int64, in.Len())
	for ip, st := range merged {
		out.Counts[idOf[ip]] = st.count
	}

	type cellMeta struct {
		key     uint64
		window  int
		service string
		total   int
	}
	union := make(map[uint64]*cellMeta, len(parts[0].cells)*2)
	for _, p := range parts {
		for key, buf := range p.cells {
			m := union[key]
			if m == nil {
				m = &cellMeta{
					key:     key,
					window:  int(key & (1<<windowBits - 1)),
					service: reg.names[key>>windowBits],
				}
				union[key] = m
			}
			m.total += len(buf)
		}
	}
	metas := make([]*cellMeta, 0, len(union))
	for _, m := range union {
		metas = append(metas, m)
	}
	// Stable corpus order: by window then service name, so training with a
	// fixed seed is reproducible regardless of event interleaving.
	sort.Slice(metas, func(i, j int) bool {
		if metas[i].window != metas[j].window {
			return metas[i].window < metas[j].window
		}
		return metas[i].service < metas[j].service
	})

	// Phase 3: parallel sequence assembly — concatenate each cell's
	// per-chunk buffers in chunk order, remapping IPv4 → token id.
	out.Sequences = make([]Sequence, len(metas))
	fill := func(si int) {
		m := metas[si]
		toks := make([]int32, 0, m.total)
		for _, p := range parts {
			for _, ip := range p.cells[m.key] {
				toks = append(toks, int32(idOf[ip]))
			}
		}
		out.Sequences[si] = Sequence{Service: m.service, Window: m.window, Tokens: toks}
	}
	if workers == 1 || len(metas) < 2 {
		for si := range metas {
			fill(si)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					si := int(next.Add(1)) - 1
					if si >= len(metas) {
						return
					}
					fill(si)
				}
			}()
		}
		wg.Wait()
	}
	return out
}

// Interner returns the sender id space this corpus is encoded in.
func (c *Corpus) Interner() *Interner { return c.in }

// TokenSequences exposes the interned token sequences in the shape the
// pre-encoded Word2Vec entry point consumes. Slices are shared, not
// copied.
func (c *Corpus) TokenSequences() [][]int32 {
	out := make([][]int32, len(c.Sequences))
	for i := range c.Sequences {
		out[i] = c.Sequences[i].Tokens
	}
	return out
}

// Tokens returns the total number of words across all sequences.
func (c *Corpus) Tokens() int {
	n := 0
	for i := range c.Sequences {
		n += len(c.Sequences[i].Tokens)
	}
	return n
}

// SkipGrams counts the (center, context) training pairs a window of size c
// yields. With padding (the paper's NULL-word scheme) every token has
// exactly 2c context slots; without it, windows clip at sequence edges.
// This is the "Skip-grams" column of Table 3.
func (c *Corpus) SkipGrams(window int, padded bool) int64 {
	var n int64
	for _, s := range c.Sequences {
		l := len(s.Tokens)
		if l == 0 {
			continue
		}
		if padded {
			n += int64(l) * int64(2*window)
			continue
		}
		for i := 0; i < l; i++ {
			left := min(window, i)
			right := min(window, l-1-i)
			n += int64(left + right)
		}
	}
	return n
}
