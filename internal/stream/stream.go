// Package stream is the live ingestion subsystem: event sources (TCP/unix
// listeners speaking the CSV line protocol, a tail-follow file source, or
// any io.Reader) feed a bounded pipeline with explicit backpressure into a
// rolling, memory-bounded window that darkvecd retrains from. Darknet
// feeds are bursty and adversarial — senders go silent, drip bytes, flood,
// disconnect mid-line, and ship garbage — so every stage is defensive:
// per-connection read deadlines cut slow-loris writers, per-source token
// buckets throttle floods at the edge, the fixed-capacity queue sheds
// overload under an explicit drop policy with exact accounting, malformed
// lines are quarantined against a shared error budget, and a stall
// watchdog flags a feed that has gone quiet.
package stream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/trace"
)

// Defaults; override via Config.
const (
	DefaultQueueSize    = 4096
	DefaultIdleTimeout  = 30 * time.Second
	DefaultMaxLineBytes = 1 << 12
	DefaultStallAfter   = 2 * time.Minute
	DefaultFollowPoll   = 200 * time.Millisecond
)

// EventLog is the write surface of a durability log (internal/wal
// satisfies it): Append stages one accepted event, Commit makes every
// staged append durable. Kept as an interface so the stream layer never
// depends on the on-disk format.
type EventLog interface {
	Append(e trace.Event) error
	Commit() error
}

// logBatchMax caps one consumer drain: the group-commit unit. Bigger
// batches amortise the fsync further but hold the window back longer.
const logBatchMax = 256

// Config assembles an Ingestor.
type Config struct {
	// QueueSize caps the source→window hand-off queue (default 4096).
	QueueSize int
	// Policy selects what a full queue sheds (default ShedNewest).
	Policy DropPolicy
	// Window bounds the rolling event store.
	Window WindowConfig
	// Budget is the malformed-line tolerance shared by all sources; the
	// zero value is strict (first bad line kills its source connection).
	Budget robust.Budget
	// IdleTimeout is the per-connection read deadline: a connection that
	// makes no read progress for this long is cut (default 30s;
	// negative disables).
	IdleTimeout time.Duration
	// MaxLineBytes caps one protocol line; an oversize line loses the
	// framing for good, so the connection is cut (default 4096).
	MaxLineBytes int
	// Rate is the per-source token-bucket admission rate in events/sec
	// (0 = unlimited). Sources sleep off their deficit — backpressure on
	// the sender, not data loss.
	Rate float64
	// Burst is the token-bucket depth (default max(1, Rate)).
	Burst int
	// StallAfter flips the watchdog when no event has been accepted for
	// this long (default 2m; negative disables).
	StallAfter time.Duration
	// Log, when non-nil, is the durability hook between the queue and the
	// window: the consumer appends every popped batch and commits once
	// before any of its events become visible in the window, so everything
	// the queue accepted is on disk (per the log's fsync policy) before it
	// can influence a retrain. Log failures degrade — events still reach
	// the window and LogFailed counts them — because serving from a
	// slightly-less-durable window beats refusing traffic.
	Log EventLog
	// Vantage, when non-zero, tags every untagged event admitted by this
	// ingestor with that vantage point (trace.InternVantage of its name).
	// Events whose line already carries a tag keep it — a relay forwarding
	// several telescopes into one listener stays attributable per event.
	Vantage trace.VantageID
	// Logf, when non-nil, receives operational events (connections cut,
	// budget blown).
	Logf func(format string, args ...any)
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
	// sleep waits out a throttle or poll delay on Clock's time line, or
	// until ctx ends; nil means a timer. A test driving Clock by hand
	// sets both, so a sleep advances the time the token bucket reads.
	sleep func(ctx context.Context, d time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = DefaultQueueSize
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = DefaultMaxLineBytes
	}
	if c.StallAfter == 0 {
		c.StallAfter = DefaultStallAfter
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.sleep == nil {
		c.sleep = timerSleep
	}
	return c
}

// Stats is the /v1/ingest counter snapshot. After Close it is exact and
// satisfies Parse.Read == Accepted + DroppedNewest + DroppedOldest: every
// successfully parsed event was either applied to the window or accounted
// as shed.
type Stats struct {
	Accepted      int64              `json:"accepted"`
	DroppedNewest int64              `json:"dropped_newest"`
	DroppedOldest int64              `json:"dropped_oldest"`
	Throttled     int64              `json:"throttled"`
	OpenConns     int64              `json:"open_conns"`
	TotalConns    int64              `json:"total_conns"`
	KilledConns   int64              `json:"killed_conns"`
	LogFailed     int64              `json:"log_failed"`
	QueueDepth    int                `json:"queue_depth"`
	Parse         robust.IngestStats `json:"parse"`
	Window        WindowStats        `json:"window"`
	Stalled       bool               `json:"stalled"`
	SilenceSec    float64            `json:"silence_sec"`
}

// Ingestor owns the live pipeline: sources push parsed events through the
// bounded queue; one consumer goroutine applies them to the rolling window
// and feeds the watchdog. Construct with New, attach sources with Serve /
// Follow / Consume, stop everything with Close.
type Ingestor struct {
	cfg      Config
	window   *Window
	q        *queue
	report   *robust.IngestReport
	watchdog *Watchdog

	accepted      atomic.Int64
	logFailed     atomic.Int64
	droppedNewest atomic.Int64
	droppedOldest atomic.Int64
	throttled     atomic.Int64
	openConns     atomic.Int64
	totalConns    atomic.Int64
	killedConns   atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	closed    bool
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup // source goroutines (conn handlers, tails, consumes)

	consumerDone chan struct{}
	closeOnce    sync.Once
}

// New builds an ingestor and starts its consumer goroutine.
func New(cfg Config) *Ingestor {
	cfg = cfg.withDefaults()
	in := &Ingestor{
		cfg:          cfg,
		window:       NewWindow(cfg.Window),
		q:            newQueue(cfg.QueueSize, cfg.Policy),
		report:       &robust.IngestReport{},
		watchdog:     newWatchdog(cfg.StallAfter, cfg.Clock),
		conns:        map[net.Conn]struct{}{},
		consumerDone: make(chan struct{}),
	}
	in.ctx, in.cancel = context.WithCancel(context.Background())
	go in.consume()
	return in
}

// Window exposes the rolling store (snapshot it to retrain).
func (in *Ingestor) Window() *Window { return in.window }

// Report exposes the shared parse accounting.
func (in *Ingestor) Report() *robust.IngestReport { return in.report }

// Stalled reports whether the stall watchdog has tripped.
func (in *Ingestor) Stalled() bool { return in.watchdog.Stalled() }

// Silence returns how long the feed has been quiet.
func (in *Ingestor) Silence() time.Duration { return in.watchdog.Silence() }

// Stats snapshots every counter in the pipeline.
func (in *Ingestor) Stats() Stats {
	return Stats{
		Accepted:      in.accepted.Load(),
		DroppedNewest: in.droppedNewest.Load(),
		DroppedOldest: in.droppedOldest.Load(),
		Throttled:     in.throttled.Load(),
		OpenConns:     in.openConns.Load(),
		TotalConns:    in.totalConns.Load(),
		KilledConns:   in.killedConns.Load(),
		LogFailed:     in.logFailed.Load(),
		QueueDepth:    in.q.len(),
		Parse:         in.report.Snapshot(),
		Window:        in.window.Stats(),
		Stalled:       in.watchdog.Stalled(),
		SilenceSec:    in.watchdog.Silence().Seconds(),
	}
}

// Push admits one already-parsed event under the queue's drop policy,
// returning false when it was shed. Exposed so in-process producers (the
// seed path, tests) share the exact accounting of the wire sources.
func (in *Ingestor) Push(e trace.Event) bool {
	shed, evicted := in.q.push(e)
	if evicted {
		in.droppedOldest.Add(1)
	}
	if shed {
		in.droppedNewest.Add(1)
		return false
	}
	return true
}

// consume is the single drain: queue → (durability log) → window, feeding
// the watchdog. Batching is what makes durability affordable: one Commit —
// one fsync under the always policy — covers every event popped in the
// drain, and no event is applied to the window before the commit returns.
func (in *Ingestor) consume() {
	defer close(in.consumerDone)
	batch := make([]trace.Event, 0, logBatchMax)
	for {
		var ok bool
		batch, ok = in.q.popBatch(batch[:0], logBatchMax)
		if !ok {
			return
		}
		if in.cfg.Log != nil {
			in.logBatch(batch)
		}
		in.window.AddBatch(batch)
		in.accepted.Add(int64(len(batch)))
		in.watchdog.Touch()
	}
}

// logBatch appends and commits one drained batch. A failure — a full disk,
// a failed fsync — degrades rather than crashes: every event in the batch
// still reaches the window, LogFailed records how many lost their
// durability claim, and darkvecd surfaces the condition as a degraded
// reason.
func (in *Ingestor) logBatch(batch []trace.Event) {
	for i, e := range batch {
		if err := in.cfg.Log.Append(e); err != nil {
			in.logFailed.Add(int64(len(batch) - i))
			in.cfg.Logf("stream: durability log append failed (%d events undurable): %v", len(batch)-i, err)
			return
		}
	}
	if err := in.cfg.Log.Commit(); err != nil {
		in.logFailed.Add(int64(len(batch)))
		in.cfg.Logf("stream: durability log commit failed (%d events undurable): %v", len(batch), err)
	}
}

// register joins a source goroutine to the close protocol; it returns
// false when the ingestor is already closing.
func (in *Ingestor) register() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return false
	}
	in.wg.Add(1)
	return true
}

// Serve accepts connections on ln until Close, one goroutine per
// connection. It blocks; run it in a goroutine. ln is closed by Close.
func (in *Ingestor) Serve(ln net.Listener) error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		ln.Close()
		return errors.New("stream: ingestor closed")
	}
	in.listeners = append(in.listeners, ln)
	in.wg.Add(1)
	in.mu.Unlock()
	defer in.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if in.ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !in.register() {
			conn.Close()
			return nil
		}
		go func() {
			defer in.wg.Done()
			in.handleConn(conn)
		}()
	}
}

// handleConn drains one line-protocol connection: idle deadline per read,
// line length cap, shared quarantine budget, per-source token bucket.
func (in *Ingestor) handleConn(conn net.Conn) {
	in.openConns.Add(1)
	in.totalConns.Add(1)
	defer in.openConns.Add(-1)
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		conn.Close()
		return
	}
	in.conns[conn] = struct{}{}
	in.mu.Unlock()
	defer func() {
		in.mu.Lock()
		delete(in.conns, conn)
		in.mu.Unlock()
		conn.Close()
	}()

	name := "conn"
	if ra := conn.RemoteAddr(); ra != nil && ra.String() != "" {
		name = ra.String()
	}
	bucket := newTokenBucket(in.cfg.Rate, in.cfg.Burst)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, min(512, in.cfg.MaxLineBytes)), in.cfg.MaxLineBytes)
	for {
		if in.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(in.cfg.Clock().Add(in.cfg.IdleTimeout))
		}
		if !sc.Scan() {
			switch err := sc.Err(); {
			case err == nil: // clean EOF; a partial tail was delivered as a final token above
			case errors.Is(err, os.ErrDeadlineExceeded):
				in.killedConns.Add(1)
				in.cfg.Logf("stream: %s idle for %s, cut", name, in.cfg.IdleTimeout)
			case errors.Is(err, bufio.ErrTooLong):
				// Skip before the cut counts, so a watcher that sees the
				// cut also sees the skip.
				_ = in.report.Skip(in.cfg.Budget, fmt.Errorf("stream: %s: line exceeds %d bytes", name, in.cfg.MaxLineBytes))
				in.killedConns.Add(1)
				in.cfg.Logf("stream: %s oversize line, framing lost, cut", name)
			case in.ctx.Err() != nil || errors.Is(err, net.ErrClosed):
			default:
				in.cfg.Logf("stream: %s read error: %v", name, err)
			}
			return
		}
		if err := in.consumeLine(sc.Text(), name, bucket); err != nil {
			in.killedConns.Add(1)
			in.cfg.Logf("stream: %s: %v, cut", name, err)
			return
		}
	}
}

// consumeLine parses one protocol line and pushes the event through the
// throttle and the queue. A non-nil return means the source must be cut
// (blown budget or shutdown).
func (in *Ingestor) consumeLine(line, name string, bucket *tokenBucket) error {
	if line == "" || trace.IsCSVHeader(line) {
		return nil
	}
	e, err := trace.ParseCSVLine(line)
	if err != nil {
		if berr := in.report.Skip(in.cfg.Budget, fmt.Errorf("%s: %w", name, err)); berr != nil {
			return berr
		}
		return nil
	}
	if e.Vantage == 0 {
		e.Vantage = in.cfg.Vantage
	}
	in.report.Record()
	if bucket != nil {
		if wait := bucket.reserve(in.cfg.Clock()); wait > 0 {
			in.throttled.Add(1)
			if err := in.sleep(wait); err != nil {
				// Shutting down: the event is still pushed (and most
				// likely shed by the closed queue) so accounting stays
				// exact, then the source exits.
				in.Push(e)
				return err
			}
		}
	}
	in.Push(e)
	return nil
}

// sleep waits d, for a throttle or a poll, on the ingestor's clock; it
// returns early with the context's error on shutdown.
func (in *Ingestor) sleep(d time.Duration) error { return in.cfg.sleep(in.ctx, d) }

// timerSleep is a ctx-aware sleep on the wall clock.
func timerSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Consume drains one io.Reader as a line-protocol source until EOF or
// Close — the path for stdin pipes and for chaos tests wrapping readers in
// fault injectors. A partial final line is quarantined like a mid-line
// disconnect. It blocks until the reader is exhausted.
func (in *Ingestor) Consume(r io.Reader, name string) error {
	if !in.register() {
		return errors.New("stream: ingestor closed")
	}
	defer in.wg.Done()
	bucket := newTokenBucket(in.cfg.Rate, in.cfg.Burst)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, min(512, in.cfg.MaxLineBytes)), in.cfg.MaxLineBytes)
	for sc.Scan() {
		if in.ctx.Err() != nil {
			return in.ctx.Err()
		}
		if err := in.consumeLine(sc.Text(), name, bucket); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		_ = in.report.Skip(in.cfg.Budget, fmt.Errorf("%s: %w", name, err))
		return err
	}
	return nil
}

// Follow tails path like `tail -F`: it reads existing content, then polls
// for appended lines, holding a partial final line until its newline
// arrives (a live writer finishes lines eventually; a crashed one never
// does, and its torn tail must not enter the corpus). Truncation and
// rotation re-open the file from the start. It blocks until Close; a
// missing file is waited for, not an error.
func (in *Ingestor) Follow(path string, poll time.Duration) error {
	if !in.register() {
		return errors.New("stream: ingestor closed")
	}
	defer in.wg.Done()
	if poll <= 0 {
		poll = DefaultFollowPoll
	}
	bucket := newTokenBucket(in.cfg.Rate, in.cfg.Burst)
	var (
		f       *os.File
		br      *bufio.Reader
		pending []byte // the current line's bytes, kept only up to the cap
		lineLen int    // the current line's length so far
		pos     int64
	)
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	reopen := func() error {
		if f != nil {
			f.Close()
			f, br = nil, nil
		}
		nf, err := os.Open(path)
		if err != nil {
			return err
		}
		f = nf
		br = bufio.NewReader(f)
		pending, lineLen = pending[:0], 0
		pos = 0
		return nil
	}
	for {
		if f == nil {
			if err := reopen(); err != nil {
				if !os.IsNotExist(err) {
					return err
				}
				if serr := in.sleep(poll); serr != nil {
					return nil
				}
				continue
			}
		}
		// An oversize line is discarded as it streams past: only the first
		// MaxLineBytes+1 bytes (the newline included) are ever held.
		chunk, err := br.ReadSlice('\n')
		pos += int64(len(chunk))
		lineLen += len(chunk)
		if lineLen <= in.cfg.MaxLineBytes+1 {
			pending = append(pending, chunk...)
		}
		if err == nil {
			line, oversize := pending, lineLen > in.cfg.MaxLineBytes+1
			pending, lineLen = pending[:0], 0
			if oversize {
				if berr := in.report.Skip(in.cfg.Budget, fmt.Errorf("%s: line exceeds %d bytes", path, in.cfg.MaxLineBytes)); berr != nil {
					return berr
				}
				continue
			}
			if cerr := in.consumeLine(string(line[:len(line)-1]), path, bucket); cerr != nil { // strip \n
				return cerr
			}
			continue
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		if !errors.Is(err, io.EOF) {
			return err
		}
		// At EOF: detect truncation (size shrank under us) or rotation
		// (path now names a different file), then wait for growth.
		if st, serr := os.Stat(path); serr == nil {
			if fst, ferr := f.Stat(); ferr == nil {
				if st.Size() < pos || !os.SameFile(st, fst) {
					in.cfg.Logf("stream: %s truncated or rotated, re-reading", path)
					if rerr := reopen(); rerr != nil && !os.IsNotExist(rerr) {
						return rerr
					}
					continue
				}
			}
		}
		if serr := in.sleep(poll); serr != nil {
			return nil
		}
	}
}

// Close stops the pipeline in dependency order: listeners and connections
// first (no new lines), then source goroutines drain out, then the queue
// closes and the consumer applies every buffered event to the window
// before exiting. After Close returns, Stats is exact and the window holds
// everything that was accepted. Idempotent.
func (in *Ingestor) Close() {
	in.closeOnce.Do(func() {
		in.mu.Lock()
		in.closed = true
		for _, ln := range in.listeners {
			ln.Close()
		}
		for c := range in.conns {
			c.Close()
		}
		in.mu.Unlock()
		in.cancel()
		in.wg.Wait()
		in.q.close()
		<-in.consumerDone
	})
}
