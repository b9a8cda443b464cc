package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/stream"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/wal"
)

// ingestFlags configure the window every generation trains on: the -in
// trace that seeds it once at boot, and the live sources that keep it
// rolling. Without a live source the window is exactly the file.
type ingestFlags struct {
	in, ingest, follow, vantage, ingestPolicy string // "" = none, but ingestPolicy "" = shed-newest
	maxErr                                    int64  // the one malformed-record budget: -in, the wire and WAL replay
	ingestCap, ingestQueue, ingestMin         int
	ingestRate                                float64
	ingestIdle, ingestStall, ingestAge        time.Duration
	policy                                    stream.DropPolicy // parsed -ingestpolicy
	vantageID                                 trace.VantageID   // interned -vantage
}

var errNoSource = errors.New("missing -in trace (or a live source: -ingest / -follow)")

func (o *ingestFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&o.in, "in", "", "input trace (.csv or .pcap)")
	fs.Int64Var(&o.maxErr, "maxerr", 0, "tolerate up to N malformed input records (0 = strict)")
	fs.StringVar(&o.vantage, "vantage", "", "vantage point name: tags untagged live events and the /v1/intern export")
	fs.StringVar(&o.ingest, "ingest", "", "live-feed listener (host:port or unix:/path) speaking the CSV line protocol")
	fs.StringVar(&o.follow, "follow", "", "tail-follow this file as a live event source")
	fs.Float64Var(&o.ingestRate, "ingestrate", 0, "per-source ingest rate limit, events/sec (0 = unlimited)")
	fs.DurationVar(&o.ingestIdle, "ingestidle", stream.DefaultIdleTimeout, "cut a live connection after this long without a line")
	fs.DurationVar(&o.ingestStall, "ingeststall", stream.DefaultStallAfter, "report degraded after this long without any live event")
	fs.IntVar(&o.ingestCap, "ingestcap", 1<<20, "live window hard cap, events")
	fs.DurationVar(&o.ingestAge, "ingestage", 24*time.Hour, "live window event-time horizon")
	fs.IntVar(&o.ingestQueue, "ingestqueue", stream.DefaultQueueSize, "live ingest queue capacity")
	fs.StringVar(&o.ingestPolicy, "ingestpolicy", "shed-newest", "full-queue drop policy: shed-newest or drop-oldest")
	fs.IntVar(&o.ingestMin, "ingestmin", 100, "window events required before a retrain cycle runs")
}

// validate parses -ingestpolicy and interns -vantage whether or not a live
// source is set: both are read when the window is built, after -in.
func (o *ingestFlags) validate() (err error) {
	if o.in == "" && !o.live() {
		return errNoSource
	}
	if o.maxErr < 0 {
		return fmt.Errorf("invalid -maxerr %d: must be >= 0", o.maxErr)
	}
	switch o.ingestPolicy {
	case "", "shed-newest":
		o.policy = stream.ShedNewest
	case "drop-oldest":
		o.policy = stream.DropOldest
	default:
		return fmt.Errorf("invalid -ingestpolicy %q: want shed-newest or drop-oldest", o.ingestPolicy)
	}
	// The vantage name travels inside CSV lines and "; "-joined headers;
	// separators in it would corrupt both framings.
	if strings.ContainsAny(o.vantage, ",;\r\n") {
		return fmt.Errorf("invalid -vantage %q: must not contain ',', ';' or line breaks", o.vantage)
	}
	if o.vantageID, err = trace.InternVantage(o.vantage); err != nil {
		return fmt.Errorf("invalid -vantage: %w", err)
	}
	if !o.live() {
		return nil
	}
	// Zeroes mean "use the default" so options constructed in code without
	// flag parsing behave like the CLI; only negatives are nonsense (except
	// -ingestage, where negative = unbounded).
	switch {
	case o.ingestCap < 0:
		return fmt.Errorf("invalid -ingestcap %d: must be >= 0", o.ingestCap)
	case o.ingestCap > math.MaxInt32:
		return fmt.Errorf("invalid -ingestcap %d: must be <= %d", o.ingestCap, math.MaxInt32)
	case o.ingestQueue < 0:
		return fmt.Errorf("invalid -ingestqueue %d: must be >= 0", o.ingestQueue)
	case o.ingestMin < 0:
		return fmt.Errorf("invalid -ingestmin %d: must be >= 0", o.ingestMin)
	case o.ingestRate < 0:
		return fmt.Errorf("invalid -ingestrate %v: must be >= 0", o.ingestRate)
	}
	return nil
}

// live reports whether the daemon has a live source that keeps its window
// rolling after -in seeded it.
func (o *ingestFlags) live() bool { return o.ingest != "" || o.follow != "" }

// walFlags configure durable ingestion: every event the queue accepts is
// appended to a crash-consistent write-ahead log before it enters the
// window, and boot replays the log to rebuild the window.
type walFlags struct {
	wal      string // "" = the live window does not survive a restart
	walFsync string
	walSeg   int64          // 0 = default 64 MiB
	fsync    wal.SyncPolicy // parsed -walfsync
}

func (o *walFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&o.wal, "wal", "", "write-ahead log directory: accepted live events are durable before entering the window, and boot replays them")
	fs.StringVar(&o.walFsync, "walfsync", "always", "WAL fsync policy: always (zero loss), interval (bounded loss) or off (OS-decided)")
	fs.Int64Var(&o.walSeg, "walseg", 0, "WAL segment rotation size in bytes (0 = 64 MiB)")
}

func (o *walFlags) validate() (err error) {
	switch {
	case o.walSeg < 0:
		return fmt.Errorf("invalid -walseg %d: must be >= 0", o.walSeg)
	case o.wal == "":
		return nil
	}
	if o.fsync, err = wal.ParseSyncPolicy(o.walFsync); err != nil {
		return fmt.Errorf("invalid -walfsync: %w", err)
	}
	return nil
}

// startIngest builds the ingestor every daemon trains on, rebuilds its
// window (-in seed, then WAL replay), and starts the configured live
// sources. The ingestor is live immediately; events buffer in the window
// until a cycle cuts them.
func (d *daemon) startIngest() error {
	// The -in base trace (none without -in): the one read of it a daemon
	// makes. Its events live only until they are copied into the ring just
	// below, the one copy the daemon keeps; by the first cycle the file
	// trace is garbage, not a second window.
	o, seed := d.o, &trace.Trace{}
	if o.in != "" {
		tr, rep, err := trace.ReadFile(o.in, o.maxErr)
		if err != nil {
			return fmt.Errorf("seed from -in: %w", err)
		}
		o.logf("seeded window with %d events from %s (%s)", tr.Len(), o.in, rep)
		seed = tr
	}
	cfg := stream.Config{
		QueueSize: o.ingestQueue,
		Policy:    o.policy,
		Vantage:   o.vantageID,
		Window: stream.WindowConfig{
			MaxEvents: o.ingestCap,
			MaxAge:    int64(o.ingestAge.Seconds()),
		},
		Budget:      robust.Budget{MaxErrors: o.maxErr},
		IdleTimeout: o.ingestIdle,
		Rate:        o.ingestRate,
		StallAfter:  o.ingestStall,
		Logf:        o.logf,
	}
	if !o.live() {
		// Nothing can add to the window, so it is exactly the file: a ring
		// sized to the seed, no age eviction and no feed to fall silent.
		cfg.Window = stream.WindowConfig{MaxEvents: seed.Len(), MaxAge: -1}
		cfg.StallAfter = -1
	}
	if o.wal != "" {
		var err error
		d.walLog, err = wal.Open(o.wal, wal.Options{
			SegmentBytes: o.walSeg,
			Policy:       o.fsync,
			// The window's hard age cap is the compaction bound: a sealed
			// segment whose newest event the window would evict on sight
			// can never matter to a reboot. Evaluated lazily so it is safe
			// before the ingestor exists.
			Horizon: func() int64 {
				if d.ing == nil {
					return 0
				}
				return d.ing.Window().CompactionHorizon()
			},
			// A CRC-intact record that does not decode as an event goes
			// through the same quarantine budget as a malformed wire line:
			// replay admits exactly what ingestion would have.
			Quarantine: func(derr error) error {
				d.walQuarantined++
				return d.ing.Report().Skip(robust.Budget{MaxErrors: o.maxErr}, fmt.Errorf("wal replay: %w", derr))
			},
			Logf: o.logf,
			Wrap: o.walWrap,
		})
		if err != nil {
			return err
		}
		cfg.Log = d.walLog
	}
	d.ing = stream.New(cfg)

	// Rebuild the window in the order it was built: the -in base trace
	// first, then the WAL on top of it — the same order as the first boot,
	// so the head-only age eviction expires the same seed events it had
	// expired in the running window. Seeds bypass the wire pipeline and the
	// WAL: the log holds live-accepted events only, so replay never doubles
	// a seed.
	d.ing.Window().AddBatch(seed.Events)

	// The WAL holds everything accepted up to the stop (per fsync policy).
	// Replayed events are accounted as parsed records so /v1/ingest shows
	// parsed = replayed + quarantined exactly after a recovery boot.
	if d.walLog != nil {
		win, rep := d.ing.Window(), d.ing.Report()
		if err := d.walLog.Replay(func(e trace.Event) error {
			rep.Record()
			win.Add(e)
			d.walReplayed++
			return nil
		}); err != nil {
			d.closeIngest()
			return fmt.Errorf("wal replay: %w", err)
		}
		if d.walReplayed > 0 || d.walQuarantined > 0 {
			o.logf("wal: rebuilt window from %s: %d events replayed, %d quarantined", o.wal, d.walReplayed, d.walQuarantined)
		}
	}

	if o.ingest != "" {
		// "unix:/path/to.sock" is a unix socket (a stale socket file from a
		// crashed run is removed first), anything else a TCP host:port.
		network, addr := "tcp", o.ingest
		if path, ok := strings.CutPrefix(addr, "unix:"); ok {
			network, addr = "unix", path
			_ = os.Remove(path)
		}
		ln, err := net.Listen(network, addr)
		if err != nil {
			d.closeIngest()
			return err
		}
		go func() {
			if err := d.ing.Serve(ln); err != nil {
				o.logf("ingest: %v", err)
			}
		}()
		o.logf("ingesting live feed on %s", ln.Addr())
		if o.onIngestListen != nil {
			o.onIngestListen(ln.Addr().String())
		}
	}
	if o.follow != "" {
		go func() {
			if err := d.ing.Follow(o.follow, 0); err != nil {
				o.logf("ingest follow %s: %v", o.follow, err)
			}
		}()
		o.logf("following %s", o.follow)
	}
	return nil
}

// handleIngest serves /v1/ingest: the pipeline's counters (stream.Stats, at
// the top level) and, when WAL-backed, the log's, boot replay included.
// Ungated: it must answer while the first model is still training.
func (d *daemon) handleIngest(w http.ResponseWriter, _ *http.Request) {
	type walStatus struct {
		wal.Stats
		Replayed          int64 `json:"replayed"`
		ReplayQuarantined int64 `json:"replay_quarantined"`
	}
	resp := struct {
		stream.Stats
		WAL *walStatus `json:"wal,omitempty"`
	}{Stats: d.ing.Stats()}
	if d.walLog != nil {
		resp.WAL = &walStatus{
			Stats:             d.walLog.Stats(),
			Replayed:          d.walReplayed,
			ReplayQuarantined: d.walQuarantined,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// closeIngest stops the ingestor, draining its queue through the WAL, then
// flushes and closes the log; the segments stay on disk for the next boot's
// replay.
func (d *daemon) closeIngest() {
	d.ing.Close()
	if d.walLog == nil {
		return
	}
	if err := d.walLog.Close(); err != nil {
		d.o.logf("wal: close: %v", err)
	}
}
