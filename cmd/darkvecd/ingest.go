package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"

	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/stream"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/wal"
)

// live reports whether the daemon has a live source that keeps its window
// rolling after -in seeded it.
func (o *options) live() bool { return o.ingest != "" || o.follow != "" }

// parsePolicy maps the -ingestpolicy flag to a stream.DropPolicy.
func parsePolicy(s string) (stream.DropPolicy, error) {
	switch s {
	case "", "shed-newest":
		return stream.ShedNewest, nil
	case "drop-oldest":
		return stream.DropOldest, nil
	}
	return 0, fmt.Errorf("invalid -ingestpolicy %q: want shed-newest or drop-oldest", s)
}

// listenIngest binds the live-feed listener: "unix:/path/to.sock" for a
// unix socket (a stale socket file from a crashed run is removed first),
// anything else as a TCP host:port.
func listenIngest(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		if _, err := os.Stat(path); err == nil {
			_ = os.Remove(path)
		}
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

// startIngest builds the ingestor every daemon trains on, rebuilds its
// window (-in seed, then WAL replay), and starts the configured live
// sources. The ingestor is live immediately; events buffer in the window
// until a cycle cuts them.
func (d *daemon) startIngest() error {
	o := d.o
	seed, err := d.seedWindow()
	if err != nil {
		return err
	}
	policy, err := parsePolicy(o.ingestPolicy)
	if err != nil {
		return err
	}
	vantage, err := trace.InternVantage(o.vantage)
	if err != nil {
		return fmt.Errorf("invalid -vantage: %w", err)
	}
	cfg := stream.Config{
		QueueSize: o.ingestQueue,
		Policy:    policy,
		Vantage:   vantage,
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
		// sized to the seed, no age eviction, no feed to fall silent, and no
		// event floor under the first cycle.
		cfg.Window = stream.WindowConfig{MaxEvents: len(seed), MaxAge: -1}
		cfg.StallAfter = -1
		d.o.ingestMin = 0
	}
	if o.wal != "" {
		fsync := o.walFsync
		if fsync == "" {
			fsync = "always" // options built in code default like the CLI
		}
		pol, err := wal.ParseSyncPolicy(fsync)
		if err != nil {
			return err
		}
		d.walLog, err = wal.Open(o.wal, wal.Options{
			SegmentBytes: o.walSeg,
			Policy:       pol,
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
	d.ing.Window().AddBatch(seed)

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
			d.ing.Close()
			d.closeWAL()
			return fmt.Errorf("wal replay: %w", err)
		}
		if d.walReplayed > 0 || d.walQuarantined > 0 {
			o.logf("wal: rebuilt window from %s: %d events replayed, %d quarantined", o.wal, d.walReplayed, d.walQuarantined)
		}
	}

	if o.ingest != "" {
		ln, err := listenIngest(o.ingest)
		if err != nil {
			d.ing.Close()
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

// seedWindow reads the -in base trace (none without -in), the one read of
// it a daemon makes, and logs how much of the -maxerr budget it consumed.
// The file's events live only until startIngest copies them into the ring:
// that is the one copy the daemon keeps, so by the first cycle the file
// trace is garbage, not a second window.
func (d *daemon) seedWindow() ([]trace.Event, error) {
	if d.o.in == "" {
		return nil, nil
	}
	tr, rep, err := trace.ReadFile(d.o.in, d.o.maxErr)
	if err != nil {
		return nil, fmt.Errorf("seed from -in: %w", err)
	}
	d.o.logf("seeded window with %d events from %s (%s)", tr.Len(), d.o.in, rep)
	return tr.Events, nil
}

// handleIngest serves /v1/ingest: the pipeline's full counter set —
// accept/drop/quarantine accounting, window bounds, stall state, and (when
// WAL-backed) the durability log's counters including boot replay. The
// stream.Stats fields stay at the top level, so consumers predating the
// WAL decode unchanged. Ungated: it must answer while the first model is
// still training.
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

// closeWAL flushes and closes the durability log; the segments stay on
// disk for the next boot's replay. Safe on a nil log and idempotent.
func (d *daemon) closeWAL() {
	if d.walLog == nil {
		return
	}
	if err := d.walLog.Close(); err != nil {
		d.o.logf("wal: close: %v", err)
	}
}

// stale is the serving-path degradation predicate: a failed cycle (an
// older generation, or a first one that could not be published, kept on
// the air; a drift rejection is called out specifically) or a stalled live
// feed (a model aging against
// a silent darknet) mark every response. Overlapping causes are joined
// with "; " in cause-name order — the same ordering /healthz/ready's
// degraded_reasons uses — so the header is deterministic and scriptable.
func (d *daemon) stale() (bool, string) {
	type cause struct{ name, detail string }
	var causes []cause
	if d.status.stale.Load() {
		if d.status.driftReject.Load() {
			causes = append(causes, cause{"drift_rejected", "drift gate rejected retrain (serving previous generation)"})
		} else {
			causes = append(causes, cause{"stale_model", "retrain failed (serving the last good model)"})
		}
	}
	if d.ing.Stalled() {
		causes = append(causes, cause{"ingest_stalled", fmt.Sprintf("live feed silent for %s", d.ing.Silence().Round(1e9))})
	}
	if d.walLog != nil {
		if n := d.ing.Stats().LogFailed; n > 0 {
			causes = append(causes, cause{"wal_degraded", fmt.Sprintf("%d events in the window lack durability (WAL append/fsync failed)", n)})
		}
	}
	if len(causes) == 0 {
		return false, ""
	}
	sort.Slice(causes, func(i, j int) bool { return causes[i].name < causes[j].name })
	details := make([]string, len(causes))
	for i, c := range causes {
		details[i] = c.detail
	}
	return true, strings.Join(details, "; ")
}
