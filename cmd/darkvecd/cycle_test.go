package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/robust/faultio"
	"github.com/darkvec/darkvec/internal/trace"
)

// TestBootUntrainableWindowRetries: a window that passes -ingestmin but
// holds no sender the trainer admits (150 events from 150 senders, against
// the 10-packet active filter) is the same fact at boot as in a running
// daemon — a failed cycle the supervisor retries, not an exit. Three
// reboots on the WAL that replays that window must each stay up, not ready,
// with ingest answering; the third then receives the packets that make the
// window trainable and becomes ready without a restart.
func TestBootUntrainableWindowRetries(t *testing.T) {
	const untrainable = "no in-vocabulary tokens"
	o := walOpts(t.TempDir())
	o.ingestMin = 100
	o.retrainSleep = fastSleep
	o.retrainBackoff = robust.Backoff{Base: time.Millisecond, Max: time.Millisecond}

	sender := func(i int) netutil.IPv4 { return netutil.IPv4(0x0b000000 + uint32(i)) }
	event := func(ts int64, src netutil.IPv4) trace.Event {
		return trace.Event{Ts: 1700000000 + ts, Src: src, Dst: netutil.IPv4(0xc0a80001), Port: 23, Proto: packet.IPProtocolTCP}
	}
	thin := make([]trace.Event, 150)
	for i := range thin {
		thin[i] = event(int64(i), sender(i))
	}

	// The window is built live and stopped cleanly; the running daemon
	// already treats it as a retried failure.
	o.retrainFail = 100000
	ctx, cancel := context.WithCancel(context.Background())
	httpAddr, ingestAddr, _, runErr := startLive(t, ctx, o)
	streamTrace(t, ingestAddr, trace.New(thin))
	waitFor(t, "thin window accepted", func() bool {
		return getIngestStats(t, "http://"+httpAddr).Accepted == int64(len(thin))
	})
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("first run: %v", err)
	}

	for boot := 1; boot <= 3; boot++ {
		// The first two reboots let the breaker open, so the supervisor
		// hands the training error to onRetrain; the last keeps retrying
		// so it can recover.
		o.retrainFail = 2
		if boot == 3 {
			o.retrainFail = 100000
		}
		outcomes := make(chan error, 64)
		o.onRetrain = func(err error) {
			select {
			case outcomes <- err:
			default:
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		httpAddr, ingestAddr, readyCh, runErr := startLive(t, ctx, o)
		base := "http://" + httpAddr

		if boot < 3 {
			select {
			case err := <-outcomes:
				if !errors.Is(err, robust.ErrGiveUp) || !strings.Contains(err.Error(), untrainable) {
					t.Fatalf("reboot %d: retrain outcome = %v, want the breaker giving up on %q", boot, err, untrainable)
				}
			case err := <-runErr:
				t.Fatalf("reboot %d: daemon exited on an untrainable window: %v", boot, err)
			case <-time.After(time.Minute):
				t.Fatalf("reboot %d: no retrain outcome", boot)
			}
		}
		for path, want := range map[string]int{
			"/healthz/live":  http.StatusOK,
			"/healthz/ready": http.StatusServiceUnavailable,
			"/v1/ingest":     http.StatusOK,
		} {
			select {
			case err := <-runErr:
				t.Fatalf("reboot %d: daemon exited on an untrainable window: %v", boot, err)
			default:
			}
			if code, _, body := getFull(t, base+path); code != want {
				t.Fatalf("reboot %d: %s = %d, want %d (%s)", boot, path, code, want, body)
			}
		}
		if st := getIngestStats(t, base); st.Window.Events != len(thin) {
			t.Fatalf("reboot %d: window holds %d events, want the %d replayed", boot, st.Window.Events, len(thin))
		}

		if boot == 3 {
			// Ten more packets from each of twelve known senders: those
			// twelve now pass the active filter.
			var more []trace.Event
			for p := 0; p < 10; p++ {
				for i := 0; i < 12; i++ {
					more = append(more, event(int64(200+p*12+i), sender(i)))
				}
			}
			streamTrace(t, ingestAddr, trace.New(more))
			select {
			case <-readyCh:
			case err := <-runErr:
				t.Fatalf("daemon exited instead of recovering: %v", err)
			case <-time.After(2 * time.Minute):
				t.Fatal("daemon never became ready after the window turned trainable")
			}
			if code, _, body := getFull(t, base+"/v1/classify?ip="+sender(0).String()); code != http.StatusOK {
				t.Fatalf("classify after recovery = %d (%s)", code, body)
			}
		}
		cancel()
		if err := <-runErr; err != nil {
			t.Fatalf("reboot %d shutdown: %v", boot, err)
		}
	}
}

// TestFirstPublishFailureServesDegraded: when the first generation trains
// but cannot be persisted, the in-memory model serves unversioned — and the
// daemon says so (degraded, stale_model, last_error, staleness header)
// until a later cycle publishes.
func TestFirstPublishFailureServesDegraded(t *testing.T) {
	dir := t.TempDir()
	tracePath, tr := writeTestTrace(t, dir)
	o := baseOpts(tracePath)
	o.store = filepath.Join(dir, "store")
	o.retrain = 20 * time.Millisecond
	o.retrainFail = 100000
	o.retrainSleep = fastSleep
	o.retrainBackoff = robust.Backoff{Base: time.Millisecond, Max: time.Millisecond}

	// The first publish is corrupted on its way into the store; the second
	// waits until the degraded state has been inspected.
	var publishes atomic.Int64
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	o.trainWrap = func(w io.Writer) io.Writer {
		if publishes.Add(1) == 1 {
			return faultio.CorruptWriter(w, 64, 0x80)
		}
		<-release
		return w
	}
	base, cancel, runErr := startDaemon(t, o)
	defer stopDaemon(t, cancel, runErr)
	defer unblock() // before stopDaemon: a blocked publish would hold the loop

	probe := base + "/v1/classify?ip=" + lastDayTop(tr)[0].String()
	code, hdr, body := getFull(t, probe)
	if code != http.StatusOK {
		t.Fatalf("classify from the in-memory model = %d (%s)", code, body)
	}
	if v := hdr.Get("X-DarkVec-Model-Version"); v != "" {
		t.Errorf("unpublished model served as version %q", v)
	}
	if hdr.Get("X-DarkVec-Model-Stale") != "true" {
		t.Error("unpublished model served without X-DarkVec-Model-Stale: true")
	}
	ready := readyBody(t, base)
	if ready["status"] != "degraded" || !hasReason(ready, "stale_model") {
		t.Errorf("ready after a failed first publish = %v, want degraded with stale_model", ready)
	}
	if e, _ := ready["last_error"].(string); !strings.Contains(e, "failed verification") {
		t.Errorf("last_error = %q, want the publish failure", ready["last_error"])
	}
	if ready["model_version"] != nil {
		t.Errorf("ready reports model_version %v for an unpublished model", ready["model_version"])
	}

	unblock()
	waitFor(t, "a later cycle to publish", func() bool {
		_, hdr, _ := getFull(t, probe)
		return hdr.Get("X-DarkVec-Model-Version") != "" && hdr.Get("X-DarkVec-Model-Stale") == ""
	})
	ready = readyBody(t, base)
	if ready["status"] != "ready" || ready["last_error"] != nil || ready["model_version"] == nil {
		t.Errorf("ready after the publish succeeded = %v", ready)
	}
}
