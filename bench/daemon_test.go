package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// The test binary doubles as the stub process: started with BENCH_STUB_ADDR
// set it serves /healthz/ready — 503 for the first 50 ms, then 200 — until
// it is signalled.
func TestMain(m *testing.M) {
	if addr := os.Getenv("BENCH_STUB_ADDR"); addr != "" {
		ready := time.Now().Add(50 * time.Millisecond)
		http.HandleFunc("/healthz/ready", func(w http.ResponseWriter, _ *http.Request) {
			if time.Now().Before(ready) {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
		})
		_ = http.ListenAndServe(addr, nil)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestFreeAddrIsBindable(t *testing.T) {
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("%s not bindable: %v", addr, err)
	}
	ln.Close()
}

func TestProcLifecycle(t *testing.T) {
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("BENCH_STUB_ADDR", addr)
	p, err := startProc(os.Args[0], filepath.Join(t.TempDir(), "stub.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer killAll()
	took, err := p.waitHTTP(context.Background(), "http://"+addr+"/healthz/ready", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if took < 50*time.Millisecond {
		t.Errorf("ready after %v, before the stub turned ready", took)
	}
	if mb, err := p.peakRSSMB(); err != nil || mb <= 0 {
		t.Errorf("peak RSS %v MB, err %v", mb, err)
	}
	if err := p.stop(syscall.SIGTERM, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.exited:
	default:
		t.Error("stop returned before the process ended")
	}
	if _, err := p.waitHTTP(context.Background(), "http://"+addr+"/healthz/ready", time.Second); err == nil {
		t.Error("waitHTTP on an exited process must fail fast")
	}
}

func TestKillAllEndsStragglers(t *testing.T) {
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("BENCH_STUB_ADDR", addr)
	p, err := startProc(os.Args[0], filepath.Join(t.TempDir(), "stub.log"))
	if err != nil {
		t.Fatal(err)
	}
	killAll()
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		t.Fatal("killAll left the process running")
	}
}

func TestReadVmHWM(t *testing.T) {
	path := filepath.Join(t.TempDir(), "status")
	if err := os.WriteFile(path, []byte("Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if mb, err := readVmHWM(path); err != nil || mb != 20 {
		t.Errorf("VmHWM = %v MB, err %v; want 20", mb, err)
	}
	if _, err := readVmHWM(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("a missing status file must be an error")
	}
}
