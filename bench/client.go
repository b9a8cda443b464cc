package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// httpConn is one load connection: a client whose transport keeps exactly
// one persistent connection, so "two clients" means two sockets.
type httpConn struct {
	c    *http.Client
	base string
}

func newHTTPConn(addr string) *httpConn {
	return &httpConn{
		c: &http.Client{
			Timeout:   15 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		},
		base: "http://" + addr,
	}
}

func (h *httpConn) close() { h.c.CloseIdleConnections() }

// get issues one GET and always drains the body so the connection is
// reused. When out is non-nil a 200 body is decoded into it.
func (h *httpConn) get(path string, out any) (int, error) {
	resp, err := h.c.Get(h.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("GET %s: %w", path, err)
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// The slices of the daemon's JSON the harness reads.

type modelInfo struct {
	Version string `json:"version"`
	Senders int    `json:"senders"`
	KNNMode string `json:"knn_mode"`
	Retrain *struct {
		Mode string `json:"mode"`
	} `json:"retrain"`
}

type ingestInfo struct {
	Accepted      int64 `json:"accepted"`
	DroppedNewest int64 `json:"dropped_newest"`
	DroppedOldest int64 `json:"dropped_oldest"`
	LogFailed     int64 `json:"log_failed"`
	QueueDepth    int   `json:"queue_depth"`
	Parse         struct {
		Read int64 `json:"read"`
	} `json:"parse"`
	WAL *struct {
		Bytes             int64 `json:"bytes"`
		Syncs             int64 `json:"syncs"`
		Replayed          int64 `json:"replayed"`
		ReplayQuarantined int64 `json:"replay_quarantined"`
	} `json:"wal"`
}

// wireRead is how many records arrived over the wire in this process:
// boot replay is accounted as parsed too, so it is taken out.
func (s ingestInfo) wireRead() int64 {
	if s.WAL != nil {
		return s.Parse.Read - s.WAL.Replayed
	}
	return s.Parse.Read
}

// balanced is the ingest accounting identity: every record parsed off the
// wire was either accepted into the window or counted as shed.
func (s ingestInfo) balanced() bool {
	return s.wireRead() == s.Accepted+s.DroppedNewest+s.DroppedOldest
}

type classifyInfo struct {
	Class string `json:"class"`
}

type similarInfo struct {
	Neighbors []struct {
		IP string `json:"ip"`
	} `json:"neighbors"`
}
