package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// captureStdout runs f with os.Stdout redirected to a file and returns what
// it printed, whether or not f succeeded.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	orig := os.Stdout
	os.Stdout = out
	func() {
		defer func() { os.Stdout = orig }()
		f()
	}()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestRunReportPinned holds a batch run to the bytes it produced at commit
// 1cc2230, when darkvec still took -mode (these are -mode both, identical
// over 12 runs and at GOMAXPROCS 1, 2 and 4): the saved model and the
// printed report. The `trained:` line carries wall time and is dropped; the
// model path is the test's temporary directory and is replaced. Modularity
// is printed to three places, above the last bits that vary with Louvain's
// map order. The constants are amd64's, like the trainer pins.
func TestRunReportPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("model bytes were recorded on amd64")
	}
	const (
		wantModel  = "9843e2be0b68adf58ad5bf3d22112ef0ac2b999dd7a2a2afb668053b69677884"
		wantReport = "186c06959607a9af76d0a4835a1165de51c5711d37fdba1ce1666561a43ab8e5"
	)
	tracePath, feedsDir := writeDataset(t)
	modelPath := filepath.Join(t.TempDir(), "model.bin")
	o := baseOpts(tracePath, feedsDir)
	o.modelOut = modelPath
	printed := captureStdout(t, func() {
		if err := run(context.Background(), o); err != nil {
			t.Error(err)
		}
	})
	var report strings.Builder
	for _, line := range strings.SplitAfter(printed, "\n") {
		if !strings.HasPrefix(line, "trained:") {
			report.WriteString(strings.ReplaceAll(line, modelPath, "model.bin"))
		}
	}
	model, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, got, want string }{
		{"model", sha(model), wantModel},
		{"report", sha([]byte(report.String())), wantReport},
	} {
		if c.got != c.want {
			t.Errorf("%s sha256 = %s, want %s\n%s", c.name, c.got, c.want, report.String())
		}
	}
}
