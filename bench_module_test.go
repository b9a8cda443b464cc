package darkvec_test

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks the benchmark harness against this tree.
// bench/ is a module of its own that links this one through a replace
// directive, so `go test ./...` here never compiles it: without this, an
// export the harness uses can change signature and nothing fails until the
// benchmark is next run.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
