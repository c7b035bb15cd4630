package malt_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets runs `go vet ./...` inside benchmark/, the nested
// maltperf module that `go build ./...` and `go test ./...` here never see.
// maltperf compiles against compress, core, vol, dstorm and fabric/stream,
// so a signature change in any of them fails this test instead of a later
// benchmark run. benchmark/go.mod requires only this module (through a
// replace directive), so nothing is downloaded.
func TestBenchmarkModuleVets(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	cmd := exec.Command(gobin, "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in benchmark/: %v\n%s", err, out)
	}
}
