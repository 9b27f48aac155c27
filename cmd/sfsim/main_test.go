package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for sfsim: re-executed with
// SFSIM_TEST_MAIN=1 it runs main() on its arguments, exit status included.
func TestMain(m *testing.M) {
	if os.Getenv("SFSIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func sfsim(t *testing.T, args ...string) (output string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SFSIM_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestNaNLoadRejected: -load NaN used to pass the range check (NaN compares
// false against both bounds) and print a table for a simulation that
// injected nothing.
func TestNaNLoadRejected(t *testing.T) {
	out, exit := sfsim(t, "-q", "5", "-load", "NaN", "-warmup", "10", "-measure", "10")
	if exit == 0 || !strings.Contains(out, "load NaN out of [0,1]") || strings.Contains(out, "avg_latency") {
		t.Errorf("sfsim -load NaN: exit %d, output:\n%s", exit, out)
	}
}

// TestRoutingLineEnginePorts: the routing line says which lookup path the
// engine takes -- its own byte table over a flat-table backend, the backend
// itself when that is computed.
func TestRoutingLineEnginePorts(t *testing.T) {
	for backend, want := range map[string]string{"tables": "engine_ports=table", "computed": "engine_ports=backend"} {
		out, exit := sfsim(t, "-q", "5", "-load", "0.1", "-warmup", "10", "-measure", "10", "-route-backend", backend)
		if exit != 0 || !strings.Contains(out, "backend="+backend) || !strings.Contains(out, want) {
			t.Errorf("sfsim -route-backend %s: exit %d, want %q on the routing line:\n%s", backend, exit, want, out)
		}
	}
}

// TestCPUProfile: -cpuprofile writes a non-empty profile next to the normal
// table, and refuses a load sweep.
func TestCPUProfile(t *testing.T) {
	prof := t.TempDir() + "/cpu.prof"
	out, exit := sfsim(t, "-q", "5", "-load", "0.3", "-warmup", "50", "-measure", "100", "-cpuprofile", prof)
	if exit != 0 || !strings.Contains(out, "avg_latency") {
		t.Fatalf("sfsim -cpuprofile: exit %d, output:\n%s", exit, out)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("profile not written: %v", err)
	}
	if out, exit := sfsim(t, "-q", "5", "-sweep", "-cpuprofile", prof); exit != 2 || !strings.Contains(out, "-sweep") {
		t.Errorf("sfsim -sweep -cpuprofile: exit %d, output:\n%s", exit, out)
	}
}
