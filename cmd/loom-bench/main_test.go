package main

import (
	"os"
	"testing"

	"loom/internal/bench"
)

func tinyCfg() bench.Config {
	return bench.Config{Scale: 900, Seed: 3, K: 2, WindowSize: 64, Datasets: []string{"provgen"}}
}

func TestRunEachExperiment(t *testing.T) {
	for _, exp := range experiments {
		if exp == "fig7" || exp == "fig8" {
			continue // TestRunFig7AndFig8 runs them, outside -short
		}
		if err := run(exp, tinyCfg(), true); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestWithProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	ran := false
	if err := withProfiles(cpu, mem, func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("fn not run")
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	// Errors from fn must propagate (and still stop the CPU profile).
	wantErr := withProfiles(dir+"/cpu2.pprof", "", func() error { return os.ErrInvalid })
	if wantErr != os.ErrInvalid {
		t.Errorf("fn error not propagated: %v", wantErr)
	}
}

func TestRunFig7AndFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, exp := range []string{"fig7", "fig8"} {
		if err := run(exp, tinyCfg(), false); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	for _, name := range []string{"fig99", "perf"} {
		if err := run(name, tinyCfg(), false); err == nil {
			t.Errorf("-exp %s: want unknown-experiment error", name)
		}
	}
}
