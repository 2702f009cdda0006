package bench

import "testing"

// TestRunChaos runs every fault scenario at the trimmed scale and checks
// each converged with every answered route equal to the reference run.
func TestRunChaos(t *testing.T) {
	rep, err := RunChaos(Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 4 {
		t.Fatalf("got %d scenarios, want 4", len(rep.Scenarios))
	}
	for _, r := range rep.Scenarios {
		if !r.Converged || r.WrongRoutes != 0 || r.RoutesChecked == 0 {
			t.Errorf("%s: converged %v, %d wrong of %d routes checked",
				r.Scenario, r.Converged, r.WrongRoutes, r.RoutesChecked)
		}
	}
	if len(rep.Durability) != 1 {
		t.Fatalf("got %d durability rows, want 1", len(rep.Durability))
	}
	d := rep.Durability[0]
	if !d.IngestLive || !d.ReArmed || !d.RecoveredOK || d.WatermarkLSN != d.ExpectedLSN {
		t.Errorf("durability breaker: %+v", d)
	}
}
