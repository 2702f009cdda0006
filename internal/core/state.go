package core

import "fmt"

// RestoreStats loads checkpointed stream statistics into a freshly
// constructed core. They are the only state the core itself holds across
// a checkpoint: the tracker, the window and the vertex space restore
// through their own state hooks, and everything else is per-call scratch
// whose zero value is equivalent after restore (the epoch-stamped
// eviction buffers start at epoch 0 exactly as a fresh core does).
func (l *Loom) RestoreStats(s Stats) error {
	if l.stats != (Stats{}) {
		return fmt.Errorf("core: RestoreStats on a non-fresh Loom (%d edges processed)", l.stats.EdgesProcessed)
	}
	l.stats = s
	return nil
}
