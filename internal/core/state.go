package core

import (
	"fmt"

	"loom/internal/wal"
)

// counters lists the stream statistics in checkpoint order.
func (s *Stats) counters() [11]*int {
	return [...]*int{
		&s.EdgesProcessed, &s.SelfLoops, &s.DuplicateEdges, &s.ImmediateEdges,
		&s.WindowedEdges, &s.Evictions, &s.MatchesAssigned, &s.ZeroBidRounds,
		&s.LoneEdgeRounds, &s.DeferredEndpoints, &s.PriorPlacements,
	}
}

// AppendState writes the core's checkpoint section: the vertex space, the
// tracker, the stream statistics and the window, in that order. Everything
// else the core holds is per-call scratch whose zero value is equivalent
// after restore (the epoch-stamped eviction buffers start at epoch 0
// exactly as a fresh core does).
func (l *Loom) AppendState(e *wal.Enc) {
	l.sp.AppendState(e)
	l.tr.AppendState(e)
	for _, c := range l.stats.counters() {
		e.I64(int64(*c))
	}
	l.win.AppendState(e)
}

// RestoreState reads an AppendState section into a freshly constructed
// core; each layer validates its own part, and its error names it.
func (l *Loom) RestoreState(d *wal.Dec) error {
	if l.stats != (Stats{}) {
		return fmt.Errorf("core: RestoreState on a non-fresh Loom (%d edges processed)", l.stats.EdgesProcessed)
	}
	if err := l.sp.RestoreState(d); err != nil {
		return err
	}
	if err := l.tr.RestoreState(d); err != nil {
		return err
	}
	for _, c := range l.stats.counters() {
		*c = int(d.I64())
	}
	return l.win.RestoreState(d)
}
