package server

import (
	"fmt"
	"time"

	"streamshare/internal/adapt"
	"streamshare/internal/core"
	"streamshare/internal/durable"
)

// WithDurable attaches a write-ahead catalog journal rooted at dir: every
// control-plane mutation this node applies, its own clients' or mirrored to
// it, is journaled after it applies as the op's catalog record (every
// core.CatalogOp kind), and a server restarted over the same directory
// replays the journal against its freshly built topology to recover the
// exact pre-crash catalog — same subscription ids, same plans, same deployed
// streams (planning is deterministic; replay verifies the re-assigned ids
// against the journal and refuses to start on divergence). The journal holds
// exactly the records the node applied, so it resumes at its position.
//
// The journal is an append-only op history, never compacted: installed
// plans depend on the full mutation order (a shared stream can outlive the
// subscription that created it), so a condensed journal would replay to a
// different catalog. Control-plane ops are rare enough that this never
// matters in practice.
//
// Call before WithCluster and before Serve — replay must not race client
// sessions or mirrored mutations. The WAL uses the engine's metrics
// registry; sync selects the fsync policy (durable.SyncAlways survives
// power loss, durable.SyncInterval batches fsyncs every interval).
func (s *Server) WithDurable(dir string, sync durable.Sync, interval time.Duration) (*Server, error) {
	wal, recs, err := durable.Open(durable.Options{
		Dir: dir, Sync: sync, SyncInterval: interval,
		Metrics: s.eng.Obs().Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("server: catalog journal: %w", err)
	}
	for i := 0; err == nil && i < len(recs); i++ {
		var op core.CatalogOp
		if op, err = core.ParseCatalogRecord(recs[i].Kind, recs[i].Data); err == nil {
			_, err = s.apply(op)
		}
	}
	if err != nil {
		wal.Close() //nolint:errcheck // replay error wins
		return nil, fmt.Errorf("server: catalog recovery at record %d: %w", s.logLen+1, err)
	}
	s.catWAL = wal
	return s, nil
}

// replayAdapt is Engine.Apply's callback for adaptation schedules: parse and
// apply through the adaptation manager. Repair and migration decisions
// are deterministic over the replayed engine state, so the surviving
// subscription set matches the one the op's origin computed.
func (s *Server) replayAdapt(op core.CatalogOp) error {
	events, err := adapt.ParseSchedule(op.Detail)
	if err != nil {
		return err
	}
	_, err = s.adm.ApplyAll(events)
	return err
}
