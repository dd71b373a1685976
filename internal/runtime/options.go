package runtime

import (
	stdrt "runtime"

	"streamshare/internal/exec"
)

// Options tunes the runtime's data path. The zero value means "default
// everything", which is what DefaultOptions spells out. The options change
// scheduling and message granularity only: results, traffic and work are
// identical for every setting (the tests hold each to the simulator).
type Options struct {
	// BatchSize is the maximum number of items carried by one mailbox
	// message. Sources and taps accumulate items up to this count before
	// sending; 1 restores item-at-a-time messaging. Values below 1 mean the
	// default.
	BatchSize int

	// Workers is the number of goroutines draining each peer's inbox.
	// Lanes (streams) are the unit of parallelism, so extra workers beyond
	// the peer's lane count stay idle. 1 restores fully serial peers.
	// Values below 1 mean the default.
	Workers int

	// Session, when set, turns on reliable delivery: every consumed
	// stream flows through a sequenced, acked, credit-windowed channel
	// whose replay buffer doubles as the recovery journal, and the
	// session queues the faults the run was given. The session
	// outlives the (single-use) runtime, carrying journals, ack cursors and
	// a run's operator state to recovery. Nil (the default) keeps the
	// unsequenced data path bit-for-bit unchanged.
	Session *Session

	// Cluster, when set, distributes the run across OS processes: network
	// peers assigned to other cluster nodes receive their batches as
	// frames over the cluster's transport links instead of the local
	// mailbox, and channel acks return as frames. Every participating
	// process must build the same engine (plans are deterministic in the
	// scenario) and use the same peer assignment. Nil (the default) runs
	// everything in this process.
	Cluster *Cluster
}

// DefaultOptions is the tuned data path: batched transfers and a worker
// pool per peer.
func DefaultOptions() Options {
	return Options{
		BatchSize: exec.BatchSize,
		Workers:   min(stdrt.GOMAXPROCS(0), 4),
	}
}

// normalized fills unset fields with their defaults.
func (o Options) normalized() Options {
	d := DefaultOptions()
	if o.BatchSize < 1 {
		o.BatchSize = d.BatchSize
	}
	if o.Workers < 1 {
		o.Workers = d.Workers
	}
	return o
}
