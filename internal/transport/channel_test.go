package transport

import (
	"fmt"
	"testing"

	"streamshare/internal/xmlstream"
)

func TestChannelSeqAckTrim(t *testing.T) {
	c := NewChannel(1, 0)
	c.AddConsumer("r1")
	c.AddConsumer("r2")
	for i := 0; i < 5; i++ {
		seq := c.Emit(xmlstream.T("it", fmt.Sprint(i)), false)
		if seq != uint64(i+1) {
			t.Fatalf("emit %d: seq %d", i, seq)
		}
	}
	if c.Depth() != 5 {
		t.Fatalf("depth %d", c.Depth())
	}
	// One consumer acking does not trim: the other pins the buffer.
	if freed := c.Ack("r1", 3); freed != 0 {
		t.Fatalf("freed %d with a lagging consumer", freed)
	}
	if c.Depth() != 5 {
		t.Fatalf("trimmed past the slow consumer: depth %d", c.Depth())
	}
	if freed := c.Ack("r2", 2); freed != 2 {
		t.Fatalf("freed %d, want 2", freed)
	}
	if c.Depth() != 3 || c.CumAck() != 2 {
		t.Fatalf("depth %d cumAck %d", c.Depth(), c.CumAck())
	}
	// Stale and duplicate acks are no-ops.
	if freed := c.Ack("r2", 2); freed != 0 {
		t.Fatalf("duplicate ack freed %d", freed)
	}
	if freed := c.Ack("r2", 1); freed != 0 {
		t.Fatalf("stale ack freed %d", freed)
	}
	// Remaining unacked entries for each consumer.
	if got := len(c.UnackedAfter(c.Cursor("r1"))); got != 2 {
		t.Fatalf("r1 pending %d, want 2", got)
	}
	if got := len(c.UnackedAfter(c.Cursor("r2"))); got != 3 {
		t.Fatalf("r2 pending %d, want 3", got)
	}
}

func TestChannelCredits(t *testing.T) {
	c := NewChannel(1, 4)
	c.AddConsumer("r")
	for i := 0; i < 4; i++ {
		if !c.Admit(1) {
			t.Fatalf("emit %d: admission refused under window", i)
		}
		c.Emit(nil, false)
	}
	if c.Admit(1) {
		t.Fatal("admitted past the window")
	}
	if freed := c.Ack("r", 2); freed != 2 {
		t.Fatalf("freed %d", freed)
	}
	if !c.Admit(2) {
		t.Fatal("credits not granted back after ack")
	}
	if c.Admit(3) {
		t.Fatal("over-granted credits")
	}
	// Breaking the channel bypasses admission: producers must never block
	// on a dead route. Emissions are still recorded in the replay buffer.
	c.Break()
	if !c.Admit(100) {
		t.Fatal("broken channel refused admission")
	}
	depth := c.Depth()
	c.Emit(nil, true)
	if c.Depth() != depth+1 {
		t.Fatalf("depth %d after a broken emit, want %d", c.Depth(), depth+1)
	}
}

func TestChannelZeroConsumersAdmitsAll(t *testing.T) {
	c := NewChannel(1, 2)
	for i := 0; i < 10; i++ {
		if !c.Admit(1) {
			t.Fatal("a stream nobody consumes must not block its producer")
		}
		c.Emit(nil, false)
	}
}

func TestRecvStateDedup(t *testing.T) {
	var r RecvCursor
	if skip, ok := r.Accept(1, 1, 4); skip != 0 || !ok {
		t.Fatalf("first delivery: skip %d ok %v", skip, ok)
	}
	// Full duplicate.
	if _, ok := r.Accept(1, 3, 4); ok {
		t.Fatal("duplicate batch accepted")
	}
	// Overlap: items 4..6 where 4 was delivered.
	if skip, ok := r.Accept(1, 4, 6); skip != 1 || !ok {
		t.Fatalf("overlap: skip %d ok %v", skip, ok)
	}
	// Stale epoch dropped wholesale, state unchanged.
	if _, ok := r.Accept(0, 7, 9); ok {
		t.Fatal("stale epoch accepted")
	}
	// New epoch resets the sequence space.
	if skip, ok := r.Accept(2, 1, 2); skip != 0 || !ok {
		t.Fatalf("new epoch: skip %d ok %v", skip, ok)
	}
	if skip, ok := r.Accept(2, 3, 3); skip != 0 || !ok {
		t.Fatalf("epoch continuation: skip %d ok %v", skip, ok)
	}
}

func TestChannelAccessors(t *testing.T) {
	c := NewChannel(7, 8)
	c.AddConsumer("r")
	c.Emit(xmlstream.E("x"), false)
	c.Emit(xmlstream.E("y"), false)
	if c.Epoch() != 7 || c.NextSeq() != 3 || c.CumAck() != 0 || c.Depth() != 2 || c.Window() != 8 {
		t.Fatalf("accessors: epoch=%d next=%d cumack=%d depth=%d window=%d",
			c.Epoch(), c.NextSeq(), c.CumAck(), c.Depth(), c.Window())
	}
	if cur := c.Cursors(); len(cur) != 1 || cur["r"] != 0 {
		t.Fatalf("cursors %v", cur)
	}
	if c.MaxDepth() != 2 {
		t.Fatalf("max depth %d", c.MaxDepth())
	}
}
