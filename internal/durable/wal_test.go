package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"streamshare/internal/obs"
)

func openT(t *testing.T, dir string, sync Sync) (*WAL, []Record) {
	t.Helper()
	w, recs, err := Open(Options{Dir: dir, Sync: sync})
	if err != nil {
		t.Fatal(err)
	}
	return w, recs
}

func appendN(t *testing.T, w *WAL, n int, kind uint8) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := w.Append(kind, []byte(fmt.Sprintf("rec-%d-%d", kind, i))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs := openT(t, dir, SyncAlways)
	if len(recs) != 0 {
		t.Fatalf("fresh WAL recovered %d records", len(recs))
	}
	appendN(t, w, 10, 1)
	appendN(t, w, 5, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, recs = openT(t, dir, SyncAlways)
	defer w.Close()
	if len(recs) != 15 {
		t.Fatalf("recovered %d records, want 15", len(recs))
	}
	for i, r := range recs {
		wantKind, wantIdx := uint8(1), i
		if i >= 10 {
			wantKind, wantIdx = 2, i-10
		}
		want := fmt.Sprintf("rec-%d-%d", wantKind, wantIdx)
		if r.Kind != wantKind || string(r.Data) != want {
			t.Fatalf("record %d = kind %d %q, want kind %d %q", i, r.Kind, r.Data, wantKind, want)
		}
	}
}

// TestWALAppendPair pins that a two-part append recovers as the
// concatenated payload, across every head/tail emptiness combination.
func TestWALAppendPair(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, SyncAlways)
	pairs := [][2][]byte{
		{[]byte("head-"), []byte("tail")},
		{nil, []byte("tail-only")},
		{[]byte("head-only"), nil},
		{nil, nil},
	}
	for _, p := range pairs {
		if err := w.AppendPair(3, p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, recs := openT(t, dir, SyncAlways)
	defer w.Close()
	if len(recs) != len(pairs) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(pairs))
	}
	for i, r := range recs {
		want := string(pairs[i][0]) + string(pairs[i][1])
		if r.Kind != 3 || string(r.Data) != want {
			t.Fatalf("record %d = kind %d %q, want kind 3 %q", i, r.Kind, r.Data, want)
		}
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 64, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 40, 7)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 3 {
		t.Fatalf("expected multiple segments, got %d files", len(ents))
	}
	w, recs := openT(t, dir, SyncNone)
	defer w.Close()
	if len(recs) != 40 {
		t.Fatalf("recovered %d records across segments, want 40", len(recs))
	}
}

// TestWALTornTail crashes mid-append: the torn frame is truncated on open
// and every whole record before it survives.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, SyncAlways)
	appendN(t, w, 8, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// A torn write: half of a ninth record's frame.
	torn := make([]byte, frameHeader+20)
	binary.BigEndian.PutUint32(torn, 21)
	if err := os.WriteFile(seg, append(data, torn[:13]...), 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs := openT(t, dir, SyncAlways)
	if len(recs) != 8 {
		t.Fatalf("recovered %d records after torn tail, want 8", len(recs))
	}
	// The tail was physically truncated: appending now must yield a clean
	// record stream on the next open.
	if err := w.Append(9, []byte("after-tear")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, recs = openT(t, dir, SyncAlways)
	defer w.Close()
	if len(recs) != 9 || recs[8].Kind != 9 || string(recs[8].Data) != "after-tear" {
		t.Fatalf("post-tear append not recovered: %d records", len(recs))
	}
}

// TestWALCorruptTail flips a bit inside the last record: the checksum
// rejects it and recovery keeps the prefix.
func TestWALCorruptTail(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, SyncAlways)
	appendN(t, w, 4, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs := openT(t, dir, SyncAlways)
	defer w.Close()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records after corrupt tail, want 3", len(recs))
	}
}

// TestWALTornMiddleDropsLaterSegments verifies the append-order contract:
// a tear in an earlier segment makes every later segment unreachable.
func TestWALTornMiddleDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 32, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 12, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Skipf("need >=3 segments, got %d", len(segs))
	}
	second := filepath.Join(dir, segs[1].Name())
	data, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	data[6] ^= 0xff // corrupt the first frame's checksum
	if err := os.WriteFile(second, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs := openT(t, dir, SyncAlways)
	defer w.Close()
	// Only the first segment's records survive.
	if len(recs) == 0 || len(recs) >= 12 {
		t.Fatalf("recovered %d records, want a strict prefix", len(recs))
	}
	// The clean first segment plus the truncated one (now the live tail)
	// may remain; everything after the tear is gone.
	if left, err := w.segments(); err != nil || len(left) > 2 {
		t.Fatalf("later segments not dropped: %v %v", left, err)
	}
}

func TestWALCompact(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 64, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 30, 1)
	snap := []Record{{Kind: 10, Data: []byte("snap-a")}, {Kind: 11, Data: []byte("snap-b")}}
	if err := w.Compact(snap); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(12, []byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, recs := openT(t, dir, SyncAlways)
	defer w.Close()
	want := append(snap, Record{Kind: 12, Data: []byte("post-compact")})
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records after compact, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Kind != want[i].Kind || !bytes.Equal(r.Data, want[i].Data) {
			t.Fatalf("record %d = kind %d %q", i, r.Kind, r.Data)
		}
	}
}

func TestWALSyncPolicies(t *testing.T) {
	for _, name := range []string{"always", "interval", "none"} {
		t.Run(name, func(t *testing.T) {
			sync, err := ParseSync(name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			w, _, err := Open(Options{Dir: dir, Sync: sync, SyncInterval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, w, 20, 1)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			_, recs := openT(t, dir, sync)
			if len(recs) != 20 {
				t.Fatalf("policy %s recovered %d records, want 20", name, len(recs))
			}
		})
	}
	if _, err := ParseSync("bogus"); err == nil {
		t.Fatal("ParseSync accepted bogus policy")
	}
}

func TestWALConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 256, Sync: SyncInterval, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := w.Append(uint8(g+1), []byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openT(t, dir, SyncAlways)
	if len(recs) != 200 {
		t.Fatalf("recovered %d records, want 200", len(recs))
	}
}

func TestWALMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, Sync: SyncAlways, Metrics: reg, Flight: obs.NewFlightRecorder(16)})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 3, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir, Sync: SyncAlways, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["durable.appends"] != 3 {
		t.Fatalf("durable.appends = %v", snap.Counters["durable.appends"])
	}
	if snap.Counters["durable.recover.records"] != 3 {
		t.Fatalf("durable.recover.records = %v", snap.Counters["durable.recover.records"])
	}
	if h := snap.Histograms["durable.fsync.seconds"]; h.Count == 0 {
		t.Fatal("durable.fsync.seconds never observed")
	}
}
