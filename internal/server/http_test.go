package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"streamshare/internal/core"
	"streamshare/internal/network"
	"streamshare/internal/photons"
	"streamshare/internal/runtime"
	"streamshare/internal/xmlstream"
)

// httpEngine builds a small engine with one subscription and a simulated run
// so the registry, latency series and flight recorder are all populated.
func httpEngine(t *testing.T, reliable bool) *core.Engine {
	t.Helper()
	n := network.New()
	for _, id := range []network.PeerID{"SP0", "SP1", "SP2"} {
		n.AddPeer(network.Peer{ID: id, Super: true, Capacity: 20000, PerfIndex: 1})
	}
	n.Connect("SP0", "SP1", 12_500_000)
	n.Connect("SP1", "SP2", 12_500_000)
	eng := core.NewEngine(n, core.Config{Reliable: reliable})
	eng.Obs().Latency.SetRate(1)
	items, st := photons.Stream("photons", photons.DefaultConfig(), 3, 200)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Subscribe(velaQ, "SP2", core.StreamSharing); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Simulate(map[string][]*xmlstream.Element{"photons": items}, false); err != nil {
		t.Fatal(err)
	}
	return eng
}

func get(t *testing.T, h http.HandlerFunc, url string) (string, http.Header) {
	t.Helper()
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", url, nil))
	res := rec.Result()
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, res.StatusCode)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), res.Header
}

// TestMetricsHandlerText checks the default /metricz view: the registry text
// dump including the latency series a sampled run produces.
func TestMetricsHandlerText(t *testing.T) {
	eng := httpEngine(t, false)
	New(eng, photons.DefaultConfig()) // a server's counters live in the engine's registry
	h := MetricsHandler(eng, nil)
	body, _ := get(t, h, "/metricz")
	for _, want := range []string{
		"counter core.streams.registered 1",
		"counter server.feed.docs 0",
		"counter server.feed.items 0",
		"counter server.feed.docs.fallback 0",
		"counter latency.spans.started",
		"histogram latency.total",
		"gauge latency.sub.watermark.q1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metricz lacks %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "# channels") {
		t.Error("/metricz has a channels section without a session")
	}
}

// TestMetricsHandlerProm checks ?format=prom: Prometheus content type,
// sanitized series names, and histogram scaffolding (+Inf bucket, _sum,
// _count).
func TestMetricsHandlerProm(t *testing.T) {
	h := MetricsHandler(httpEngine(t, false), nil)
	body, hdr := get(t, h, "/metricz?format=prom")
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("prom content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE core_streams_registered counter",
		"# TYPE latency_total histogram",
		`latency_total_bucket{le="+Inf"}`,
		"latency_total_sum",
		"latency_total_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom output lacks %q:\n%s", want, body)
		}
	}
}

// TestMetricsHandlerFlight checks ?flight=1 dumps the flight recorder's
// recent events.
func TestMetricsHandlerFlight(t *testing.T) {
	eng := httpEngine(t, false)
	eng.Obs().Flight.Record("test.event", "detail here")
	body, _ := get(t, MetricsHandler(eng, nil), "/metricz?flight=1")
	if !strings.Contains(body, "test.event detail here") {
		t.Errorf("flight dump lacks the recorded event:\n%s", body)
	}
}

// TestMetricsHandlerSession checks the channel section appears, with one
// row per channel and nothing after it, when a session is attached and has
// executed a run.
func TestMetricsHandlerSession(t *testing.T) {
	eng := httpEngine(t, true)
	sess := runtime.NewSession(runtime.SessionOptions{})
	items, _ := photons.Stream("photons", photons.DefaultConfig(), 4, 50)
	if _, err := runtime.NewWith(eng, false, runtime.Options{Session: sess}).Run(
		map[string][]*xmlstream.Element{"photons": items}); err != nil {
		t.Fatal(err)
	}
	body, _ := get(t, MetricsHandler(eng, sess), "/metricz")
	_, rows, ok := strings.Cut(body, "# channels\n")
	if !ok {
		t.Fatalf("/metricz lacks the channel section with a session:\n%s", body)
	}
	var want strings.Builder
	for _, cs := range sess.ChannelStates() {
		fmt.Fprintln(&want, cs)
	}
	if want.Len() == 0 || rows != want.String() {
		t.Errorf("/metricz channel section:\n%s\nwant one row per channel:\n%s", rows, want.String())
	}
}
