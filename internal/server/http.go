package server

import (
	"fmt"
	"net/http"

	"streamshare/internal/core"
	"streamshare/internal/runtime"
)

// MetricsHandler serves the engine's metrics registry over HTTP (the sgd
// /metricz endpoint). Query parameters select the view:
//
//	(none)         registry snapshot in the repository text format, plus
//	               a channel section when a reliability session is
//	               attached
//	?format=prom   the same snapshot in Prometheus text exposition format
//	               (0.0.4), scrapeable by a stock Prometheus server
//	?flight=1      the flight recorder's recent runtime events (batch
//	               flushes, credit stalls, ack trims, drops, repairs),
//	               oldest first — a crash-cart view of what the runtime
//	               just did
//
// sess may be nil (no reliability sections).
func MetricsHandler(eng *core.Engine, sess *runtime.Session) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if r.URL.Query().Get("flight") == "1" {
			eng.Obs().Flight.Dump(w)
			return
		}
		snap := eng.Obs().Metrics.Snapshot()
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			snap.WriteProm(w)
			return
		}
		snap.WriteText(w)
		if sess == nil {
			return
		}
		// Reliability section: one row per channel (next seq, cumulative
		// ack, replay depth, credits).
		fmt.Fprintln(w, "# channels")
		for _, cs := range sess.ChannelStates() {
			fmt.Fprintln(w, cs)
		}
	}
}
