package main

import (
	"fmt"
	"log"
	"time"

	"streamshare/internal/adapt"
	"streamshare/internal/core"
	"streamshare/internal/health"
	"streamshare/internal/runtime"
	"streamshare/internal/scenario"
	"streamshare/internal/xmlstream"
)

// buildReliable registers scenario 2 on a fresh reliable engine and returns
// the full source feeds.
func buildReliable(items int) (*core.Engine, *scenario.Scenario, map[string][]*xmlstream.Element) {
	s := scenario.Scenario2(items)
	eng := core.NewEngine(s.Net, core.Config{Reliable: true})
	feed := map[string][]*xmlstream.Element{}
	for _, src := range s.Sources {
		if _, err := eng.RegisterStream(src.Name, xmlstream.ParsePath("photons/photon"), src.At, src.Stats); err != nil {
			log.Fatal(err)
		}
		feed[src.Name] = src.Items
	}
	for _, q := range s.Queries {
		if _, err := eng.Subscribe(q.Src, q.Target, core.StreamSharing); err != nil {
			log.Fatal(err)
		}
	}
	return eng, s, feed
}

// recoveryRow is the recovery experiment's outcome at one heartbeat
// interval: the mean detection latency, the suspicions raised, and what
// recovery replayed.
type recoveryRow struct {
	interval, detect                            time.Duration
	suspicions, inputs, items, bytes, survivors int
}

// recoveryExperiment sweeps the heartbeat interval and measures failure
// detection latency and recovery redelivery volume on scenario 2 with the
// first multi-hop feed's first link severed ahead of the run: the reliable
// session runtime, detector-driven repair, journal replay. It prints and
// returns one row per interval. Detection runs on the session's virtual
// clock, so the latency is the detector's threshold, (suspectAfter+1)
// intervals, whatever the scheduler did; redelivery volume does not depend on
// the interval — channels start journaling the instant the fault bites, not
// when it is detected, so a slow detector delays repair without growing the
// loss window.
func recoveryExperiment(items int) []recoveryRow {
	header("recovery: detection latency and redelivery vs heartbeat interval")
	intervals := []time.Duration{
		1 * time.Millisecond,
		2 * time.Millisecond,
		5 * time.Millisecond,
		10 * time.Millisecond,
		20 * time.Millisecond,
	}
	var rows []recoveryRow
	for _, iv := range intervals {
		eng, _, feed := buildReliable(items)

		// Deterministic fault: the first link of the first multi-hop feed.
		var sever *core.Deployed
		for _, sub := range eng.Subscriptions() {
			for _, si := range sub.Inputs {
				if len(si.Feed.Route) >= 2 {
					sever = si.Feed
					break
				}
			}
			if sever != nil {
				break
			}
		}
		if sever == nil {
			log.Fatal("recovery experiment: no multi-hop feed to sever")
		}

		sess := runtime.NewSession(runtime.SessionOptions{
			Heartbeat: health.Options{Interval: iv},
		})
		rt := runtime.NewWith(eng, false, runtime.Options{Session: sess})
		if err := rt.SeverLink(sever.Route[0], sever.Route[1]); err != nil {
			log.Fatal(err)
		}
		if _, err := rt.Run(feed); err != nil {
			log.Fatal(err)
		}

		changes := sess.TakeDetected()
		if _, err := adapt.NewManager(eng).ApplyDetected(changes); err != nil {
			log.Fatal(err)
		}
		rep, err := sess.Recover(eng)
		if err != nil {
			log.Fatal(err)
		}

		lat := eng.Obs().Metrics.Snapshot().Histograms["runtime.detect.latency_seconds"]
		sus, _, _ := sess.HealthStats()
		row := recoveryRow{interval: iv, detect: time.Duration(lat.Mean() * float64(time.Second)), suspicions: sus,
			inputs: rep.Inputs, items: rep.Items, bytes: rep.Bytes, survivors: len(eng.Subscriptions())}
		fmt.Printf("  heartbeat %5.1fms: detect %7.2fms (%d suspicions), replay %d inputs, %d items, %d bytes, %d survivors\n",
			ms(iv), ms(row.detect), row.suspicions, row.inputs, row.items, row.bytes, row.survivors)
		rows = append(rows, row)
	}
	return rows
}
