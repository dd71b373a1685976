package main

import (
	"fmt"
	"log"

	"streamshare/internal/adapt"
	"streamshare/internal/core"
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

// recoveryRow is the recovery experiment's outcome: the faults the run
// reported and what recovery replayed.
type recoveryRow struct {
	faults, inputs, items, bytes, survivors int
}

// recoveryExperiment measures recovery redelivery volume on scenario 2 with
// the first multi-hop feed's first link severed ahead of the run: the
// reliable session runtime, repair from the faults the run reports, journal
// replay. It prints and returns one row. Channels start journaling the
// instant the fault bites, so the redelivery is what the severed link held
// back, whenever the repair runs.
func recoveryExperiment(items int) recoveryRow {
	header("recovery: redelivery after a severed link")
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

	sess := runtime.NewSession(runtime.SessionOptions{})
	rt := runtime.NewWith(eng, false, runtime.Options{Session: sess})
	if err := rt.SeverLink(sever.Route[0], sever.Route[1]); err != nil {
		log.Fatal(err)
	}
	if _, err := rt.Run(feed); err != nil {
		log.Fatal(err)
	}

	faults := sess.TakeFaults()
	if _, err := adapt.NewManager(eng).ApplyFaults(faults); err != nil {
		log.Fatal(err)
	}
	rep, err := sess.Recover(eng)
	if err != nil {
		log.Fatal(err)
	}

	row := recoveryRow{faults: len(faults), inputs: rep.Inputs, items: rep.Items, bytes: rep.Bytes,
		survivors: len(eng.Subscriptions())}
	fmt.Printf("  %d fault(s), replay %d inputs, %d items, %d bytes, %d survivors\n",
		row.faults, row.inputs, row.items, row.bytes, row.survivors)
	return row
}
