// Command sgd runs a stream-sharing daemon: a super-peer grid with a
// synthetic photon stream, accepting client connections on a TCP line
// protocol (see internal/server for the command set).
//
//	sgd -listen 127.0.0.1:7070 -grid 3 -strategy-default sharing
//
// Try it with netcat:
//
//	$ nc 127.0.0.1 7070
//	SUBSCRIBE SP2 sharing
//	<photons>{ for $p in stream("photons")/photons/photon
//	  where $p/en >= 1.3 return <hot>{ $p/en }</hot> }</photons>
//	.
//	OK q1
//	.
//	RUN 1000
//
// With -http an introspection endpoint is served alongside: /metricz dumps
// the engine's metrics registry as text (?format=prom for Prometheus text
// exposition, ?flight=1 for the flight recorder's recent runtime events),
// /debug/vars (expvar) exposes the same snapshot as JSON, and /debug/pprof/*
// provides the usual profiles. -span-every tunes the provenance-span
// sampling rate feeding the latency metrics and the LAG command (0 disables
// sampling).
//
// With -reliable the engine runs the reliability layer: RUN and FEED execute
// on the distributed runtime over sequenced acked channels with credit-based
// backpressure, repairs plan private chains, the HEALTH command reports
// channel state, and /metricz gains a channel-state section.
//
// With -node several sgd processes form one super-peer network over TCP:
// every process runs the same topology flags, -cluster-listen binds its mesh
// endpoint, and -join names the other nodes (name=addr pairs; an address is
// needed only for nodes this one dials — the lexicographically smaller node
// name dials the larger, so a node that only accepts still lists its peers,
// with empty addresses). Membership is static: every process must name the
// same node set, or inbound handshakes from unlisted nodes are refused.
// Super-peers are placed on the processes deterministically, by a min-cut
// of the topology the flags build; batches and acks travel as
// length-prefixed frames over reconnect-safe links. A batch crosses a link
// as one dictionary-compressed binary payload; each connection's
// dictionaries start empty and the first batch carries its names (see
// docs/WIRE.md for the wire format). Start the accepting node first:
//
//	sgd -node n1 -cluster-listen 127.0.0.1:7171 -join n0= -listen 127.0.0.1:7070
//	sgd -node n0 -cluster-listen 127.0.0.1:0 -join n1=127.0.0.1:7171 -listen 127.0.0.1:7071
//
// Point SUBSCRIBE/UNSUBSCRIBE/RUN/FEED at one coordinating node: mutations
// mirror to every process over sequenced control frames, runs execute on all
// of them (each injects the sources it owns), and the coordinator merges the
// per-node delivery counts into its reply. NODES shows the membership and
// per-link transport counters.
//
// With -data the daemon becomes durable: the subscription catalog and (with
// -node) every mesh link journal their state under the given directory, and
// a process restarted — or SIGKILLed — over the same directory recovers its
// catalog by deterministic replay, re-joins the mesh with every link's
// sequence space intact, and replays exactly the frames its peers never
// acknowledged
// (see DESIGN.md "Durability"). -data-sync picks the fsync policy: "always"
// survives power loss at one fsync per append, "interval" batches fsyncs
// every -data-sync-interval, "none" leaves flushing to the OS:
//
//	sgd -node n1 -cluster-listen 127.0.0.1:7171 -join n0= -data /var/lib/sgd/n1
//	sgd -node n0 -cluster-listen 127.0.0.1:0 -join n1=127.0.0.1:7171 -data /var/lib/sgd/n0 -listen 127.0.0.1:7071
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"strings"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/durable"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/photons"
	"streamshare/internal/runtime"
	"streamshare/internal/server"
	"streamshare/internal/xmlstream"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "address to listen on")
	httpAddr := flag.String("http", "", "optional HTTP introspection address (/metricz, expvar, pprof)")
	grid := flag.Int("grid", 3, "grid side length (n×n super-peers)")
	capacity := flag.Float64("capacity", 50000, "peer capacity (work units/s)")
	bandwidth := flag.Float64("bandwidth", 12_500_000, "link bandwidth (bytes/s)")
	admission := flag.Bool("admission", false, "reject overloading subscriptions")
	reliable := flag.Bool("reliable", false, "reliable delivery: acked channels, credit backpressure")
	widening := flag.Bool("widening", false, "enable stream widening")
	sample := flag.Int("sample", 2000, "photons sampled for stream statistics")
	spanEvery := flag.Int("span-every", obs.DefaultSpanEvery, "sample one provenance span per N source items (0 disables)")
	node := flag.String("node", "", "cluster node name; empty runs single-process")
	clusterListen := flag.String("cluster-listen", "127.0.0.1:0", "cluster mesh listen address")
	join := flag.String("join", "", "other cluster nodes as name=addr pairs, comma-separated (addr may be empty for nodes that dial us)")
	dataDir := flag.String("data", "", "durable state directory: journals the subscription catalog and, with -node, every mesh link; a process restarted over the same directory recovers its catalog and replays unacked frames")
	dataSync := flag.String("data-sync", "always", "journal fsync policy: always | interval | none")
	dataSyncInt := flag.Duration("data-sync-interval", 0, "background fsync period under -data-sync=interval (0 uses the journal default)")
	flag.Parse()

	syncPolicy, err := durable.ParseSync(*dataSync)
	if err != nil {
		log.Fatal(err)
	}

	n := network.New()
	for i := 0; i < *grid**grid; i++ {
		n.AddPeer(network.Peer{
			ID: network.PeerID(fmt.Sprintf("SP%d", i)), Super: true,
			Capacity: *capacity, PerfIndex: 1,
		})
	}
	for r := 0; r < *grid; r++ {
		for c := 0; c < *grid; c++ {
			i := r**grid + c
			if c < *grid-1 {
				n.Connect(network.PeerID(fmt.Sprintf("SP%d", i)), network.PeerID(fmt.Sprintf("SP%d", i+1)), *bandwidth)
			}
			if r < *grid-1 {
				n.Connect(network.PeerID(fmt.Sprintf("SP%d", i)), network.PeerID(fmt.Sprintf("SP%d", i+*grid)), *bandwidth)
			}
		}
	}

	eng := core.NewEngine(n, core.Config{Admission: *admission, Widening: *widening, Reliable: *reliable})
	eng.Obs().Latency.SetRate(*spanEvery)
	var sess *runtime.Session
	if *reliable {
		sess = runtime.NewSession(runtime.SessionOptions{})
	}
	cfg := photons.DefaultConfig()
	_, st := photons.Stream("photons", cfg, 42, *sample)
	if _, err := eng.RegisterStream("photons", xmlstream.ParsePath("photons/photon"), "SP0", st); err != nil {
		log.Fatal(err)
	}
	if *httpAddr != "" {
		go serveHTTP(*httpAddr, eng, sess)
	}

	var clu *runtime.Cluster
	if *node != "" {
		nodes := map[string]string{*node: *clusterListen}
		if *join != "" {
			for _, kv := range strings.Split(*join, ",") {
				name, addr, _ := strings.Cut(strings.TrimSpace(kv), "=")
				if name != "" && name != *node {
					nodes[name] = addr
				}
			}
		}
		copts := runtime.ClusterOptions{
			Node:    *node,
			Nodes:   nodes,
			Metrics: eng.Obs().Metrics,
			Flight:  eng.Obs().Flight,
		}
		if *dataDir != "" {
			// Link journals live one directory per remote under links/; the
			// catalog journal (attached below) under catalog/.
			copts.DataDir = filepath.Join(*dataDir, "links")
			copts.DurableSync = syncPolicy
			copts.DurableSyncInterval = *dataSyncInt
		}
		// The peers are placed on the topology the flags built, before the
		// catalog below replays adaptations into it: every node, restarted
		// or not, places them alike.
		var err error
		clu, err = runtime.NewCluster(n, copts)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("sgd: cluster node %s, mesh on %s, waiting for %d peer(s)", *node, clu.Addr(), len(nodes)-1)
		if err := clu.WaitConnected(2 * time.Minute); err != nil {
			log.Fatal(err)
		}
		log.Printf("sgd: cluster connected: %v", clu.Nodes())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("sgd: %d super-peers, stream photons at SP0, listening on %s", *grid**grid, ln.Addr())
	srv := server.New(eng, cfg)
	if *dataDir != "" {
		// Catalog recovery runs before the cluster handler and the listener
		// are live: replay must not race client sessions or mirrored
		// mutations.
		srv, err = srv.WithDurable(filepath.Join(*dataDir, "catalog"), syncPolicy, *dataSyncInt)
		if err != nil {
			log.Fatal(err)
		}
		subs := len(eng.Subscriptions())
		if subs > 0 {
			log.Printf("sgd: recovered %d subscription(s) from %s", subs, *dataDir)
		}
	}
	if sess != nil {
		srv = srv.WithSession(sess)
	}
	if clu != nil {
		srv = srv.WithCluster(clu)
	}
	srv.Serve(ln)
}

// serveHTTP exposes the engine's metrics registry and the standard Go
// introspection handlers on a side port.
func serveHTTP(addr string, eng *core.Engine, sess *runtime.Session) {
	expvar.Publish("streamshare", expvar.Func(func() any {
		return eng.Obs().Metrics.Snapshot()
	}))
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metricz", server.MetricsHandler(eng, sess))
	log.Printf("sgd: introspection on http://%s/metricz", addr)
	log.Println(http.ListenAndServe(addr, mux))
}
