package plan

import (
	"streamshare/internal/exec"
	"streamshare/internal/network"
	"streamshare/internal/properties"
)

// Reference returns a copy of p that runs the same search but answers every
// lookup by brute force: a scan over all deployed streams at each visited
// peer, a fresh shortest path, Algorithm 2 and the residual compilation run
// directly. No decision of its discovery loop comes from the index or a
// cache (the copy keeps idx, read only to size the trace-row slice), which
// makes it the oracle for both — tests compare its decisions and traces with
// p's; nothing outside tests constructs one. The widening search is the same
// code in both (a scan of host.Streams either way), so it is not checked
// here but by the widening tests in internal/core.
func Reference(p *Planner) *Planner {
	ref := *p
	ref.lookups = bruteForce{net: p.net, host: p.host}
	return &ref
}

type bruteForce struct {
	net  *network.Network
	host Host
}

func (b bruteForce) available(v network.PeerID, stream string) []*Deployed {
	var out []*Deployed
	for _, d := range b.host.Streams() {
		if d.Input.Stream == stream && !d.NotShareable && !d.Broken && !d.Hidden && d.OnRoute(v) {
			out = append(out, d)
		}
	}
	return out
}

func (b bruteForce) shortestPath(a, c network.PeerID) []network.PeerID {
	return b.net.ShortestPath(a, c)
}

func (b bruteForce) matchInput(have, want *properties.Input) bool {
	return properties.MatchInput(have, want)
}

func (b bruteForce) explainMismatch(have, want *properties.Input) string {
	return properties.ExplainInputMismatch(have, want)
}

func (b bruteForce) residualOps(have, want *properties.Input) ([]string, error) {
	res, err := exec.ResidualPipeline(have, want, nil)
	if err != nil {
		return nil, err
	}
	return opNames(res.Ops), nil
}
