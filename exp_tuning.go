package beholder

// Probing-methodology experiments: Tables 3, 4, 6, Figure 5, and the
// Section 4.2 protocol and Doubletree studies.

import (
	"net/netip"
	"time"

	"beholder/internal/analysis"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/target"
	"beholder/internal/trace"
	"beholder/internal/wire"
)

// trialVantage creates the canonical trial vantage on pristine state,
// for the baseline probers that drive it directly.
func (e *Experiments) trialVantage(idx int) *netsim.Vantage {
	e.in.Reset()
	return e.vantage(idx).v
}

// runTrial runs one non-cached Yarrp6 campaign from vantageSpecs[idx]
// on pristine state, under the supervisor.
func (e *Experiments) runTrial(idx int, targets []netip.Addr, opt SubmitOptions) (res *CampaignResult) {
	e.in.Reset()
	for _, res = range e.supervise([]submission{{e.vantage(idx), targets, opt}}) {
	}
	return res
}

// Table3 reproduces "ICMPv6 Trial Results by Transformation": probing
// the fdns seeds at z40/z48/z56/z64 — finer aggregation costs more
// probes but discovers disproportionately many interfaces, including
// many found at no other level.
func (e *Experiments) Table3() *Table {
	levels := []int{40, 48, 56, 64}
	type res struct {
		probes int64
		other  int64
		ifaces map[netip.Addr]struct{}
	}
	results := make(map[int]*res)
	for _, n := range levels {
		set := e.targetSet("fdns_any", n, target.FixedIID)
		tr := e.runTrial(0, set.Targets.Addrs(), SubmitOptions{MaxTTL: 16, Key: uint64(n)})
		r := &res{probes: tr.Stats.ProbesSent, other: tr.Store.OtherICMPv6(), ifaces: make(map[netip.Addr]struct{})}
		tr.Store.ForEachInterface(func(a netip.Addr) { r.ifaces[a] = struct{}{} })
		results[n] = r
	}
	// Exclusive interfaces per level.
	mult := make(map[netip.Addr]int)
	for _, r := range results {
		for a := range r.ifaces {
			mult[a]++
		}
	}
	t := &Table{
		ID:      "Table 3",
		Title:   "ICMPv6 Trial Results by Transformation (fdns seeds)",
		Headers: []string{"zn", "Probes", "Other ICMPv6", "Addrs", "Excl Addrs"},
	}
	for _, n := range levels {
		r := results[n]
		excl := 0
		for a := range r.ifaces {
			if mult[a] == 1 {
				excl++
			}
		}
		t.AddRow("/"+itoa(n), kfmt(r.probes), kfmt(r.other), kfmt(int64(len(r.ifaces))), kfmt(int64(excl)))
	}
	t.Notes = append(t.Notes,
		"Expected shape: z64 costs several times z40's probes, discovers a multiple of its addresses, and has a higher non-Time-Exceeded rate (probes reach deeper).")
	return t
}

// Table4 reproduces "ICMPv6 Trial Results by IID": the response
// type/code mix when synthesizing targets with lowbyte1 versus fixediid
// (cdn-k256 z64) versus probing known addresses (fiebig).
func (e *Experiments) Table4() *Table {
	type mix struct {
		te, noRoute, admin, addrU, portU, reject int64
	}
	collect := func(store *probe.Store) mix {
		return mix{
			te:      store.TimeExceeded,
			noRoute: store.DestUnreachByCode[wire.CodeNoRoute],
			admin:   store.DestUnreachByCode[wire.CodeAdminProhibited],
			addrU:   store.DestUnreachByCode[wire.CodeAddrUnreachable],
			portU:   store.DestUnreachByCode[wire.CodePortUnreachable],
			reject:  store.DestUnreachByCode[wire.CodeRejectRoute],
		}
	}
	var mixes []mix
	var labels []string

	for _, synth := range []target.Synth{target.LowByte1, target.FixedIID} {
		set := e.targetSet("cdn-k256", 64, synth)
		// UDP probes so port-unreachable can appear, as with the paper's
		// transport trials toward known hosts.
		tr := e.runTrial(0, set.Targets.Addrs(), SubmitOptions{MaxTTL: 16, Transport: "udp", Key: 44})
		mixes = append(mixes, collect(tr.Store))
		labels = append(labels, "CDN-k256 z64 "+synth.String())
	}
	known := e.targetSet("fiebig", 0, target.Known)
	tr := e.runTrial(0, known.Targets.Addrs(), SubmitOptions{MaxTTL: 16, Transport: "udp", Key: 45})
	mixes = append(mixes, collect(tr.Store))
	labels = append(labels, "Fiebig known")

	t := &Table{
		ID:      "Table 4",
		Title:   "ICMPv6 Trial Results by IID (response type/code mix)",
		Headers: append([]string{"type/code"}, labels...),
	}
	row := func(name string, get func(mix) int64) {
		cells := []string{name}
		for _, m := range mixes {
			total := m.te + m.noRoute + m.admin + m.addrU + m.portU + m.reject
			if total == 0 {
				cells = append(cells, "0.0%")
				continue
			}
			cells = append(cells, pct(float64(get(m))/float64(total)))
		}
		t.AddRow(cells...)
	}
	row("Time Exceeded", func(m mix) int64 { return m.te })
	row("no route to destination", func(m mix) int64 { return m.noRoute })
	row("administratively prohibited", func(m mix) int64 { return m.admin })
	row("address unreachable", func(m mix) int64 { return m.addrU })
	row("port unreachable", func(m mix) int64 { return m.portU })
	row("reject route to destination", func(m mix) int64 { return m.reject })
	t.Notes = append(t.Notes,
		"Expected shape: Time Exceeded dominates; lowbyte1 vs fixediid differ negligibly; known-address probing elicits markedly more port unreachable (probes reach end hosts).")
	return t
}

// Table6 reproduces "Fill Mode Trial Results": the probes/fills/yield
// tradeoff across maximum TTL choices, motivating maxTTL=16.
func (e *Experiments) Table6() *Table {
	set := e.targetSet("caida", 64, target.LowByte1)
	t := &Table{
		ID:      "Table 6",
		Title:   "Fill Mode Trial Results (caida targets, fill limit 32)",
		Headers: []string{"MaxTTL", "Probes", "Fills", "Int Addrs", "Yield %"},
	}
	for _, maxTTL := range []int{4, 8, 16, 32} {
		tr := e.runTrial(0, set.Targets.Addrs(), SubmitOptions{
			MaxTTL: maxTTL, Fill: maxTTL < 32, Key: uint64(maxTTL),
		})
		stats := tr.Stats
		yield := 0.0
		if stats.ProbesSent > 0 {
			yield = float64(tr.Store.NumInterfaces()) / float64(stats.ProbesSent) * 100
		}
		t.AddRow(itoa(maxTTL), kfmt(stats.ProbesSent), kfmt(stats.Fills),
			kfmt(int64(tr.Store.NumInterfaces())), fmtF(yield, 1))
	}
	t.Notes = append(t.Notes,
		"Expected shape: an intermediate MaxTTL maximizes yield per probe; 32 wastes probes past path ends, tiny MaxTTLs strand fill mode behind unresponsive hops.")
	return t
}

// Figure5 reproduces "probing strategy, rate, and per-hop
// responsiveness" at two vantage points: sequential versus randomized
// probing of the caida targets at 20, 1000, and 2000 pps.
func (e *Experiments) Figure5() (a, b *Figure) {
	const maxTTL = 16
	set := e.targetSet("caida", 64, target.LowByte1)
	targets := set.Targets.Addrs()
	rates := []float64{20, 1000, 2000}

	build := func(vidx int) *Figure {
		fig := &Figure{
			ID:     "Figure 5" + string(rune('a'+vidx)),
			Title:  "Per-hop responsiveness by method and rate (vantage " + vantageSpecs[vidx+1].name + ")",
			XLabel: "IPv6 hop",
			YLabel: "fraction responsive (traces)",
		}
		for _, rate := range rates {
			// Sequential: scamper-like windowed prober; traces advance
			// TTLs in near-lockstep, producing per-TTL bursts.
			v := e.trialVantage(vidx + 1)
			seqStore := probe.NewStore(true)
			seq := trace.NewSequential(v, trace.SequentialConfig{
				Engine: trace.EngineConfig{PPS: rate, Window: len(targets), Timeout: 300 * time.Millisecond},
				MaxTTL: maxTTL, GapLimit: maxTTL, // exhaustive: measure responsiveness, not early exit
			})
			seq.Run(targets, seqStore)
			fig.Series = append(fig.Series, perHopSeries("sequential "+kfmt(int64(rate))+"pps",
				seqStore, maxTTL, len(targets)))

			// Yarrp6: randomized.
			y := e.runTrial(vidx+1, targets, SubmitOptions{MaxTTL: maxTTL, Rate: rate, Key: uint64(rate)})
			fig.Series = append(fig.Series, perHopSeries("yarrp (rand) "+kfmt(int64(rate))+"pps",
				y.Store, maxTTL, len(targets)))
		}
		fig.Notes = append(fig.Notes,
			"Expected shape: methods tie at 20pps; at 1k/2kpps sequential's hop-1 responsiveness collapses under ICMPv6 rate limiting while randomized stays near its slow-rate level.")
		return fig
	}
	return build(0), build(1)
}

func perHopSeries(name string, store *probe.Store, maxTTL, denom int) analysis.Series {
	resp := analysis.PerHopResponsiveness(store, maxTTL, denom)
	s := analysis.Series{Name: name}
	for i, f := range resp {
		s.X = append(s.X, float64(i+1))
		s.Y = append(s.Y, f)
	}
	return s
}

// ProtocolComparison reproduces the Section 4.2 transport trial: probing
// the caida targets with ICMPv6, UDP, and TCP at low rate. ICMPv6 should
// edge out the others in interfaces and produce the most non-Time-
// Exceeded responses.
func (e *Experiments) ProtocolComparison() *Table {
	set := e.targetSet("caida", 64, target.LowByte1)
	t := &Table{
		ID:      "Protocol (§4.2)",
		Title:   "Transport protocol trial (caida targets, 20pps-equivalent)",
		Headers: []string{"Transport", "Int Addrs", "Non-TE ICMPv6", "Reached"},
	}
	for _, p := range []struct{ name, transport string }{{"ICMPv6", "icmp6"}, {"UDP", "udp"}, {"TCP", "tcp"}} {
		store := e.runTrial(0, set.Targets.Addrs(), SubmitOptions{MaxTTL: 16, Transport: p.transport, Key: 77}).Store
		reached := 0
		for _, tr := range store.Traces() {
			if tr.Reached {
				reached++
			}
		}
		t.AddRow(p.name, kfmt(int64(store.NumInterfaces())), kfmt(store.OtherICMPv6()), kfmt(int64(reached)))
	}
	t.Notes = append(t.Notes,
		"Expected shape: ICMPv6 discovers slightly more interfaces than UDP/TCP (transport filtering) and elicits more non-TE responses.")
	return t
}

// DoubletreeStudy reproduces the Section 4.2 Doubletree observations:
// probe savings from stop sets, and the backward-probing pathology that
// keeps near-hop token buckets drained under rate limiting.
func (e *Experiments) DoubletreeStudy() *Table {
	set := e.targetSet("caida", 64, target.LowByte1)
	targets := set.Targets.Addrs()
	t := &Table{
		ID:      "Doubletree (§4.2)",
		Title:   "Doubletree vs Yarrp6 under rate limiting (caida targets)",
		Headers: []string{"Method", "Rate", "Probes", "Int Addrs", "Hop-1 Resp", "RateLimit Drops"},
	}
	for _, rate := range []float64{100, 2000} {
		v := e.trialVantage(0)
		dtStore := probe.NewStore(true)
		dt := trace.NewDoubletree(v, trace.DoubletreeConfig{
			Engine:   trace.EngineConfig{PPS: rate, Window: 256},
			StartTTL: 5, MaxTTL: 16,
		})
		dtStats := dt.Run(targets, dtStore)
		dtResp := analysis.PerHopResponsiveness(dtStore, 16, len(targets))
		dtDrops := e.in.u.Stats.RateLimitDropped
		t.AddRow("doubletree", kfmt(int64(rate))+"pps", kfmt(dtStats.ProbesSent),
			kfmt(int64(dtStore.NumInterfaces())), pct(dtResp[0]), kfmt(dtDrops))

		y := e.runTrial(0, targets, SubmitOptions{MaxTTL: 16, Rate: rate, Key: uint64(rate) + 9})
		yResp := analysis.PerHopResponsiveness(y.Store, 16, len(targets))
		t.AddRow("yarrp6", kfmt(int64(rate))+"pps", kfmt(y.Stats.ProbesSent),
			kfmt(int64(y.Store.NumInterfaces())), pct(yResp[0]), kfmt(e.in.u.Stats.RateLimitDropped))
	}
	t.Notes = append(t.Notes,
		"Expected shape: Doubletree saves probes via stop sets but its backward probing keeps draining near-hop buckets at high rate; Yarrp6 sustains hop-1 responsiveness.")
	return t
}
