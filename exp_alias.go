package beholder

// Aliased-prefix experiments: the follow-on dealiasing study. 6Prob's
// cool-down APD scheme is applied to the paper's own z64 target sets,
// scored against the simulator's exact aliased ground truth — the
// validation real-world alias detection can only estimate.

import (
	"math/rand"
	"strconv"

	"beholder/internal/alias"
	"beholder/internal/target"
)

// AliasStudy measures how much aliased-prefix pollution the DNS-derived
// z64 target sets carry, how precisely APD detects it, and how much
// probe budget dealiasing recovers. Detection runs from the EU-NET
// vantage on pristine router state.
func (e *Experiments) AliasStudy() *Table {
	t := &Table{
		ID:    "Aliases (follow-on)",
		Title: "Aliased-prefix detection and dealiasing of z64 target sets (EU-NET)",
		Headers: []string{"Set", "Targets", "Cand /64", "Aliased", "Precision", "Recall",
			"APD Probes", "Dealiased", "Dropped"},
	}
	for _, s := range []string{"fdns_any", "dnsdb"} {
		set := e.targetSet(s, 64, target.FixedIID)
		cands := alias.Candidates(set.Targets, 64)

		det := alias.NewDetector(e.trialVantage(0), alias.DefaultParams())
		rng := rand.New(rand.NewSource(e.opt.Seed + 0xa11a5))
		res := det.Detect(cands, rng)

		// Score tested candidates against the plan's exact truth.
		var tp, fp, fn int
		for _, rec := range res.Records {
			truth := e.in.u.AddrAliased(rec.Prefix.Addr())
			switch {
			case rec.Aliased && truth:
				tp++
			case rec.Aliased && !truth:
				fp++
			case !rec.Aliased && truth:
				fn++
			}
		}
		precision, recall := 1.0, 1.0
		if tp+fp > 0 {
			precision = float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			recall = float64(tp) / float64(tp+fn)
		}

		kept, stats := alias.Dealias(set.Targets, res.Aliased, alias.Drop)
		t.AddRow(s, kfmt(int64(set.Targets.Len())), kfmt(int64(len(cands))),
			strconv.Itoa(res.Aliased.Len()), pct(precision), pct(recall),
			kfmt(res.ProbesSent), kfmt(int64(kept.Len())), strconv.Itoa(stats.Dropped))
	}
	t.Notes = append(t.Notes,
		"Aliased /64s are CDN-style front ends answering for every IID; random-IID probes into genuine LANs elicit no echo replies, so precision stays near 100%.",
		"Dropped targets are probe budget recovered: every trace into an aliased /64 rediscovers the same middlebox.")
	return t
}
