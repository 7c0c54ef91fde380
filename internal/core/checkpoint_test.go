package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/netip"
	"slices"
	"testing"
	"time"

	"beholder/internal/graph"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
	"beholder/internal/wire"
)

// ckptRun is one campaign execution's comparable artifacts.
type ckptRun struct {
	store    *probe.Store
	graph    []byte
	progress []byte
	stats    CampaignStats
}

// ckptVantage builds a fresh identically-seeded universe and vantage —
// the resumed half of every test runs against its own universe, the way
// a restarted process would.
func ckptVantage(seed int64) *netsim.Vantage {
	u := campaignUniverse(seed)
	return u.NewVantage(netsim.VantageSpec{Name: "US-EDU-1", Kind: netsim.KindUniversity, ChainLen: 4})
}

// graphNDJSON derives the canonical topology-graph export from a store.
// Resumed campaigns rebuild graphs from the merged store (streaming
// observers cannot see pre-resume replies), so both sides of every
// comparison derive theirs the same way.
func graphNDJSON(t *testing.T, store *probe.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.FromStore(store, "US-EDU-1", wire.ProtoICMPv6).WriteNDJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ckptReference runs the uninterrupted campaign at the given cell.
func ckptReference(t *testing.T, seed int64, targets []netip.Addr, shards, batch int) ckptRun {
	t.Helper()
	run, _ := eqDraw{seed: seed, cfg: campaignCfg(targets)}.run(t, eqVariant{shards: shards, batch: batch}, nil, nil)
	return run
}

// assertRunsEqual byte-compares the store, graph export, progress
// stream, and counters of two runs.
func assertRunsEqual(t *testing.T, label string, got, want ckptRun) {
	t.Helper()
	if !bytes.Equal(got.store.AppendBinary(nil), want.store.AppendBinary(nil)) {
		t.Fatalf("%s: store differs", label)
	}
	if !bytes.Equal(got.graph, want.graph) {
		t.Errorf("%s: graph differs", label)
	}
	if !bytes.Equal(got.progress, want.progress) || !slices.Equal(got.stats.Progress, want.stats.Progress) {
		t.Errorf("%s: progress differs:\nwant: %s\ngot:  %s", label, want.progress, got.progress)
	}
	g, w := got.stats, want.stats
	if g.ProbesSent != w.ProbesSent || g.Fills != w.Fills || g.Replies != w.Replies ||
		g.NotMine != w.NotMine || g.Elapsed != w.Elapsed {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, g.Stats, w.Stats)
	}
}

// TestCheckpointBytePin pins the artifact format: the SHA-256 of
// Checkpoint() for one fixed 2-shard fill campaign, interrupted at a
// fixed virtual instant. The digest was recorded when the neighborhood
// heuristic's window, TTL bound, skip counter and per-TTL discovery
// instants left the artifact (format 05) — it equals format 04's pinned
// artifact with only those fields cut out and the magic, lengths and
// checksums rewritten — so "no format change" is enforced rather than
// asserted; a deliberate format change bumps the magic and re-records it.
func TestCheckpointBytePin(t *testing.T) {
	const seed = 1213
	const want = "b41a894126dc3c120f1c6722ff2236db665972b53a36729612eec53668e104ca"
	targets := campaignTargets(t, seed, 61)
	v := ckptVantage(seed)
	cfg := campaignCfg(targets)
	cfg.Batch = 64
	camp := NewCampaign(CampaignConfig{
		Config: cfg, Shards: 2, RecordPaths: true,
		InterruptAt: 1100 * time.Millisecond,
	}, func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	if _, _, err := camp.Run(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: %v", err)
	}
	art, err := camp.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(art)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("artifact digest %s (%d bytes), want %s", got, len(art), want)
	}
	// Appending behind a prefix yields the same artifact bytes.
	again, err := camp.AppendCheckpoint([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again[6:], art) {
		t.Fatal("AppendCheckpoint into a used buffer differs from Checkpoint")
	}
}

// TestCampaignRewindChain drives the two in-process continuations the
// scheduler takes beside the artifact one, each as a chain of cuts. The
// live chain is a periodic snapshot's: an interrupted run folds no
// partial store unless asked, Checkpoint serializes the durable
// artifact, and Rewind(rc, nil) continues on the live connections — no
// decode round trip, no fresh clones, stores and first-seen indexes
// handed over rather than copied. The fresh-connection chain is a
// failover's: Rewind onto fresh connections from a factory, which must
// restore the captured replies and bucket state. Beside them runs
// Resume(Checkpoint()) on a fresh universe at every cut: at each cut all
// three must agree on the artifact bytes and the progress series (whose
// interface counts derive from the first-seen instants), so a hand-over
// that aliased or dropped state shows at the cut where it happens. The
// final results must be byte-identical to the uninterrupted reference.
func TestCampaignRewindChain(t *testing.T) {
	const seed = 7171
	targets := campaignTargets(t, seed, 61)
	ref := ckptReference(t, seed, targets, 2, 64)
	cfg := campaignCfg(targets)
	cfg.Batch = 64
	cuts := []time.Duration{400 * time.Millisecond, 900 * time.Millisecond, 1400 * time.Millisecond}
	factory := func() ConnFactory {
		v := ckptVantage(seed)
		return func(_ int, start time.Duration) probe.Conn { return v.Clone(start) }
	}
	type chain struct {
		name     string
		conns    ConnFactory
		progress bytes.Buffer
		camp     *Campaign
		next     func(c *Campaign, conns ConnFactory, art []byte, rc ResumeConfig) (*Campaign, error)
	}
	chains := []*chain{
		{name: "decoded", next: func(_ *Campaign, _ ConnFactory, art []byte, rc ResumeConfig) (*Campaign, error) {
			return Resume(art, rc, factory())
		}},
		{name: "live", next: func(c *Campaign, _ ConnFactory, _ []byte, rc ResumeConfig) (*Campaign, error) {
			return c.Rewind(rc, nil)
		}},
		{name: "fresh-connection", next: func(c *Campaign, conns ConnFactory, _ []byte, rc ResumeConfig) (*Campaign, error) {
			return c.Rewind(rc, conns)
		}},
	}
	for _, ch := range chains {
		ch.conns = factory()
		ch.camp = NewCampaign(CampaignConfig{
			Config: cfg, Shards: 2, RecordPaths: true,
			Telemetry:      telemetry.NewRegistry(),
			ProgressWriter: &ch.progress,
			InterruptAt:    cuts[0],
		}, ch.conns)
	}
	for i := 0; ; i++ {
		var decoded CampaignStats
		var decodedArt []byte
		finished := 0
		for _, ch := range chains {
			store, stats, err := ch.camp.Run()
			if err == nil {
				finished++
				got := ckptRun{store: store, graph: graphNDJSON(t, store), progress: ch.progress.Bytes(), stats: stats}
				assertRunsEqual(t, ch.name, got, ref)
				continue
			}
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("cut %d: %s chain: %v", i, ch.name, err)
			}
			if store != nil || ch.camp.MergedStore() == nil {
				t.Fatalf("cut %d: %s chain: Run returned a merged store, or MergedStore none", i, ch.name)
			}
			// The durable artifact is cut on every path; it must stay
			// decodable whichever way the run continues.
			art, err := ch.camp.Checkpoint()
			if err != nil {
				t.Fatalf("cut %d: %s chain: checkpoint: %v", i, ch.name, err)
			}
			if _, err := InspectCheckpoint(art); err != nil {
				t.Fatalf("cut %d: %s chain: artifact invalid: %v", i, ch.name, err)
			}
			if decodedArt == nil {
				decoded, decodedArt = stats, art
			} else if !slices.Equal(stats.Progress, decoded.Progress) {
				t.Fatalf("cut %d: %s chain's partial progress series differs from the Resume(Checkpoint()) chain's", i, ch.name)
			} else if !bytes.Equal(art, decodedArt) {
				t.Fatalf("cut %d: %s chain's artifact differs from the Resume(Checkpoint()) chain's", i, ch.name)
			}
			rc := ResumeConfig{Telemetry: telemetry.NewRegistry(), ProgressWriter: &ch.progress}
			if i+1 < len(cuts) {
				rc.InterruptAt = cuts[i+1]
			}
			if ch.camp, err = ch.next(ch.camp, ch.conns, art, rc); err != nil {
				t.Fatalf("cut %d: %s chain: continuing: %v", i, ch.name, err)
			}
		}
		if finished == len(chains) {
			break
		}
		if finished > 0 {
			t.Fatalf("cut %d: %d of %d chains finished", i, finished, len(chains))
		}
	}
}

// TestCampaignCancelBeforeRun: an Interrupt before Run stops every
// shard before its first probe; the checkpoint resumes into the full
// campaign.
func TestCampaignCancelBeforeRun(t *testing.T) {
	const seed = 99
	targets := campaignTargets(t, seed, 61)
	ref := ckptReference(t, seed, targets, 2, 64)

	v := ckptVantage(seed)
	cfg := campaignCfg(targets)
	cfg.Batch = 64
	camp := NewCampaign(CampaignConfig{
		Config: cfg, Shards: 2, RecordPaths: true,
		Telemetry: telemetry.NewRegistry(),
	}, func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	camp.Interrupt()
	_, stats, err := camp.Run()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled run: got %v, want ErrInterrupted", err)
	}
	if camp.MergedStore() == nil {
		t.Fatal("cancelled run folds no store")
	}
	if stats.ProbesSent != 0 {
		t.Fatalf("pre-cancelled run sent %d probes", stats.ProbesSent)
	}
	art, err := camp.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := eqDraw{seed: seed, cfg: campaignCfg(targets)}.run(t, eqVariant{}, art, nil)
	assertRunsEqual(t, "resume from zero", got, ref)
}

// TestCampaignCancelMidRun interrupts concurrently with the run under load.
// Wherever the cut lands, the partial results must be valid and the
// checkpoint must resume into the byte-identical full campaign; run with
// -race this doubles as the Interrupt data-race test.
func TestCampaignCancelMidRun(t *testing.T) {
	const seed = 311
	targets := campaignTargets(t, seed, 61)
	ref := ckptReference(t, seed, targets, 4, 64)

	v := ckptVantage(seed)
	cfg := campaignCfg(targets)
	cfg.Batch = 64
	camp := NewCampaign(CampaignConfig{
		Config: cfg, Shards: 4, RecordPaths: true,
		Telemetry: telemetry.NewRegistry(),
	}, func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	go func() {
		time.Sleep(2 * time.Millisecond)
		camp.Interrupt()
	}()
	store, _, err := camp.Run()
	if err == nil {
		// The campaign outran the cancel; nothing to resume.
		if store == nil {
			t.Fatal("completed run returned no store")
		}
		return
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled run: %v", err)
	}
	if camp.MergedStore() == nil {
		t.Fatal("cancelled run folds no store")
	}
	art, cerr := camp.Checkpoint()
	if cerr != nil {
		t.Fatal(cerr)
	}
	got, _ := eqDraw{seed: seed, cfg: campaignCfg(targets)}.run(t, eqVariant{}, art, nil)
	assertRunsEqual(t, "resume after concurrent cancel", got, ref)
}

// TestCheckpointErrors pins the typed-error surface: completed and
// un-run campaigns are not checkpointable, and malformed artifacts are
// rejected with ErrCheckpoint (CRC corruption specifically with
// ErrCheckpointCRC) rather than panics.
func TestCheckpointErrors(t *testing.T) {
	const seed = 7
	targets := campaignTargets(t, seed, 13)
	v := ckptVantage(seed)
	camp := NewCampaign(CampaignConfig{Config: campaignCfg(targets), Shards: 2},
		func(_ int, start time.Duration) probe.Conn { return v.Clone(start) })
	if _, err := camp.Checkpoint(); !errors.Is(err, ErrNotCheckpointable) {
		t.Fatalf("un-run campaign: %v", err)
	}
	if _, _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Checkpoint(); !errors.Is(err, ErrNotCheckpointable) {
		t.Fatalf("completed campaign: %v", err)
	}

	// A real artifact to corrupt.
	v2 := ckptVantage(seed)
	cfg := campaignCfg(targets)
	camp2 := NewCampaign(CampaignConfig{
		Config: cfg, Shards: 2, RecordPaths: true,
		InterruptAt: 100 * time.Millisecond,
	}, func(_ int, start time.Duration) probe.Conn { return v2.Clone(start) })
	if _, _, err := camp2.Run(); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	art, err := camp2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(art[:4], ResumeConfig{}, nil); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("truncated magic: %v", err)
	}
	if _, err := Resume(art[:len(art)-3], ResumeConfig{}, nil); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("truncated artifact: %v", err)
	}
	flipped := append([]byte(nil), art...)
	flipped[len(flipped)-1] ^= 0x40
	if _, err := Resume(flipped, ResumeConfig{}, nil); !errors.Is(err, ErrCheckpointCRC) {
		t.Fatalf("corrupted artifact: got %v, want ErrCheckpointCRC", err)
	}
	if _, err := Resume([]byte("Y6CKPT99"), ResumeConfig{}, nil); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("wrong version: %v", err)
	}
	// Older versions are not read any more: their magic is just a wrong
	// one.
	for _, magic := range []string{"Y6CKPT02", "Y6CKPT03"} {
		old := append([]byte(magic), art[len(checkpointMagic):]...)
		if _, err := Resume(old, ResumeConfig{}, nil); !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("%s magic: %v", magic, err)
		}
	}
	// The encoder writes a shard's first-seen list strictly ascending by
	// address, each interface once; the decoder holds artifacts to that
	// even when every checksum is right. Re-frame shard 0 with two
	// entries swapped, then with one duplicated.
	sec, err := readSections(art)
	if err != nil {
		t.Fatal(err)
	}
	tail := art[len(art)-(9+len(sec.shards[1])):]
	head := art[:len(art)-len(tail)-(9+len(sec.shards[0]))]
	for name, mutate := range map[string]func(seen []ifaceSeen){
		"swapped":    func(seen []ifaceSeen) { seen[0], seen[1] = seen[1], seen[0] },
		"duplicated": func(seen []ifaceSeen) { seen[1].key = seen[0].key },
	} {
		ss, err := sec.decodeShard(sec.shards[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(ss.track.seen) < 2 {
			t.Fatalf("shard 0 saw %d interfaces before the interrupt; need two to disorder", len(ss.track.seen))
		}
		mutate(ss.track.seen)
		bad := append(appendSection(slices.Clone(head), sectShard, ss.appendTo), tail...)
		if _, err := Resume(bad, ResumeConfig{}, nil); !errors.Is(err, ErrCheckpoint) || errors.Is(err, ErrCheckpointCRC) {
			t.Fatalf("%s first-seen entries: got %v, want a well-framed ErrCheckpoint", name, err)
		}
	}
	// The intact artifact still resumes.
	if _, err := Resume(art, ResumeConfig{}, nil); err != nil {
		t.Fatalf("intact artifact rejected: %v", err)
	}
}
