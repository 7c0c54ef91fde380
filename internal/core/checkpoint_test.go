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
// fixed virtual instant. The digest was recorded when the fixed TTL
// floor, fill limit and drain left the config section (format 04), so
// "no format change" is enforced rather than asserted; a deliberate
// format change bumps the magic and re-records it.
func TestCheckpointBytePin(t *testing.T) {
	const seed = 1213
	const want = "25f2acb791798f9bd8fec46496710d94dad265895c497a15fe171e09891ca63a"
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

// TestCampaignRewindChain drives the in-process continuation path the
// scheduler's periodic checkpointing takes: an interrupted run folds no
// partial store unless asked, Checkpoint serializes the durable
// artifact, and Rewind continues on the live connections —
// no decode round trip, no fresh clones, stores and first-seen indexes
// handed over rather than copied. Beside it runs the chain the hand-over
// replaces, Resume(Checkpoint()) on a fresh universe at every cut: at
// each cut the two must agree on the artifact bytes and the progress
// series (whose interface counts derive from the first-seen instants), so a hand-over that aliased or dropped state
// shows at the cut where it happens. The final results must be
// byte-identical to the uninterrupted reference.
func TestCampaignRewindChain(t *testing.T) {
	const seed = 7171
	targets := campaignTargets(t, seed, 61)
	ref := ckptReference(t, seed, targets, 2, 64)

	v := ckptVantage(seed)
	cfg := campaignCfg(targets)
	cfg.Batch = 64
	var progress, progress2 bytes.Buffer
	connOf := func(_ int, start time.Duration) probe.Conn { return v.Clone(start) }
	cuts := []time.Duration{400 * time.Millisecond, 900 * time.Millisecond, 1400 * time.Millisecond}
	ccfg := CampaignConfig{
		Config: cfg, Shards: 2, RecordPaths: true,
		Telemetry:      telemetry.NewRegistry(),
		ProgressWriter: &progress,
		InterruptAt:    cuts[0],
	}
	camp := NewCampaign(ccfg, connOf)
	ccfg.Telemetry = telemetry.NewRegistry()
	ccfg.ProgressWriter = &progress2
	v2 := ckptVantage(seed)
	decoded := NewCampaign(ccfg, func(_ int, start time.Duration) probe.Conn { return v2.Clone(start) })
	for i := 0; ; i++ {
		store, stats, err := camp.Run()
		store2, stats2, err2 := decoded.Run()
		if (err == nil) != (err2 == nil) {
			t.Fatalf("cut %d: rewound chain: %v, decoded chain: %v", i, err, err2)
		}
		if err == nil {
			got := ckptRun{store: store, graph: graphNDJSON(t, store), progress: progress.Bytes(), stats: stats}
			assertRunsEqual(t, "rewound", got, ref)
			got2 := ckptRun{store: store2, graph: graphNDJSON(t, store2), progress: progress2.Bytes(), stats: stats2}
			assertRunsEqual(t, "decoded", got2, ref)
			break
		}
		if !errors.Is(err, ErrInterrupted) || !errors.Is(err2, ErrInterrupted) {
			t.Fatalf("cut %d: %v / %v", i, err, err2)
		}
		if store != nil {
			t.Fatalf("cut %d: interrupted run returned a merged store", i)
		}
		if camp.MergedStore() == nil {
			t.Fatalf("cut %d: MergedStore returned nil after an interrupt", i)
		}
		if !slices.Equal(stats.Progress, stats2.Progress) {
			t.Fatalf("cut %d: partial progress series differs between the chains", i)
		}
		// The durable artifact is still cut here on the periodic path;
		// it must stay decodable even though the continuation is live.
		art, err := camp.Checkpoint()
		if err != nil {
			t.Fatalf("cut %d: checkpoint: %v", i, err)
		}
		if _, err := InspectCheckpoint(art); err != nil {
			t.Fatalf("cut %d: artifact invalid: %v", i, err)
		}
		art2, err := decoded.Checkpoint()
		if err != nil {
			t.Fatalf("cut %d: decoded chain checkpoint: %v", i, err)
		}
		if !bytes.Equal(art, art2) {
			t.Fatalf("cut %d: rewound chain's artifact differs from the Resume(Checkpoint()) chain's", i)
		}
		next := time.Duration(0)
		if i+1 < len(cuts) {
			next = cuts[i+1]
		}
		camp, err = camp.Rewind(ResumeConfig{
			Telemetry:      telemetry.NewRegistry(),
			ProgressWriter: &progress,
			InterruptAt:    next,
		}, connOf)
		if err != nil {
			t.Fatalf("cut %d: rewind: %v", i, err)
		}
		fresh := ckptVantage(seed)
		decoded, err = Resume(art2, ResumeConfig{
			Telemetry:      telemetry.NewRegistry(),
			ProgressWriter: &progress2,
			InterruptAt:    next,
		}, func(_ int, start time.Duration) probe.Conn { return fresh.Clone(start) })
		if err != nil {
			t.Fatalf("cut %d: resume: %v", i, err)
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
		"duplicated": func(seen []ifaceSeen) { seen[1].addr = seen[0].addr },
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
