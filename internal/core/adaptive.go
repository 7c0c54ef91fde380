// Adaptive target generation: the probing loop as a closed feedback
// system.
//
// A static campaign fixes its (target × TTL) domain up front; an
// adaptive campaign grows it mid-flight. The run is a sequence of
// epochs: a TargetSource proposes a target batch, a full sharded
// Campaign probes it, and the merged epoch results — newly discovered
// interfaces and detected aliased prefixes — feed back into the source
// before it proposes the next batch. The paper's observation that seed
// density predicts discovery (Section 5) becomes a control loop: budget
// flows toward the regions that keep answering.
//
// Determinism survives the loop because every feedback exchange happens
// at a virtual-time boundary that is itself deterministic. Epoch k+1
// opens at base_{k+1} = base_k + Elapsed_k, and a campaign's Elapsed is
// a pure function of its schedule (the drain deadline is fixed when the
// last probe departs, and drain fast-forwards land on the same gap-grid
// instants at any shard count and batch size) — so the epoch boundaries,
// the feedback the source sees, and therefore the targets it generates
// are byte-identical at any shard × batch combination. Interrupting an
// adaptive run checkpoints the whole target source alongside the inner
// campaign artifact, so a run resumed from that artifact alone continues
// the same series.
package core

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"beholder/internal/perm"
	"beholder/internal/probe"
)

// Feedback carries one finished epoch's results back to the target
// source. The stores are read-only views owned by the campaign; sources
// must not mutate or retain them past the NextEpoch call.
type Feedback struct {
	// Epoch is the index of the epoch the feedback describes.
	Epoch int
	// Store holds the epoch's own merged results, with per-target traces
	// (adaptive epochs always record paths) — the reward signal.
	Store *probe.Store
	// Total holds the results accumulated over every epoch before this
	// one; new-interface attribution diffs Store against it.
	Total *probe.Store
	// Aliased lists prefixes the alias detector flagged after the epoch;
	// sources prune or de-weight them.
	Aliased []netip.Prefix
}

// TargetSource streams per-epoch target batches into an adaptive
// campaign. Implementations must be deterministic — equal construction
// parameters and equal feedback must yield equal batches — and
// serializable whole, construction parameters included, so an
// interrupted run resumes mid-adaptation from its artifact alone.
// internal/gen6prob implements it.
type TargetSource interface {
	// NextEpoch returns up to want targets for the given epoch. fb is
	// the previous epoch's feedback, nil for epoch 0. An empty return
	// ends the run.
	NextEpoch(epoch, want int, fb *Feedback) []netip.Addr
	// AppendState appends the source's complete serialized state — what
	// it was built from and what generation has changed since — to buf
	// and returns the extended slice.
	AppendState(buf []byte) []byte
	// RestoreState restores state serialized by AppendState into the
	// receiver, which may be the type's zero value.
	RestoreState(data []byte) error
}

// AdaptiveConfig parameterizes an adaptive campaign. The embedded
// CampaignConfig is the per-epoch template: its Config.Targets must be
// empty (the source supplies each epoch's targets), ProgressWriter must
// be nil (the progress stream is per-campaign), and InterruptAt is
// interpreted against the adaptive run's own virtual-time origin.
type AdaptiveConfig struct {
	CampaignConfig
	// Source proposes each epoch's target batch. Required.
	Source TargetSource
	// Budget caps total probes across all epochs: epoch k gets at most
	// (Budget − probes spent) / TTL-span targets. Zero means no cap
	// (MaxEpochs alone bounds the run).
	Budget int64
	// EpochTargets caps the targets requested per epoch. Default 256.
	EpochTargets int
	// MaxEpochs bounds the epoch count. Default 16.
	MaxEpochs int
	// DetectAliases, when non-nil, runs after each epoch on the epoch's
	// merged store and returns the aliased prefixes to feed back to the
	// source. The facade wires internal/alias in here; detection must be
	// deterministic (run it against a boundary-instant connection).
	DetectAliases func(epoch int, store *probe.Store) []netip.Prefix
}

// EpochStats summarizes one completed epoch.
type EpochStats struct {
	// Epoch is the epoch index.
	Epoch int
	// Targets is the size of the epoch's target batch.
	Targets int
	// Base is the epoch window's opening instant, relative to the
	// adaptive run's origin.
	Base time.Duration
	// Stats holds the epoch campaign's counters (Elapsed is the epoch's
	// own span).
	Stats Stats
	// Interfaces is the cumulative unique-interface count after the
	// epoch — the adaptive run's discovery curve ordinate.
	Interfaces int
}

// AdaptiveCampaign is a multi-epoch adaptive run. Like Campaign, a
// value runs once; after an interrupted run it retains complete state,
// MergedStore folds the partial results, and Checkpoint serializes it.
type AdaptiveCampaign struct {
	cfg    AdaptiveConfig
	connOf ConnFactory

	epoch     int           // index of the next (or currently running) epoch
	base      time.Duration // virtual offset of that epoch's window, from origin
	origin    time.Duration // absolute virtual instant of epoch 0's open
	originSet bool
	spent     int64 // probes sent in completed epochs
	total     *probe.Store
	epochs    []EpochStats
	pending   []netip.Addr // next epoch's targets, generated at the boundary

	resumed     bool
	resumeInner []byte // interrupted inner campaign artifact, from ResumeAdaptive
	interrupted bool
	partial     *Stats // mid-epoch interrupt: the cut epoch's partial counters

	stop  atomic.Bool
	mu    sync.Mutex
	inner *Campaign // running (or interrupted) epoch campaign
}

// NewAdaptive creates an adaptive campaign; validation happens in Run.
// connOf is invoked with virtual-time offsets relative to the adaptive
// run's origin — epoch k's shard s opens at base_k + lo_s × gap.
func NewAdaptive(cfg AdaptiveConfig, connOf ConnFactory) *AdaptiveCampaign {
	return &AdaptiveCampaign{cfg: cfg, connOf: connOf}
}

// Epoch returns the adaptive run's origin in absolute virtual time,
// valid once the first epoch has started (and always on resumed runs).
func (a *AdaptiveCampaign) Epoch() time.Duration { return a.origin }

// Interrupt requests a cooperative stop: the running epoch campaign
// interrupts at its next batch boundary and the adaptive run stops at
// that epoch, checkpointable. Safe from any goroutine.
func (a *AdaptiveCampaign) Interrupt() {
	a.stop.Store(true)
	a.mu.Lock()
	if a.inner != nil {
		a.inner.Interrupt()
	}
	a.mu.Unlock()
}

// Proto returns the campaign's transport protocol — for resumed
// campaigns, the one pinned by the checkpoint artifact.
func (a *AdaptiveCampaign) Proto() uint8 { return protoOf(&a.cfg.Config) }

// MergedStore folds an interrupted run's partial results — every
// completed epoch plus what the cut epoch had probed — into a fresh
// store; nil unless the run was interrupted.
func (a *AdaptiveCampaign) MergedStore() *probe.Store {
	if !a.interrupted {
		return nil
	}
	merged := cloneStore(a.total)
	if a.inner != nil {
		merged.Merge(a.inner.MergedStore())
	}
	return merged
}

// Run executes the adaptive campaign: epochs of sharded probing
// alternating with target generation, until the budget, the epoch
// bound, or the source itself is exhausted. The statistics carry the
// per-epoch breakdown in Epochs. An Interrupt (or an InterruptAt
// instant) stops the run checkpointable, mid-epoch or at a boundary:
// like Campaign's, the run then returns ErrInterrupted with the partial
// statistics and a nil store, and MergedStore folds the partial results.
func (a *AdaptiveCampaign) Run() (*probe.Store, CampaignStats, error) {
	cfg := &a.cfg
	if cfg.Source == nil {
		return nil, CampaignStats{}, fmt.Errorf("yarrp6: adaptive campaign needs a target source")
	}
	if cfg.ProgressWriter != nil {
		return nil, CampaignStats{}, fmt.Errorf("yarrp6: progress streaming is unsupported under adaptive generation")
	}
	if !a.resumed && len(cfg.Config.Targets) != 0 {
		return nil, CampaignStats{}, fmt.Errorf("yarrp6: the target source supplies adaptive targets; clear Config.Targets")
	}
	if cfg.MaxEpochs <= 0 {
		cfg.MaxEpochs = 16
	}
	minTTL, maxTTL := cfg.MinTTL, cfg.MaxTTL
	if minTTL == 0 {
		minTTL = 1
	}
	if maxTTL == 0 {
		maxTTL = 16
	}
	if minTTL > maxTTL {
		return nil, CampaignStats{}, fmt.Errorf("yarrp6: MinTTL %d > MaxTTL %d", minTTL, maxTTL)
	}
	ttlSpan := int64(maxTTL-minTTL) + 1
	if cfg.EpochTargets <= 0 {
		// Default: spread a budgeted run across the full epoch allowance
		// so feedback actually steers it — one giant epoch adapts nothing.
		cfg.EpochTargets = 256
		if cfg.Budget > 0 {
			if per := cfg.Budget / ttlSpan / int64(cfg.MaxEpochs); per < 256 {
				cfg.EpochTargets = int(per)
				if cfg.EpochTargets < 1 {
					cfg.EpochTargets = 1
				}
			}
		}
	}
	if a.total == nil {
		// Adaptive runs always retain traces: reward attribution walks
		// per-target paths, so the merged store carries them too.
		a.total = probe.NewStore(true)
	}

	// Resume continuation: finish the epoch that was cut mid-flight
	// before the generation loop takes over.
	if len(a.resumeInner) > 0 {
		var innerIA time.Duration
		if cfg.InterruptAt > 0 {
			innerIA = cfg.InterruptAt - a.base
		}
		inner, err := Resume(a.resumeInner, ResumeConfig{
			Telemetry:   cfg.Telemetry,
			InterruptAt: innerIA,
		}, a.epochConnOf())
		if err != nil {
			return nil, CampaignStats{}, err
		}
		a.resumeInner = nil
		if done, err := a.runEpoch(inner, ttlSpan); !done {
			return nil, a.snapshot(), err
		}
	} else if !a.resumed {
		a.pending = cfg.Source.NextEpoch(0, a.want(ttlSpan), nil)
	}

	for len(a.pending) > 0 {
		if err := a.boundaryStop(); err != nil {
			return nil, a.snapshot(), err
		}
		ccfg := cfg.CampaignConfig
		ccfg.Config.Targets = a.pending
		// Each epoch walks its own domain in an independent order; the
		// derived key keeps the whole series reproducible from one key.
		ccfg.Config.Key = perm.Derive(cfg.Key, uint64(a.epoch))
		ccfg.RecordPaths = true
		ccfg.InterruptAt = 0
		if cfg.InterruptAt > 0 {
			// The adaptive instant, re-expressed against this epoch's
			// window (positive here — boundary interrupts were caught
			// above). Epochs ending before it complete normally.
			ccfg.InterruptAt = cfg.InterruptAt - a.base
		}
		inner := NewCampaign(ccfg, a.epochConnOf())
		if done, err := a.runEpoch(inner, ttlSpan); !done {
			return nil, a.snapshot(), err
		}
	}
	a.interrupted = false
	return cloneStore(a.total), a.snapshot(), nil
}

// epochConnOf wraps the adaptive factory for the current epoch: inner
// campaigns ask for offsets relative to their own window, connections
// open relative to the adaptive origin.
func (a *AdaptiveCampaign) epochConnOf() ConnFactory {
	base := a.base
	return func(s int, start time.Duration) probe.Conn {
		return a.connOf(s, base+start)
	}
}

// boundaryStop reports whether the run must stop at the current epoch
// boundary: a cooperative Interrupt, or an InterruptAt instant at or
// before the boundary.
func (a *AdaptiveCampaign) boundaryStop() error {
	if a.stop.Load() || a.cfg.InterruptAt > 0 && a.cfg.InterruptAt <= a.base {
		a.interrupted = true
		return ErrInterrupted
	}
	return nil
}

// want returns the target count to request for the next epoch: the
// per-epoch cap, shrunk so the epoch's raw schedule fits the remaining
// probe budget.
func (a *AdaptiveCampaign) want(ttlSpan int64) int {
	w := int64(a.cfg.EpochTargets)
	if a.cfg.Budget > 0 {
		rem := a.cfg.Budget - a.spent
		if rem <= 0 {
			return 0
		}
		if byBudget := rem / ttlSpan; byBudget < w {
			w = byBudget
		}
	}
	return int(w)
}

// runEpoch drives one epoch campaign, folds its results, and generates
// the next epoch's targets at the boundary. done is false when the run
// must stop, interrupted or failed.
func (a *AdaptiveCampaign) runEpoch(inner *Campaign, ttlSpan int64) (bool, error) {
	ep := a.epoch
	a.mu.Lock()
	a.inner = inner
	if a.stop.Load() {
		inner.Interrupt()
	}
	a.mu.Unlock()
	store, cst, err := inner.Run()
	if !a.originSet && err == nil || !a.originSet && errors.Is(err, ErrInterrupted) {
		a.origin = inner.Epoch() - a.base
		a.originSet = true
	}
	switch {
	case err == nil:
		a.mu.Lock()
		a.inner = nil
		a.mu.Unlock()
	case errors.Is(err, ErrInterrupted):
		// Keep the inner campaign: Checkpoint embeds its artifact and
		// MergedStore folds its partial store. The cut epoch's partial
		// counters are surfaced in the run snapshot (they are not folded
		// into the per-epoch record — the resumed run re-reports the
		// epoch whole).
		a.interrupted = true
		a.partial = &cst.Stats
		return false, ErrInterrupted
	default:
		return false, err
	}

	epStats := cst.Stats
	a.spent += epStats.ProbesSent
	epBase := a.base
	a.base += epStats.Elapsed

	// Generation happens at the boundary instant: feedback sees the
	// epoch's own store against the pre-epoch accumulation, plus the
	// alias verdicts.
	var pending []netip.Addr
	if w := a.want(ttlSpan); w > 0 && ep+1 < a.cfg.MaxEpochs {
		var aliased []netip.Prefix
		if a.cfg.DetectAliases != nil {
			aliased = a.cfg.DetectAliases(ep, store)
		}
		fb := &Feedback{Epoch: ep, Store: store, Total: a.total, Aliased: aliased}
		pending = a.cfg.Source.NextEpoch(ep+1, w, fb)
	}
	a.total.Merge(store)
	a.epochs = append(a.epochs, EpochStats{
		Epoch:      ep,
		Targets:    len(inner.cfg.Targets),
		Base:       epBase,
		Stats:      epStats,
		Interfaces: a.total.NumInterfaces(),
	})
	a.pending = pending
	a.epoch = ep + 1
	return true, nil
}

// snapshot assembles the run statistics from the completed epochs.
func (a *AdaptiveCampaign) snapshot() CampaignStats {
	var out CampaignStats
	out.Epochs = append([]EpochStats(nil), a.epochs...)
	for i := range a.epochs {
		out.add(&a.epochs[i].Stats)
	}
	out.Elapsed = a.base
	if p := a.partial; p != nil {
		out.add(p)
		out.Elapsed += p.Elapsed
	}
	return out
}

// cloneStore returns a standalone copy of s (traces included).
func cloneStore(s *probe.Store) *probe.Store {
	c := probe.NewStore(true)
	c.Merge(s)
	return c
}
