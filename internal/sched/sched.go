// Package sched is the campaign supervisor: a long-running service
// multiplexing many concurrent tenant campaigns over shared simulated
// universes. Where core.Campaign recovers from faults *within* one run
// (a shard stopped by a connection fault continues on a fresh
// connection; checkpoint/resume), the supervisor
// adds the service layer around it — admission control with a bounded
// queue and typed rejections, per-tenant rate budgets, deterministic
// priority/fair-share dispatch, per-campaign virtual deadlines, a
// wall-clock watchdog that interrupts wedged campaigns through the
// heartbeat core exposes (Campaign.Beat), automatic failover that
// checkpoints on interrupt and resumes through core.Resume with capped
// exponential backoff and a bounded retry budget, and a per-vantage
// circuit breaker that quarantines persistently faulty vantages
// instead of letting them wedge the service.
//
// The supervision layer is deliberately invisible in the results: a
// supervised campaign's store is byte-identical to the same campaign
// run bare, because everything the supervisor does — interrupt,
// checkpoint, back off, resume on fresh connections — commutes with
// the deterministic virtual-time schedule (the chaos soak pins this
// under concurrent crash/stall/transient faults). Graceful shutdown
// drains running campaigns to checkpoint artifacts that a restarted
// supervisor resumes byte-identically.
package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"beholder/internal/core"
	"beholder/internal/graph"
	"beholder/internal/probe"
	"beholder/internal/telemetry"
)

// Opener builds the connection factory for one campaign attempt. It is
// called once per attempt — the initial run and again for every
// checkpoint-resume failover — and must return a factory producing
// fresh connections positioned so that the campaign's epoch is virtual
// time zero: shard s's connection opens its clock at exactly the start
// offset the factory is called with. That pin is what makes a
// supervised campaign's store byte-identical to the same campaign run
// bare on a fresh universe. Implementations must be safe for
// concurrent calls (campaign attempts run on worker goroutines) and
// must serialize any shared vantage mutation internally.
type Opener func(spec *CampaignSpec) (core.ConnFactory, error)

// Tenant declares one paying (or at least rate-accounted) user of the
// supervisor.
type Tenant struct {
	// Name identifies the tenant in specs, metrics, and streams.
	Name string
	// RateBudget caps the summed probing rate (PPS) of the tenant's
	// admitted campaigns — queued and running both; admission reserves
	// the rate (a resumed campaign's is its artifact's), completion
	// releases it. Zero means unlimited.
	RateBudget float64
	// Priority orders dispatch: higher-priority tenants' campaigns
	// start first. Equal priorities share fairly (fewest-running tenant
	// first, then submission order).
	Priority int
}

// Options parameterizes a Supervisor.
type Options struct {
	// Tenants lists the admissible tenants. Submissions naming anyone
	// else are rejected with ErrUnknownTenant.
	Tenants []Tenant
	// Workers is the number of campaigns run concurrently. Default 2.
	Workers int
	// QueueLimit bounds the admitted-but-not-running queue; submissions
	// past it are rejected with ErrQueueFull. Default 32.
	QueueLimit int
	// StallBudget is how long a running campaign's heartbeat may sit
	// still (wall clock) before the watchdog declares it stalled,
	// interrupts it, and fails over from the checkpoint. Default 2s.
	StallBudget time.Duration
	// MaxRetries bounds watchdog failovers per campaign; exhaustion
	// degrades the campaign to StateIncomplete. Default 2.
	MaxRetries int
	// CheckpointEvery, when positive, periodically snapshots each
	// running campaign: after that much wall time the attempt is
	// interrupted at a probe boundary, its checkpoint artifact is
	// handed to CheckpointSink, and the campaign resumes from the
	// artifact on fresh connections — the same interrupt/resume cycle
	// the watchdog uses, so results stay byte-identical to an
	// uninterrupted run. A process killed between snapshots loses at
	// most one interval of virtual progress. Zero disables periodic
	// checkpointing: a campaign is snapshotted only when drained.
	CheckpointEvery time.Duration
	// CheckpointSink receives each periodic checkpoint artifact with
	// the campaign's tenant and name. A sink error is counted
	// (sched_checkpoint_sink_errors_total) and the campaign keeps
	// running — losing a snapshot degrades crash durability, not the
	// run. The sink must not retain artifact after returning: the
	// worker encodes later snapshots — this campaign's or a later
	// one's — into the same memory. A sink that keeps the bytes copies
	// them.
	CheckpointSink func(tenant, name string, artifact []byte) error
	// Telemetry, when non-nil, receives the sched_* metrics and every
	// campaign's hot-path yarrp_* metrics.
	Telemetry *telemetry.Registry
}

// The fixed supervision policy. The watchdog samples each running
// campaign's heartbeat every watchdogPoll; failover attempt k backs off
// min(backoffBase << (k-1), backoffMax); a vantage's breaker opens after
// breakerThreshold consecutive failures and half-opens breakerCooldown
// later.
const (
	watchdogPoll     = 10 * time.Millisecond
	backoffBase      = 10 * time.Millisecond
	backoffMax       = 500 * time.Millisecond
	breakerThreshold = 3
	breakerCooldown  = time.Second
)

// clock is the supervision clock: every policy time read — the
// watchdog's poll and stall age, the checkpoint cadence, the failover
// backoff and the breaker cooldown — goes through it. New passes the
// system clock; tests advance a fake one.
type clock interface {
	now() time.Time
	// timer arms a timer whose channel receives the time once d has
	// elapsed.
	timer(d time.Duration) timer
}

// timer is one supervision timer. A timer whose time was received can
// be re-armed, so a watchdog that polls all attempt long holds one.
type timer interface {
	c() <-chan time.Time
	// reset re-arms the timer to fire d from now; call it only after
	// the previous time was received.
	reset(d time.Duration)
	// stop releases the timer early.
	stop()
}

type systemClock struct{}

func (systemClock) now() time.Time { return time.Now() }

func (systemClock) timer(d time.Duration) timer { return systemTimer{time.NewTimer(d)} }

type systemTimer struct{ t *time.Timer }

func (t systemTimer) c() <-chan time.Time   { return t.t.C }
func (t systemTimer) reset(d time.Duration) { t.t.Reset(d) }
func (t systemTimer) stop()                 { t.t.Stop() }

func (o *Options) setDefaults() error {
	if len(o.Tenants) == 0 {
		return errors.New("sched: no tenants configured")
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 32
	}
	if o.StallBudget <= 0 {
		o.StallBudget = 2 * time.Second
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 2
	}
	return nil
}

// CampaignSpec is one submitted campaign: the engine's own probing
// block, with the supervisor owning sharding, deadlines, and retry
// policy around it.
type CampaignSpec struct {
	// Tenant names the submitting tenant (must be configured).
	Tenant string
	// Name identifies the campaign within the tenant; (Tenant, Name)
	// must be unique among active campaigns.
	Name string
	// Vantage names the vantage to probe from; the Opener resolves it.
	// It is also the circuit-breaker key and the campaign tag prefix
	// fault rules address (Tag).
	Vantage string
	// Config is the probing block handed to the campaign as it is (zero
	// values pick the core defaults; PPS zero means core.DefaultPPS,
	// which is also what admission charges). The campaign
	// owns the permutation split and the observers: PermStart, PermEnd
	// and Observer must stay zero.
	core.Config
	// Shards is the number of concurrent prober instances. Default 1.
	Shards int
	// Deadline, when nonzero, interrupts the campaign at that virtual
	// instant (relative to the campaign epoch) and degrades it to
	// StateIncomplete with reason "deadline".
	Deadline time.Duration
	// Stream, when non-nil, receives the tenant's NDJSON stream: lifecycle
	// events (Event), checkpoint events with the cumulative probe and reply
	// counts, and — once, when the campaign completes — its progress
	// series, the sample and summary records of
	// core.CampaignConfig.ProgressWriter, byte-identical to the bare
	// campaign's at any shard count and however many checkpoints and
	// failovers it went through. Every campaign records its progress, so
	// a resumed one streams it whether or not the run it continues had a
	// stream. Writes are serialized; the writer itself need not be
	// concurrency-safe.
	Stream io.Writer
	// Resume, when non-nil, is a checkpoint artifact to continue
	// instead of starting fresh — the restart half of a drained
	// supervisor. The artifact supplies targets and tuning; the spec
	// supplies tenant, vantage, stream, and policy.
	Resume []byte
	// Admit, when non-nil, runs once every admission check has passed
	// and before the campaign is queued, while its tag, rate and queue
	// slot are reserved: an error rejects the submission with that
	// error, admitting nothing.
	Admit func() error
}

// Tag returns the campaign tag fault rules address: tenant-qualified
// so two tenants' same-named campaigns stay distinct.
func (s *CampaignSpec) Tag() string { return s.Tenant + "/" + s.Name }

// State is a campaign's lifecycle position.
type State uint8

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = iota
	// StateRunning: probing (or failing over between attempts).
	StateRunning
	// StateCompleted: ran to completion; the store is final. The run
	// may still have been degraded by shard quarantine — Stats says.
	StateCompleted
	// StateIncomplete: terminated without completing — deadline,
	// watchdog-retry exhaustion, open breaker, or a fatal error.
	// Partial results are retained.
	StateIncomplete
	// StateDrained: shut down gracefully to a checkpoint artifact (or,
	// for never-started campaigns, to its spec) for a future
	// supervisor to resume.
	StateDrained
)

// String names the state for status reports and stream events.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateIncomplete:
		return "incomplete"
	case StateDrained:
		return "drained"
	}
	return "unknown"
}

// Typed admission rejections. Submit returns exactly one of these (or
// an artifact-validation error) when it refuses a spec.
var (
	ErrQueueFull     = errors.New("sched: admission queue full")
	ErrUnknownTenant = errors.New("sched: unknown tenant")
	ErrRateBudget    = errors.New("sched: tenant rate budget exceeded")
	ErrDraining      = errors.New("sched: supervisor is draining")
	ErrDuplicate     = errors.New("sched: tenant already has an active campaign with this name")
	ErrBreakerOpen   = errors.New("sched: vantage circuit breaker is open")
)

// Result is a finished campaign's outcome.
type Result struct {
	Tenant   string
	Campaign string
	State    State
	// Reason qualifies non-completed states: "deadline",
	// "watchdog-exhausted", "breaker-open", "open-failed", "fatal",
	// "drained", "drained-queued".
	Reason string
	// Store and Stats are the merged results (partial for Incomplete,
	// nil for queued-drained campaigns). The campaign's topology graph is
	// graph.FromStore of Store, built by whoever reads it.
	Store *probe.Store
	Stats core.CampaignStats
	// Retries counts watchdog failovers performed.
	Retries int
	// Artifact is the drain checkpoint (StateDrained only; nil when
	// the campaign never started).
	Artifact []byte
	// Err is the terminal error for "fatal"/"open-failed" outcomes.
	Err error
}

// Handle tracks one admitted campaign.
type Handle struct {
	spec CampaignSpec
	done chan struct{}

	mu  sync.Mutex
	res *Result
}

// Spec returns the submitted spec (Resume artifact elided).
func (h *Handle) Spec() CampaignSpec {
	sp := h.spec
	sp.Resume = nil
	return sp
}

// Done is closed when the campaign reaches a terminal state.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Result returns the terminal outcome, nil while the campaign is live.
func (h *Handle) Result() *Result {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res
}

// Wait blocks until the campaign terminates or ctx expires.
func (h *Handle) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-h.done:
		return h.Result(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Drained is one campaign surviving a graceful shutdown: a checkpoint
// artifact for interrupted runs, or just the spec for campaigns that
// never started. Resubmitting the spec (with Resume set to Artifact
// when present) to a fresh supervisor continues the campaign.
type Drained struct {
	Spec     CampaignSpec
	Artifact []byte
}

// CampaignStatus is one live or terminal campaign's status line.
type CampaignStatus struct {
	Tenant   string
	Campaign string
	Vantage  string
	State    State
	Reason   string
	Retries  int
}

// tenantState is a tenant's live admission ledger.
type tenantState struct {
	cfg      Tenant
	admitted float64 // summed rate of queued+running campaigns
	inflight int     // queued+running campaign count
	running  int     // running campaign count (fair-share key)
}

// job is one admitted campaign's supervision state.
type job struct {
	seq     uint64
	spec    CampaignSpec
	rate    float64 // probing rate charged to the tenant's RateBudget
	h       *Handle
	st      *stream
	state   State
	reason  string
	retries int
	// camp is the live campaign of the current attempt, for Drain and
	// watchdog interrupts.
	camp atomic.Pointer[core.Campaign]
}

// schedMetrics bundles the supervisor's telemetry instruments; all nil
// when no registry is configured — nil instruments swallow their writes.
type schedMetrics struct {
	submitted, rejected, completed, incomplete *telemetry.Counter
	drained, retries, watchdog, breakerOpened  *telemetry.Counter
	checkpoints, ckptSinkErrors                *telemetry.Counter
	queueDepth, running, ckptBytes             *telemetry.Gauge
	ckptEncode, ckptSink                       *telemetry.Histogram
}

// ckptBucketsUSec buckets the wall time of one snapshot's encode and of
// its sink call, in microseconds.
var ckptBucketsUSec = []int64{100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000}

// Supervisor is the multi-tenant campaign scheduler. Create with New,
// submit with Submit, shut down with Drain.
type Supervisor struct {
	open    Opener
	opt     Options
	clock   clock
	breaker *breakerSet
	met     schedMetrics
	tel     *telemetry.Registry

	mu        sync.Mutex
	cond      *sync.Cond
	tenants   map[string]*tenantState
	active    map[string]*job // Tag() -> live job
	all       []*job          // every job ever admitted, submission order
	queue     []*job
	admitting int // submissions running CampaignSpec.Admit, each holding a queue slot
	nextSeq   uint64
	draining  bool
	stopping  bool

	drainCh chan struct{} // closed when draining starts
	wg      sync.WaitGroup
}

// New validates the options and starts the worker pool; open builds
// every campaign attempt's connections.
func New(open Opener, opt Options) (*Supervisor, error) {
	return newSupervisor(open, opt, systemClock{})
}

// newSupervisor is New on a given supervision clock.
func newSupervisor(open Opener, opt Options, clk clock) (*Supervisor, error) {
	if err := opt.setDefaults(); err != nil {
		return nil, err
	}
	s := &Supervisor{
		open:    open,
		opt:     opt,
		clock:   clk,
		breaker: newBreakerSet(clk),
		tel:     opt.Telemetry,
		tenants: make(map[string]*tenantState),
		active:  make(map[string]*job),
		drainCh: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	for _, t := range opt.Tenants {
		if t.Name == "" {
			return nil, errors.New("sched: tenant with empty name")
		}
		if _, dup := s.tenants[t.Name]; dup {
			return nil, fmt.Errorf("sched: duplicate tenant %q", t.Name)
		}
		s.tenants[t.Name] = &tenantState{cfg: t}
	}
	if r := opt.Telemetry; r != nil {
		s.met = schedMetrics{
			submitted:      r.Counter("sched_submitted_total"),
			rejected:       r.Counter("sched_rejected_total"),
			completed:      r.Counter("sched_completed_total"),
			incomplete:     r.Counter("sched_incomplete_total"),
			drained:        r.Counter("sched_drained_total"),
			retries:        r.Counter("sched_retries_total"),
			watchdog:       r.Counter("sched_watchdog_interrupts_total"),
			breakerOpened:  r.Counter("sched_breaker_open_total"),
			checkpoints:    r.Counter("sched_checkpoints_total"),
			ckptSinkErrors: r.Counter("sched_checkpoint_sink_errors_total"),
			queueDepth:     r.Gauge("sched_queue_depth"),
			running:        r.Gauge("sched_running"),
			ckptBytes:      r.Gauge("sched_checkpoint_bytes"),
			ckptEncode:     r.Histogram("sched_checkpoint_encode_usec", ckptBucketsUSec),
			ckptSink:       r.Histogram("sched_checkpoint_sink_usec", ckptBucketsUSec),
		}
	}
	s.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Submit admits one campaign, or rejects it with a typed error:
// ErrDraining, ErrUnknownTenant, ErrDuplicate, ErrBreakerOpen,
// ErrRateBudget, ErrQueueFull, the engine's configuration error for an
// unrunnable probing block, or an artifact-validation error for
// unusable Resume artifacts.
func (s *Supervisor) Submit(spec CampaignSpec) (*Handle, error) {
	// Validate up front so an unrunnable spec or a corrupt checkpoint is
	// an admission failure, not a late worker-side surprise. A resumed
	// campaign's probing block — its rate included — is the artifact's.
	var err error
	rate := spec.PPS
	if spec.Resume != nil {
		var info core.CheckpointInfo
		info, err = core.InspectCheckpoint(spec.Resume)
		rate = info.PPS
	} else {
		err = spec.Config.Validate()
	}
	if err != nil {
		s.reject()
		return nil, err
	}
	if rate <= 0 {
		rate = core.DefaultPPS
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopping {
		s.reject()
		return nil, ErrDraining
	}
	ts := s.tenants[spec.Tenant]
	if ts == nil {
		s.reject()
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, spec.Tenant)
	}
	if _, dup := s.active[spec.Tag()]; dup {
		s.reject()
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, spec.Tag())
	}
	if s.breaker.state(spec.Vantage) == BreakerOpen {
		// A closed (or half-open) breaker admits to the queue; the
		// half-open trial slot is claimed at dispatch, not here.
		s.reject()
		return nil, fmt.Errorf("%w: %s", ErrBreakerOpen, spec.Vantage)
	}
	if b := ts.cfg.RateBudget; b > 0 && ts.admitted+rate > b {
		s.reject()
		return nil, fmt.Errorf("%w: tenant %s at %.0f of %.0f pps", ErrRateBudget, spec.Tenant, ts.admitted, b)
	}
	if len(s.queue)+s.admitting >= s.opt.QueueLimit {
		s.reject()
		return nil, ErrQueueFull
	}

	j := &job{
		spec:  spec,
		rate:  rate,
		h:     &Handle{spec: spec, done: make(chan struct{})},
		st:    newStream(spec.Stream),
		state: StateQueued,
	}
	// The campaign's tag, rate and queue slot are reserved from here, so
	// admit can run unlocked.
	ts.admitted += rate
	ts.inflight++
	s.active[spec.Tag()] = j
	if spec.Admit != nil {
		s.admitting++
		s.mu.Unlock()
		err := spec.Admit()
		s.mu.Lock()
		s.admitting--
		s.cond.Broadcast() // for a Drain waiting on admissions
		if err != nil {
			ts.admitted -= rate
			ts.inflight--
			delete(s.active, spec.Tag())
			s.reject()
			return nil, err
		}
	}
	j.seq = s.nextSeq
	s.nextSeq++
	s.all = append(s.all, j)
	s.queue = append(s.queue, j)
	s.met.submitted.Inc()
	s.met.queueDepth.Set(int64(len(s.queue)))
	if s.tel != nil {
		s.tel.Counter("sched_tenant_submitted_total_" + spec.Tenant).Inc()
	}
	j.st.event(Event{Event: "submitted", Tenant: spec.Tenant, Campaign: spec.Name})
	s.cond.Signal()
	return j.h, nil
}

func (s *Supervisor) reject() {
	s.met.rejected.Inc()
}

// Status reports every admitted campaign in submission order.
func (s *Supervisor) Status() []CampaignStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CampaignStatus, 0, len(s.all))
	for _, j := range s.all {
		out = append(out, CampaignStatus{
			Tenant:   j.spec.Tenant,
			Campaign: j.spec.Name,
			Vantage:  j.spec.Vantage,
			State:    j.state,
			Reason:   j.reason,
			Retries:  j.retries,
		})
	}
	return out
}

// BreakerState reports a vantage's circuit-breaker position.
func (s *Supervisor) BreakerState(vantage string) BreakerState {
	return s.breaker.state(vantage)
}

// nextLocked picks the job to dispatch — a pure function of the queue
// contents, so dispatch order is deterministic whatever the goroutine
// interleaving that produced the queue: highest tenant priority first,
// then the tenant with the fewest running campaigns (fair share), then
// submission order.
func (s *Supervisor) nextLocked() int {
	best := -1
	for i, j := range s.queue {
		if best < 0 {
			best = i
			continue
		}
		b := s.queue[best]
		tp, bp := s.tenants[j.spec.Tenant], s.tenants[b.spec.Tenant]
		switch {
		case tp.cfg.Priority != bp.cfg.Priority:
			if tp.cfg.Priority > bp.cfg.Priority {
				best = i
			}
		case tp.running != bp.running:
			if tp.running < bp.running {
				best = i
			}
		case j.seq < b.seq:
			best = i
		}
	}
	return best
}

// worker pulls and runs campaigns until the supervisor stops. Its
// checkpoint memory outlives each campaign, so the next one encodes its
// snapshots into memory the last one grew.
func (s *Supervisor) worker() {
	defer s.wg.Done()
	var spare []byte
	for {
		s.mu.Lock()
		for !s.stopping && (s.draining || len(s.queue) == 0) {
			s.cond.Wait()
		}
		if s.stopping {
			s.mu.Unlock()
			return
		}
		i := s.nextLocked()
		j := s.queue[i]
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		j.state = StateRunning
		ts := s.tenants[j.spec.Tenant]
		ts.running++
		s.met.queueDepth.Set(int64(len(s.queue)))
		s.met.running.Set(s.runningLocked())
		s.mu.Unlock()
		s.runJob(j, &spare)
	}
}

func (s *Supervisor) runningLocked() int64 {
	var n int64
	for _, ts := range s.tenants {
		n += int64(ts.running)
	}
	return n
}

func (s *Supervisor) isDraining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// campaignConfig maps a spec onto the core campaign configuration: a
// campaign with a tenant stream records its progress series and writes
// it there.
func (s *Supervisor) campaignConfig(j *job) core.CampaignConfig {
	sp := &j.spec
	cfg := core.CampaignConfig{
		Config:      sp.Config,
		Shards:      sp.Shards,
		RecordPaths: true,
		Telemetry:   s.tel,
		InterruptAt: sp.Deadline,
	}
	if j.st != nil {
		cfg.ProgressWriter = j.st
	}
	return cfg
}

// resumeConfig is campaignConfig's counterpart for continuations — a
// failover or resubmission from an artifact, or a periodic checkpoint's
// in-process rewind.
func (s *Supervisor) resumeConfig(j *job) core.ResumeConfig {
	rc := core.ResumeConfig{Telemetry: s.tel, InterruptAt: j.spec.Deadline}
	if j.st != nil {
		rc.ProgressWriter = j.st
	}
	return rc
}

// runJob drives one campaign through its attempts: run, and on a
// watchdog interrupt checkpoint → back off → resume on fresh
// connections, bounded by the retry budget. Checkpoints encode into
// *spare, the running worker's memory. A periodic snapshot goes back
// into it once its sink has returned, since the continuation is handed
// over in-process and nothing else references it; an artifact that
// escapes — a drain's Result.Artifact, or a watchdog failover's, which
// core.Resume may alias — never does. A campaign stopped by its own
// deadline encodes nothing: no path resumes it.
func (s *Supervisor) runJob(j *job, spare *[]byte) {
	if !s.breaker.admit(j.spec.Vantage) {
		// The vantage's breaker opened (or its half-open trial slot was
		// claimed) while this campaign sat queued.
		s.finalize(j, &Result{State: StateIncomplete, Reason: "breaker-open"})
		return
	}
	artifact := j.spec.Resume
	var rewound *core.Campaign
	attempt := 0
	for {
		attempt++
		var camp *core.Campaign
		if rewound != nil {
			// Periodic-checkpoint continuation handed over in-process; the
			// durable artifact was persisted but needs no decoding.
			camp, rewound = rewound, nil
		} else {
			factory, err := s.open(&j.spec)
			if err != nil {
				s.breakerFailure(j)
				s.finalize(j, &Result{State: StateIncomplete, Reason: "open-failed", Err: err})
				return
			}
			if artifact == nil {
				camp = core.NewCampaign(s.campaignConfig(j), factory)
			} else {
				camp, err = core.Resume(artifact, s.resumeConfig(j), factory)
				if err != nil {
					s.breakerFailure(j)
					s.finalize(j, &Result{State: StateIncomplete, Reason: "fatal", Err: err})
					return
				}
			}
		}
		j.camp.Store(camp)
		if s.isDraining() {
			// Drain may have started between dispatch and campaign
			// construction; interrupting before Run makes the very first
			// stop poll capture, keeping the drain bounded.
			camp.Interrupt()
		}
		j.st.event(Event{Event: "started", Tenant: j.spec.Tenant, Campaign: j.spec.Name, Attempt: attempt})

		store, stats, runErr, fired, ckptReq := s.runAttempt(camp)
		switch {
		case runErr == nil:
			res := &Result{State: StateCompleted, Store: store, Stats: stats}
			if len(stats.Quarantined) > 0 || len(stats.Incomplete) > 0 {
				// Completed through shard restarts: the result stands, but
				// the vantage misbehaved — that history feeds the breaker.
				s.breakerFailure(j)
			} else {
				s.breaker.success(j.spec.Vantage)
			}
			s.finalize(j, res)
			return

		case errors.Is(runErr, core.ErrInterrupted):
			// An interrupted run returns no store: the terminal paths fold
			// it on demand (MergedStore), and the periodic continuation
			// below skips the fold entirely.
			if !fired && !ckptReq && !s.isDraining() {
				// The campaign's own virtual deadline fired: nothing
				// resumes from here, so no artifact is encoded and the
				// worker's memory stays with it.
				s.finalize(j, &Result{State: StateIncomplete, Reason: "deadline", Store: camp.MergedStore(), Stats: stats})
				return
			}
			encStart := time.Now()
			art, ckErr := camp.AppendCheckpoint((*spare)[:0])
			*spare = nil
			if ckErr != nil {
				s.breakerFailure(j)
				s.finalize(j, &Result{State: StateIncomplete, Reason: "fatal", Store: camp.MergedStore(), Stats: stats, Err: ckErr})
				return
			}
			s.met.ckptEncode.Observe(time.Since(encStart).Microseconds())
			s.met.ckptBytes.Set(int64(len(art)))
			switch {
			case s.isDraining():
				s.finalize(j, &Result{State: StateDrained, Reason: "drained", Store: camp.MergedStore(), Stats: stats, Artifact: art})
				return
			case fired:
				s.met.watchdog.Inc()
				if j.retries >= s.opt.MaxRetries {
					s.breakerFailure(j)
					s.finalize(j, &Result{State: StateIncomplete, Reason: "watchdog-exhausted", Store: camp.MergedStore(), Stats: stats})
					return
				}
				j.retries++
				s.met.retries.Inc()
				j.st.event(Event{Event: "retry", Tenant: j.spec.Tenant, Campaign: j.spec.Name, Attempt: attempt, Reason: "watchdog"})
				if s.backoff(j.retries) {
					// Drain began during the backoff; the checkpoint in
					// hand is the drain artifact.
					s.finalize(j, &Result{State: StateDrained, Reason: "drained", Store: camp.MergedStore(), Stats: stats, Artifact: art})
					return
				}
				artifact = art
				continue
			default:
				// Periodic snapshot: persist the artifact and resume the
				// same attempt loop. This is not a failover — no retry is
				// consumed and no backoff is taken; the continuation picks
				// up from the exact probe boundary, so the final result
				// stays byte-identical to an uninterrupted run.
				s.met.checkpoints.Inc()
				if s.opt.CheckpointSink != nil {
					sinkStart := time.Now()
					err := s.opt.CheckpointSink(j.spec.Tenant, j.spec.Name, art)
					s.met.ckptSink.Observe(time.Since(sinkStart).Microseconds())
					if err != nil {
						s.met.ckptSinkErrors.Inc()
					}
				}
				j.st.event(Event{Event: "checkpoint", Tenant: j.spec.Tenant, Campaign: j.spec.Name, Attempt: attempt,
					Probes: stats.ProbesSent, Replies: stats.Replies})
				// Continue in-process: the artifact already hit the sink,
				// so the continuation skips the decode round trip.
				factory, ferr := s.open(&j.spec)
				if ferr != nil {
					s.breakerFailure(j)
					s.finalize(j, &Result{State: StateIncomplete, Reason: "open-failed", Err: ferr})
					return
				}
				next, rwErr := camp.Rewind(s.resumeConfig(j), factory)
				if rwErr != nil {
					s.breakerFailure(j)
					s.finalize(j, &Result{State: StateIncomplete, Reason: "fatal", Store: camp.MergedStore(), Stats: stats, Err: rwErr})
					return
				}
				rewound, *spare = next, art
				continue
			}

		default:
			s.breakerFailure(j)
			s.finalize(j, &Result{State: StateIncomplete, Reason: "fatal", Store: store, Stats: stats, Err: runErr})
			return
		}
	}
}

// runAttempt runs the campaign while the watchdog samples its
// heartbeat; fired reports whether the watchdog interrupted it, and
// ckptReq that the periodic-checkpoint timer did. At most one of the
// two interrupt sources claims an attempt: the checkpoint timer
// defers to a watchdog that has already fired, and vice versa.
func (s *Supervisor) runAttempt(camp *core.Campaign) (store *probe.Store, stats core.CampaignStats, err error, fired, ckptReq bool) {
	type runOut struct {
		store *probe.Store
		stats core.CampaignStats
		err   error
	}
	// The timers are armed before the run starts, so the checkpoint
	// interval and the stall age count from the attempt's first probe.
	// The poll timer is re-armed after each poll: one per attempt.
	poll := s.clock.timer(watchdogPoll)
	defer poll.stop()
	var ckptCh <-chan time.Time
	if s.opt.CheckpointEvery > 0 {
		ckpt := s.clock.timer(s.opt.CheckpointEvery)
		defer ckpt.stop()
		ckptCh = ckpt.c()
	}
	lastBeat := camp.Beat()
	lastMove := s.clock.now()
	done := make(chan runOut, 1)
	go func() {
		st, cs, e := camp.Run()
		done <- runOut{st, cs, e}
	}()
	for {
		select {
		case out := <-done:
			return out.store, out.stats, out.err, fired, ckptReq
		case <-ckptCh:
			// Periodic snapshot: interrupt at the next probe boundary;
			// runJob checkpoints and resumes. One snapshot per attempt —
			// the resumed attempt restarts the interval. A draining or
			// already-stalled attempt is left to its own path.
			if !fired && !ckptReq && !s.isDraining() {
				ckptReq = true
				camp.Interrupt()
			}
		case now := <-poll.c():
			if b := camp.Beat(); b != lastBeat {
				lastBeat, lastMove = b, now
			} else if !fired && !ckptReq && now.Sub(lastMove) >= s.opt.StallBudget {
				// No stop poll within the budget: the campaign is wedged
				// (or its connections are wall-blocked). Interrupt takes
				// effect at the next boundary the prober reaches; until
				// then we keep waiting — the run owns its goroutines.
				fired = true
				camp.Interrupt()
			}
			poll.reset(watchdogPoll)
		}
	}
}

// backoff sleeps the capped exponential failover delay; the return
// value reports that a drain started and the retry must not happen.
func (s *Supervisor) backoff(retry int) bool {
	d := backoffBase << (retry - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	elapsed := s.clock.timer(d)
	defer elapsed.stop()
	select {
	case <-elapsed.c():
		return s.isDraining()
	case <-s.drainCh:
		return true
	}
}

func (s *Supervisor) breakerFailure(j *job) {
	if s.breaker.failure(j.spec.Vantage) {
		s.met.breakerOpened.Inc()
	}
}

// finalize publishes a job's terminal result and releases its
// admission reservations.
func (s *Supervisor) finalize(j *job, res *Result) {
	res.Tenant = j.spec.Tenant
	res.Campaign = j.spec.Name
	res.Retries = j.retries

	s.mu.Lock()
	wasRunning := j.state == StateRunning
	j.state = res.State
	j.reason = res.Reason
	ts := s.tenants[j.spec.Tenant]
	ts.admitted -= j.rate
	ts.inflight--
	if wasRunning {
		ts.running--
	}
	delete(s.active, j.spec.Tag())
	s.met.running.Set(s.runningLocked())
	s.mu.Unlock()

	switch res.State {
	case StateCompleted:
		s.met.completed.Inc()
		if s.tel != nil {
			s.tel.Counter("sched_tenant_completed_total_" + j.spec.Tenant).Inc()
		}
	case StateIncomplete:
		s.met.incomplete.Inc()
	case StateDrained:
		s.met.drained.Inc()
	}
	ev := Event{Event: res.State.String(), Tenant: j.spec.Tenant, Campaign: j.spec.Name, Reason: res.Reason}
	if res.Store != nil && j.st != nil {
		// Only the terminal event reads the graph: a campaign without a
		// stream leaves it to whoever reads its store. A result with a
		// store comes from a live campaign.
		g := graph.FromStore(res.Store, j.spec.Vantage, j.camp.Load().Proto())
		ev.Probes = res.Stats.ProbesSent
		ev.Replies = res.Stats.Replies
		ev.Nodes = g.NumNodes()
		ev.Edges = g.NumEdges()
	}
	j.st.event(ev)

	j.h.mu.Lock()
	j.h.res = res
	j.h.mu.Unlock()
	close(j.h.done)
}

// Drain shuts the supervisor down gracefully: new submissions are
// rejected with ErrDraining, running campaigns are interrupted and
// checkpointed, queued campaigns are returned as bare specs, and the
// worker pool exits. The returned Drained list, resubmitted to a fresh
// supervisor (Artifact as Resume), continues every campaign
// byte-identically. Drain is terminal — the supervisor cannot be
// reused — and returns ctx.Err if the context expires first.
func (s *Supervisor) Drain(ctx context.Context) ([]Drained, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.draining = true
	close(s.drainCh)
	for s.admitting > 0 {
		s.cond.Wait() // an admitted campaign is queued before the drain
	}
	queued := s.queue
	s.queue = nil
	s.met.queueDepth.Set(0)
	var live []*job
	for _, j := range s.all {
		if j.state == StateRunning {
			live = append(live, j)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	var out []Drained
	for _, j := range queued {
		s.finalize(j, &Result{State: StateDrained, Reason: "drained-queued"})
		out = append(out, Drained{Spec: j.h.Spec()})
	}
	for _, j := range live {
		if c := j.camp.Load(); c != nil {
			c.Interrupt()
		}
	}
	for _, j := range live {
		select {
		case <-j.h.Done():
		case <-ctx.Done():
			return out, ctx.Err()
		}
		if res := j.h.Result(); res.State == StateDrained && res.Artifact != nil {
			sp := j.h.Spec()
			out = append(out, Drained{Spec: sp, Artifact: res.Artifact})
		}
	}

	s.mu.Lock()
	s.stopping = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	return out, nil
}
