package beholder

// Campaign supervision through the facade: a Scheduler multiplexes many
// tenants' Yarrp6 campaigns over one Internet, adding admission control,
// per-tenant rate budgets, deterministic dispatch, watchdog failover
// from checkpoints, and per-vantage circuit breaking on top of the
// single-campaign RunYarrp6 path. See DESIGN.md "Campaign supervision".

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"time"

	"beholder/internal/core"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/sched"
)

// Tenant declares one rate-accounted user of a Scheduler.
type Tenant = sched.Tenant

// CampaignHandle tracks one admitted campaign; wait on Done or Wait and
// read the terminal CampaignResult.
type CampaignHandle = sched.Handle

// CampaignResult is a supervised campaign's terminal outcome.
type CampaignResult = sched.Result

// CampaignEvent is one NDJSON record on a tenant's result stream.
type CampaignEvent = sched.Event

// CampaignStatus is one campaign's status line from Scheduler.Status.
type CampaignStatus = sched.CampaignStatus

// DrainedCampaign is one campaign surviving a graceful shutdown.
type DrainedCampaign = sched.Drained

// CampaignState is a supervised campaign's lifecycle position.
type CampaignState = sched.State

// Supervised-campaign lifecycle states.
const (
	CampaignQueued     = sched.StateQueued
	CampaignRunning    = sched.StateRunning
	CampaignCompleted  = sched.StateCompleted
	CampaignIncomplete = sched.StateIncomplete
	CampaignDrained    = sched.StateDrained
)

// Typed admission rejections returned by Scheduler.Submit.
var (
	ErrQueueFull     = sched.ErrQueueFull
	ErrUnknownTenant = sched.ErrUnknownTenant
	ErrRateBudget    = sched.ErrRateBudget
	ErrDraining      = sched.ErrDraining
	ErrDuplicate     = sched.ErrDuplicate
	ErrBreakerOpen   = sched.ErrBreakerOpen
)

// SchedulerOptions parameterizes a Scheduler. Zero values pick the
// supervisor defaults (2 workers, queue of 32, 2s stall budget, 2
// failover retries, breaker tripping after 3 consecutive failures).
type SchedulerOptions struct {
	// Tenants lists the admissible tenants. Required.
	Tenants []Tenant
	// Workers is the number of campaigns run concurrently.
	Workers int
	// QueueLimit bounds the admitted-but-not-running queue.
	QueueLimit int
	// StallBudget is how long a campaign's heartbeat may sit still
	// (wall clock) before the watchdog interrupts it and fails over
	// from the checkpoint; WatchdogPoll is the sampling cadence.
	StallBudget  time.Duration
	WatchdogPoll time.Duration
	// MaxRetries bounds watchdog failovers per campaign.
	MaxRetries int
	// BreakerThreshold and BreakerCooldown shape the per-vantage
	// circuit breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// CheckpointEvery, when positive, periodically interrupts each
	// running campaign at a probe boundary, hands its checkpoint
	// artifact to CheckpointSink, and resumes it — bounding what a
	// process crash can lose to one interval of virtual progress.
	// Results stay byte-identical to an uninterrupted run. Zero means
	// drain-only snapshots.
	CheckpointEvery time.Duration
	// CheckpointSink receives each periodic checkpoint artifact. Sink
	// errors are counted in telemetry and do not stop the campaign. The
	// sink must not retain artifact after returning — the scheduler
	// encodes later snapshots, this campaign's or the next one's, into
	// the same memory — so one that keeps the bytes copies them.
	CheckpointSink func(tenant, name string, artifact []byte) error
	// SendDelay, when positive, wall-delays every connection send
	// batch by that much. Virtual time — and therefore every result
	// byte — is untouched; the knob only stretches a campaign's
	// wall-clock footprint so crash/kill harnesses (and cautious
	// operators) get a window to interrupt it mid-flight. A shard's
	// heartbeat moves once per 64 send runs, so keep 64 × SendDelay well
	// under StallBudget or the watchdog reads the throttle as a stall.
	SendDelay time.Duration
	// Telemetry, when non-nil, receives sched_* supervisor metrics and
	// the campaigns' hot-path yarrp_* metrics.
	Telemetry *TelemetryRegistry
}

// SubmitOptions parameterizes one supervised campaign. The probing
// options mirror YarrpOptions; the supervisor owns deadlines, retry
// policy, and result streaming around them.
type SubmitOptions struct {
	// Tenant names the submitting tenant; Name identifies the campaign
	// within it. (Tenant, Name) must be unique among active campaigns.
	Tenant string
	Name   string
	// Rate, MaxTTL, Transport, Fill, Key, Shards, Batch as in
	// YarrpOptions.
	Rate      float64
	MaxTTL    int
	Transport string
	Fill      bool
	Key       uint64
	Shards    int
	Batch     int
	// Deadline, when positive, interrupts the campaign at that instant
	// of campaign virtual time and degrades it to CampaignIncomplete.
	Deadline time.Duration
	// Stream, when non-nil, receives the tenant's NDJSON stream:
	// lifecycle records (CampaignEvent; checkpoint records carry the
	// cumulative probe and reply counts) and, once the campaign completes,
	// its progress series — the sample and summary records
	// YarrpOptions.Progress writes for the same campaign run bare,
	// byte for byte.
	Stream io.Writer
	// Resume, when non-nil, continues a drained campaign from its
	// checkpoint artifact instead of starting fresh; the artifact
	// supplies targets and tuning, and its rate is what the tenant's
	// RateBudget is charged.
	Resume []byte
}

// Scheduler is a multi-tenant campaign supervisor over one Internet.
// Create with Internet.NewScheduler, submit with Submit, shut down with
// Drain. A vantage handed to Submit belongs to the scheduler for the
// campaign's duration — do not drive RunYarrp6 on it concurrently.
type Scheduler struct {
	in  *Internet
	sup *sched.Supervisor

	// sendDelay is SchedulerOptions.SendDelay: a wall-only throttle
	// wrapped around every shard connection.
	sendDelay time.Duration

	// mu serializes all shared-vantage mutation: concurrent campaigns'
	// connection factories interleave arbitrarily (initial shards,
	// recovery shards, failover resumes), and each clone bumps parent
	// shard-group state.
	mu       sync.Mutex
	vantages map[string]*netsim.Vantage
}

// NewScheduler starts a campaign supervisor over this internetwork.
func (in *Internet) NewScheduler(opt SchedulerOptions) (*Scheduler, error) {
	s := &Scheduler{in: in, vantages: make(map[string]*netsim.Vantage), sendDelay: opt.SendDelay}
	var sink func(spec *sched.CampaignSpec, artifact []byte) error
	if opt.CheckpointSink != nil {
		userSink := opt.CheckpointSink
		sink = func(spec *sched.CampaignSpec, artifact []byte) error {
			return userSink(spec.Tenant, spec.Name, artifact)
		}
	}
	sup, err := sched.New(sched.Config{
		Opener:           s.open,
		Tenants:          opt.Tenants,
		Workers:          opt.Workers,
		QueueLimit:       opt.QueueLimit,
		WatchdogPoll:     opt.WatchdogPoll,
		StallBudget:      opt.StallBudget,
		MaxRetries:       opt.MaxRetries,
		BreakerThreshold: opt.BreakerThreshold,
		BreakerCooldown:  opt.BreakerCooldown,
		CheckpointEvery:  opt.CheckpointEvery,
		CheckpointSink:   sink,
		Telemetry:        opt.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	s.sup = sup
	return s, nil
}

// throttledConn wall-delays sends while leaving virtual time — and so
// every result byte — untouched. The embedded vantage keeps the
// optional conn capabilities (priming, reply injection, sim-state
// checkpointing) visible to the prober's interface assertions.
type throttledConn struct {
	*netsim.Vantage
	delay time.Duration
}

func (c *throttledConn) Send(pkt []byte) error {
	time.Sleep(c.delay)
	return c.Vantage.Send(pkt)
}

func (c *throttledConn) SendBatch(pkts [][]byte, gap time.Duration) (int, bool, error) {
	time.Sleep(c.delay)
	return c.Vantage.SendBatch(pkts, gap)
}

// open is the supervisor's per-attempt connection factory builder. It
// pins the campaign's epoch to virtual zero: a campaign-tagged parent
// clone opens at 0, and every shard connection — fresh, recovery, or
// resumed — clones from it at the campaign-relative start offset. This
// is what makes a supervised campaign's results byte-identical to the
// same campaign run bare, however many tenants run beside it and
// however many failovers it survives.
func (s *Scheduler) open(spec *sched.CampaignSpec) (core.ConnFactory, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	root := s.vantages[spec.Vantage]
	if root == nil {
		return nil, fmt.Errorf("beholder: scheduler has no vantage %q", spec.Vantage)
	}
	root.BeginShardGroup()
	p := root.Clone(0)
	p.SetCampaign(spec.Tag())
	p.BeginShardGroup()
	return func(_ int, start time.Duration) probe.Conn {
		s.mu.Lock()
		defer s.mu.Unlock()
		c := p.Clone(start)
		if s.sendDelay > 0 {
			return &throttledConn{Vantage: c, delay: s.sendDelay}
		}
		return c
	}, nil
}

// Submit admits one campaign probing targets from v, or rejects it with
// one of the typed admission errors (ErrQueueFull, ErrUnknownTenant,
// ErrRateBudget, ErrDraining, ErrDuplicate, ErrBreakerOpen), the
// engine's configuration error for options it cannot run, or an
// artifact-validation error for an unusable Resume artifact.
func (s *Scheduler) Submit(v *Vantage, targets []netip.Addr, opt SubmitOptions) (*CampaignHandle, error) {
	yo := YarrpOptions{Rate: opt.Rate, MaxTTL: opt.MaxTTL, Transport: opt.Transport, Fill: opt.Fill, Key: opt.Key, Batch: opt.Batch}
	cfg, err := yo.coreConfig(targets)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.vantages[v.v.Name()] = v.v
	s.mu.Unlock()
	return s.sup.Submit(sched.CampaignSpec{
		Tenant:   opt.Tenant,
		Name:     opt.Name,
		Vantage:  v.v.Name(),
		Config:   cfg,
		Shards:   opt.Shards,
		Deadline: opt.Deadline,
		Stream:   opt.Stream,
		Resume:   opt.Resume,
	})
}

// Status reports every admitted campaign in submission order.
func (s *Scheduler) Status() []CampaignStatus { return s.sup.Status() }

// BreakerState names a vantage's circuit-breaker position: "closed",
// "open", or "half-open".
func (s *Scheduler) BreakerState(vantage string) string {
	return s.sup.BreakerState(vantage).String()
}

// Drain shuts the scheduler down gracefully: running campaigns are
// interrupted and checkpointed, queued ones returned as bare specs.
// Resubmitting each DrainedCampaign (Artifact as SubmitOptions.Resume)
// to a fresh scheduler continues every campaign byte-identically. Drain
// is terminal.
func (s *Scheduler) Drain(ctx context.Context) ([]DrainedCampaign, error) {
	return s.sup.Drain(ctx)
}
