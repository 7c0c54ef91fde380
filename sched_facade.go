package beholder

// Campaign supervision through the facade: a Scheduler multiplexes many
// tenants' Yarrp6 campaigns over one Internet, adding admission control,
// per-tenant rate budgets, deterministic dispatch, watchdog failover
// onto fresh connections, and per-vantage circuit breaking on top of the
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
// failover retries); the watchdog poll, failover backoff and breaker
// policy are fixed. CheckpointSink receives each periodic checkpoint
// artifact with its campaign's tenant and name, and must copy the bytes
// it keeps: the scheduler encodes later snapshots into the same memory.
type SchedulerOptions = sched.Options

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
	// Admit, when non-nil, runs once every admission check has passed,
	// before the campaign is queued: an error rejects the submission
	// with it, admitting nothing. beholderd makes the spec durable here.
	Admit func() error
}

// Scheduler is a multi-tenant campaign supervisor over one Internet.
// Create with Internet.NewScheduler, submit with Submit, shut down with
// Drain. A vantage handed to Submit belongs to the scheduler for the
// campaign's duration — do not drive RunYarrp6 on it concurrently.
type Scheduler struct {
	in  *Internet
	sup *sched.Supervisor

	// mu serializes all shared-vantage mutation: concurrent campaigns'
	// connection factories interleave arbitrarily (initial shards,
	// restarted shards, failed-over shards), and each clone bumps parent
	// shard-group state.
	mu       sync.Mutex
	vantages map[string]*netsim.Vantage
}

// NewScheduler starts a campaign supervisor over this internetwork.
func (in *Internet) NewScheduler(opt SchedulerOptions) (*Scheduler, error) {
	s := &Scheduler{in: in, vantages: make(map[string]*netsim.Vantage)}
	sup, err := sched.New(s.open, opt)
	if err != nil {
		return nil, err
	}
	s.sup = sup
	return s, nil
}

// open is the supervisor's connection factory builder, called at
// dispatch and for every watchdog failover. It pins the campaign's epoch
// to virtual zero: a campaign-tagged parent clone opens at 0, and every
// shard connection — fresh, restarted, or failed over — clones from it
// at the campaign-relative start offset. This is what makes a supervised
// campaign's results byte-identical to the same campaign run bare,
// however many tenants run beside it and failovers it survives.
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
		return p.Clone(start)
	}, nil
}

// Submit admits one campaign probing targets from v, or rejects it with
// one of the typed admission errors (ErrQueueFull, ErrUnknownTenant,
// ErrRateBudget, ErrDraining, ErrDuplicate, ErrBreakerOpen), the
// engine's configuration error for options it cannot run, or an
// artifact-validation error for an unusable Resume artifact.
//
// Campaigns address their vantage by name — every attempt opens from
// it, and the breaker and fault rules key on it — so a name keeps the
// attachment (hosting AS and access-chain length) it was first
// submitted with: a vantage of the same name attached elsewhere is
// refused. Another vantage of the same attachment is accepted.
func (s *Scheduler) Submit(v *Vantage, targets []netip.Addr, opt SubmitOptions) (*CampaignHandle, error) {
	yo := YarrpOptions{Rate: opt.Rate, MaxTTL: opt.MaxTTL, Transport: opt.Transport, Fill: opt.Fill, Key: opt.Key, Batch: opt.Batch}
	cfg, err := yo.coreConfig(targets)
	if err != nil {
		return nil, err
	}
	name := v.v.Name()
	s.mu.Lock()
	if b := s.vantages[name]; b != nil && (b.AS() != v.v.AS() || b.ChainLen() != v.v.ChainLen()) {
		s.mu.Unlock()
		return nil, fmt.Errorf("beholder: vantage %q is bound to AS%d with access chain %d", name, b.AS().ASN, b.ChainLen())
	}
	s.vantages[name] = v.v
	s.mu.Unlock()
	return s.sup.Submit(sched.CampaignSpec{
		Tenant:   opt.Tenant,
		Name:     opt.Name,
		Vantage:  name,
		Config:   cfg,
		Shards:   opt.Shards,
		Deadline: opt.Deadline,
		Stream:   opt.Stream,
		Resume:   opt.Resume,
		Admit:    opt.Admit,
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
