// Command beholderd is the long-running campaign supervisor daemon: it
// multiplexes many tenants' Yarrp6 campaigns over one simulated
// internetwork with admission control, watchdog failover, and
// per-vantage circuit breaking, and exposes the service over HTTP:
//
//	POST /submit     submit a campaign (JSON body; see campaignReq)
//	GET  /campaigns  status of every admitted campaign
//	POST /drain      graceful shutdown: checkpoint running campaigns
//	                 into -state-dir and exit; a beholderd restarted on
//	                 the same state dir resumes them byte-identically
//	/metrics, /debug/vars, /debug/pprof/  the telemetry surface
//
// All durable state lives in a crash-safe store (internal/store)
// under -state-dir: campaign specs are persisted at admission with
// their resolved target sets, running campaigns are checkpointed
// every -checkpoint-every of wall time, and final result stores are
// persisted at completion — all through an atomic
// temp/fsync/rename/dir-fsync protocol journaled in a CRC-framed
// manifest. A spec blob is one compact JSON object whose targets are
// an array of address strings, appended straight from the addresses;
// the indented specs earlier releases wrote read back alike. A
// beholderd killed with SIGKILL at any instant restarts on the same
// state dir, quarantines anything torn into -state-dir/corrupt/, and
// resumes every campaign from its last snapshot; results remain
// byte-identical to an uninterrupted run.
// SIGTERM and SIGINT trigger the same graceful drain as POST /drain.
//
// Each campaign's NDJSON result stream is appended to -state-dir as
// <tenant>__<name>.stream.ndjson while it runs: lifecycle events as they
// happen (checkpoint events with the probes and replies so far), then,
// once the campaign completes, its virtual-time progress series — the
// sample and summary records `yarrp6 -progress` writes for the same
// campaign. Streams are append-only logs outside the store's atomicity
// domain.
//
// Example (two tenants, one resumable state dir):
//
//	beholderd -small -addr localhost:6464 -state-dir ./state \
//	    -tenants alice:4000:1,bob
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"beholder"
	"beholder/internal/core"
	"beholder/internal/probe"
	"beholder/internal/store"
	"beholder/internal/telemetry"
)

// Blob kinds in the durable store, all keyed <tenant>__<name>:
// the admission-time spec (with resolved targets), the latest
// checkpoint artifact, the final merged probe store, and the terminal
// state record.
const (
	kindSpec  = "spec"
	kindCkpt  = "ckpt"
	kindStore = "store"
	kindDone  = "done"
)

// campaignReq is the /submit body and the persisted spec format.
// Targets come either explicit or from the seed-generation pipeline;
// the persisted copy always pins the resolved target list so recovery
// never depends on generation flags. Explicit targets decode straight
// into addresses (targetList).
type campaignReq struct {
	Tenant  string     `json:"tenant"`
	Name    string     `json:"name"`
	Vantage string     `json:"vantage,omitempty"` // default US-EDU-1
	Targets targetList `json:"targets,omitzero"`
	// Seed-generation pipeline (used when Targets is empty).
	Seeds string  `json:"seeds,omitempty"` // default caida
	ZN    int     `json:"zn,omitempty"`    // default 64; else 1–128 (synth known ignores it)
	Synth string  `json:"synth,omitempty"` // default lowbyte1
	Scale float64 `json:"scale,omitempty"` // default 0.2
	// Probing options, as in yarrp6.
	Rate       float64 `json:"rate,omitempty"`
	MaxTTL     int     `json:"maxttl,omitempty"`
	Transport  string  `json:"transport,omitempty"`
	Fill       bool    `json:"fill,omitempty"`
	Key        uint64  `json:"key,omitempty"`
	Shards     int     `json:"shards,omitempty"`
	Batch      int     `json:"batch,omitempty"`
	DeadlineMS int64   `json:"deadline_ms,omitempty"`
}

// doneRec is the persisted terminal-state record (kindDone).
type doneRec struct {
	State   string `json:"state"`
	Reason  string `json:"reason,omitempty"`
	Retries int    `json:"retries,omitempty"`
}

// retainedLine is a terminal campaign recovered from the store: it is
// reported in /campaigns but not resubmitted.
type retainedLine struct {
	Tenant   string
	Campaign string
	Vantage  string
	State    string
	Reason   string
}

// daemon ties the scheduler to the HTTP surface and the durable store.
type daemon struct {
	in       *beholder.Internet
	sch      *beholder.Scheduler
	st       *store.Store
	reg      *beholder.TelemetryRegistry
	stateDir string
	// tenants holds the -tenants names. A submission naming anyone else
	// is refused before it costs anything: no vantage materialized (and
	// its plan table kept for good), no target set generated.
	tenants map[string]bool

	mu       sync.Mutex
	vantages map[string]*beholder.Vantage
	retained []retainedLine

	// streams tracks every live campaign's stream-closer goroutine so
	// the ordered shutdown can wait for the final events to be
	// flushed and the files closed.
	streams sync.WaitGroup
	// done is closed exactly once when a drain finished and the
	// process should shut down.
	done     chan struct{}
	doneOnce sync.Once
}

// options is what a daemon is built from: main fills it from its flags,
// in-process tests directly. The daemon supplies the scheduler's
// checkpoint sink and telemetry.
type options struct {
	beholder.SchedulerOptions
	simSeed  int64
	small    bool
	stateDir string
	fs       store.FS // nil: the operating system's
}

// newDaemon opens the durable store under o.stateDir, starts the
// scheduler, and consumes the previous generation's state: terminal
// campaigns are retained as records, everything else is resubmitted
// (resuming from its last checkpoint when one exists). A bad entry is
// quarantined and skipped, never fatal.
func newDaemon(o options) (*daemon, error) {
	newInternet := beholder.NewInternet
	if o.small {
		newInternet = beholder.NewSmallInternet
	}
	in := newInternet(o.simSeed)
	reg := beholder.NewTelemetry()
	st, err := store.Open(store.Config{
		Dir: o.stateDir,
		Validate: map[string]func([]byte) error{
			kindSpec: func(b []byte) error {
				var req campaignReq
				if err := json.Unmarshal(b, &req); err != nil {
					return err
				}
				if req.Tenant == "" || req.Name == "" {
					return errors.New("spec missing tenant or name")
				}
				return nil
			},
			kindCkpt: func(b []byte) error {
				_, err := core.InspectCheckpoint(b)
				return err
			},
			kindStore: func(b []byte) error {
				_, err := probe.DecodeStore(b)
				return err
			},
			kindDone: func(b []byte) error {
				var rec doneRec
				if err := json.Unmarshal(b, &rec); err != nil {
					return err
				}
				if rec.State == "" {
					return errors.New("done record missing state")
				}
				return nil
			},
		},
		KeepSuffixes: []string{".stream.ndjson"},
		Telemetry:    reg,
		FS:           o.fs,
	})
	if err != nil {
		return nil, err
	}
	scrubBanner(st.Report(), o.stateDir)

	o.CheckpointSink = func(tenant, name string, artifact []byte) error {
		return st.Put(storeKey(tenant, name), kindCkpt, artifact)
	}
	o.Telemetry = reg
	sch, err := in.NewScheduler(o.SchedulerOptions)
	if err != nil {
		st.Close()
		return nil, err
	}
	d := &daemon{
		in: in, sch: sch, st: st, reg: reg, stateDir: o.stateDir,
		tenants:  make(map[string]bool, len(o.Tenants)),
		vantages: map[string]*beholder.Vantage{},
		done:     make(chan struct{}),
	}
	for _, t := range o.Tenants {
		d.tenants[t.Name] = true
	}
	resumed, retained, failed := d.recoverState()
	if resumed+retained+failed > 0 {
		fmt.Fprintf(os.Stderr, "beholderd: recovery from %s: %d resumed, %d already terminal, %d quarantined\n",
			o.stateDir, resumed, retained, failed)
	}
	return d, nil
}

func main() {
	var o options
	flag.Int64Var(&o.simSeed, "sim-seed", 2018, "simulated internetwork seed")
	flag.BoolVar(&o.small, "small", false, "use the small universe")
	addr := flag.String("addr", "localhost:6464", "HTTP listen address")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	flag.IntVar(&o.Workers, "workers", 4, "campaigns run concurrently")
	flag.IntVar(&o.QueueLimit, "queue", 32, "admission queue limit")
	tenants := flag.String("tenants", "default", "comma-separated tenants, each name[:rate-budget[:priority]]")
	flag.StringVar(&o.stateDir, "state-dir", "beholderd-state", "directory for the durable store and result streams")
	flag.DurationVar(&o.StallBudget, "stall-budget", 2*time.Second, "watchdog stall budget before failover")
	flag.IntVar(&o.MaxRetries, "retries", 2, "watchdog failover budget per campaign")
	flag.DurationVar(&o.CheckpointEvery, "checkpoint-every", 5*time.Second, "periodic checkpoint interval for running campaigns (0 = drain-only)")
	flag.Parse()

	var err error
	if o.Tenants, err = parseTenants(*tenants); err != nil {
		fatal(err)
	}
	// The previous generation's campaigns are back in the scheduler
	// before the HTTP surface opens.
	d, err := newDaemon(o)
	if err != nil {
		fatal(err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/submit", d.handleSubmit)
	mux.HandleFunc("/campaigns", d.handleCampaigns)
	mux.HandleFunc("/drain", d.handleDrain)
	mux.Handle("/", telemetry.Handler(d.reg))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "beholderd: %d tenant(s), %d worker(s), serving on http://%s\n", len(o.Tenants), o.Workers, ln.Addr())

	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()

	// SIGTERM/SIGINT get the same graceful drain as POST /drain, so
	// orchestrators checkpoint-on-stop for free.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "beholderd: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		saved, err := d.drainToStore(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "beholderd: drain: %v\n", err)
		}
		fmt.Fprintf(os.Stderr, "beholderd: drained %d campaign(s) to %s\n", len(saved), d.stateDir)
		d.shutdown()
	case <-d.done:
	}

	// Ordered shutdown: every stream file flushed and closed, the
	// HTTP server drained (which also flushes the in-flight drain
	// response), then the store's journal closed. Only then exit.
	d.streams.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	srv.Shutdown(ctx)
	cancel()
	if err := d.st.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "beholderd: store close: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "beholderd: state flushed; exiting")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "beholderd:", err)
	os.Exit(1)
}

// shutdown signals main to run the ordered shutdown; safe to call from
// any goroutine, any number of times.
func (d *daemon) shutdown() {
	d.doneOnce.Do(func() { close(d.done) })
}

// scrubBanner reports what the store's recovery scrub found.
func scrubBanner(rep store.ScrubReport, dir string) {
	if rep.Clean() {
		return
	}
	fmt.Fprintf(os.Stderr, "beholderd: store scrub of %s: %d live entries, %d quarantined, %d missing, %d stale removed, %d temp removed, %d journal bytes truncated\n",
		dir, rep.Entries, len(rep.Quarantined), len(rep.Missing), rep.StaleRemoved, rep.TmpRemoved, rep.JournalTruncated)
	for _, q := range rep.Quarantined {
		fmt.Fprintf(os.Stderr, "beholderd:   quarantined %s: %s\n", filepath.Join(dir, "corrupt", q.File), q.Reason)
	}
	for _, m := range rep.Missing {
		fmt.Fprintf(os.Stderr, "beholderd:   missing blob for %s.%s (entry dropped)\n", m.Key, m.Kind)
	}
}

// storeKey is the durable-store key for a campaign. Tenant and
// campaign names are restricted to the store-safe alphabet at
// admission, so the "__" join is unambiguous enough for display and
// collision-free on disk.
func storeKey(tenant, name string) string { return tenant + "__" + name }

// validIdent restricts tenant and campaign names to the durable
// store's key alphabet.
func validIdent(s string) error {
	if s == "" {
		return errors.New("empty name")
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
		case r == '_':
		default:
			return fmt.Errorf("invalid character %q (allowed: letters, digits, _, -)", r)
		}
	}
	return nil
}

// parseTenants decodes the -tenants flag: name[:rate-budget[:priority]].
// Duplicate names are rejected — silently registering both would split
// one tenant's rate budget into two ledgers.
func parseTenants(s string) ([]beholder.Tenant, error) {
	var out []beholder.Tenant
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if fields[0] == "" {
			return nil, fmt.Errorf("empty tenant name in -tenants %q", s)
		}
		if err := validIdent(fields[0]); err != nil {
			return nil, fmt.Errorf("tenant %q: %w", fields[0], err)
		}
		if seen[fields[0]] {
			return nil, fmt.Errorf("duplicate tenant %q in -tenants %q", fields[0], s)
		}
		seen[fields[0]] = true
		t := beholder.Tenant{Name: fields[0]}
		if len(fields) > 1 && fields[1] != "" {
			b, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("tenant %s: bad rate budget %q", t.Name, fields[1])
			}
			t.RateBudget = b
		}
		if len(fields) > 2 {
			p, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("tenant %s: bad priority %q", t.Name, fields[2])
			}
			t.Priority = p
		}
		out = append(out, t)
	}
	return out, nil
}

// submit admits one campaign, streaming its NDJSON events to the state
// dir. resume, when non-nil, continues from a checkpoint artifact.
// persistSpec records the spec (with resolved targets) in the durable
// store — true for fresh API submissions, false during recovery where
// the spec is already durable.
func (d *daemon) submit(req campaignReq, resume []byte, persistSpec bool) (*beholder.CampaignHandle, error) {
	if err := validIdent(req.Tenant); err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	if err := validIdent(req.Name); err != nil {
		return nil, fmt.Errorf("name: %w", err)
	}
	if key := storeKey(req.Tenant, req.Name); len(key) > store.MaxNameLen {
		return nil, fmt.Errorf("tenant and name: store key of %d bytes exceeds %d", len(key), store.MaxNameLen)
	}
	if !d.tenants[req.Tenant] {
		return nil, fmt.Errorf("%w: %q", beholder.ErrUnknownTenant, req.Tenant)
	}
	vname := cmp.Or(req.Vantage, "US-EDU-1")
	if err := validIdent(vname); err != nil {
		return nil, fmt.Errorf("vantage: %w", err)
	}

	var targets []netip.Addr
	if resume == nil {
		if req.Targets.err != nil {
			return nil, fmt.Errorf("bad target %q: %w", req.Targets.bad, req.Targets.err)
		}
		if len(req.Targets.addrs) > 0 {
			targets = req.Targets.addrs
		} else {
			var err error
			targets, err = d.in.TargetSet(cmp.Or(req.Seeds, "caida"), cmp.Or(req.ZN, 64),
				cmp.Or(req.Synth, "lowbyte1"), cmp.Or(req.Scale, 0.2))
			if err != nil {
				return nil, err
			}
		}
	}
	// Materialize the vantage — and with it its identity's plan table and
	// router registry, which live as long as the universe — only for a
	// submission whose targets resolved.
	d.mu.Lock()
	v := d.vantages[vname]
	if v == nil {
		v = d.in.NewVantage(vname)
		d.vantages[vname] = v
	}
	d.mu.Unlock()

	sp := d.streamPath(req.Tenant, req.Name)
	_, statErr := os.Stat(sp)
	stream, err := os.OpenFile(sp, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	opts := beholder.SubmitOptions{
		Tenant: req.Tenant, Name: req.Name,
		Rate: req.Rate, MaxTTL: req.MaxTTL, Transport: req.Transport,
		Fill: req.Fill, Key: req.Key, Shards: req.Shards, Batch: req.Batch,
		Deadline: time.Duration(req.DeadlineMS) * time.Millisecond,
		Stream:   stream, Resume: resume,
	}
	if persistSpec {
		// Pin the resolved target list so recovery never re-runs the
		// generation pipeline (whose flags may have changed by then).
		// The spec's journal commit is the admission: a campaign is
		// admitted exactly when its spec is durable, and a spec newer
		// than a previous run's records supersedes them at recovery.
		opts.Admit = func() error {
			pinned := req
			pinned.Targets = targetList{addrs: targets}
			pinned.Seeds, pinned.ZN, pinned.Synth, pinned.Scale = "", 0, "", 0
			spec, err := json.Marshal(pinned)
			if err == nil {
				err = d.st.Put(storeKey(req.Tenant, req.Name), kindSpec, spec)
			}
			if err != nil {
				return fmt.Errorf("%w: %v", errNotDurable, err)
			}
			return nil
		}
	}
	h, err := d.sch.Submit(v, targets, opts)
	if err != nil {
		stream.Close()
		if statErr != nil {
			os.Remove(sp) // rejected before any event: drop the empty file
		}
		return nil, err
	}
	if persistSpec {
		d.dropRetained(req.Tenant, req.Name)
	}
	// The stream file lives as long as the campaign: once the terminal
	// event is written, persist the terminal state and flush+close the
	// stream. The WaitGroup gates the ordered shutdown.
	d.streams.Add(1)
	go func() {
		defer d.streams.Done()
		<-h.Done()
		d.persistTerminal(req, h.Result())
		stream.Sync()
		stream.Close()
	}()
	return h, nil
}

// persistTerminal records a campaign's terminal outcome in the store:
// the final probe store for completed runs, a done record for
// completed and incomplete ones, and in both cases the now-obsolete
// checkpoint is dropped. Drained campaigns keep their checkpoint — the
// drain path just wrote it — and their spec, for the next generation
// to resume.
func (d *daemon) persistTerminal(req campaignReq, res *beholder.CampaignResult) {
	key := storeKey(req.Tenant, req.Name)
	switch res.State {
	case beholder.CampaignCompleted, beholder.CampaignIncomplete:
		if res.State == beholder.CampaignCompleted && res.Store != nil {
			if err := d.st.Put(key, kindStore, res.Store.AppendBinary(nil)); err != nil {
				fmt.Fprintf(os.Stderr, "beholderd: persist store %s: %v\n", key, err)
			}
		}
		rec, _ := json.Marshal(doneRec{State: res.State.String(), Reason: res.Reason, Retries: res.Retries})
		if err := d.st.Put(key, kindDone, rec); err != nil {
			fmt.Fprintf(os.Stderr, "beholderd: persist done %s: %v\n", key, err)
		}
		d.st.Delete(key, kindCkpt)
	}
}

func (d *daemon) dropRetained(tenant, name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, r := range d.retained {
		if r.Tenant == tenant && r.Campaign == name {
			d.retained = append(d.retained[:i], d.retained[i+1:]...)
			return
		}
	}
}

func (d *daemon) streamPath(tenant, name string) string {
	return filepath.Join(d.stateDir, storeKey(tenant, name)+".stream.ndjson")
}

// recoverState replays the durable store: terminal campaigns become
// retained records, everything else is resubmitted, resuming from the
// latest checkpoint when one survives. Any entry that fails
// domain-level validation is quarantined and skipped — one bad blob
// never blocks the rest.
func (d *daemon) recoverState() (resumed, retained, failed int) {
	var keys []string
	byKey := make(map[string]map[string]store.Entry)
	for _, e := range d.st.List() { // sorted by key
		if byKey[e.Key] == nil {
			byKey[e.Key] = make(map[string]store.Entry)
			keys = append(keys, e.Key)
		}
		byKey[e.Key][e.Kind] = e
	}

	for _, key := range keys {
		kinds := byKey[key]
		var req campaignReq
		haveSpec := false
		if _, ok := kinds[kindSpec]; ok {
			data, err := d.st.Get(key, kindSpec)
			if err == nil {
				err = json.Unmarshal(data, &req)
			}
			if err != nil {
				d.quarantine(key, kindSpec, fmt.Sprintf("unusable spec: %v", err))
				failed++
			} else {
				haveSpec = true
				// Records older than the spec belong to a run a
				// resubmission under the same name superseded.
				for kind, e := range kinds {
					if e.Gen < kinds[kindSpec].Gen {
						d.st.Delete(key, kind)
						delete(kinds, kind)
					}
				}
			}
		}

		if _, ok := kinds[kindDone]; ok {
			var rec doneRec
			data, err := d.st.Get(key, kindDone)
			if err == nil {
				err = json.Unmarshal(data, &rec)
			}
			if err == nil && rec.State != "" {
				tenant, name := req.Tenant, req.Name
				if !haveSpec {
					tenant, name = splitKey(key)
				}
				d.mu.Lock()
				d.retained = append(d.retained, retainedLine{
					Tenant: tenant, Campaign: name, Vantage: cmp.Or(req.Vantage, "US-EDU-1"),
					State: rec.State, Reason: rec.Reason,
				})
				d.mu.Unlock()
				// A leftover checkpoint under a terminal campaign is
				// the remnant of a crash between the done record and
				// the checkpoint delete.
				d.st.Delete(key, kindCkpt)
				retained++
				continue
			}
			d.quarantine(key, kindDone, fmt.Sprintf("unusable done record: %v", err))
			failed++
		}

		if !haveSpec {
			// Nothing to resubmit from; put whatever is left aside.
			for kind := range kinds {
				if kind != kindSpec && kind != kindDone {
					d.quarantine(key, kind, "no usable spec for campaign")
				}
			}
			if len(kinds) > 0 {
				failed++
			}
			continue
		}

		var art []byte
		if _, ok := kinds[kindCkpt]; ok {
			b, err := d.st.Get(key, kindCkpt)
			if err != nil {
				d.quarantine(key, kindCkpt, fmt.Sprintf("unreadable checkpoint: %v", err))
				failed++
			} else {
				art = b
			}
		}
		if _, err := d.submit(req, art, false); err != nil {
			if art != nil {
				// The artifact may be the bad half; quarantine it and
				// degrade to a fresh run from the pinned spec — better
				// a restarted campaign than a lost one.
				d.quarantine(key, kindCkpt, fmt.Sprintf("resume rejected: %v", err))
				failed++
				if _, err2 := d.submit(req, nil, false); err2 == nil {
					resumed++
					continue
				}
			}
			d.quarantine(key, kindSpec, fmt.Sprintf("resubmit rejected: %v", err))
			failed++
			continue
		}
		resumed++
	}
	return resumed, retained, failed
}

func (d *daemon) quarantine(key, kind, reason string) {
	fmt.Fprintf(os.Stderr, "beholderd: quarantining %s.%s: %s\n", key, kind, reason)
	if err := d.st.Quarantine(key, kind, reason); err != nil {
		fmt.Fprintf(os.Stderr, "beholderd: quarantine %s.%s: %v\n", key, kind, err)
	}
}

// splitKey best-effort inverts storeKey for display when no spec
// survives to say the real names.
func splitKey(key string) (tenant, name string) {
	if i := strings.Index(key, "__"); i >= 0 {
		return key[:i], key[i+2:]
	}
	return key, key
}

// maxSubmitBytes bounds a /submit body. A million explicit targets is
// ~40 MB of JSON; anything larger should come through the seed pipeline.
const maxSubmitBytes = 64 << 20

// maxSubmitScale bounds a /submit body's seed-list scale, which
// Internet.TargetSet spends inside the handler building the one seed
// list named. Measured at 4 on a 2-vCPU x86-64 host: caida takes
// 0.2 ms on the small universe and 2 ms on the full one (it does not
// depend on scale); the costliest lists, cdn-k32/cdn-k256 and tum, take
// 0.73 s and allocate 450 MB on the small universe, and up to 1.7 s and
// 710 MB on the full one. The cost grows linearly from there. No
// workload uses more than 3.
const maxSubmitScale = 4

func (d *daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// A submission is outside input: bounded in size, and exactly one
	// JSON object of known fields (persisted specs, read back by
	// recoverState, stay leniently decoded).
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	var req campaignReq
	err := dec.Decode(&req)
	if err == nil {
		// Nothing but whitespace may follow the object.
		if _, terr := dec.Token(); terr == nil {
			err = errors.New("trailing data after the campaign object")
		} else if terr != io.EOF {
			err = terr
		}
	}
	if err == nil && (req.Scale < 0 || req.Scale > maxSubmitScale) {
		// Zero selects the default scale.
		err = fmt.Errorf("scale %g outside (0, %d]", req.Scale, maxSubmitScale)
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	if _, err := d.submit(req, nil, true); err != nil {
		http.Error(w, err.Error(), submitStatus(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{
		"status": "queued", "tenant": req.Tenant, "campaign": req.Name,
		"stream": d.streamPath(req.Tenant, req.Name),
	})
}

// errNotDurable refuses a submission whose spec the store could not
// make durable.
var errNotDurable = errors.New("spec not durable")

// submitStatus maps the scheduler's typed rejections onto HTTP codes.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, errNotDurable):
		return http.StatusInternalServerError
	case errors.Is(err, beholder.ErrQueueFull), errors.Is(err, beholder.ErrRateBudget):
		return http.StatusTooManyRequests
	case errors.Is(err, beholder.ErrDuplicate):
		return http.StatusConflict
	case errors.Is(err, beholder.ErrDraining), errors.Is(err, beholder.ErrBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, beholder.ErrUnknownTenant):
		return http.StatusForbidden
	}
	return http.StatusBadRequest
}

func (d *daemon) handleCampaigns(w http.ResponseWriter, _ *http.Request) {
	type line struct {
		Tenant   string `json:"tenant"`
		Campaign string `json:"campaign"`
		Vantage  string `json:"vantage"`
		State    string `json:"state"`
		Reason   string `json:"reason,omitempty"`
		Retries  int    `json:"retries,omitempty"`
		Breaker  string `json:"breaker"`
	}
	var out []line
	d.mu.Lock()
	for _, rl := range d.retained {
		out = append(out, line{
			Tenant: rl.Tenant, Campaign: rl.Campaign, Vantage: rl.Vantage,
			State: rl.State, Reason: rl.Reason,
			Breaker: d.sch.BreakerState(rl.Vantage),
		})
	}
	d.mu.Unlock()
	for _, cs := range d.sch.Status() {
		out = append(out, line{
			Tenant: cs.Tenant, Campaign: cs.Campaign, Vantage: cs.Vantage,
			State: cs.State.String(), Reason: cs.Reason, Retries: cs.Retries,
			Breaker: d.sch.BreakerState(cs.Vantage),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// drainToStore checkpoints every running campaign's artifact into the
// durable store. Queued campaigns need nothing: their specs (with
// pinned targets) were persisted at admission.
func (d *daemon) drainToStore(ctx context.Context) ([]string, error) {
	drained, err := d.sch.Drain(ctx)
	if err != nil && !errors.Is(err, beholder.ErrDraining) {
		return nil, err
	}
	var saved []string
	for _, dc := range drained {
		if dc.Artifact != nil {
			key := storeKey(dc.Spec.Tenant, dc.Spec.Name)
			if err := d.st.Put(key, kindCkpt, dc.Artifact); err != nil {
				return saved, err
			}
		}
		saved = append(saved, dc.Spec.Tenant+"/"+dc.Spec.Name)
	}
	return saved, nil
}

// handleDrain checkpoints every campaign into the durable store,
// reports what survived, and triggers the ordered shutdown: stream
// files are flushed and closed, the HTTP server is shut down (which
// flushes this response), the store journal is closed, and only then
// does the process exit. A restarted beholderd on the same state dir
// resumes every drained campaign byte-identically.
func (d *daemon) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 60*time.Second)
	defer cancel()
	saved, err := d.drainToStore(ctx)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"drained": saved, "state_dir": d.stateDir})
	fmt.Fprintf(os.Stderr, "beholderd: drained %d campaign(s) to %s\n", len(saved), d.stateDir)
	d.shutdown()
}
