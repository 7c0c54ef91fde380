package core

import (
	"sync"

	"beholder/internal/probe"
	"beholder/internal/telemetry"
)

// The reply fold runs on its own goroutine. The prober goroutine sends,
// receives and parses; every parsed reply then crosses to the fold
// goroutine, which owns the shard's store while the run lasts and applies
// the store fold, the first-seen list and the observer in exactly the
// order the prober parsed the replies. Progress samples travel in the
// same stream, as marks between replies, so a sample's interface count is
// the store's after precisely the replies parsed before it. Fills are
// decided from the parsed reply alone, so no send decision reads fold
// state: the prober waits for the fold only at a capture and at run end,
// and the schedule, the store, the progress series and every checkpoint
// are the bytes a single goroutine would produce.

// foldBlockLen is how many parsed replies one fold block carries.
const foldBlockLen = 256

// foldMarks bounds the progress samples one fold block carries; a block
// whose marks run out ships early, like a full one.
const foldMarks = 32

// foldDepth is how many blocks one run's pipeline circulates: the prober
// fills one while the fold goroutine works through the others, and waits
// for a folded block when all of them are in flight.
const foldDepth = 4

// foldPoolMax bounds how many idle pipelines the pool keeps — one per
// concurrently running prober at the pool's high-water mark, up to this.
const foldPoolMax = 32

// foldMark is a progress sample, recorded once the first at replies of
// its block are folded.
type foldMark struct {
	at int
	s  telemetry.Sample
}

// foldBlock is one unit of hand-off: parsed replies in arrival order and
// the progress samples taken between them. Reply holds no slices, so a
// block shares no memory with the prober's receive buffers.
type foldBlock struct {
	replies [foldBlockLen]probe.Reply
	marks   [foldMarks]foldMark
	n, nm   int
}

// foldPipe carries one run's blocks between the prober and the fold
// goroutine. Pipes and their blocks come from a process-wide pool, so a
// run allocates none once the pool is warm.
type foldPipe struct {
	// full carries filled blocks to the fold goroutine in order; a nil
	// block stops it. done carries each block back once folded, then the
	// nil that answers the stop. Each holds every block at once, and the
	// nil travels only when no block is out, so no send ever blocks: the
	// prober waits only on done, the fold goroutine only on full.
	full, done chan *foldBlock
	// cur is the block the prober is filling, spare the folded ones back
	// in its hands, and out how many blocks are shipped and not yet back.
	cur   *foldBlock
	spare []*foldBlock
	out   int
	// gather is the fold goroutine's scratch for Store.Gather.
	gather probe.Gathered
}

// foldPool keeps idle pipes for the next run. It is a plain free list,
// not a sync.Pool: a garbage collection would empty a sync.Pool, and a
// daemon collects often enough that runs would keep rebuilding blocks.
var foldPool struct {
	sync.Mutex
	idle []*foldPipe
}

// getFoldPipe takes an idle pipe from the pool, or builds one.
func getFoldPipe() *foldPipe {
	foldPool.Lock()
	if n := len(foldPool.idle); n > 0 {
		f := foldPool.idle[n-1]
		foldPool.idle = foldPool.idle[:n-1]
		foldPool.Unlock()
		return f
	}
	foldPool.Unlock()
	f := &foldPipe{
		full:  make(chan *foldBlock, foldDepth),
		done:  make(chan *foldBlock, foldDepth),
		cur:   new(foldBlock),
		spare: make([]*foldBlock, 0, foldDepth),
	}
	for range foldDepth - 1 {
		f.spare = append(f.spare, new(foldBlock))
	}
	return f
}

// putFoldPipe returns a stopped pipe to the pool.
func putFoldPipe(f *foldPipe) {
	foldPool.Lock()
	if len(foldPool.idle) < foldPoolMax {
		foldPool.idle = append(foldPool.idle, f)
	}
	foldPool.Unlock()
}

// add queues a parsed reply for the fold.
func (f *foldPipe) add(r probe.Reply) {
	b := f.cur
	b.replies[b.n] = r
	if b.n++; b.n == foldBlockLen {
		f.ship()
	}
}

// mark queues a progress sample behind the replies queued so far.
func (f *foldPipe) mark(s telemetry.Sample) {
	b := f.cur
	b.marks[b.nm] = foldMark{at: b.n, s: s}
	if b.nm++; b.nm == foldMarks {
		f.ship()
	}
}

// ship hands the current block to the fold goroutine and takes a fresh
// one: a spare, or else the next block the fold goroutine gives back —
// the pipeline's backpressure.
func (f *foldPipe) ship() {
	f.full <- f.cur
	f.out++
	if n := len(f.spare); n > 0 {
		f.cur = f.spare[n-1]
		f.spare = f.spare[:n-1]
		return
	}
	f.cur = <-f.done
	f.out--
}

// sync waits until everything queued so far is folded. The prober calls
// it before it reads what the fold writes: at a capture and at the end of
// a run.
func (f *foldPipe) sync() {
	if f.cur.n > 0 || f.cur.nm > 0 {
		f.ship()
	}
	for ; f.out > 0; f.out-- {
		f.spare = append(f.spare, <-f.done)
	}
}

// stop folds everything queued and waits for the fold goroutine to exit.
func (f *foldPipe) stop() {
	f.sync()
	f.full <- nil
	<-f.done
}

// startFold hands store to a fold goroutine for the rest of the run;
// stopFold, which Run defers, takes it back.
func (y *Yarrp6) startFold(store *probe.Store) {
	f := getFoldPipe()
	y.fold = f
	go y.foldLoop(f, store)
}

// stopFold waits for every queued reply to be folded, ends the fold
// goroutine and returns its pipe to the pool.
func (y *Yarrp6) stopFold() {
	y.fold.stop()
	putFoldPipe(y.fold)
	y.fold = nil
}

// foldLoop is the fold goroutine: it folds the blocks f carries, in
// order, until the nil that stops it. Each block is gathered whole
// (Store.Gather) before its replies are applied between its marks.
func (y *Yarrp6) foldLoop(f *foldPipe, store *probe.Store) {
	g := &f.gather
	for b := range f.full {
		if b == nil {
			f.done <- nil
			return
		}
		rs := b.replies[:b.n]
		store.Gather(rs, g)
		i := 0
		for _, m := range b.marks[:b.nm] {
			y.foldReplies(store, g, rs, i, m.at)
			i = m.at
			s := m.s
			if y.cfg.track == nil {
				s.Interfaces = int64(store.NumInterfaces())
			}
			y.prog.Record(s)
		}
		y.foldReplies(store, g, rs, i, b.n)
		b.n, b.nm = 0, 0
		f.done <- b
	}
}

// foldReplies folds replies lo … hi-1 of rs, the block g gathered, into
// the store and drives what hangs off it: the first-seen list of new
// interfaces (a reply's At is the instant the prober drained it) and the
// observer.
func (y *Yarrp6) foldReplies(store *probe.Store, g *probe.Gathered, rs []probe.Reply, lo, hi int) {
	cfg := &y.cfg
	for i := lo; i < hi; i++ {
		r := &rs[i]
		if store.AddGathered(g, i) && cfg.track != nil {
			cfg.track.add(r.From, r.At)
		}
		if cfg.Observer != nil {
			cfg.Observer.OnReply(*r)
		}
	}
}
