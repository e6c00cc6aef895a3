package core

import (
	"fmt"
	"sync"
	"time"

	"godcr/internal/cluster"
	"godcr/internal/event"
	"godcr/internal/geom"
	"godcr/internal/instance"
	"godcr/internal/region"
)

// The versioned field store and pull protocol. Every write-privilege
// point task publishes the data it produced under a version key
// (operation seq, point, region root, field); consumers — located by
// evaluating the pure sharding functor anywhere — pull the exact
// rectangles they need at the exact version the fine-stage analysis
// resolved. Versions are retained until a fence-point garbage
// collection proves them unreachable, which is what makes cross-shard
// write-after-read safe without blocking: a writer creates a new
// version instead of mutating the one in flight.

// verKey names one point task's output for one field.
type verKey struct {
	Seq   uint64
	Point geom.Point
	Root  region.RegionID
	Field region.FieldID
}

type storedVersion struct {
	ready     event.UserEvent
	inst      *instance.Instance // valid once ready triggers
	published bool               // guarded by store.mu; makes publish idempotent
}

type store struct {
	mu       sync.Mutex
	versions map[verKey]*storedVersion
}

func newStore() *store {
	return &store{versions: make(map[verKey]*storedVersion)}
}

// entry returns the version record for key, creating a placeholder if
// the producer's fine stage has not declared it yet (a consumer shard
// may run ahead of a producer shard).
func (s *store) entry(key verKey) *storedVersion {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv := s.versions[key]
	if sv == nil {
		sv = &storedVersion{ready: event.NewUserEvent()}
		s.versions[key] = sv
	}
	return sv
}

// publish installs the produced instance and releases waiters. It is
// idempotent: re-publishing an already-published version keeps the
// first instance (re-executed ops during partial-restart replay — a
// re-run attach, or a survivor task whose scalar delivery was lost —
// produce bit-identical data, so dropping the duplicate is sound).
func (s *store) publish(key verKey, inst *instance.Instance) {
	s.mu.Lock()
	sv := s.versions[key]
	if sv == nil {
		sv = &storedVersion{ready: event.NewUserEvent()}
		s.versions[key] = sv
	}
	if sv.published {
		s.mu.Unlock()
		return
	}
	sv.published = true
	sv.inst = inst
	s.mu.Unlock()
	sv.ready.Trigger()
}

// has reports whether the version is published with data (the
// survivor-side replay-skip condition).
func (s *store) has(key verKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv := s.versions[key]
	return sv != nil && sv.published && sv.inst != nil
}

// retain drops every version whose seq is not in live. Callers must
// guarantee quiescence (no in-flight tasks), which execution fences
// provide.
func (s *store) retain(live map[uint64]bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for k := range s.versions {
		if !live[k.Seq] {
			delete(s.versions, k)
			dropped++
		}
	}
	return dropped
}

// size returns the number of retained versions.
func (s *store) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.versions)
}

// --- Pull protocol -------------------------------------------------------
//
// Remote data moves in batches. The fine stage knows every remote piece
// an operation's local tasks need before the first of them starts, so it
// asks once: one pullReq per (operation, owner) lists the (version,
// rectangle) pieces wanted from that owner — identical pieces wanted by
// several tasks collapse to one entry — and the owner answers with one
// pullResp carrying all their values once every listed version is
// published. Tasks wait on the batch, not on the wire: the reply lands
// through one inline handler that fills the batch's per-piece slots and
// triggers its event.
//
// Replying only when *all* versions are published cannot deadlock: every
// key in a batch issued for op k names a producer with seq < k, whose own
// inputs were batched for ops < seq. By induction on seq every listed
// version publishes without waiting on op k, so the reply is always
// eventually sent.

const (
	pullReqTag   = uint64(0xF0) << 56
	pullReplyTag = uint64(0xF1) << 56
	futureTagBit = uint64(0xFA) << 56
)

// pullItem is one piece of a batch: a rectangle at an exact version.
type pullItem struct {
	Key  verKey
	Rect geom.Rect
}

// pullReq asks one owner for every piece one operation needs from it.
// Attempt and Batch are echoed in the reply; Attempt is the requester's
// full attempt salt, so a reply that outlives its attempt is rejected
// by comparison (see the reply handler in newFetcher).
type pullReq struct {
	Attempt uint64
	Batch   uint64
	From    int
	Items   []pullItem
}

// pullResp answers a pullReq: Vals concatenates the Items requested
// pieces' values, row-major each, in request order.
type pullResp struct {
	Attempt uint64
	Batch   uint64
	Items   int
	Vals    []float64
}

// PullError is the abort cause for a violation of the batched pull
// protocol: a reply that does not match the request it answers, or a
// request for data the named version does not hold.
type PullError struct {
	// Shard detected the violation in a message from Peer.
	Shard, Peer int
	// Batch is the requester-local batch id the message carried.
	Batch  uint64
	Reason string
}

func (e *PullError) Error() string {
	return fmt.Sprintf("core: shard %d: bad pull batch %d from shard %d: %s", e.Shard, e.Batch, e.Peer, e.Reason)
}

// inlineReplyMax caps (in float64s — 8KiB of values is a 64KiB frame)
// the pull replies the server sends from the delivery goroutine; see
// fetcher.serve.
const inlineReplyMax = 8 << 10

func init() {
	cluster.RegisterWireType(pullReq{})
	cluster.RegisterWireType(pullResp{})
	cluster.RegisterWireType(float64(0))
	cluster.RegisterWireType([]float64(nil))
	cluster.RegisterWireType(int64(0))
	cluster.RegisterWireType(0)
	cluster.RegisterWireType(false)
	cluster.RegisterWireType("")
}

// pullBatch is one outstanding request: the pieces asked of one owner.
// vals[i] holds items[i]'s values once ready triggers.
type pullBatch struct {
	owner int
	items []pullItem
	vals  [][]float64
	ready event.UserEvent
	sent  time.Time // for the stall watchdog
}

// pullSlot names one piece of a batch. The zero slot marks a source
// that is not pulled (local, or a fill). Attempt-local: never
// serialized, never traced.
type pullSlot struct {
	batch *pullBatch
	idx   int
}

// fetcher resolves version reads: locally from the store, remotely
// through batches it issued. It also serves peers' batches.
type fetcher struct {
	ctx   *Context
	store *store

	mu        sync.Mutex
	batches   map[uint64]*pullBatch // outstanding, by batch id
	nextBatch uint64
}

func newFetcher(ctx *Context, st *store) *fetcher {
	f := &fetcher{ctx: ctx, store: st, batches: make(map[uint64]*pullBatch)}
	ctx.prog.fetch.Store(f)
	// Serve incoming batches. Both handlers are registered inline: the
	// producers have usually published by the time a request arrives, so
	// the common case replies directly on the delivery goroutine (no
	// spawn, no scheduler hop). Only a batch that outruns a producer
	// falls back to one goroutine that blocks on the versions' events.
	ctx.node.HandleInline(pullReqTag, func(m cluster.Message) {
		req, ok := m.Payload.(pullReq)
		if !ok {
			ctx.abort(fmt.Errorf("core: pull request carried %T", m.Payload))
			return
		}
		svs := make([]*storedVersion, len(req.Items))
		ready := true
		for i, it := range req.Items {
			svs[i] = st.entry(it.Key)
			ready = ready && svs[i].ready.HasTriggered()
		}
		if ready {
			f.serve(req, svs, true)
			return
		}
		go func() {
			for _, sv := range svs {
				if !ctx.waitOrAbort(sv.ready.Event) {
					// Aborting: the requester's tasks are released by
					// the same abort, so dropping the reply wedges nobody.
					return
				}
			}
			f.serve(req, svs, false)
		}()
	})
	// Land replies. The handler outlives the attempt (a later attempt's
	// fetcher replaces it), and batch ids restart with every fetcher, so
	// the attempt is compared in full before the id is looked up.
	ctx.node.HandleInline(pullReplyTag, func(m cluster.Message) {
		resp, ok := m.Payload.(pullResp)
		if !ok {
			ctx.abort(fmt.Errorf("core: pull reply carried %T", m.Payload))
			return
		}
		if resp.Attempt != ctx.attempt {
			ctx.rt.stats.staleReplies.Add(1)
			return
		}
		if err := f.land(int(m.From), resp); err != nil {
			ctx.abort(err)
		}
	})
	return f
}

// serve extracts a batch's pieces and sends the reply. onDelivery says
// the caller is the transport's delivery goroutine, which a huge reply
// must leave before hitting the wire: an inline socket write of an
// unbounded frame from a read loop could block against a peer doing the
// same in the opposite direction.
func (f *fetcher) serve(req pullReq, svs []*storedVersion, onDelivery bool) {
	total := int64(0)
	for i, it := range req.Items {
		if inst := svs[i].inst; inst == nil || !inst.Rect.ContainsRect(it.Rect) {
			f.ctx.abort(&PullError{Shard: f.ctx.shard, Peer: req.From, Batch: req.Batch,
				Reason: fmt.Sprintf("item %d asks %v of version %+v, which does not hold it", i, it.Rect, it.Key)})
			return
		}
		total += it.Rect.Volume()
	}
	vals := make([]float64, 0, total)
	for i, it := range req.Items {
		inst := svs[i].inst
		it.Rect.Each(func(p geom.Point) bool {
			vals = append(vals, inst.At(p))
			return true
		})
	}
	send := func() {
		_ = f.ctx.node.Send(cluster.NodeID(req.From), pullReplyTag,
			pullResp{Attempt: req.Attempt, Batch: req.Batch, Items: len(req.Items), Vals: vals})
	}
	if onDelivery && total > inlineReplyMax {
		go send()
		return
	}
	send()
}

// land matches a reply of the live attempt to its batch, checks its
// shape against what was asked, and releases the waiting tasks.
func (f *fetcher) land(from int, resp pullResp) error {
	f.mu.Lock()
	b := f.batches[resp.Batch]
	delete(f.batches, resp.Batch)
	f.mu.Unlock()
	bad := func(reason string) error {
		return &PullError{Shard: f.ctx.shard, Peer: from, Batch: resp.Batch, Reason: reason}
	}
	if b == nil {
		return bad("reply to no outstanding batch")
	}
	if from != b.owner {
		return bad(fmt.Sprintf("reply to a batch asked of shard %d", b.owner))
	}
	if resp.Items != len(b.items) {
		return bad(fmt.Sprintf("reply carries %d pieces, %d were asked", resp.Items, len(b.items)))
	}
	rest := resp.Vals
	for i, it := range b.items {
		n := it.Rect.Volume()
		if n > int64(len(rest)) {
			return bad(fmt.Sprintf("reply carries %d values, too few for the pieces asked", len(resp.Vals)))
		}
		b.vals[i], rest = rest[:n:n], rest[n:]
	}
	if len(rest) != 0 {
		return bad(fmt.Sprintf("reply carries %d values, %d too many for the pieces asked", len(resp.Vals), len(rest)))
	}
	b.ready.Trigger()
	return nil
}

// pullGather collects the remote pieces of one operation's tasks,
// grouped by owner, and hands every piece its slot. Callers add every
// source list the operation will assemble, then send once, then start
// the tasks.
type pullGather struct {
	f       *fetcher
	byOwner []*pullBatch          // indexed by shard; nil until a piece names it
	slots   map[pullWant]pullSlot // dedup: one entry per distinct (owner, piece)
	pieces  uint64                // remote pieces wanted, duplicates included
}

type pullWant struct {
	owner int
	item  pullItem
}

func (f *fetcher) gather() pullGather { return pullGather{f: f} }

// pull requests the remote pieces of a single source list.
func (f *fetcher) pull(srcs []sourcePiece) {
	g := f.gather()
	g.add(srcs)
	g.send()
}

// addPlans adds the sources of every plan of one task.
func (g *pullGather) addPlans(plans []fieldPlan) {
	for i := range plans {
		g.add(plans[i].sources)
	}
}

// add assigns a slot to every remote piece of srcs.
func (g *pullGather) add(srcs []sourcePiece) {
	for i := range srcs {
		sp := &srcs[i]
		if !sp.fill {
			sp.slot = g.want(sp.owner, sp.key, sp.rect)
		}
		for j := range sp.reds {
			rd := &sp.reds[j]
			rd.slot = g.want(rd.owner, rd.key, rd.rect)
		}
	}
}

func (g *pullGather) want(owner int, key verKey, rect geom.Rect) pullSlot {
	if owner == g.f.ctx.shard || rect.Empty() {
		return pullSlot{}
	}
	g.pieces++
	if g.byOwner == nil {
		g.byOwner = make([]*pullBatch, g.f.ctx.nShards)
		g.slots = make(map[pullWant]pullSlot)
	}
	w := pullWant{owner: owner, item: pullItem{Key: key, Rect: rect}}
	if s, ok := g.slots[w]; ok {
		return s
	}
	b := g.byOwner[owner]
	if b == nil {
		b = &pullBatch{owner: owner, ready: event.NewUserEvent()}
		g.byOwner[owner] = b
	}
	b.items = append(b.items, w.item)
	s := pullSlot{batch: b, idx: len(b.items) - 1}
	g.slots[w] = s
	return s
}

// send issues one request per owner. A failed send means the transport
// is interrupted; the attempt is aborted, which also releases any task
// that would wait on the batch.
func (g *pullGather) send() {
	f := g.f
	if g.pieces == 0 {
		return
	}
	f.ctx.rt.stats.remotePulls.Add(g.pieces)
	for _, b := range g.byOwner {
		if b == nil {
			continue
		}
		b.vals = make([][]float64, len(b.items))
		b.sent = time.Now()
		f.mu.Lock()
		f.nextBatch++
		id := f.nextBatch
		f.batches[id] = b
		f.mu.Unlock()
		if err := f.ctx.node.Send(cluster.NodeID(b.owner), pullReqTag, pullReq{
			Attempt: f.ctx.attempt, Batch: id, From: f.ctx.shard, Items: b.items,
		}); err != nil {
			f.ctx.abort(err)
			return
		}
	}
}

// oldestBatch reports the longest-unanswered batch, if any.
func (f *fetcher) oldestBatch() (owner int, since time.Time, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, b := range f.batches {
		if !ok || b.sent.Before(since) {
			owner, since, ok = b.owner, b.sent, true
		}
	}
	return owner, since, ok
}

// resolve returns the values of rect at the given version: from the
// piece's batch slot if it was gathered as a remote pull, otherwise from
// the local store.
func (f *fetcher) resolve(key verKey, owner int, rect geom.Rect, slot pullSlot) ([]float64, error) {
	if b := slot.batch; b != nil {
		// A reply that already landed cost zero wire wait: take it without
		// a span (the wire timer prices blocking, and a span here would be
		// pure overhead on the hot path).
		if !b.ready.HasTriggered() {
			start := f.ctx.tm.pull.Start()
			ok := f.ctx.waitOrAbort(b.ready.Event)
			f.ctx.tm.pull.Stop(start)
			if !ok {
				return nil, f.ctx.abortErr()
			}
		}
		return b.vals[slot.idx], nil
	}
	if rect.Empty() {
		return nil, nil
	}
	if owner != f.ctx.shard {
		return nil, fmt.Errorf("core: version %+v on shard %d was never gathered into a pull batch", key, owner)
	}
	sv := f.store.entry(key)
	if !f.ctx.waitOrAbort(sv.ready.Event) {
		return nil, f.ctx.abortErr()
	}
	f.ctx.rt.stats.localRes.Add(1)
	if sv.inst == nil {
		return nil, fmt.Errorf("core: version %+v published without data", key)
	}
	return sv.inst.Extract(rect), nil
}
