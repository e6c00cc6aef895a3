package core

import (
	"fmt"

	"godcr/internal/geom"
)

// Tracing (paper §5.5, citing Lee et al.'s dynamic tracing): programs
// bracket a repeated loop body with BeginTrace/EndTrace, and the
// runtime memoizes the fine-stage analysis of the body so replays skip
// the per-point resolution work. The life cycle of a trace:
//
//	occurrence 1: pass through (the loop body may still be warming up)
//	occurrence 2: run the analysis and record it
//	occurrence 3: run the analysis again and validate it against the
//	              recording; a mismatch permanently invalidates the
//	              trace (the body is not idempotent)
//	occurrence 4+: replay the recording, skipping the analysis
//
// A recorded data source is encoded by *where its producer sits*, not
// by raw sequence numbers: either relative — (occurrence delta, launch
// index within that occurrence) — for producers inside the trace, or
// absolute for producers that predate it (an initialization fill or
// launch whose data the body only reads). Relative encoding makes
// replays independent of whatever other operations (execution fences,
// inline reads) run between occurrences; naïve seq-delta encoding
// resolves to nonexistent versions there and deadlocks the consumer's
// pull.
//
// Traces must be "write-complete": every rectangle a body writes must
// be written on every occurrence (true of iterative solvers). The
// validation pass rejects bodies whose producer structure shifts.

type traceMode int

const (
	traceOff traceMode = iota
	tracePassthrough
	traceRecording
	traceValidating
	traceReplay
)

// producerRef locates a source's producing launch.
type producerRef struct {
	relative bool
	// occDelta counts occurrences back (0 = same occurrence); opIdx
	// indexes the launch within that occurrence.
	occDelta int
	opIdx    int
	// absSeq is the producer seq when !relative.
	absSeq uint64
}

// encodedSource is a sourcePiece with its producer re-encoded.
type encodedSource struct {
	piece sourcePiece // key.Seq meaningless when ref.relative
	ref   producerRef
	reds  []encodedRed
}

type encodedRed struct {
	pull redPull
	ref  producerRef
}

// encodedPlan is a fieldPlan with re-encoded sources.
type encodedPlan struct {
	plan    fieldPlan // sources nil
	sources []encodedSource
}

// traceOpRecord is the memoized analysis of one launch of the body.
type traceOpRecord struct {
	points []geom.Point
	plans  [][]encodedPlan
}

const traceHistoryDepth = 3

type traceInfo struct {
	id         uint64
	occurrence int
	pos        int
	invalid    bool
	records    []*traceOpRecord
	// history holds the launch-op seqs of recent occurrences; the
	// last element is the current occurrence (filled as it runs).
	history [][]uint64
}

// noteLaunch appends a launch's seq to the current occurrence list.
func (ti *traceInfo) noteLaunch(seq uint64) {
	if len(ti.history) == 0 {
		return
	}
	cur := len(ti.history) - 1
	ti.history[cur] = append(ti.history[cur], seq)
}

// encodeRef classifies a producer seq against the history.
func (ti *traceInfo) encodeRef(seq uint64) producerRef {
	for d := 0; d < len(ti.history); d++ {
		occ := ti.history[len(ti.history)-1-d]
		for i, s := range occ {
			if s == seq {
				return producerRef{relative: true, occDelta: d, opIdx: i}
			}
		}
	}
	return producerRef{absSeq: seq}
}

// resolveRef is the inverse during replay.
func (ti *traceInfo) resolveRef(ref producerRef) (uint64, bool) {
	if !ref.relative {
		return ref.absSeq, true
	}
	idx := len(ti.history) - 1 - ref.occDelta
	if idx < 0 || ref.opIdx >= len(ti.history[idx]) {
		return 0, false
	}
	return ti.history[idx][ref.opIdx], true
}

type fineTraces struct {
	infos  map[uint64]*traceInfo
	active *traceInfo
}

func newFineTraces() *fineTraces {
	return &fineTraces{infos: make(map[uint64]*traceInfo)}
}

func (ft *fineTraces) begin(id uint64) {
	ti := ft.infos[id]
	if ti == nil {
		ti = &traceInfo{id: id}
		ft.infos[id] = ti
	}
	ti.occurrence++
	ti.pos = 0
	ti.history = append(ti.history, nil)
	if len(ti.history) > traceHistoryDepth {
		ti.history = ti.history[len(ti.history)-traceHistoryDepth:]
	}
	ft.active = ti
}

func (ft *fineTraces) end(id uint64) {
	if ft.active != nil && ft.active.id == id {
		// A validating/replaying pass with a different op count is
		// not idempotent either.
		if ft.active.occurrence >= 3 && !ft.active.invalid && ft.active.pos != len(ft.active.records) {
			ft.active.invalid = true
		}
	}
	ft.active = nil
}

func (ft *fineTraces) mode() traceMode {
	ti := ft.active
	if ti == nil {
		return traceOff
	}
	if ti.invalid {
		return tracePassthrough
	}
	switch {
	case ti.occurrence <= 1:
		return tracePassthrough
	case ti.occurrence == 2:
		return traceRecording
	case ti.occurrence == 3:
		return traceValidating
	default:
		return traceReplay
	}
}

// record returns the memoized record for the next op of a replaying
// trace, or nil if the body shape diverged (which invalidates it).
func (ft *fineTraces) record(o *op) *traceOpRecord {
	ti := ft.active
	if ti == nil || ti.pos >= len(ti.records) {
		if ti != nil {
			ti.invalid = true
		}
		return nil
	}
	rec := ti.records[ti.pos]
	ti.pos++
	return rec
}

// store appends a freshly recorded op during occurrence 2.
func (ft *fineTraces) store(o *op, rec *traceOpRecord) {
	ti := ft.active
	if ti == nil {
		return
	}
	ti.records = append(ti.records, rec)
	ti.pos++
}

// validate compares occurrence 3's analysis against the recording.
func (ft *fineTraces) validate(o *op, rec *traceOpRecord) {
	ti := ft.active
	if ti == nil {
		return
	}
	if ti.pos >= len(ti.records) || !equalRecords(ti.records[ti.pos], rec) {
		if traceDebug && ti.pos < len(ti.records) {
			dumpRecordDiff(ti.records[ti.pos], rec)
		}
		ti.invalid = true
	}
	ti.pos++
}

// encodePlans re-encodes producer references against the trace
// history.
func encodePlans(ti *traceInfo, plans [][]fieldPlan, pts []geom.Point) *traceOpRecord {
	rec := &traceOpRecord{points: append([]geom.Point(nil), pts...)}
	for _, pp := range plans {
		var enc []encodedPlan
		for _, pl := range pp {
			ep := encodedPlan{plan: pl}
			ep.plan.sources = nil
			for _, s := range pl.sources {
				es := encodedSource{piece: s}
				es.piece.reds = nil
				if !s.fill {
					es.ref = ti.encodeRef(s.key.Seq)
				}
				for _, r := range s.reds {
					es.reds = append(es.reds, encodedRed{pull: r, ref: ti.encodeRef(r.key.Seq)})
				}
				ep.sources = append(ep.sources, es)
			}
			enc = append(enc, ep)
		}
		rec.plans = append(rec.plans, enc)
	}
	return rec
}

// decodePlans reconstructs absolute plans for a replayed occurrence,
// or nil if a reference cannot be resolved (invalidating the trace).
func decodePlans(ti *traceInfo, rec *traceOpRecord) [][]fieldPlan {
	out := make([][]fieldPlan, len(rec.plans))
	for pi, enc := range rec.plans {
		plans := make([]fieldPlan, len(enc))
		for i, ep := range enc {
			cp := ep.plan
			cp.sources = make([]sourcePiece, len(ep.sources))
			for si, es := range ep.sources {
				cs := es.piece
				if !cs.fill {
					seq, ok := ti.resolveRef(es.ref)
					if !ok {
						return nil
					}
					cs.key.Seq = seq
				}
				cs.reds = make([]redPull, len(es.reds))
				for j, er := range es.reds {
					cr := er.pull
					seq, ok := ti.resolveRef(er.ref)
					if !ok {
						return nil
					}
					cr.key.Seq = seq
					cs.reds[j] = cr
				}
				cp.sources[si] = cs
			}
			plans[i] = cp
		}
		out[pi] = plans
	}
	return out
}

func equalRecords(a, b *traceOpRecord) bool {
	if len(a.points) != len(b.points) || len(a.plans) != len(b.plans) {
		return false
	}
	for i := range a.points {
		if a.points[i] != b.points[i] {
			return false
		}
	}
	for i := range a.plans {
		if len(a.plans[i]) != len(b.plans[i]) {
			return false
		}
		for j := range a.plans[i] {
			if !equalEncPlan(&a.plans[i][j], &b.plans[i][j]) {
				return false
			}
		}
	}
	return true
}

func equalEncPlan(a, b *encodedPlan) bool {
	x, y := &a.plan, &b.plan
	if x.reqIdx != y.reqIdx || x.root != y.root || x.field != y.field ||
		!x.rect.Equal(y.rect) || x.priv != y.priv || x.redOp != y.redOp ||
		len(a.sources) != len(b.sources) {
		return false
	}
	for i := range a.sources {
		s, u := &a.sources[i], &b.sources[i]
		if !s.piece.rect.Equal(u.piece.rect) || s.piece.fill != u.piece.fill ||
			s.piece.fillVal != u.piece.fillVal || s.piece.owner != u.piece.owner ||
			s.ref != u.ref || len(s.reds) != len(u.reds) {
			return false
		}
		if !s.piece.fill {
			// Non-fill pieces must also agree on the producer point
			// and region identity (seq is covered by ref).
			if s.piece.key.Point != u.piece.key.Point ||
				s.piece.key.Root != u.piece.key.Root ||
				s.piece.key.Field != u.piece.key.Field {
				return false
			}
		}
		for j := range s.reds {
			sr, ur := &s.reds[j], &u.reds[j]
			if !sr.pull.rect.Equal(ur.pull.rect) || sr.pull.owner != ur.pull.owner ||
				sr.pull.op != ur.pull.op || sr.ref != ur.ref ||
				sr.pull.key.Point != ur.pull.key.Point ||
				sr.pull.key.Root != ur.pull.key.Root ||
				sr.pull.key.Field != ur.pull.key.Field {
				return false
			}
		}
	}
	return true
}

// traceDebug enables mismatch dumps during trace validation.
var traceDebug = false

func dumpRecordDiff(a, b *traceOpRecord) {
	fmt.Printf("trace mismatch: points %v vs %v\n", a.points, b.points)
	for i := range a.plans {
		if i >= len(b.plans) {
			break
		}
		for j := range a.plans[i] {
			if j >= len(b.plans[i]) {
				break
			}
			if !equalEncPlan(&a.plans[i][j], &b.plans[i][j]) {
				fmt.Printf("  plan[%d][%d] differs:\n    rec: %+v\n    new: %+v\n",
					i, j, a.plans[i][j], b.plans[i][j])
			}
		}
	}
}
