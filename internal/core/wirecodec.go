package core

// Binary wire encodings for the runtime's hot payload types. Gob
// spends most of its budget on per-message type descriptors and
// reflection; the hand-rolled layouts below are flat little-endian
// records decoded with a bounds-checked cursor, registered with the
// cluster codec so TCPOptions.Codec == CodecBinary picks them up.
// Anything not registered here (divergeVote, test-only payloads) rides
// the codec's self-describing gob fallback unchanged.

import (
	"encoding/binary"
	"math"

	"godcr/internal/cluster"
	"godcr/internal/geom"
	"godcr/internal/instance"
	"godcr/internal/region"
)

// Binary payload tags owned by this package (collective owns 0x50+).
const (
	wireTagPullReq      = cluster.BinaryTagCustomBase + iota // 0x40
	wireTagPullResp                                          // 0x41
	wireTagScalarReq                                         // 0x42
	wireTagScalarResp                                        // 0x43
	wireTagPointVals                                         // 0x44
	wireTagRemoteTask                                        // 0x45
	wireTagRemoteResult                                      // 0x46
	wireTagCheckVal                                          // 0x47
)

func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendI64(dst []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(dst, uint64(v)) }
func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}
func appendStr(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}
func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Points are fixed geom.MaxDim lanes so the layout never depends on
// which dimensions a rect happens to use.
func appendPoint(dst []byte, p geom.Point) []byte {
	for i := 0; i < geom.MaxDim; i++ {
		dst = appendI64(dst, p[i])
	}
	return dst
}

func readPoint(r *cluster.WireReader) (p geom.Point) {
	for i := 0; i < geom.MaxDim; i++ {
		p[i] = r.I64()
	}
	return p
}

func appendRect(dst []byte, rc geom.Rect) []byte {
	dst = append(dst, byte(rc.Dim))
	dst = appendPoint(dst, rc.Lo)
	return appendPoint(dst, rc.Hi)
}

func readRect(r *cluster.WireReader) geom.Rect {
	dim := int(r.U8())
	lo := readPoint(r)
	hi := readPoint(r)
	if dim > geom.MaxDim {
		r.Bad = true
		dim = 0
	}
	return geom.Rect{Dim: dim, Lo: lo, Hi: hi}
}

func appendVerKey(dst []byte, k verKey) []byte {
	dst = appendU64(dst, k.Seq)
	dst = appendPoint(dst, k.Point)
	dst = appendU32(dst, uint32(k.Root))
	return appendU32(dst, uint32(k.Field))
}

func readVerKey(r *cluster.WireReader) verKey {
	return verKey{
		Seq:   r.U64(),
		Point: readPoint(r),
		Root:  region.RegionID(int32(r.U32())),
		Field: region.FieldID(int32(r.U32())),
	}
}

func appendRedPull(dst []byte, rp redPull) []byte {
	dst = appendRect(dst, rp.rect)
	dst = appendVerKey(dst, rp.key)
	dst = appendI64(dst, int64(rp.owner))
	return appendI64(dst, int64(rp.op))
}

// redPull wire size: rect 49 + key 40 + owner 8 + op 8.
const redPullWireLen = 49 + 40 + 8 + 8

// pullItem wire size: key 40 + rect 49.
const pullItemWireLen = 40 + 49

func readRedPull(r *cluster.WireReader) redPull {
	return redPull{
		rect:  readRect(r),
		key:   readVerKey(r),
		owner: int(r.I64()),
		op:    instance.ReduceOp(r.I64()),
	}
}

func appendSourcePiece(dst []byte, sp sourcePiece) []byte {
	dst = appendRect(dst, sp.rect)
	dst = appendBool(dst, sp.fill)
	dst = appendF64(dst, sp.fillVal)
	dst = appendVerKey(dst, sp.key)
	dst = appendI64(dst, int64(sp.owner))
	dst = appendU32(dst, uint32(len(sp.reds)))
	for _, rp := range sp.reds {
		dst = appendRedPull(dst, rp)
	}
	return dst
}

func readSourcePiece(r *cluster.WireReader) sourcePiece {
	sp := sourcePiece{
		rect:    readRect(r),
		fill:    r.Bool(),
		fillVal: r.F64(),
		key:     readVerKey(r),
		owner:   int(r.I64()),
	}
	if n := r.Count(redPullWireLen); n > 0 {
		sp.reds = make([]redPull, n)
		for i := range sp.reds {
			sp.reds[i] = readRedPull(r)
		}
	}
	return sp
}

// fieldPlan is the type gob cannot carry at all (unexported fields are
// silently dropped), so this layout is what makes centralized-mode
// plans genuinely wire-capable.
func appendFieldPlan(dst []byte, fp fieldPlan) []byte {
	dst = appendI64(dst, int64(fp.reqIdx))
	dst = appendU32(dst, uint32(fp.root))
	dst = appendU32(dst, uint32(fp.field))
	dst = appendStr(dst, fp.fieldName)
	dst = appendRect(dst, fp.rect)
	dst = appendI64(dst, int64(fp.priv))
	dst = appendI64(dst, int64(fp.redOp))
	dst = appendU32(dst, uint32(len(fp.sources)))
	for _, sp := range fp.sources {
		dst = appendSourcePiece(dst, sp)
	}
	return dst
}

// Minimum sourcePiece wire size (empty name/reds): used only as the
// per-element floor for hostile-count validation.
const sourcePieceMinWireLen = 49 + 1 + 8 + 40 + 8 + 4

func readFieldPlan(r *cluster.WireReader) fieldPlan {
	fp := fieldPlan{
		reqIdx:    int(r.I64()),
		root:      region.RegionID(int32(r.U32())),
		field:     region.FieldID(int32(r.U32())),
		fieldName: r.Str(),
		rect:      readRect(r),
		priv:      Privilege(r.I64()),
		redOp:     instance.ReduceOp(r.I64()),
	}
	if n := r.Count(sourcePieceMinWireLen); n > 0 {
		fp.sources = make([]sourcePiece, n)
		for i := range fp.sources {
			fp.sources[i] = readSourcePiece(r)
		}
	}
	return fp
}

const fieldPlanMinWireLen = 8 + 4 + 4 + 4 + 49 + 8 + 8 + 4

func init() {
	// pullReq: attempt u64 | batch u64 | from i64 | n u32 | n × (key, rect).
	cluster.RegisterBinaryPayload(wireTagPullReq, pullReq{},
		func(dst []byte, v any) ([]byte, error) {
			q := v.(pullReq)
			dst = appendU64(dst, q.Attempt)
			dst = appendU64(dst, q.Batch)
			dst = appendI64(dst, int64(q.From))
			dst = appendU32(dst, uint32(len(q.Items)))
			for _, it := range q.Items {
				dst = appendVerKey(dst, it.Key)
				dst = appendRect(dst, it.Rect)
			}
			return dst, nil
		},
		func(b []byte) (any, int, error) {
			r := cluster.WireReader{B: b}
			q := pullReq{Attempt: r.U64(), Batch: r.U64(), From: int(r.I64())}
			if n := r.Count(pullItemWireLen); n > 0 {
				q.Items = make([]pullItem, n)
				for i := range q.Items {
					q.Items[i] = pullItem{Key: readVerKey(&r), Rect: readRect(&r)}
				}
			}
			return q, r.Off, r.Err()
		})

	// pullResp: attempt u64 | batch u64 | items u32 | vals (u32 count + f64s).
	cluster.RegisterBinaryPayload(wireTagPullResp, pullResp{},
		func(dst []byte, v any) ([]byte, error) {
			p := v.(pullResp)
			dst = appendU64(dst, p.Attempt)
			dst = appendU64(dst, p.Batch)
			dst = appendU32(dst, uint32(p.Items))
			return cluster.AppendFloats(dst, p.Vals), nil
		},
		func(b []byte) (any, int, error) {
			r := cluster.WireReader{B: b}
			p := pullResp{Attempt: r.U64(), Batch: r.U64(), Items: int(r.U32()), Vals: r.Floats()}
			return p, r.Off, r.Err()
		})

	cluster.RegisterBinaryPayload(wireTagScalarReq, scalarReq{},
		func(dst []byte, v any) ([]byte, error) {
			q := v.(scalarReq)
			dst = appendU64(dst, q.Seq)
			dst = appendI64(dst, int64(q.Idx))
			dst = appendU64(dst, q.ReplyTag)
			return appendI64(dst, int64(q.From)), nil
		},
		func(b []byte) (any, int, error) {
			r := cluster.WireReader{B: b}
			q := scalarReq{
				Seq:      r.U64(),
				Idx:      int(r.I64()),
				ReplyTag: r.U64(),
				From:     int(r.I64()),
			}
			return q, r.Off, r.Err()
		})

	cluster.RegisterBinaryPayload(wireTagScalarResp, scalarResp{},
		func(dst []byte, v any) ([]byte, error) {
			p := v.(scalarResp)
			dst = appendBool(dst, p.OK)
			return appendF64(dst, p.Val), nil
		},
		func(b []byte) (any, int, error) {
			r := cluster.WireReader{B: b}
			p := scalarResp{OK: r.Bool(), Val: r.F64()}
			return p, r.Off, r.Err()
		})

	cluster.RegisterBinaryPayload(wireTagPointVals, []pointVal(nil),
		func(dst []byte, v any) ([]byte, error) {
			pvs := v.([]pointVal)
			dst = appendU32(dst, uint32(len(pvs)))
			for _, pv := range pvs {
				dst = appendPoint(dst, pv.P)
				dst = appendF64(dst, pv.V)
			}
			return dst, nil
		},
		func(b []byte) (any, int, error) {
			r := cluster.WireReader{B: b}
			var pvs []pointVal
			if n := r.Count(8*geom.MaxDim + 8); n > 0 {
				pvs = make([]pointVal, n)
				for i := range pvs {
					pvs[i] = pointVal{P: readPoint(&r), V: r.F64()}
				}
			}
			return pvs, r.Off, r.Err()
		})

	// remoteTask / remoteResult travel as pointers (the handlers assert
	// *remoteTask), so the prototypes are pointers too.
	cluster.RegisterBinaryPayload(wireTagRemoteTask, (*remoteTask)(nil),
		func(dst []byte, v any) ([]byte, error) {
			t := v.(*remoteTask)
			dst = appendU64(dst, t.Seq)
			dst = appendStr(dst, t.Task)
			dst = appendPoint(dst, t.Point)
			dst = cluster.AppendFloats(dst, t.Args)
			dst = cluster.AppendFloats(dst, t.FutureArgs)
			dst = appendU32(dst, uint32(len(t.Plans)))
			for _, fp := range t.Plans {
				dst = appendFieldPlan(dst, fp)
			}
			return dst, nil
		},
		func(b []byte) (any, int, error) {
			r := cluster.WireReader{B: b}
			t := &remoteTask{
				Seq:        r.U64(),
				Task:       r.Str(),
				Point:      readPoint(&r),
				Args:       r.Floats(),
				FutureArgs: r.Floats(),
			}
			if n := r.Count(fieldPlanMinWireLen); n > 0 {
				t.Plans = make([]fieldPlan, n)
				for i := range t.Plans {
					t.Plans[i] = readFieldPlan(&r)
				}
			}
			return t, r.Off, r.Err()
		})

	cluster.RegisterBinaryPayload(wireTagRemoteResult, (*remoteResult)(nil),
		func(dst []byte, v any) ([]byte, error) {
			t := v.(*remoteResult)
			dst = appendU64(dst, t.Seq)
			dst = appendPoint(dst, t.Point)
			return appendF64(dst, t.Val), nil
		},
		func(b []byte) (any, int, error) {
			r := cluster.WireReader{B: b}
			t := &remoteResult{Seq: r.U64(), Point: readPoint(&r), Val: r.F64()}
			return t, r.Off, r.Err()
		})

	cluster.RegisterBinaryPayload(wireTagCheckVal, checkVal{},
		func(dst []byte, v any) ([]byte, error) {
			c := v.(checkVal)
			dst = appendU64(dst, c.A)
			dst = appendU64(dst, c.B)
			dst = appendU64(dst, c.Calls)
			dst = appendBool(dst, c.Mismatch)
			return appendU64(dst, c.At), nil
		},
		func(b []byte) (any, int, error) {
			r := cluster.WireReader{B: b}
			c := checkVal{A: r.U64(), B: r.U64(), Calls: r.U64(), Mismatch: r.Bool(), At: r.U64()}
			return c, r.Off, r.Err()
		})
}
