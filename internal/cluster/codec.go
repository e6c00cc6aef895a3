package cluster

// The payload codec seam. A PayloadCodec turns a logical payload into
// bytes and back; the TCP backend (and WireEncode mode) select one per
// endpoint. Two codecs are built in:
//
//   - CodecGob wraps the historical gob envelope (EncodeWire /
//     DecodeWire). Any gob-registered type works, at gob's cost: every
//     message carries a fresh encoder's type descriptors.
//   - CodecBinary is a hand-rolled, allocation-free encoder for the
//     runtime's hot wire types (scalars, float vectors, the reliable
//     sublayer's relData, and every type registered through
//     RegisterBinaryPayload), falling back to a length-prefixed gob
//     body for anything it does not know — so user payload types keep
//     working unchanged, just without the fast path.
//
// On the TCP wire every data-frame payload is prefixed with the one
// byte ID of the codec that produced it, so the receiving endpoint
// dispatches per frame and a gob peer can talk to a binary peer. The
// binary body itself is a tagged little-endian value:
//
//	u8 tag, then:
//	  0x00 nil        (empty body)
//	  0x01 false      (empty body)
//	  0x02 true       (empty body)
//	  0x03 int        i64
//	  0x04 int64      i64
//	  0x05 uint64     u64
//	  0x06 float64    IEEE-754 bits, u64
//	  0x07 string     u32 len + bytes
//	  0x08 []byte     u32 len + bytes
//	  0x09 []float64  u32 count + count * f64
//	  0x0A []int64    u32 count + count * i64
//	  0x0B relData    u64 seq + u64 tag + u64 ack + nested value
//	  0x3F gob        u32 len + EncodeWire bytes (the fallback)
//	  0x40.. custom   body defined by the RegisterBinaryPayload encoder
//
// Decoders are total (arbitrary bytes error, never panic) and never
// retain their input: inbound frame buffers are reused by the reader.

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// PayloadCodec encodes data-frame payloads for a remote backend.
// Implementations must be safe for concurrent use. Decode must not
// retain b — callers reuse the buffer.
type PayloadCodec interface {
	// ID is the codec's wire identifier, prefixed to every encoded
	// payload so the receiving endpoint can dispatch per frame.
	ID() byte
	// Name identifies the codec in diagnostics and benchmark records.
	Name() string
	// Append encodes v onto dst and returns the extended slice.
	Append(dst []byte, v any) ([]byte, error)
	// Decode parses a payload produced by Append.
	Decode(b []byte) (any, error)
}

// Built-in codec IDs.
const (
	codecIDGob    = byte(0)
	codecIDBinary = byte(1)
)

// CodecGob is the gob envelope codec — the historical wire format, and
// the fallback CodecBinary uses for unregistered payload types.
var CodecGob PayloadCodec = gobCodec{}

// CodecBinary is the hand-rolled binary codec: the default on the TCP
// backend.
var CodecBinary PayloadCodec = binaryCodec{}

var (
	codecMu sync.RWMutex
	codecs  = map[byte]PayloadCodec{codecIDGob: CodecGob, codecIDBinary: CodecBinary}
)

// RegisterCodec makes a custom codec decodable by ID on this endpoint.
// The built-in codecs are pre-registered; both endpoints of a link must
// register the same codec for its frames to be understood.
func RegisterCodec(c PayloadCodec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	codecs[c.ID()] = c
}

func codecByID(id byte) PayloadCodec {
	codecMu.RLock()
	defer codecMu.RUnlock()
	return codecs[id]
}

// appendPayload encodes v with c, prefixed by c's codec ID.
func appendPayload(dst []byte, c PayloadCodec, v any) ([]byte, error) {
	dst = append(dst, c.ID())
	return c.Append(dst, v)
}

// DecodePayload decodes a codec-ID-prefixed payload (the body of a TCP
// data frame). Empty input is a nil payload (barriers, heartbeats).
func DecodePayload(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, nil
	}
	c := codecByID(b[0])
	if c == nil {
		return nil, fmt.Errorf("%w: unknown payload codec %d", ErrBadPayload, b[0])
	}
	return c.Decode(b[1:])
}

// --- Gob codec -----------------------------------------------------------

type gobCodec struct{}

func (gobCodec) ID() byte     { return codecIDGob }
func (gobCodec) Name() string { return "gob" }

func (gobCodec) Append(dst []byte, v any) ([]byte, error) {
	if v == nil {
		return dst, nil
	}
	b, err := EncodeWire(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

func (gobCodec) Decode(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, nil
	}
	return DecodeWire(b)
}

// --- Binary codec --------------------------------------------------------

// Binary value tags.
const (
	binNil     = byte(0x00)
	binFalse   = byte(0x01)
	binTrue    = byte(0x02)
	binInt     = byte(0x03)
	binInt64   = byte(0x04)
	binUint64  = byte(0x05)
	binFloat64 = byte(0x06)
	binString  = byte(0x07)
	binBytes   = byte(0x08)
	binFloats  = byte(0x09)
	binInt64s  = byte(0x0A)
	binRelData = byte(0x0B)
	binGob     = byte(0x3F)
	// BinaryTagCustomBase is the first tag available to
	// RegisterBinaryPayload; everything below is reserved for builtins.
	BinaryTagCustomBase = byte(0x40)
)

// binEntry is one registered custom payload type.
type binEntry struct {
	enc func(dst []byte, v any) ([]byte, error)
	dec func(b []byte) (any, int, error)
}

var (
	binRegMu  sync.RWMutex
	binByType = map[reflect.Type]byte{}
	binByTag  [256]*binEntry
)

// RegisterBinaryPayload gives a payload type a fast path through
// CodecBinary: enc appends the type's body (everything after the tag
// byte) to dst, dec parses it back, returning the value and the bytes
// consumed (nested values let trailing data follow). tag must be >=
// BinaryTagCustomBase and unique; prototype fixes the Go type the
// encoder handles. Encoders for nested `any` fields use
// AppendBinaryValue / DecodeBinaryValue so registered types compose.
// Call from init — types must be registered on both link endpoints
// before traffic flows.
func RegisterBinaryPayload(tag byte, prototype any,
	enc func(dst []byte, v any) ([]byte, error),
	dec func(b []byte) (any, int, error)) {
	if tag < BinaryTagCustomBase {
		panic(fmt.Sprintf("cluster: binary payload tag %#x below custom base %#x", tag, BinaryTagCustomBase))
	}
	rt := reflect.TypeOf(prototype)
	if rt == nil {
		panic("cluster: binary payload prototype must be non-nil")
	}
	binRegMu.Lock()
	defer binRegMu.Unlock()
	if binByTag[tag] != nil {
		panic(fmt.Sprintf("cluster: binary payload tag %#x registered twice", tag))
	}
	if _, dup := binByType[rt]; dup {
		panic(fmt.Sprintf("cluster: binary payload type %v registered twice", rt))
	}
	binByTag[tag] = &binEntry{enc: enc, dec: dec}
	binByType[rt] = tag
}

type binaryCodec struct{}

func (binaryCodec) ID() byte     { return codecIDBinary }
func (binaryCodec) Name() string { return "binary" }

func (binaryCodec) Append(dst []byte, v any) ([]byte, error) {
	return AppendBinaryValue(dst, v)
}

// Decode is strict: the body must be exactly one value with no
// trailing bytes, so corruption cannot hide behind a short parse.
func (binaryCodec) Decode(b []byte) (any, error) {
	v, n, err := DecodeBinaryValue(b)
	if err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after binary value", ErrBadPayload, len(b)-n)
	}
	return v, nil
}

// AppendBinaryValue encodes one value in CodecBinary's tagged format.
// Exposed so RegisterBinaryPayload encoders can embed nested `any`
// fields (collective gather items carry arbitrary payloads).
func AppendBinaryValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, binNil), nil
	case bool:
		if x {
			return append(dst, binTrue), nil
		}
		return append(dst, binFalse), nil
	case int:
		dst = append(dst, binInt)
		return binary.LittleEndian.AppendUint64(dst, uint64(int64(x))), nil
	case int64:
		dst = append(dst, binInt64)
		return binary.LittleEndian.AppendUint64(dst, uint64(x)), nil
	case uint64:
		dst = append(dst, binUint64)
		return binary.LittleEndian.AppendUint64(dst, x), nil
	case float64:
		dst = append(dst, binFloat64)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x)), nil
	case string:
		dst = append(dst, binString)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(x)))
		return append(dst, x...), nil
	case []byte:
		dst = append(dst, binBytes)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(x)))
		return append(dst, x...), nil
	case []float64:
		dst = append(dst, binFloats)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(x)))
		for _, f := range x {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
		return dst, nil
	case []int64:
		dst = append(dst, binInt64s)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(x)))
		for _, i := range x {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(i))
		}
		return dst, nil
	case relData:
		dst = append(dst, binRelData)
		dst = binary.LittleEndian.AppendUint64(dst, x.Seq)
		dst = binary.LittleEndian.AppendUint64(dst, x.Tag)
		dst = binary.LittleEndian.AppendUint64(dst, x.Ack)
		return AppendBinaryValue(dst, x.Payload)
	}
	binRegMu.RLock()
	tag, ok := binByType[reflect.TypeOf(v)]
	var e *binEntry
	if ok {
		e = binByTag[tag]
	}
	binRegMu.RUnlock()
	if e != nil {
		dst = append(dst, tag)
		return e.enc(dst, v)
	}
	// Fallback: a length-prefixed gob body, so unregistered user types
	// still cross the wire (the length keeps nested values parseable).
	b, err := EncodeWire(v)
	if err != nil {
		return dst, err
	}
	dst = append(dst, binGob)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...), nil
}

// DecodeBinaryValue decodes one tagged binary value from the front of
// b, returning the value and the bytes consumed. Total: arbitrary
// input errors, never panics, and never allocates past the input
// length. The returned value never aliases b.
func DecodeBinaryValue(b []byte) (any, int, error) {
	if len(b) == 0 {
		return nil, 0, fmt.Errorf("%w: empty binary value", ErrBadPayload)
	}
	tag, body := b[0], b[1:]
	need := func(n int) error {
		if len(body) < n {
			return fmt.Errorf("%w: binary tag %#x truncated (%d of %d bytes)", ErrBadPayload, tag, len(body), n)
		}
		return nil
	}
	switch tag {
	case binNil:
		return nil, 1, nil
	case binFalse:
		return false, 1, nil
	case binTrue:
		return true, 1, nil
	case binInt:
		if err := need(8); err != nil {
			return nil, 0, err
		}
		return int(int64(binary.LittleEndian.Uint64(body))), 9, nil
	case binInt64:
		if err := need(8); err != nil {
			return nil, 0, err
		}
		return int64(binary.LittleEndian.Uint64(body)), 9, nil
	case binUint64:
		if err := need(8); err != nil {
			return nil, 0, err
		}
		return binary.LittleEndian.Uint64(body), 9, nil
	case binFloat64:
		if err := need(8); err != nil {
			return nil, 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(body)), 9, nil
	case binString:
		if err := need(4); err != nil {
			return nil, 0, err
		}
		n := int(binary.LittleEndian.Uint32(body))
		if err := need(4 + n); err != nil {
			return nil, 0, err
		}
		return string(body[4 : 4+n]), 5 + n, nil
	case binBytes:
		if err := need(4); err != nil {
			return nil, 0, err
		}
		n := int(binary.LittleEndian.Uint32(body))
		if err := need(4 + n); err != nil {
			return nil, 0, err
		}
		var out []byte
		if n > 0 {
			out = append(out, body[4:4+n]...) // copy: b is a reused buffer
		}
		return out, 5 + n, nil
	case binFloats:
		if err := need(4); err != nil {
			return nil, 0, err
		}
		n := int(binary.LittleEndian.Uint32(body))
		if err := need(4 + 8*n); err != nil {
			return nil, 0, err
		}
		var out []float64
		if n > 0 {
			out = make([]float64, n)
			for i := range out {
				out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[4+8*i:]))
			}
		}
		return out, 5 + 8*n, nil
	case binInt64s:
		if err := need(4); err != nil {
			return nil, 0, err
		}
		n := int(binary.LittleEndian.Uint32(body))
		if err := need(4 + 8*n); err != nil {
			return nil, 0, err
		}
		var out []int64
		if n > 0 {
			out = make([]int64, n)
			for i := range out {
				out[i] = int64(binary.LittleEndian.Uint64(body[4+8*i:]))
			}
		}
		return out, 5 + 8*n, nil
	case binRelData:
		if err := need(24); err != nil {
			return nil, 0, err
		}
		d := relData{
			Seq: binary.LittleEndian.Uint64(body),
			Tag: binary.LittleEndian.Uint64(body[8:]),
			Ack: binary.LittleEndian.Uint64(body[16:]),
		}
		inner, n, err := DecodeBinaryValue(body[24:])
		if err != nil {
			return nil, 0, err
		}
		d.Payload = inner
		return d, 25 + n, nil
	case binGob:
		if err := need(4); err != nil {
			return nil, 0, err
		}
		n := int(binary.LittleEndian.Uint32(body))
		if err := need(4 + n); err != nil {
			return nil, 0, err
		}
		v, err := DecodeWire(body[4 : 4+n])
		if err != nil {
			return nil, 0, err
		}
		return v, 5 + n, nil
	}
	binRegMu.RLock()
	e := binByTag[tag]
	binRegMu.RUnlock()
	if e == nil {
		return nil, 0, fmt.Errorf("%w: unknown binary tag %#x", ErrBadPayload, tag)
	}
	v, n, err := e.dec(body)
	if err != nil {
		return nil, 0, err
	}
	if n < 0 || n > len(body) {
		return nil, 0, fmt.Errorf("%w: binary tag %#x consumed %d of %d bytes", ErrBadPayload, tag, n, len(body))
	}
	return v, 1 + n, nil
}

// --- Bounds-checked reader ----------------------------------------------

// WireReader is a bounds-checked little-endian cursor for hand-rolled
// payload decoders (the RegisterBinaryPayload dec functions). Reads
// past the end set Bad and return zero values, so decoders can parse
// straight-line and check once at the end.
type WireReader struct {
	B   []byte
	Off int
	Bad bool
}

// Remaining returns the unread byte count.
func (r *WireReader) Remaining() int { return len(r.B) - r.Off }

func (r *WireReader) take(n int) []byte {
	if r.Bad || r.Off+n > len(r.B) {
		r.Bad = true
		return nil
	}
	b := r.B[r.Off : r.Off+n]
	r.Off += n
	return b
}

// U8 reads one byte.
func (r *WireReader) U8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads one byte as a boolean.
func (r *WireReader) Bool() bool { return r.U8() != 0 }

// U32 reads a little-endian uint32.
func (r *WireReader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *WireReader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a little-endian int64.
func (r *WireReader) I64() int64 { return int64(r.U64()) }

// F64 reads a little-endian IEEE-754 float64.
func (r *WireReader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a u32-length-prefixed string (a copy, never an alias).
func (r *WireReader) Str() string {
	n := int(r.U32())
	if b := r.take(n); b != nil {
		return string(b)
	}
	return ""
}

// Count reads a u32 element count and validates that at least count *
// elemSize bytes remain, so a hostile length cannot drive a huge
// allocation.
func (r *WireReader) Count(elemSize int) int {
	n := int(r.U32())
	if n < 0 || elemSize <= 0 || n > r.Remaining()/elemSize {
		r.Bad = true
		return 0
	}
	return n
}

// Floats reads a u32-count-prefixed []float64 (nil when empty).
func (r *WireReader) Floats() []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// Value reads one nested tagged binary value (see DecodeBinaryValue).
func (r *WireReader) Value() any {
	if r.Bad {
		return nil
	}
	v, n, err := DecodeBinaryValue(r.B[r.Off:])
	if err != nil {
		r.Bad = true
		return nil
	}
	r.Off += n
	return v
}

// Err returns an error when any read overran the input or the input
// was not fully consumed by a decoder that demands it.
func (r *WireReader) Err() error {
	if r.Bad {
		return fmt.Errorf("%w: truncated binary payload", ErrBadPayload)
	}
	return nil
}

// AppendFloats appends a u32-count-prefixed []float64 — the writer-side
// twin of WireReader.Floats.
func AppendFloats(dst []byte, vals []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
	for _, f := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}
