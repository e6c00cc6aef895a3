package cluster

// The transport seam. Everything the runtime builds on — tag-matched
// receives, active-message dispatch, the reliable ack/retransmit
// sublayer, fault injection, heartbeats, collectives — lives in the
// Cluster facade *above* this interface; a Transport only moves frames
// between endpoints and propagates the epoch interrupt/revive control
// signals. Two backends implement it: MemTransport (every node in one
// process, synchronous handoff — the original in-process machine) and
// TCPTransport (one process per group of nodes, length-prefixed binary
// frames over TCP with per-peer reconnect). Because the upper layers
// are backend-agnostic, chaos plans, phi-accrual detection, and the
// O(log N) collectives behave identically over both.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"
)

// Frame is one transport-level datagram: the versioned wire unit every
// backend moves. Exactly one of Payload (in-process fast path) or Wire
// (encoded bytes, produced by EncodeWire) carries the body; control
// frames (interrupt/revive/hello) use Wire for their raw metadata.
type Frame struct {
	// Kind discriminates data frames from transport control frames.
	Kind byte
	// Epoch is the transport generation the frame was sent in;
	// receivers drop frames from dead epochs.
	Epoch uint64
	// Tag is the logical message tag (see the reserved tag spaces in
	// faults.go / heartbeat.go / internal/core).
	Tag uint64
	// Seq is a per-sender frame counter, for diagnostics.
	Seq uint64
	// From and To are the endpoints.
	From, To NodeID
	// Payload is the in-process body; never crosses a process boundary.
	Payload any
	// Wire is the encoded body (EncodeWire output for data frames, raw
	// bytes for control frames). Set by remote backends.
	Wire []byte
	// Hint estimates the encoded payload size when Wire is nil, so
	// byte accounting stays meaningful on the in-process fast path.
	Hint int
}

// Frame kinds.
const (
	frameData      = byte(1) // a logical message
	frameInterrupt = byte(2) // remote Interrupt broadcast (Wire = reason)
	frameRevive    = byte(3) // remote Revive broadcast (Epoch = new epoch)
	frameHello     = byte(4) // connection handshake (Wire = {cluster size, epoch})
	frameReviveAck = byte(5) // revive barrier acknowledgement (Epoch = acked epoch)
	frameEpochReq  = byte(6) // epoch rendezvous query (Seq = nonce, Epoch = sender's)
	frameEpochAck  = byte(7) // epoch rendezvous reply (Seq = echoed nonce)
	// The quiesce rendezvous of partial restart: at a resumed attempt
	// boundary every process publishes an opaque park descriptor (which
	// shards it hosts, their retained frontiers, whether they are
	// rejoining) and collects its peers', keyed by the attempt epoch.
	frameQuiesceReq = byte(8) // park-descriptor query (Epoch = attempt epoch)
	frameQuiesceAck = byte(9) // park-descriptor reply (Wire = descriptor)
)

// Sink is the upcall half of the seam: a bound Cluster receives
// delivered frames (feeding its tag-match queues and active-message
// handlers) and remote control signals through it.
type Sink interface {
	// Deliver hands an arriving data frame to the endpoint layer.
	Deliver(f *Frame)
	// Interrupted reports that a remote peer interrupted the transport.
	Interrupted(reason string)
	// Revived reports that a remote peer revived the transport into a
	// new epoch.
	Revived(epoch uint64)
}

// WireStats counts a backend's physical activity. Unlike the logical
// counters in Stats these are frame-level: every transmission counts,
// on every backend, whether or not WireEncode is on.
type WireStats struct {
	// FramesOut/BytesOut count transmitted frames and their wire size
	// (header + payload; estimated via Frame.Hint when the payload
	// never leaves the process).
	FramesOut uint64
	BytesOut  uint64
	// FramesIn/BytesIn count received frames.
	FramesIn uint64
	BytesIn  uint64
	// Reconnects counts established connections that broke and were
	// re-dialed (always 0 on MemTransport).
	Reconnects uint64
	// CorruptFrames counts frames rejected by CRC verification before
	// decode: payload-CRC failures dropped like line loss plus
	// header-CRC failures that tore the connection down (always 0 on
	// MemTransport, which never encodes).
	CorruptFrames uint64
}

// Transport moves frames between cluster endpoints. Implementations
// must be safe for concurrent Sends and must deliver frames for a
// given (From, To) pair in Send order (per-link FIFO); everything
// else — matching, reliability, fault injection — is layered above.
type Transport interface {
	// Size is the total number of nodes the transport connects.
	Size() int
	// Local lists the node ids this process hosts, ascending. On an
	// all-local backend it is [0, Size).
	Local() []NodeID
	// Bind installs the delivery upcall. Must be called exactly once,
	// before the first Send.
	Bind(s Sink)
	// Send transmits one data frame (fire-and-forget; a nil error does
	// not guarantee delivery, mirroring a real NIC).
	Send(f *Frame) error
	// Interrupt broadcasts an interrupt to remote processes (no-op on
	// all-local backends).
	Interrupt(reason string)
	// Revive announces a new epoch to remote processes and blocks until
	// every peer acknowledges it — the revive barrier. When it returns
	// nil, every remote endpoint has adopted the epoch and wiped its
	// dead-epoch queues, so traffic the caller sends next cannot land in
	// a pre-revive queue and be destroyed by a late wipe. All-local
	// backends return nil immediately; remote backends bound the wait
	// and return ErrReviveTimeout when a peer never acks (e.g. its
	// process has not been respawned yet).
	Revive(epoch uint64) error
	// SyncEpoch rendezvouses with the remote peers on the newest
	// transport epoch: it queries every peer, adopts the highest epoch
	// learned (surfacing it as a Revived upcall), and returns once all
	// peers have answered or the timeout passed. A process (re)joining a
	// cluster calls this before an attempt so it cannot start in a dead
	// epoch. timeout <= 0 selects the backend default; all-local
	// backends return immediately.
	SyncEpoch(timeout time.Duration)
	// Quiesce is the park rendezvous of partial restart: the caller
	// publishes an opaque descriptor for the given attempt epoch and
	// collects the descriptors every peer process published for the same
	// epoch, blocking until all peers answered or the timeout passed
	// (timeout <= 0 selects the backend default). Missing peers simply
	// have no entry in the result — the caller treats an incomplete
	// exchange as "no agreement" and falls back to a full restart, so
	// the barrier degrades safely. All-local backends return nil.
	Quiesce(epoch uint64, payload []byte, timeout time.Duration) map[NodeID][]byte
	// Stats snapshots the frame counters.
	Stats() WireStats
	// Close releases connections and joins backend goroutines.
	Close() error
}

// WireCorrupter is implemented by transports that carry real encoded
// bytes and can therefore inject FaultPlan.Corrupt as genuine bit-flips
// on the outgoing stream (exercising the CRC trailers end to end). The
// cluster installs the plan's probability and seed at construction;
// onCorrupt is invoked once per flipped transmission for accounting.
// Backends without a byte-level wire (the in-process mem transport)
// simply don't implement this and get corrupt-as-drop semantics from
// the fault layer instead.
type WireCorrupter interface {
	SetWireCorruption(prob float64, seed uint64, onCorrupt func())
}

// --- Frame codec ---------------------------------------------------------

// The wire format is a length-prefixed versioned binary frame:
//
//	u32  length L of everything after this prefix
//	u8   version (currently 4)
//	u8   kind (data / interrupt / revive / hello / revive-ack / epoch-req / epoch-ack)
//	u64  epoch
//	u64  tag
//	u64  seq
//	u32  from
//	u32  to
//	u32  header CRC32C over the prefix + 34-byte header above
//	[L-42]byte payload
//	u32  payload CRC32C over the payload bytes
//
// A data frame's payload opens with the one-byte ID of the payload
// codec that produced the rest (see codec.go); control frames carry
// raw metadata bytes. Version 2 frames carried no checksums, and version
// 3 peers speak the single-piece layout of the pull payloads (0x40,
// 0x41; version 4 batches them) — the version bump makes each change
// loud: an endpoint decoding another version's stream rejects the first
// frame and drops the connection instead of misparsing payloads.
//
// The two CRCs (Castagnoli polynomial, hardware-accelerated via
// hash/crc32) split corruption into two regimes. The header CRC covers
// the length prefix and header: if it fails, the length itself cannot
// be trusted, so the stream is unrecoverable and the reader tears the
// connection down for a redial. Once it passes, the frame boundary is
// sound, so a payload-CRC failure is contained: the reader drops just
// that frame — indistinguishable from line loss, recovered by the
// reliable sublayer's retransmit — and keeps the connection.
//
// All integers little-endian. The decoder is total: truncated frames,
// oversized lengths, unknown versions or kinds, and checksum
// mismatches return an error — never a panic and never an allocation
// larger than the input (FuzzFrameDecode).

const (
	frameVersion   = 4
	framePrefixLen = 4
	frameHeaderLen = 1 + 1 + 8 + 8 + 8 + 4 + 4
	// frameCRCLen is the width of each of the two CRC32C fields.
	frameCRCLen = 4
	// frameOverhead is everything in a frame that is not payload.
	frameOverhead = framePrefixLen + frameHeaderLen + 2*frameCRCLen
	// maxFramePayload bounds a single frame's payload; a length prefix
	// past this is rejected before any allocation happens.
	maxFramePayload = 64 << 20
)

// castagnoli selects the CRC32C polynomial; on amd64/arm64 this table
// routes hash/crc32 to the hardware instruction.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errBadFrame wraps every frame-decoding failure.
var errBadFrame = fmt.Errorf("cluster: bad frame")

// errCorruptPayload marks the one recoverable decode failure: the
// header CRC passed (frame boundary is sound) but the payload CRC did
// not. The TCP reader treats it as loss — drop the frame, keep the
// connection. Every other decode error is a stream desync and tears
// the connection down.
var errCorruptPayload = fmt.Errorf("%w: payload crc mismatch", errBadFrame)

// errCorruptHeader marks a header-CRC failure: the length prefix
// cannot be trusted, so the stream is desynced and the connection must
// be torn down.
var errCorruptHeader = fmt.Errorf("%w: header crc mismatch", errBadFrame)

// appendFrame appends the encoded frame (prefix, header, CRCs,
// payload) to dst and returns the extended slice. payload is the
// encoded body (may be nil).
func appendFrame(dst []byte, f *Frame, payload []byte) []byte {
	start := len(dst)
	dst = appendFrameHeader(dst, f)
	dst = append(dst, payload...)
	return finishFrame(dst, start)
}

// wireBuf is a pooled frame buffer: Send encodes into one, the peer
// writer coalesces and recycles them. Pooling keeps the steady-state
// wire path allocation-free.
type wireBuf struct{ b []byte }

var wireBufPool = sync.Pool{New: func() any { return new(wireBuf) }}

// maxPooledBuf caps the capacity a recycled buffer may retain, so one
// huge payload cannot pin its allocation in the pool forever.
const maxPooledBuf = 1 << 20

func getWireBuf() *wireBuf {
	w := wireBufPool.Get().(*wireBuf)
	w.b = w.b[:0]
	return w
}

func putWireBuf(w *wireBuf) {
	if cap(w.b) > maxPooledBuf {
		return
	}
	wireBufPool.Put(w)
}

// appendFrameHeader appends the length prefix and header CRC (as
// placeholders) and the header for f, returning the extended slice;
// the caller appends the payload and seals the frame with finishFrame.
func appendFrameHeader(dst []byte, f *Frame) []byte {
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, frameVersion, f.Kind)
	dst = binary.LittleEndian.AppendUint64(dst, f.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, f.Tag)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.From))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.To))
	return append(dst, 0, 0, 0, 0) // header CRC placeholder
}

// finishFrame seals the frame that starts at dst[start:] once the
// payload is in place: it patches the length prefix, fills the header
// CRC (which covers the now-final prefix), and appends the payload CRC
// trailer, returning the extended slice.
func finishFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start:],
		uint32(len(dst)-start-framePrefixLen+frameCRCLen))
	hdrEnd := start + framePrefixLen + frameHeaderLen
	binary.LittleEndian.PutUint32(dst[hdrEnd:], crc32.Checksum(dst[start:hdrEnd], castagnoli))
	payloadCRC := crc32.Checksum(dst[hdrEnd+frameCRCLen:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, payloadCRC)
}

// finishFrameRaw seals the frame without computing checksums (the CRC
// fields stay zero) — the send half of the DisableCRC benchmark
// ablation. A verifying receiver rejects such frames; only matched
// DisableCRC endpoints may exchange them.
func finishFrameRaw(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start:],
		uint32(len(dst)-start-framePrefixLen+frameCRCLen))
	return append(dst, 0, 0, 0, 0)
}

// appendDataFrame encodes a data frame directly into dst: header, the
// codec-ID byte, and the codec's payload bytes — no intermediate
// payload allocation. A nil payload (barriers, heartbeats) stays an
// empty body. On error dst is returned truncated to its input length.
func appendDataFrame(dst []byte, f *Frame, c PayloadCodec) ([]byte, error) {
	return appendDataFrameChecked(dst, f, c, true)
}

// appendDataFrameChecked is appendDataFrame with checksumming optional
// (crc=false is the DisableCRC benchmark ablation).
func appendDataFrameChecked(dst []byte, f *Frame, c PayloadCodec, crc bool) ([]byte, error) {
	start := len(dst)
	dst = appendFrameHeader(dst, f)
	if f.Payload != nil {
		var err error
		if dst, err = appendPayload(dst, c, f.Payload); err != nil {
			return dst[:start], err
		}
	} else if len(f.Wire) > 0 {
		dst = append(dst, f.Wire...)
	}
	if !crc {
		return finishFrameRaw(dst, start), nil
	}
	return finishFrame(dst, start), nil
}

// decodeFrame parses one length-prefixed frame from the front of b,
// verifying both CRCs, and returns the frame and the number of bytes
// consumed. The returned frame's Wire aliases b. A payload-CRC
// mismatch returns errCorruptPayload with the full frame length
// consumed, so a streaming reader can skip the frame and stay in sync;
// every other failure consumes nothing.
func decodeFrame(b []byte) (Frame, int, error) {
	return decodeFrameChecked(b, true)
}

// decodeFrameChecked is decodeFrame with CRC verification optional.
// verify=false exists solely for the CRC-overhead benchmark ablation
// (TCPOptions.DisableCRC) — production paths always verify.
func decodeFrameChecked(b []byte, verify bool) (Frame, int, error) {
	var f Frame
	if len(b) < framePrefixLen {
		return f, 0, fmt.Errorf("%w: short prefix (%d bytes)", errBadFrame, len(b))
	}
	l := int(binary.LittleEndian.Uint32(b))
	if l < frameHeaderLen+2*frameCRCLen {
		return f, 0, fmt.Errorf("%w: length %d below header size", errBadFrame, l)
	}
	if l > frameHeaderLen+2*frameCRCLen+maxFramePayload {
		return f, 0, fmt.Errorf("%w: length %d exceeds payload cap", errBadFrame, l)
	}
	if len(b) < framePrefixLen+l {
		return f, 0, fmt.Errorf("%w: truncated (%d of %d bytes)", errBadFrame, len(b)-framePrefixLen, l)
	}
	h := b[framePrefixLen:]
	if h[0] != frameVersion {
		return f, 0, fmt.Errorf("%w: unknown version %d", errBadFrame, h[0])
	}
	if verify {
		want := binary.LittleEndian.Uint32(h[frameHeaderLen:])
		if got := crc32.Checksum(b[:framePrefixLen+frameHeaderLen], castagnoli); got != want {
			return f, 0, fmt.Errorf("%w: %08x, want %08x", errCorruptHeader, got, want)
		}
	}
	f.Kind = h[1]
	if f.Kind < frameData || f.Kind > frameQuiesceAck {
		return f, 0, fmt.Errorf("%w: unknown kind %d", errBadFrame, f.Kind)
	}
	f.Epoch = binary.LittleEndian.Uint64(h[2:])
	f.Tag = binary.LittleEndian.Uint64(h[10:])
	f.Seq = binary.LittleEndian.Uint64(h[18:])
	f.From = NodeID(int32(binary.LittleEndian.Uint32(h[26:])))
	f.To = NodeID(int32(binary.LittleEndian.Uint32(h[30:])))
	payload := h[frameHeaderLen+frameCRCLen : l-frameCRCLen]
	if verify {
		want := binary.LittleEndian.Uint32(h[l-frameCRCLen:])
		if got := crc32.Checksum(payload, castagnoli); got != want {
			// The header CRC vouched for the frame boundary: the caller
			// may skip exactly this frame and keep reading.
			return f, framePrefixLen + l, errCorruptPayload
		}
	}
	if len(payload) > 0 {
		f.Wire = payload
	}
	return f, framePrefixLen + l, nil
}

// wireSize is the frame's on-the-wire byte count: exact when the
// payload is encoded, overhead + Hint otherwise.
func wireSize(f *Frame) uint64 {
	n := frameOverhead
	if f.Wire != nil {
		n += len(f.Wire)
	} else {
		n += f.Hint
	}
	return uint64(n)
}

// payloadSizeHint estimates the encoded size of an in-process payload
// for byte accounting on backends that never serialize it. Exact-ish
// for the common runtime payload types, a flat default otherwise —
// accounting on the fast path is a cost model, not a byte-perfect
// meter (WireEncode mode and the TCP backend count real bytes).
func payloadSizeHint(v any) int {
	const defaultHint = 48
	switch x := v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int, int64, uint64, float64:
		return 8
	case string:
		return 8 + len(x)
	case []byte:
		return 8 + len(x)
	case []float64:
		return 8 + 8*len(x)
	case []int64:
		return 8 + 8*len(x)
	case relData:
		return 24 + payloadSizeHint(x.Payload)
	default:
		return defaultHint
	}
}

// MemTransport is the in-process backend: every node is local and a
// Send is a synchronous handoff to the bound sink (the goroutine
// calling Send runs the delivery, exactly like the pre-seam cluster).
// Interrupt/Revive are no-ops — there is no remote process to signal.
type MemTransport struct {
	n    int
	sink Sink
	// Out counters cover every frame the sender's half put on the
	// "wire" — including transmissions the fault layer vaporized before
	// the synchronous handoff (accountLoss), mirroring a NIC that
	// counts bytes the network then loses. In counters cover only
	// actual deliveries to the sink.
	frames   atomic.Uint64
	bytes    atomic.Uint64
	framesIn atomic.Uint64
	bytesIn  atomic.Uint64
}

// NewMemTransport creates an in-process backend connecting n nodes.
func NewMemTransport(n int) *MemTransport {
	if n <= 0 {
		panic("cluster: MemTransport needs at least one node")
	}
	return &MemTransport{n: n}
}

// Size implements Transport.
func (t *MemTransport) Size() int { return t.n }

// Local implements Transport: every node is in this process.
func (t *MemTransport) Local() []NodeID {
	ids := make([]NodeID, t.n)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return ids
}

// Bind implements Transport.
func (t *MemTransport) Bind(s Sink) { t.sink = s }

// Send implements Transport: synchronous delivery to the sink. The in
// counters are bumped only after the sink accepts the frame, so they
// count actual deliveries rather than mirroring the out side.
func (t *MemTransport) Send(f *Frame) error {
	if int(f.To) < 0 || int(f.To) >= t.n {
		return fmt.Errorf("cluster: send to node %d of %d", f.To, t.n)
	}
	size := wireSize(f)
	t.frames.Add(1)
	t.bytes.Add(size)
	t.sink.Deliver(f)
	t.framesIn.Add(1)
	t.bytesIn.Add(size)
	return nil
}

// accountLoss charges one fault-vaporized transmission to the outbound
// counters (see lossAccounter in faults.go): the frame "left the NIC"
// and the wire lost it, so the out side counts it and the in side
// never sees it.
func (t *MemTransport) accountLoss(bytes uint64) {
	t.frames.Add(1)
	t.bytes.Add(bytes)
}

// Interrupt implements Transport (no remote peers: no-op).
func (t *MemTransport) Interrupt(reason string) {}

// Revive implements Transport: with no remote peers the barrier is
// trivially satisfied.
func (t *MemTransport) Revive(epoch uint64) error { return nil }

// SyncEpoch implements Transport: no remote peers to rendezvous with.
func (t *MemTransport) SyncEpoch(timeout time.Duration) {}

// Quiesce implements Transport: with every node local there are no
// peer descriptors to collect.
func (t *MemTransport) Quiesce(epoch uint64, payload []byte, timeout time.Duration) map[NodeID][]byte {
	return nil
}

// Stats implements Transport. Under fault injection the in side lags
// the out side by exactly the vaporized transmissions: FramesIn <
// FramesOut on a lossy plan, as on a physical wire.
func (t *MemTransport) Stats() WireStats {
	return WireStats{
		FramesOut: t.frames.Load(), BytesOut: t.bytes.Load(),
		FramesIn: t.framesIn.Load(), BytesIn: t.bytesIn.Load(),
	}
}

// Close implements Transport.
func (t *MemTransport) Close() error { return nil }
