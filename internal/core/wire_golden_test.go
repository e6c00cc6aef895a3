package core

// Golden wire vectors for the runtime's registered binary payloads.
// The fixtures pin the exact bytes each hot type puts on a TCP link;
// a diff here is a wire-compatibility break and must come with a
// cluster.frameVersion bump (see cluster.TestFrameVersionPins).

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"godcr/internal/cluster"
	"godcr/internal/geom"
	"godcr/internal/instance"
)

var coreGolden = []struct {
	name string
	v    any
	hex  string
}{
	{"pullReq",
		pullReq{
			Attempt: 0x101, Batch: 5, From: 2,
			Items: []pullItem{
				{Key: verKey{Seq: 7, Point: geom.Point{1, 2, 0}, Root: 3, Field: 1},
					Rect: geom.Rect{Dim: 2, Lo: geom.Point{0, 0, 0}, Hi: geom.Point{15, 15, 0}}},
				{Key: verKey{Seq: 6, Point: geom.Point{4, 0, 0}, Root: 3, Field: 2},
					Rect: geom.Rect{Dim: 1, Lo: geom.Point{8, 0, 0}, Hi: geom.Point{8, 0, 0}}},
			},
		},
		"4001010000000000000500000000000000020000000000000002000000" + // tag, attempt, batch, from, count
			"07000000000000000100000000000000020000000000000000000000000000000300000001000000020000000000000000000000000000000000000000000000000f000000000000000f000000000000000000000000000000" +
			"0600000000000000040000000000000000000000000000000000000000000000030000000200000001080000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000"},
	{"pullResp",
		pullResp{Attempt: 0x101, Batch: 5, Items: 2, Vals: []float64{1, 0.5}},
		"41010100000000000005000000000000000200000002000000000000000000f03f000000000000e03f"},
	{"scalarReq",
		scalarReq{Seq: 9, Idx: 4, ReplyTag: 0xF2CD, From: 1},
		"4209000000000000000400000000000000cdf20000000000000100000000000000"},
	{"scalarResp",
		scalarResp{OK: true, Val: 2.5},
		"43010000000000000440"},
	{"pointVals",
		[]pointVal{{P: geom.Point{1, 0, 0}, V: 1}, {P: geom.Point{2, 0, 0}, V: 0.5}},
		"4402000000010000000000000000000000000000000000000000000000000000000000f03f020000000000000000000000000000000000000000000000000000000000e03f"},
	{"remoteResult",
		&remoteResult{Seq: 3, Point: geom.Point{5, 0, 0}, Val: 1.5},
		"460300000000000000050000000000000000000000000000000000000000000000000000000000f83f"},
	{"checkVal",
		checkVal{A: 1, B: 2, Calls: 64, Mismatch: true, At: 63},
		"4701000000000000000200000000000000400000000000000001" +
			"3f00000000000000"},
}

// remoteTaskFixture exercises the deep layout: a task envelope with a
// field plan, a fill source, a pulled source, and a reduction pull —
// the parts gob drops entirely (unexported fields).
func remoteTaskFixture() *remoteTask {
	key := verKey{Seq: 11, Point: geom.Point{1, 0, 0}, Root: 2, Field: 3}
	rc := geom.Rect{Dim: 1, Lo: geom.Point{0, 0, 0}, Hi: geom.Point{7, 0, 0}}
	return &remoteTask{
		Seq: 21, Task: "stencil", Point: geom.Point{4, 0, 0},
		Args: []float64{0.25}, FutureArgs: nil,
		Plans: []fieldPlan{{
			reqIdx: 0, root: 2, field: 3, fieldName: "u", rect: rc,
			priv: ReadWrite, redOp: instance.ReduceNone,
			sources: []sourcePiece{
				{rect: rc, fill: true, fillVal: 1.5},
				{rect: rc, key: key, owner: 1,
					reds: []redPull{{rect: rc, key: key, owner: 0, op: instance.ReduceAdd}}},
			},
		}},
	}
}

const remoteTaskHex = "451500000000000000070000007374656e63696c04000000000000000000000000000000000000000000000001000000000000000000d03f00000000010000000000000000000000020000000300000001000000750100000000000000000000000000000000000000000000000007000000000000000000000000000000000000000000000001000000000000000000000000000000020000000100000000000000000000000000000000000000000000000007000000000000000000000000000000000000000000000001000000000000f83f00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000000000000000000000000000000000000000000700000000000000000000000000000000000000000000000000000000000000000b000000000000000100000000000000000000000000000000000000000000000200000003000000010000000000000001000000010000000000000000000000000000000000000000000000000700000000000000000000000000000000000000000000000b00000000000000010000000000000000000000000000000000000000000000020000000300000000000000000000000100000000000000"

func TestCoreGoldenVectors(t *testing.T) {
	cases := coreGolden
	cases = append(cases, struct {
		name string
		v    any
		hex  string
	}{"remoteTask", remoteTaskFixture(), remoteTaskHex})
	for _, g := range cases {
		t.Run(g.name, func(t *testing.T) {
			got, err := cluster.CodecBinary.Append(nil, g.v)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			want, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatalf("bad fixture: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding drifted from golden vector:\n got %x\nwant %x\n(a deliberate format change must bump cluster.frameVersion)", got, want)
			}
			back, err := cluster.CodecBinary.Decode(want)
			if err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			if !reflect.DeepEqual(back, g.v) {
				t.Fatalf("round trip:\n got %#v\nwant %#v", back, g.v)
			}
		})
	}
}

// TestRemoteTaskGobUnencodable documents why the binary registration
// exists: the gob codec cannot carry task envelopes at all (fieldPlan
// is all unexported fields, so remoteTask was never gob-registered and
// Centralized WireEncode was historically a panic), while the binary
// codec round-trips the full plan tree.
func TestRemoteTaskGobUnencodable(t *testing.T) {
	task := remoteTaskFixture()
	if _, err := cluster.CodecGob.Append(nil, task); err == nil {
		t.Fatal("gob encoded a remoteTask; the Centralized WireEncode guard in core.go can be revisited")
	}
	bin, err := cluster.CodecBinary.Decode(mustAppend(t, task))
	if err != nil || !reflect.DeepEqual(bin.(*remoteTask).Plans, task.Plans) {
		t.Fatalf("binary codec lost plan contents: %v", err)
	}
}

func mustAppend(t *testing.T, v any) []byte {
	t.Helper()
	b, err := cluster.CodecBinary.Append(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCoreEncodeAllocs locks the zero-allocation encode path for the
// hottest payloads (pull responses and future values dominate steady
// traffic): with the value pre-boxed and the buffer reused, as on the
// pooled TCP send path, encode must not allocate.
func TestCoreEncodeAllocs(t *testing.T) {
	buf := make([]byte, 0, 1<<16)
	var resp any = pullResp{Attempt: 1, Batch: 1, Items: 8, Vals: make([]float64, 1024)}
	var fv any = float64(3.25)
	var cv any = checkVal{A: 1, B: 2, Calls: 3}
	for name, v := range map[string]any{"pullResp": resp, "future float64": fv, "checkVal": cv} {
		v := v
		if n := testing.AllocsPerRun(100, func() {
			b, err := cluster.CodecBinary.Append(buf, v)
			if err != nil || len(b) == 0 {
				t.Fatal("encode failed")
			}
		}); n != 0 {
			t.Errorf("%s encode allocates %v per run, want 0", name, n)
		}
	}
}

// TestCoreDecodeAllocs bounds decode: materializing the value is
// inherent (the input buffer is reused by the frame reader), but the
// count must stay flat — one slice plus one interface box for a pull
// response, one box for a scalar.
func TestCoreDecodeAllocs(t *testing.T) {
	resp := mustAppend(t, pullResp{Attempt: 1, Batch: 1, Items: 8, Vals: make([]float64, 1024)})
	if n := testing.AllocsPerRun(100, func() {
		if _, err := cluster.CodecBinary.Decode(resp); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("pullResp decode allocates %v per run, want <= 2", n)
	}
	cv := mustAppend(t, checkVal{A: 1, B: 2})
	if n := testing.AllocsPerRun(100, func() {
		if _, err := cluster.CodecBinary.Decode(cv); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("checkVal decode allocates %v per run, want <= 1", n)
	}
}
