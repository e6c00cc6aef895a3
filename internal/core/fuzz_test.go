package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"godcr/internal/cluster"
	"godcr/internal/geom"
)

// journalSeeds runs a real journaled program and returns the encoded
// journal and checkpoint — the genuine wire images a recovery would
// persist, used as the fuzz seed corpus.
func journalSeeds(f *testing.F) (journal, checkpoint []byte) {
	f.Helper()
	rt := NewRuntime(Config{Shards: 2, SafetyChecks: true, Journal: true})
	defer rt.Shutdown()
	registerStencilTasks(rt)
	if err := rt.Execute(stencil1DProgram(32, 4, 2, 1.0,
		func(state, flux []float64) error { return nil })); err != nil {
		f.Fatalf("seed run: %v", err)
	}
	cp := rt.buildCheckpoint()
	if cp == nil || cp.Frontier == 0 {
		f.Fatal("seed run produced no checkpoint")
	}
	return rt.journal.Encode(), cp.Encode()
}

// FuzzJournalDecode hammers the journal and checkpoint codecs with
// arbitrary bytes, seeded from a real run's encodings. Decoding is the
// recovery path's input boundary — a checkpoint may be persisted and
// re-read across processes — so it must never panic, hang, or allocate
// unboundedly, and anything it accepts must survive a re-encode
// round-trip.
func FuzzJournalDecode(f *testing.F) {
	jb, cb := journalSeeds(f)
	f.Add(jb)
	f.Add(cb)
	f.Add([]byte("DCRJ"))
	f.Add([]byte("DCRC"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if j, err := DecodeJournal(b); err == nil {
			j2, err := DecodeJournal(j.Encode())
			if err != nil {
				t.Fatalf("accepted journal does not round-trip: %v", err)
			}
			if j2.Len() != j.Len() {
				t.Fatalf("round-trip changed journal length: %d vs %d", j2.Len(), j.Len())
			}
		}
		if cp, err := DecodeCheckpoint(b); err == nil {
			cp2, err := DecodeCheckpoint(cp.Encode())
			if err != nil {
				t.Fatalf("accepted checkpoint does not round-trip: %v", err)
			}
			if cp2.Frontier != cp.Frontier || cp2.Ctl != cp.Ctl || cp2.Shards != cp.Shards {
				t.Fatalf("round-trip changed checkpoint: %+v vs %+v", cp2, cp)
			}
		}
	})
}

// FuzzCheckpointDecode hammers the checksummed generation-file decoder
// (CRC32C trailer + Checkpoint image), the exact bytes LoadCheckpoint
// reads off disk after a crash. Arbitrary bytes must never panic or
// hang, and anything accepted must round-trip through a re-encode with
// a fresh trailer.
func FuzzCheckpointDecode(f *testing.F) {
	_, cb := journalSeeds(f)
	sealed := binary.LittleEndian.AppendUint32(cb, crc32.Checksum(cb, checkpointCastagnoli))
	f.Add(sealed)
	f.Add(cb) // image without trailer: last 4 image bytes read as CRC
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint32([]byte("DCRC"), crc32.Checksum([]byte("DCRC"), checkpointCastagnoli)))
	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := decodeCheckpointGen(b)
		if err != nil {
			return
		}
		img := cp.Encode()
		re := binary.LittleEndian.AppendUint32(img, crc32.Checksum(img, checkpointCastagnoli))
		cp2, err := decodeCheckpointGen(re)
		if err != nil {
			t.Fatalf("accepted checkpoint does not round-trip: %v", err)
		}
		if cp2.Frontier != cp.Frontier || cp2.Ctl != cp.Ctl || cp2.Shards != cp.Shards {
			t.Fatalf("round-trip changed checkpoint: %+v vs %+v", cp2, cp)
		}
	})
}

// FuzzWireDecode hammers the decoders of the pull messages — the only
// payloads whose length fields (item count, value count) a peer chooses
// — seeded with real encodings under both payload codecs. Arbitrary
// bytes must error, never panic or allocate past the input; whatever
// the binary codec accepts must re-encode to a fixed point.
func FuzzWireDecode(f *testing.F) {
	seeds := []any{
		pullReq{Attempt: 257, Batch: 3, From: 1, Items: []pullItem{
			{Key: verKey{Seq: 7, Point: geom.Pt1(2), Root: 1, Field: 0}, Rect: geom.R1(15, 15)},
			{Key: verKey{Seq: 6, Point: geom.Pt1(4), Root: 1, Field: 1}, Rect: geom.R1(64, 79)},
		}},
		pullReq{Attempt: 1, Batch: 1},
		pullResp{Attempt: 257, Batch: 3, Items: 2, Vals: []float64{1, 0.5, -2}},
		pullResp{Attempt: 1, Batch: 1},
	}
	for _, v := range seeds {
		bin, err := cluster.CodecBinary.Append(nil, v)
		if err != nil {
			f.Fatalf("seed %T: %v", v, err)
		}
		f.Add(bin)
		gob, err := cluster.EncodeWire(v)
		if err != nil {
			f.Fatalf("seed %T: %v", v, err)
		}
		f.Add(gob)
	}
	f.Add([]byte{})
	f.Add([]byte{wireTagPullReq, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = cluster.DecodeWire(b)
		v, err := cluster.CodecBinary.Decode(b)
		if err != nil {
			return
		}
		re, err := cluster.CodecBinary.Append(nil, v)
		if err != nil {
			t.Fatalf("re-encode of decoded value %#v: %v", v, err)
		}
		v2, err := cluster.CodecBinary.Decode(re)
		if err != nil {
			t.Fatalf("decode of re-encoded value %#v: %v", v, err)
		}
		re2, err := cluster.CodecBinary.Append(nil, v2)
		if err != nil {
			t.Fatalf("second encode of %#v: %v", v2, err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encoding not canonical:\n first %x\nsecond %x", re, re2)
		}
	})
}
