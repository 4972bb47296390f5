package wire

import (
	"bytes"
	"testing"
	"time"
)

func testBatch(n int) []RSSReport {
	reports := make([]RSSReport, n)
	for i := range reports {
		reports[i] = RSSReport{
			LinkID: uint16(i),
			Seq:    uint32(100 + i),
			Time:   time.Unix(0, int64(1e9*(i+1))),
		}
		reports[i].SetRSS(-40.5 - float64(i))
		if i%2 == 0 {
			reports[i].Flags |= FlagVacant
		}
	}
	return reports
}

func TestBatchRoundTrip(t *testing.T) {
	reports := testBatch(5)
	data := EncodeBatch(reports)
	if len(data) != len(reports)*FrameSize {
		t.Fatalf("batch size %d, want %d", len(data), len(reports)*FrameSize)
	}
	// Decoding appends after whatever dst already holds.
	prefix := RSSReport{LinkID: 77}
	got, bad := DecodeBatch([]RSSReport{prefix}, data)
	if bad != 0 {
		t.Fatalf("%d bad frames in a valid batch", bad)
	}
	if len(got) != 1+len(reports) || got[0] != prefix {
		t.Fatalf("decoded %d reports (prefix %+v), want prefix + %d", len(got), got[0], len(reports))
	}
	for i := range reports {
		if got[1+i] != reports[i] {
			t.Errorf("report %d: %+v != %+v", i, got[1+i], reports[i])
		}
	}
	// A reused buffer with capacity to spare decodes without allocating.
	buf := make([]RSSReport, 0, len(reports))
	if allocs := testing.AllocsPerRun(10, func() { buf, _ = DecodeBatch(buf[:0], data) }); allocs != 0 {
		t.Errorf("DecodeBatch into a reused buffer: %v allocs, want 0", allocs)
	}
}

// TestDecodeBatchErrors pins the salvage rule: a bad frame costs exactly
// one frame, a trailing partial frame counts as one bad frame, and the
// valid frames around them are kept in order.
func TestDecodeBatchErrors(t *testing.T) {
	reports := testBatch(3)
	data := EncodeBatch(reports)

	got, bad := DecodeBatch(nil, data[:len(data)-3])
	if bad != 1 || len(got) != 2 || got[0] != reports[0] || got[1] != reports[1] {
		t.Errorf("partial trailing frame: kept %d, bad %d", len(got), bad)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[FrameSize+4] ^= 0xFF // second frame's payload: checksum mismatch
	got, bad = DecodeBatch(nil, corrupt)
	if bad != 1 || len(got) != 2 || got[0] != reports[0] || got[1] != reports[2] {
		t.Errorf("corrupt middle frame: kept %+v, bad %d", got, bad)
	}
	magic := append([]byte(nil), data...)
	magic[0] ^= 0xFF
	if got, bad = DecodeBatch(nil, magic); bad != 1 || len(got) != 2 {
		t.Errorf("bad magic: kept %d, bad %d", len(got), bad)
	}
	if got, bad = DecodeBatch(nil, data[:FrameSize-1]); bad != 1 || len(got) != 0 {
		t.Errorf("runt datagram: kept %d, bad %d", len(got), bad)
	}
	if got, bad = DecodeBatch(nil, nil); bad != 0 || len(got) != 0 {
		t.Errorf("empty datagram: kept %d, bad %d", len(got), bad)
	}
}

// FuzzDecodeBatch checks the datagram decoder the collector runs on
// arbitrary input: it never panics, every FrameSize slot is either kept
// or counted bad (a runt tail is one slot), and every kept frame
// re-encodes to exactly the bytes it was decoded from.
func FuzzDecodeBatch(f *testing.F) {
	valid := EncodeBatch(testBatch(4))
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	flipped := append([]byte(nil), valid...)
	flipped[2*FrameSize-1] ^= 0x01 // CRC byte of the second frame
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		kept, bad := DecodeBatch(nil, data)
		slots := (len(data) + FrameSize - 1) / FrameSize
		if len(kept)+bad != slots {
			t.Fatalf("kept %d + bad %d != %d slots in %d bytes", len(kept), bad, slots, len(data))
		}
		k := 0
		for off := 0; off+FrameSize <= len(data); off += FrameSize {
			var r RSSReport
			if r.DecodeFromBytes(data[off:]) != nil {
				continue
			}
			if k >= len(kept) {
				t.Fatalf("slot at byte %d decodes alone but was not kept", off)
			}
			if enc := kept[k].Encode(); !bytes.Equal(enc, data[off:off+FrameSize]) {
				t.Fatalf("kept frame %d re-encodes to %x, decoded from %x", k, enc, data[off:off+FrameSize])
			}
			k++
		}
		if k != len(kept) {
			t.Fatalf("kept %d frames, %d slots decode alone", len(kept), k)
		}
	})
}
