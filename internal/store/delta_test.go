package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"

	"xseed"
)

// hugeClaim is a lone record header claiming the largest payload a record
// may have, with nothing after it.
func hugeClaim() []byte {
	seg := make([]byte, recHeaderSize)
	binary.LittleEndian.PutUint32(seg, maxRecordLen)
	return seg
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReplaySegmentHugeClaim: a segment that is one header claiming 64 MiB
// is a torn segment, rejected having allocated only for what arrived. The
// same scan validates segments a peer ships and replays logs on recovery.
func TestReplaySegmentHugeClaim(t *testing.T) {
	syn := buildFig2(t)
	seg := hugeClaim()
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var err error
		least = min(least, allocated(func() { _, err = ReplaySegment(syn, seg) }))
		if err == nil || !strings.Contains(err.Error(), "short record payload") {
			t.Fatalf("replaying a lone %d-byte header: err = %v, want a short-payload error", len(seg), err)
		}
	}
	if least > 1<<20 {
		t.Fatalf("replaying a lone %d-byte header allocated %d bytes", len(seg), least)
	}
}

// FuzzDeltaSegment: ReplaySegment on any bytes never panics and allocates
// at most a small multiple of its input (plus a fixed allowance for applying
// the records it finds), and a segment of encodeRecord output scans back to
// the same records.
func FuzzDeltaSegment(f *testing.F) {
	var base bytes.Buffer
	if _, err := buildFig2(f).WriteTo(&base); err != nil {
		f.Fatal(err)
	}
	f.Add(hugeClaim())
	var seg []byte
	for _, rec := range []deltaRecord{
		{Op: opFeedback, HET: &xseed.HETDelta{Hash: 7, Card: 3, Err: 1}},
		{Op: opAdd, Context: []string{"a"}, XML: "<c><s><t/></s></c>"},
		{Op: opRemove, Context: []string{"a"}, XML: "<u/>"},
		{Op: opBudget, Bytes: 4096},
	} {
		b, err := encodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		seg = append(seg, b...)
	}
	f.Add(seg)
	f.Fuzz(func(t *testing.T, in []byte) {
		syn, err := xseed.ReadSynopsis(bytes.NewReader(base.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if n := allocated(func() { ReplaySegment(syn, in) }); n > 1<<20+256*uint64(len(in)) {
			t.Fatalf("replaying %d bytes allocated %d", len(in), n)
		}

		// Record strings arrive as JSON or parsed XML, so they are valid
		// UTF-8; encoding/json would rewrite anything else.
		text := strings.ToValidUTF8(string(in), "\uFFFD")
		recs := []deltaRecord{
			{Op: opAdd, Context: strings.Split(text, "/"), XML: text},
			{Op: opBudget, Bytes: len(in)},
			{Op: opFeedback, HET: &xseed.HETDelta{Hash: crc32.ChecksumIEEE(in), Card: float64(len(in))}},
		}
		var want []byte
		for _, rec := range recs {
			b, err := encodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, b...)
		}
		var got []byte
		res, err := scanLog(bytes.NewReader(want), -1, func(rec deltaRecord) error {
			b, err := encodeRecord(rec)
			got = append(got, b...)
			return err
		})
		if err != nil || res.Torn || res.Records != len(recs) || res.Good != int64(len(want)) {
			t.Fatalf("scanning %d encoded records: %+v, err %v", len(recs), res, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("records changed across a scan:\n got %q\nwant %q", got, want)
		}
	})
}
