package xseed

import (
	"bytes"
	"encoding/binary"
	"testing"

	"xseed/internal/fixtures"
)

// FuzzSnapshotDecode: ReadSynopsis on any bytes returns an error or a
// synopsis, never panics or exhausts memory, and a synopsis it returns
// re-encodes to bytes that decode and re-encode to the same bytes again.
// ReadSynopsis serves snapshot uploads, replication base imports and store
// recovery, so an encoding that drifted per round trip would drift per
// replication hop.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(fixtures.SynopsisV1)
	f.Add(fixtures.SnapshotHugeHETCount)
	syn, err := BuildSynopsis(mustParseXML(f, fixtures.PaperFigure2), nil)
	if err != nil {
		f.Fatal(err)
	}
	var cur bytes.Buffer
	if _, err := syn.WriteTo(&cur); err != nil {
		f.Fatal(err)
	}
	f.Add(cur.Bytes())
	// A threshold of 3919 millionths: truncating writes re-encoded it as
	// 3918, then 3917.
	drift := bytes.Clone(cur.Bytes())
	binary.LittleEndian.PutUint64(drift[len(drift)-17:], 3919)
	f.Add(drift)
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := ReadSynopsis(bytes.NewReader(in))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if _, err := s.WriteTo(&once); err != nil {
			t.Fatalf("re-encoding a decoded synopsis: %v", err)
		}
		again, err := ReadSynopsis(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("a re-encoded synopsis does not decode: %v", err)
		}
		var twice bytes.Buffer
		if _, err := again.WriteTo(&twice); err != nil {
			t.Fatalf("re-encoding a re-decoded synopsis: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding is not stable:\n once %x\ntwice %x", once.Bytes(), twice.Bytes())
		}
	})
}

func mustParseXML(tb testing.TB, xml string) *Document {
	tb.Helper()
	d, err := ParseXMLString(xml)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}
