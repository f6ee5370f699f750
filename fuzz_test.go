package xseed

import (
	"bytes"
	"testing"

	"xseed/internal/fixtures"
)

// FuzzSnapshotDecode: ReadSynopsis on any bytes returns an error or a
// synopsis, never panics or exhausts memory, and a synopsis it returns
// re-encodes to bytes that decode again. ReadSynopsis serves snapshot
// uploads, replication base imports and store recovery.
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
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := ReadSynopsis(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := s.WriteTo(&out); err != nil {
			t.Fatalf("re-encoding a decoded synopsis: %v", err)
		}
		if _, err := ReadSynopsis(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("a re-encoded synopsis does not decode: %v", err)
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
