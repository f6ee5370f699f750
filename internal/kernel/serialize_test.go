package kernel

import (
	"bytes"
	"runtime"
	"testing"

	"xseed/internal/xmldoc"
)

// TestReadHugeCountsAllocateLittle: headers claiming the largest accepted
// label count, or the largest accepted level count for an edge, with
// nothing after them, are errors that allocate for what was read, not for
// what was claimed.
func TestReadHugeCountsAllocateLittle(t *testing.T) {
	for name, in := range map[string][]byte{
		// No root, 2^24 labels.
		"labels": []byte("XSK1\x00\x80\x80\x80\x08"),
		// No root, one label "a", one edge a->a declaring 2^20 levels.
		"levels": []byte("XSK1\x00\x01\x01a\x01\x00\x00\x80\x80\x40"),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(in), xmldoc.NewDict())
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a truncated kernel decoded", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("%s: decoding %d bytes allocated %d bytes", name, len(in), n)
		}
	}
}
