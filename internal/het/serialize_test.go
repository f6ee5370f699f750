package het

import (
	"bytes"
	"runtime"
	"testing"
)

// TestReadHugeCountAllocatesLittle: a header claiming the largest accepted
// entry count, with no entries after it, is an error that allocates for
// what was read, not for what was claimed.
func TestReadHugeCountAllocatesLittle(t *testing.T) {
	in := []byte("XSH1\x00\x80\x80\x80\x80\x01") // budget 0, count 2^28
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated table decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(in), n)
	}
}
