package store

import (
	"testing"
	"time"

	"xseed"
)

// benchStore returns a store with one saved synopsis ready for appends.
func benchStore(b *testing.B) (*Store, *xseed.Synopsis) {
	b.Helper()
	st := openStore(b, b.TempDir())
	syn := buildFig2(b)
	if err := st.SaveBase("bench", syn, "bench", time.Now(), 0, 0); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st, syn
}

// BenchmarkStoreAppendFeedback is the durability hot path: one feedback
// event persisted as an O(delta) log record (no fsync, the daemon default).
func BenchmarkStoreAppendFeedback(b *testing.B) {
	st, _ := benchStore(b)
	d := xseed.HETDelta{Hash: 0xdeadbeef, Card: 42, Err: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Card = float64(i)
		if err := st.AppendFeedback("bench", d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreFeedbackPersisted measures the full registry-shaped path:
// estimate + table update + persisted delta.
func BenchmarkStoreFeedbackPersisted(b *testing.B) {
	st, syn := benchStore(b)
	q, err := xseed.ParseQuery("/a/c/s/s/t")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, delta, applied := syn.FeedbackQueryDeltaDeferred(q, float64(i%17+1))
		syn.Publish()
		if !applied {
			b.Fatal("feedback not applied")
		}
		if err := st.AppendFeedback("bench", delta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRecover measures cold recovery: base load plus replay of a
// 256-record delta log.
func BenchmarkStoreRecover(b *testing.B) {
	dir := b.TempDir()
	st := openStore(b, dir)
	syn := buildFig2(b)
	if err := st.SaveBase("bench", syn, "bench", time.Now(), 0, 0); err != nil {
		b.Fatal(err)
	}
	d := xseed.HETDelta{Hash: 0xdeadbeef, Card: 42, Err: 3}
	for i := 0; i < 256; i++ {
		d.Hash = uint32(i)
		if err := st.AppendFeedback("bench", d); err != nil {
			b.Fatal(err)
		}
	}
	st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st2, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		loaded, err := st2.LoadAll()
		if err != nil {
			b.Fatal(err)
		}
		if len(loaded) != 1 || loaded[0].Replay != 256 {
			b.Fatalf("recovered %+v", loaded)
		}
		st2.Close()
	}
}

// BenchmarkStoreCompact measures folding a 256-record log into a new base.
func BenchmarkStoreCompact(b *testing.B) {
	st, syn := benchStore(b)
	q, err := xseed.ParseQuery("/a/c/s/s/t")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 256; j++ {
			_, delta, _ := syn.FeedbackQueryDeltaDeferred(q, float64(j%17+1))
			syn.Publish()
			if err := st.AppendFeedback("bench", delta); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := st.CompactNow("bench"); err != nil {
			b.Fatal(err)
		}
	}
}
