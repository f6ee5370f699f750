package het

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Serialization format:
//
//	magic "XSH1" (4 bytes)
//	budget (varint, 0 = unlimited)
//	numEntries (varint), then per entry:
//	    hash (4 bytes LE), flags (1 byte: bit0 pattern, bit1 bselOK),
//	    card (8 bytes float LE), bsel (8 bytes float LE),
//	    err (8 bytes float LE)
//
// Entries serialize in rank order, so loading reproduces the resident set.

var hetMagic = [4]byte{'X', 'S', 'H', '1'}

// WriteTo serializes the full table (all entries, not only resident).
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}
	if err := write(hetMagic[:]); err != nil {
		return n, err
	}
	var buf [binary.MaxVarintLen64]byte
	budget := t.budget
	if budget < 0 {
		budget = 0
	}
	if err := write(buf[:binary.PutUvarint(buf[:], uint64(budget))]); err != nil {
		return n, err
	}
	if err := write(buf[:binary.PutUvarint(buf[:], uint64(len(t.all)))]); err != nil {
		return n, err
	}
	var rec [29]byte
	for _, e := range t.all {
		binary.LittleEndian.PutUint32(rec[0:], e.Hash)
		var flags byte
		if e.Pattern {
			flags |= 1
		}
		if e.BselOK {
			flags |= 2
		}
		rec[4] = flags
		binary.LittleEndian.PutUint64(rec[5:], math.Float64bits(e.Card))
		binary.LittleEndian.PutUint64(rec[13:], math.Float64bits(e.Bsel))
		binary.LittleEndian.PutUint64(rec[21:], math.Float64bits(e.Err))
		if err := write(rec[:]); err != nil {
			return n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	return n, nil
}

// Read deserializes a table written by WriteTo. When r is a *bufio.Reader
// it is used directly, so tables can be embedded in larger streams.
func Read(r io.Reader) (*Table, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("het: read header: %w", err)
	}
	if m != hetMagic {
		return nil, errors.New("het: bad magic")
	}
	budget, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("het: budget: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("het: entry count: %w", err)
	}
	if count > 1<<28 {
		return nil, fmt.Errorf("het: implausible entry count %d", count)
	}
	t := New(int(budget))
	// The count is only a claim until its records arrive: grow with them.
	entries := make([]Entry, 0, min(count, 1024))
	var rec [29]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("het: entry %d: %w", i, err)
		}
		entries = append(entries, Entry{
			Hash:    binary.LittleEndian.Uint32(rec[0:]),
			Pattern: rec[4]&1 != 0,
			BselOK:  rec[4]&2 != 0,
			Card:    math.Float64frombits(binary.LittleEndian.Uint64(rec[5:])),
			Bsel:    math.Float64frombits(binary.LittleEndian.Uint64(rec[13:])),
			Err:     math.Float64frombits(binary.LittleEndian.Uint64(rec[21:])),
		})
	}
	t.AddBatch(entries)
	return t, nil
}
