package kernel

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"xseed/internal/xmldoc"
)

// Serialization format (all integers unsigned varints unless noted):
//
//	magic "XSK1" (4 bytes)
//	flags (1 byte): bit 0 = has root
//	numLabels, then per label: len, bytes      (only labels used by the kernel)
//	rootLabelIndex, rootCount                  (if has root)
//	numEdges, then per edge:
//	    fromIndex, toIndex, numLevels, then per level: P, C
//
// Label indices refer to the serialized label table, not to the in-memory
// dictionary, so a kernel can be loaded into any process.

var magic = [4]byte{'X', 'S', 'K', '1'}

// WriteTo serializes the kernel. It implements io.WriterTo.
func (k *Kernel) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}

	if _, err := cw.Write(magic[:]); err != nil {
		return cw.n, err
	}
	var flags byte
	if k.hasRoot {
		flags |= 1
	}
	if _, err := cw.Write([]byte{flags}); err != nil {
		return cw.n, err
	}

	// Collect used labels in sorted order for a deterministic encoding.
	used := map[xmldoc.LabelID]bool{}
	for l, v := range k.verts {
		used[l] = true
		for _, e := range v.Out {
			used[e.To] = true
		}
	}
	if k.hasRoot {
		used[k.rootLabel] = true
	}
	labels := make([]xmldoc.LabelID, 0, len(used))
	for l := range used {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	index := make(map[xmldoc.LabelID]uint64, len(labels))
	for i, l := range labels {
		index[l] = uint64(i)
	}

	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := cw.Write(buf[:n])
		return err
	}

	if err := putUvarint(uint64(len(labels))); err != nil {
		return cw.n, err
	}
	for _, l := range labels {
		name := k.dict.Name(l)
		if err := putUvarint(uint64(len(name))); err != nil {
			return cw.n, err
		}
		if _, err := io.WriteString(cw, name); err != nil {
			return cw.n, err
		}
	}
	if k.hasRoot {
		if err := putUvarint(index[k.rootLabel]); err != nil {
			return cw.n, err
		}
		if err := putUvarint(uint64(k.rootCount)); err != nil {
			return cw.n, err
		}
	}

	if err := putUvarint(uint64(k.NumEdges())); err != nil {
		return cw.n, err
	}
	for _, l := range labels {
		v := k.verts[l]
		if v == nil {
			continue
		}
		for _, e := range v.Out {
			if err := putUvarint(index[e.From]); err != nil {
				return cw.n, err
			}
			if err := putUvarint(index[e.To]); err != nil {
				return cw.n, err
			}
			if err := putUvarint(uint64(len(e.Levels))); err != nil {
				return cw.n, err
			}
			for _, lv := range e.Levels {
				if err := putUvarint(uint64(lv.P)); err != nil {
					return cw.n, err
				}
				if err := putUvarint(uint64(lv.C)); err != nil {
					return cw.n, err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// Read deserializes a kernel, interning its labels into dict. When r is a
// *bufio.Reader it is used directly (no read-ahead beyond the kernel's own
// bytes is lost), so kernels can be embedded in larger streams.
func Read(r io.Reader, dict *xmldoc.Dict) (*Kernel, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var m [5]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("kernel: read header: %w", err)
	}
	if [4]byte(m[:4]) != magic {
		return nil, errors.New("kernel: bad magic")
	}
	flags := m[4]

	getUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }

	nLabels, err := getUvarint()
	if err != nil {
		return nil, fmt.Errorf("kernel: label count: %w", err)
	}
	const maxLabels = 1 << 24
	if nLabels > maxLabels {
		return nil, fmt.Errorf("kernel: implausible label count %d", nLabels)
	}
	// Counts are only claims until their bytes arrive: slices sized by one
	// grow with what is read, so a few header bytes cannot claim gigabytes.
	labels := make([]xmldoc.LabelID, 0, min(nLabels, 1024))
	nameBuf := make([]byte, 0, 64)
	for i := uint64(0); i < nLabels; i++ {
		ln, err := getUvarint()
		if err != nil {
			return nil, fmt.Errorf("kernel: label length: %w", err)
		}
		if ln > 1<<16 {
			return nil, fmt.Errorf("kernel: implausible label length %d", ln)
		}
		if cap(nameBuf) < int(ln) {
			nameBuf = make([]byte, ln)
		}
		nameBuf = nameBuf[:ln]
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, fmt.Errorf("kernel: label bytes: %w", err)
		}
		labels = append(labels, dict.Intern(string(nameBuf)))
	}

	k := New(dict)
	if flags&1 != 0 {
		ri, err := getUvarint()
		if err != nil {
			return nil, fmt.Errorf("kernel: root index: %w", err)
		}
		if ri >= nLabels {
			return nil, fmt.Errorf("kernel: root index %d out of range", ri)
		}
		rc, err := getUvarint()
		if err != nil {
			return nil, fmt.Errorf("kernel: root count: %w", err)
		}
		k.hasRoot = true
		k.rootLabel = labels[ri]
		k.rootCount = int64(rc)
		k.getVertex(k.rootLabel)
	}

	nEdges, err := getUvarint()
	if err != nil {
		return nil, fmt.Errorf("kernel: edge count: %w", err)
	}
	const maxEdges = 1 << 28
	if nEdges > maxEdges {
		return nil, fmt.Errorf("kernel: implausible edge count %d", nEdges)
	}
	for i := uint64(0); i < nEdges; i++ {
		fi, err := getUvarint()
		if err != nil {
			return nil, fmt.Errorf("kernel: edge from: %w", err)
		}
		ti, err := getUvarint()
		if err != nil {
			return nil, fmt.Errorf("kernel: edge to: %w", err)
		}
		if fi >= nLabels || ti >= nLabels {
			return nil, fmt.Errorf("kernel: edge label index out of range")
		}
		nl, err := getUvarint()
		if err != nil {
			return nil, fmt.Errorf("kernel: level count: %w", err)
		}
		if nl > 1<<20 {
			return nil, fmt.Errorf("kernel: implausible level count %d", nl)
		}
		from := k.getVertex(labels[fi])
		to := k.getVertex(labels[ti])
		e := k.getEdge(from, to)
		e.Levels = make([]Level, 0, min(nl, 64))
		for j := uint64(0); j < nl; j++ {
			p, err := getUvarint()
			if err != nil {
				return nil, fmt.Errorf("kernel: level P: %w", err)
			}
			c, err := getUvarint()
			if err != nil {
				return nil, fmt.Errorf("kernel: level C: %w", err)
			}
			e.Levels = append(e.Levels, Level{P: int64(p), C: int64(c)})
		}
	}
	return k, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
