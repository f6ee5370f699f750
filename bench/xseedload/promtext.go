package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promText is one /metrics scrape: series (name plus label set, exactly as
// exposed) → value.
type promText map[string]float64

// parsePromText reads the Prometheus text exposition format, skipping
// comments and blank lines.
func parsePromText(r io.Reader) (promText, error) {
	out := promText{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sub returns p − q per series (series missing from q count as zero).
func (p promText) sub(q promText) promText {
	out := make(promText, len(p))
	for k, v := range p {
		out[k] = v - q[k]
	}
	return out
}

// sum adds every series of the metric name whose labels include all the
// given name/value pairs.
func (p promText) sum(name string, labels ...string) float64 {
	var total float64
	for k, v := range p {
		series, lbl, _ := strings.Cut(k, "{")
		if series != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(labels); i += 2 {
			pair := labels[i] + `="` + labels[i+1] + `"`
			if !strings.HasPrefix(lbl, pair) && !strings.Contains(lbl, ","+pair) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histMean is the mean of a histogram's observations (sum/count).
func (p promText) histMean(name string, labels ...string) float64 {
	return ratio(p.sum(name+"_sum", labels...), p.sum(name+"_count", labels...))
}
