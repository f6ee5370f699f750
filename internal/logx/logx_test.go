package logx

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestDiscardDropsEverything(t *testing.T) {
	Discard().Error("nothing happens") // must not panic or write anywhere
}

func TestNewFormatsAndLevels(t *testing.T) {
	var buf bytes.Buffer
	lg, err := New(&buf, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("filtered out")
	lg.Warn("kept", "k", "v")
	line := strings.TrimSpace(buf.String())
	if strings.Count(line, "\n") != 0 {
		t.Fatalf("want exactly one line, got %q", line)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("not JSON: %v in %q", err, line)
	}
	if m["msg"] != "kept" || m["k"] != "v" {
		t.Fatalf("unexpected record %v", m)
	}
	if _, err := New(&buf, "xml", "info"); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := New(&buf, "text", "loud"); err == nil {
		t.Error("unknown level accepted")
	}
}
