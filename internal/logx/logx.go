// Package logx is the small slog toolkit shared by xseedd's serving and
// storage layers: a discard logger (slog.DiscardHandler is Go 1.24+; this
// module supports 1.22) and the -log-format/-log-level flag constructor.
package logx

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Discard returns a logger that drops everything.
func Discard() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// New builds a logger from the daemon's -log-format and -log-level flag
// values. format is "text" or "json"; level is "debug", "info", "warn", or
// "error". Unknown values are an error (flag validation, not a fallback).
func New(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lv = slog.LevelInfo
	case "debug":
		lv = slog.LevelDebug
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (text|json)", format)
	}
}
