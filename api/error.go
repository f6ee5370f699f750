package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"unicode/utf8"

	"xseed/internal/xpath"
)

// Error codes. The code — not the HTTP status and never the message text —
// is the machine contract: servers map a code to a status with
// (*Error).HTTPStatus and clients recover the code from the response body,
// so it survives the wire round trip exactly. Statuses are a lossy
// projection (several codes share 400); CodeFromStatus exists only as the
// client's fallback when a response carries no parseable error body (a
// proxy error page, a truncated response).
const (
	// CodeBadRequest rejects a malformed or unprocessable request (missing
	// fields, conflicting sources, invalid XML, undecodable JSON).
	CodeBadRequest = "bad_request"

	// CodeParseError rejects an XPath query that does not parse. The error's
	// Detail carries a ParseDetail with the byte offset and offending token.
	CodeParseError = "parse_error"

	// CodeNotFound means the named synopsis (or other resource) is not
	// registered.
	CodeNotFound = "not_found"

	// CodeConflict means the request lost to existing state: the synopsis
	// name is taken, or the operation needs a feature the server runs
	// without (e.g. compaction on a store-less daemon).
	CodeConflict = "conflict"

	// CodeCanceled means the request's context was canceled or timed out
	// before the work completed.
	CodeCanceled = "canceled"

	// CodeUnauthorized rejects a request whose bearer token is missing,
	// unknown, or not permitted to act on the addressed tenant. Only
	// returned by servers running with -tenants; a tokenless request to an
	// untenanted server is never unauthorized.
	CodeUnauthorized = "unauthorized"

	// CodeQuotaExceeded means the request ran into a per-tenant limit
	// (token-bucket rate limit on the estimate/feedback paths). The request
	// was not processed; retrying after a backoff is safe.
	CodeQuotaExceeded = "quota_exceeded"

	// CodeMoved means the addressed synopsis lives on another node of a
	// cluster: this node is not (or no longer) its owner under the current
	// partition ring. The error's Detail carries a MovedDetail naming the
	// owning node and the ring epoch; clients refresh the ring and retry
	// against the named node. The request was not processed.
	CodeMoved = "moved"

	// CodeUnavailable means the server cannot serve the request right now
	// (shutting down, overloaded); the call is safe to retry.
	CodeUnavailable = "unavailable"

	// CodeInternal is an unexpected server-side failure.
	CodeInternal = "internal"
)

// Error is the wire form of every failure the estimation API reports, and
// the error type the client SDK returns for them. Code is machine-readable
// (the constants above), Msg is human-readable, and Detail optionally
// carries structured, code-specific context — for CodeParseError, a
// ParseDetail.
type Error struct {
	Code   string          `json:"code"`
	Msg    string          `json:"message"`
	Detail json.RawMessage `json:"detail,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Msg == "" {
		return e.Code
	}
	return e.Code + ": " + e.Msg
}

// Errorf builds an Error with a formatted message.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// HTTPStatus maps the error code onto the HTTP status a server should
// respond with. Unknown codes map to 500.
func (e *Error) HTTPStatus() int {
	switch e.Code {
	case CodeBadRequest, CodeParseError:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeConflict:
		return http.StatusConflict
	case CodeCanceled:
		return 499 // client closed request (de-facto standard)
	case CodeUnauthorized:
		return http.StatusUnauthorized
	case CodeQuotaExceeded:
		return http.StatusTooManyRequests
	case CodeMoved:
		return http.StatusMisdirectedRequest
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// CodeFromStatus is the client-side fallback mapping for responses whose
// body carries no decodable Error (proxies, panics). It inverts HTTPStatus
// where that is unambiguous and degrades to CodeBadRequest/CodeInternal for
// the shared statuses.
func CodeFromStatus(status int) string {
	switch status {
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case 499:
		return CodeCanceled
	case http.StatusUnauthorized:
		return CodeUnauthorized
	case http.StatusTooManyRequests:
		return CodeQuotaExceeded
	case http.StatusMisdirectedRequest:
		return CodeMoved
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	default:
		if status >= 400 && status < 500 {
			return CodeBadRequest
		}
		return CodeInternal
	}
}

// ParseDetail is the Detail payload of a CodeParseError: the byte offset
// into the query where parsing stopped and the token found there (empty at
// end of input).
type ParseDetail struct {
	Offset int    `json:"offset"`
	Token  string `json:"token,omitempty"`
}

// NewParseError builds a CodeParseError carrying the offset and token
// structurally in Detail.
func NewParseError(msg string, offset int, token string) *Error {
	detail, _ := json.Marshal(ParseDetail{Offset: offset, Token: token})
	return &Error{Code: CodeParseError, Msg: msg, Detail: detail}
}

// ParseDetail decodes the structured detail of a CodeParseError; ok is
// false for other codes or an undecodable detail.
func (e *Error) ParseDetail() (ParseDetail, bool) {
	if e.Code != CodeParseError || len(e.Detail) == 0 {
		return ParseDetail{}, false
	}
	var d ParseDetail
	if err := json.Unmarshal(e.Detail, &d); err != nil {
		return ParseDetail{}, false
	}
	return d, true
}

// MovedDetail is the Detail payload of a CodeMoved: the HTTP base address
// of the node that owns the addressed synopsis and the partition-ring epoch
// the server routed by. Owner may be empty during a rebalance window when
// the server knows only that it is not the owner.
type MovedDetail struct {
	Owner string `json:"owner,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// NewMovedError builds a CodeMoved carrying the owning node and ring epoch
// structurally in Detail.
func NewMovedError(name, owner string, epoch uint64) *Error {
	detail, _ := json.Marshal(MovedDetail{Owner: owner, Epoch: epoch})
	return &Error{
		Code:   CodeMoved,
		Msg:    fmt.Sprintf("synopsis %q is owned by another node", name),
		Detail: detail,
	}
}

// MovedDetail decodes the structured detail of a CodeMoved; ok is false for
// other codes or an undecodable detail.
func (e *Error) MovedDetail() (MovedDetail, bool) {
	if e.Code != CodeMoved || len(e.Detail) == 0 {
		return MovedDetail{}, false
	}
	var d MovedDetail
	if err := json.Unmarshal(e.Detail, &d); err != nil {
		return MovedDetail{}, false
	}
	return d, true
}

// parseErrToken bounds the offending-token excerpt carried in ParseDetail.
const parseErrTokenMax = 24

// WrapError converts an arbitrary error into the wire taxonomy: an *Error
// passes through, an XPath parse error becomes a CodeParseError with its
// offset and offending token preserved structurally, context
// cancellation/expiry becomes CodeCanceled, and anything else gets the
// fallback code.
func WrapError(err error, fallbackCode string) *Error {
	var ae *Error
	if errors.As(err, &ae) {
		return ae
	}
	var pe *xpath.ParseError
	if errors.As(err, &pe) {
		// Truncate on a rune boundary so a multibyte query excerpt stays
		// valid UTF-8 through JSON marshaling.
		token := runePrefix(pe.Input[min(pe.Pos, len(pe.Input)):], parseErrTokenMax)
		return NewParseError(pe.Error(), pe.Pos, token)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &Error{Code: CodeCanceled, Msg: err.Error()}
	}
	return &Error{Code: fallbackCode, Msg: err.Error()}
}

// runePrefix returns the longest prefix of s of at most n bytes that does
// not cut a character in half.
func runePrefix(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n]
}

// ErrorResponse is the JSON envelope every non-2xx response body uses.
type ErrorResponse struct {
	Err *Error `json:"error"`
}

// WriteError writes e as its HTTP status plus the standard JSON envelope.
// It is what the server uses for every error response.
func WriteError(w http.ResponseWriter, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.HTTPStatus())
	json.NewEncoder(w).Encode(ErrorResponse{Err: e})
}

// DecodeErrorBody recovers the typed error from a non-2xx response body,
// falling back to the status-derived code when the body is not the standard
// envelope. It never returns nil.
func DecodeErrorBody(status int, body []byte) *Error {
	var env ErrorResponse
	if err := json.Unmarshal(body, &env); err == nil && env.Err != nil && env.Err.Code != "" {
		return env.Err
	}
	msg := http.StatusText(status)
	if len(body) > 0 {
		msg = string(body)
	}
	return &Error{Code: CodeFromStatus(status), Msg: msg}
}
