package main

import (
	"errors"
	"fmt"
	"io"
	"strconv"
)

// The benchmark reads the server's replies with its own RESP parser, so a
// fault in the server's encoder cannot hide behind a shared one.

// reply is one parsed RESP value. Arrays are flattened: an array entry
// carries its element count in n and is followed by its elements.
type reply struct {
	kind byte   // '+', '-', ':', '$' or '*'
	n    int64  // ':' value, '$' length, '*' count; -1 for a nil bulk or array
	b    []byte // '+', '-' and '$' payload; valid until the next read
}

func (r reply) String() string {
	switch r.kind {
	case ':', '*':
		return fmt.Sprintf("%c%d", r.kind, r.n)
	case '$':
		if r.n < 0 {
			return "$nil"
		}
	}
	return fmt.Sprintf("%c%q", r.kind, r.b)
}

// errShort reports a reply stream that ended in the middle of a batch.
var errShort = errors.New("reply stream ended early")

// errMalformed reports bytes that are not a RESP reply.
var errMalformed = errors.New("malformed reply")

// replyReader parses whole batches of replies from a stream.
type replyReader struct {
	r      io.Reader
	buf    []byte
	lo, hi int
	out    []reply
}

func newReplyReader(r io.Reader) *replyReader {
	return &replyReader{r: r, buf: make([]byte, 64<<10)}
}

// read returns the next n top-level replies (an array counts as one, its
// elements following it in the result). The result aliases the reader's
// buffer and is valid until the next call.
func (rr *replyReader) read(n int) ([]reply, error) {
	for {
		rr.out = rr.out[:0]
		pos := rr.lo
		complete := true
		for i := 0; i < n; i++ {
			next, ok, err := rr.parse(pos)
			if err != nil {
				return nil, err
			}
			if !ok {
				complete = false
				break
			}
			pos = next
		}
		if complete {
			rr.lo = pos
			return rr.out, nil
		}
		if err := rr.fill(); err != nil {
			return nil, err
		}
	}
}

// fill moves the unparsed tail to the front of the buffer, grows it when
// full, and reads more bytes.
func (rr *replyReader) fill() error {
	if rr.lo > 0 {
		rr.hi = copy(rr.buf, rr.buf[rr.lo:rr.hi])
		rr.lo = 0
	}
	if rr.hi == len(rr.buf) {
		rr.buf = append(rr.buf, make([]byte, len(rr.buf))...)
	}
	m, err := rr.r.Read(rr.buf[rr.hi:])
	rr.hi += m
	if m > 0 {
		return nil
	}
	if err == nil || err == io.EOF {
		return errShort
	}
	return err
}

// parse parses one value at pos. ok is false when the buffer holds only a
// prefix of it.
func (rr *replyReader) parse(pos int) (next int, ok bool, err error) {
	line, next, ok := rr.line(pos)
	if !ok {
		return 0, false, nil
	}
	if len(line) == 0 {
		return 0, false, errMalformed
	}
	kind, body := line[0], line[1:]
	switch kind {
	case '+', '-':
		rr.out = append(rr.out, reply{kind: kind, b: body})
		return next, true, nil
	case ':':
		v, err := strconv.ParseInt(string(body), 10, 64)
		if err != nil {
			return 0, false, errMalformed
		}
		rr.out = append(rr.out, reply{kind: kind, n: v})
		return next, true, nil
	case '$':
		l, err := strconv.ParseInt(string(body), 10, 64)
		if err != nil || l < -1 {
			return 0, false, errMalformed
		}
		if l == -1 {
			rr.out = append(rr.out, reply{kind: kind, n: -1})
			return next, true, nil
		}
		end := next + int(l)
		if end+2 > rr.hi {
			return 0, false, nil
		}
		if rr.buf[end] != '\r' || rr.buf[end+1] != '\n' {
			return 0, false, errMalformed
		}
		rr.out = append(rr.out, reply{kind: kind, n: l, b: rr.buf[next:end]})
		return end + 2, true, nil
	case '*':
		c, err := strconv.ParseInt(string(body), 10, 64)
		if err != nil || c < -1 {
			return 0, false, errMalformed
		}
		rr.out = append(rr.out, reply{kind: kind, n: c})
		for i := int64(0); i < c; i++ {
			next, ok, err = rr.parse(next)
			if err != nil || !ok {
				return 0, ok, err
			}
		}
		return next, true, nil
	}
	return 0, false, errMalformed
}

// line returns the CRLF-terminated line at pos, without its terminator.
func (rr *replyReader) line(pos int) (line []byte, next int, ok bool) {
	for i := pos; i+1 < rr.hi; i++ {
		if rr.buf[i] == '\r' && rr.buf[i+1] == '\n' {
			return rr.buf[pos:i], i + 2, true
		}
	}
	return nil, 0, false
}

// appendCommand appends one command in RESP array form.
func appendCommand(dst []byte, args ...[]byte) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(a)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, a...)
		dst = append(dst, '\r', '\n')
	}
	return dst
}
