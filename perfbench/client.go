package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// client is a minimal RESP2 client. It is written here rather than
// borrowed from internal/resp so that a change to the server's codec
// does not also change the cost of the load generator measuring it.
type client struct {
	nc  net.Conn
	r   *bufio.Reader
	buf []byte // the next request, encoded
}

// replyTimeout bounds one round trip; a reply later than this counts as
// a failed operation.
const replyTimeout = 30 * time.Second

func dial(addr string) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{nc: nc, r: bufio.NewReaderSize(nc, 64<<10)}, nil
}

func (c *client) close() { c.nc.Close() }

// reply is one decoded RESP reply. Arrays report their length and are
// consumed element by element; bulk payloads are kept for G.INFO.
type reply struct {
	kind byte // '+', '-', ':', '$' or '*'
	n    int64
	str  string
}

func (r reply) err() error {
	if r.kind == '-' {
		return fmt.Errorf("error reply: %s", r.str)
	}
	return nil
}

// appendCmd encodes one command with string arguments.
func appendCmd(dst []byte, name string, args ...string) []byte {
	dst = appendArrayHeader(dst, 1+len(args))
	dst = appendBulk(dst, name)
	for _, a := range args {
		dst = appendBulk(dst, a)
	}
	return dst
}

// appendEdgeCmd encodes name u v.
func appendEdgeCmd(dst []byte, name string, u, v uint64) []byte {
	dst = appendArrayHeader(dst, 3)
	dst = appendBulk(dst, name)
	dst = appendBulkUint(dst, u)
	return appendBulkUint(dst, v)
}

// appendNodeCmd encodes name u.
func appendNodeCmd(dst []byte, name string, u uint64) []byte {
	dst = appendArrayHeader(dst, 2)
	dst = appendBulk(dst, name)
	return appendBulkUint(dst, u)
}

func appendArrayHeader(dst []byte, n int) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, '\r', '\n')
}

func appendBulk(dst []byte, s string) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

func appendBulkUint(dst []byte, x uint64) []byte {
	var num [20]byte
	s := strconv.AppendUint(num[:0], x, 10)
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// do writes one encoded request and reads its reply.
func (c *client) do(req []byte) (reply, error) {
	c.nc.SetDeadline(time.Now().Add(replyTimeout))
	if _, err := c.nc.Write(req); err != nil {
		return reply{}, err
	}
	return c.read()
}

// call encodes and runs one command with string arguments.
func (c *client) call(name string, args ...string) (reply, error) {
	c.buf = appendCmd(c.buf[:0], name, args...)
	return c.do(c.buf)
}

// read decodes one reply, consuming array elements.
func (c *client) read() (reply, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return reply{}, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return reply{}, fmt.Errorf("malformed reply line %q", line)
	}
	kind, body := line[0], line[1:len(line)-2]
	switch kind {
	case '+', '-':
		return reply{kind: kind, str: string(body)}, nil
	case ':':
		n, err := strconv.ParseInt(string(body), 10, 64)
		return reply{kind: kind, n: n}, err
	case '$':
		n, err := strconv.ParseInt(string(body), 10, 64)
		if err != nil || n < 0 {
			return reply{kind: kind, n: n}, err
		}
		data := make([]byte, n+2)
		if _, err := io.ReadFull(c.r, data); err != nil {
			return reply{}, err
		}
		return reply{kind: kind, n: n, str: string(data[:n])}, nil
	case '*':
		n, err := strconv.ParseInt(string(body), 10, 64)
		if err != nil {
			return reply{}, err
		}
		for i := int64(0); i < n; i++ {
			if err := c.skipElement(); err != nil {
				return reply{}, err
			}
		}
		return reply{kind: kind, n: n}, nil
	}
	return reply{}, fmt.Errorf("unknown reply type %q", kind)
}

// skipElement consumes one scalar array element without keeping its
// payload.
func (c *client) skipElement() error {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return err
	}
	if len(line) < 3 {
		return fmt.Errorf("malformed element %q", line)
	}
	if line[0] != '$' {
		return nil
	}
	n, err := strconv.Atoi(string(line[1 : len(line)-2]))
	if err == nil && n >= 0 {
		_, err = c.r.Discard(n + 2)
	}
	return err
}

// expectInt checks a reply is the integer want.
func expectInt(r reply, want int64) error {
	if err := r.err(); err != nil {
		return err
	}
	if r.kind != ':' || r.n != want {
		return fmt.Errorf("reply %c%d%s, want :%d", r.kind, r.n, r.str, want)
	}
	return nil
}

// infoField returns one numeric "key:value" field of a G.INFO section.
func (c *client) infoField(section, key string) (uint64, error) {
	r, err := c.call("g.info", section)
	if err != nil {
		return 0, err
	}
	if err := r.err(); err != nil {
		return 0, err
	}
	return parseInfoField(r.str, key)
}

func parseInfoField(text, key string) (uint64, error) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSuffix(line, "\r"), key+":"); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, errors.New("g.info: no field " + key)
}
