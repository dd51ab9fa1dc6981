package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
)

// ackTee reads the per-line acks of an NDJSON report stream as they pass
// to the client, so the benchmark learns which batches were accepted
// without changing the client. The stream acks every line in order,
// with {"seq":N,"accepted":K} or {"seq":N,"code":...}.
type ackTee struct {
	mu      sync.Mutex
	status  []uint8 // by line number - 1
	partial []byte
}

// statusOf returns the ack status of a 1-based line, or stPending.
func (t *ackTee) statusOf(line int32) uint8 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(line) > len(t.status) || line < 1 {
		return stPending
	}
	return t.status[line-1]
}

func (t *ackTee) feed(p []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			t.partial = append(t.partial, p...)
			return
		}
		line := p[:i]
		if len(t.partial) > 0 {
			line = append(t.partial, line...)
			t.partial = t.partial[:0]
		}
		t.ack(line)
		p = p[i+1:]
	}
}

var (
	seqKey       = []byte(`"seq":`)
	codeKey      = []byte(`"code":`)
	queueFullKey = []byte(`"code":"queue_full"`)
)

// ack records one ack line; the trailer (no seq) is ignored.
func (t *ackTee) ack(line []byte) {
	i := bytes.Index(line, seqKey)
	if i < 0 {
		return
	}
	seq := 0
	for _, c := range line[i+len(seqKey):] {
		if c < '0' || c > '9' {
			break
		}
		seq = seq*10 + int(c-'0')
	}
	if seq < 1 {
		return
	}
	st := stAccepted
	switch {
	case bytes.Contains(line, queueFullKey):
		st = stShed
	case bytes.Contains(line, codeKey):
		st = stRejected
	}
	for len(t.status) < seq {
		t.status = append(t.status, stPending)
	}
	t.status[seq-1] = st
}

type teeBody struct {
	io.ReadCloser
	tee *ackTee
}

func (b *teeBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tee.feed(p[:n])
	return n, err
}

// teeTransport hands the report stream's response body through an ackTee.
type teeTransport struct {
	base http.RoundTripper
	tee  *ackTee
}

func (t teeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, ":stream") {
		resp.Body = &teeBody{ReadCloser: resp.Body, tee: t.tee}
	}
	return resp, err
}

func newTeeClient(tee *ackTee) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	return &http.Client{Transport: teeTransport{base: tr, tee: tee}}
}
