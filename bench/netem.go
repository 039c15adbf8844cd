package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// link emulates one phone's access link: a fixed rate in KB/s applied to
// both directions of the worker's connection, with byte counters. It
// outlives individual connections so a reconnect keeps counting.
//
// internal/faults cannot stand in for it: faults.Plan throttles writes
// only, so wrapping the worker's dial shapes phone→master bytes per phone
// but master→phone bytes (the inputs, which are what b_i measures) only
// get the single listener-wide Default profile. Throttling the worker's
// reads here gives every phone its own rate in the direction that matters.
type link struct {
	kbps float64 // 0: unthrottled, counters only
	down atomic.Int64
	up   atomic.Int64
}

// bytes reports the bytes carried so far in both directions.
func (l *link) bytes() int64 { return l.down.Load() + l.up.Load() }

// wrap returns c shaped by the link. Reads are master→phone, writes are
// phone→master.
func (l *link) wrap(c net.Conn) net.Conn {
	return &shapedConn{Conn: c, link: l, closed: make(chan struct{})}
}

// pacer is one direction's virtual clock: free is the time at which the
// link has finished carrying everything handed to it so far.
type pacer struct {
	mu   sync.Mutex
	free time.Time
}

const (
	// minSleep is the owed time below which a transfer returns without
	// sleeping: the debt stays on the virtual clock, so a run of small
	// reads (an 8-byte header, a 100-byte pong) is paid in one sleep once
	// it adds up.
	minSleep = 200 * time.Microsecond
	// maxCredit is how far behind the real clock the virtual one may fall.
	// A sleep that overshoots leaves the link "free" in the past; keeping
	// that as credit makes the next transfer shorter by the overshoot, so
	// timer slack is never paid per read. An idle link banks no more than
	// this.
	maxCredit = 2 * time.Millisecond
)

// owe charges n bytes to the direction and returns how long the caller
// must wait for the link to have carried them.
func (p *pacer) owe(n int, kbps float64) time.Duration {
	cost := time.Duration(float64(n) / (kbps * 1024) * float64(time.Second))
	now := time.Now()
	p.mu.Lock()
	if floor := now.Add(-maxCredit); p.free.Before(floor) {
		p.free = floor
	}
	p.free = p.free.Add(cost)
	wait := p.free.Sub(now)
	p.mu.Unlock()
	if wait < minSleep {
		return 0
	}
	return wait
}

type shapedConn struct {
	net.Conn
	link      *link
	rd, wr    pacer
	closeOnce sync.Once
	closed    chan struct{}
}

func (c *shapedConn) pause(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.closed:
	}
}

func (c *shapedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.link.down.Add(int64(n))
		if c.link.kbps > 0 {
			c.pause(c.rd.owe(n, c.link.kbps))
		}
	}
	return n, err
}

// Write delivers p after the link has carried it: the peer must not see a
// frame before its transmission time has passed.
func (c *shapedConn) Write(p []byte) (int, error) {
	if c.link.kbps > 0 {
		c.pause(c.wr.owe(len(p), c.link.kbps))
	}
	n, err := c.Conn.Write(p)
	c.link.up.Add(int64(n))
	return n, err
}

func (c *shapedConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
