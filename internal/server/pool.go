package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrQueueFull is returned by Pool.Do when the request queue is at
// capacity; callers should surface it as backpressure (HTTP 503).
var ErrQueueFull = errors.New("server: request queue full")

// ErrPoolClosed is returned by Pool.Do after Close.
var ErrPoolClosed = errors.New("server: worker pool closed")

// Pool is a bounded worker pool with one fixed-depth FIFO queue. Work
// is submitted with a context; jobs whose context is already done when
// a worker picks them up are skipped, and a full queue rejects
// immediately rather than blocking the submitter.
type Pool struct {
	queue chan *job
	wg    sync.WaitGroup
	mu    sync.RWMutex
	done  bool
	depth atomic.Int64
	// busy counts jobs a worker is running right now.
	busy atomic.Int64
}

type job struct {
	//ppatcvet:ignore ctxflow a queue entry deliberately carries its submitter's context so the worker can skip work the caller abandoned
	ctx  context.Context
	fn   func()
	done chan struct{}
	enq  time.Time
	// wait is how long the job sat queued before a worker picked it up.
	// Written by the worker before close(done); reading it after <-done
	// is ordered by that happens-before edge.
	wait time.Duration
}

// NewPool starts workers goroutines consuming a queue of at most queue
// waiting jobs (minimums of 1 are enforced).
func NewPool(workers, queue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 1 {
		queue = 1
	}
	p := &Pool{queue: make(chan *job, queue)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// worker consumes jobs until the queue is closed and drained.
func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.depth.Add(-1)
		j.wait = time.Since(j.enq)
		if j.ctx.Err() == nil {
			p.busy.Add(1)
			j.fn()
			p.busy.Add(-1)
		}
		close(j.done)
	}
}

// Do runs fn on a pool worker and blocks until it completes or ctx is
// done. wait is the job's measured queue wait — how long it sat behind
// other work before a worker picked it up — and is only meaningful when
// err is nil. A full queue fails fast with ErrQueueFull. When ctx
// expires while the job is still queued, the job is abandoned (the
// worker skips it).
func (p *Pool) Do(ctx context.Context, fn func()) (wait time.Duration, err error) {
	j := &job{ctx: ctx, fn: fn, done: make(chan struct{}), enq: time.Now()}
	p.mu.RLock()
	if p.done {
		p.mu.RUnlock()
		return 0, ErrPoolClosed
	}
	select {
	case p.queue <- j:
		p.depth.Add(1)
		p.mu.RUnlock()
	default:
		p.mu.RUnlock()
		return 0, ErrQueueFull
	}
	select {
	case <-j.done:
		return j.wait, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// QueueDepth reports the number of jobs waiting for a worker.
func (p *Pool) QueueDepth() int64 { return p.depth.Load() }

// Close stops accepting new work, lets queued and in-flight jobs finish,
// and waits for every worker to exit. Safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.done {
		p.done = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
