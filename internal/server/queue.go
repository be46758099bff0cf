package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"nearclique/internal/obs"
)

var (
	// errQueueFull means the bounded wait queue is at capacity; the
	// handler maps it to 429 so load sheds at admission, before any
	// solver work, keeping the 1-CPU hot path unoversubscribed.
	errQueueFull = errors.New("server: job queue full")
	// errDraining means the server stopped admitting work (SIGTERM);
	// mapped to 503 so load balancers fail the instance out while
	// already-admitted jobs finish.
	errDraining = errors.New("server: draining, not accepting new work")
)

// maxRetryAfterSec caps the computed Retry-After: beyond a few minutes
// the estimate is telling the client to go away, not to retry, and an
// unbounded value would leak the (meaningless) product of a deep queue
// and one pathological job.
const maxRetryAfterSec = 300

// admitter is the admission controller: a fixed worker pool consuming a
// bounded job channel, plus a fast-path lane for jobs the cost model
// prices as cheap. Capacity semantics: at most `concurrency` jobs run
// at once on the pool and at most `depth` more wait; a submit beyond
// that fails immediately with errQueueFull. The fast path admits at
// most `concurrency` additional cheap jobs that run inline on their
// handler goroutines, bypassing the wait queue — cheap requests are not
// stuck behind expensive ones, which is the entire point of pricing
// admission. Drain stops intake, lets every queued, running, and
// fast-path job finish, then returns.
//
// Accounting contract (pinned by TestStatzCountersReconcile): every
// admission attempt increments received exactly once and then exactly
// one of accepted (which includes the fastPath subset), rejected, or
// refused — so received == accepted + rejected + refused always, on the
// solve and batch paths alike, because both go through submit or
// tryBypass and nothing else counts.
type admitter struct {
	mu       sync.RWMutex // guards draining vs. close(jobs) and bypass entry
	jobs     chan job
	draining bool
	wg       sync.WaitGroup

	depth    int
	workers  int
	inFlight atomic.Int64
	received atomic.Int64
	accepted atomic.Int64
	rejected atomic.Int64
	refused  atomic.Int64
	fastPath atomic.Int64

	// exec is the executed-job wall-time histogram: every job that
	// actually ran (pool or fast path) observes its wall time here. Cache
	// hits never submit jobs, so they cannot drag the mean down — the
	// mean prices honest work. One aggregate serves three consumers: the
	// Retry-After estimate (exec.MeanNS), the /statz jobs_done /
	// mean_job_ms fields, and the /metricsz nearclique_job_exec_seconds
	// series — one source of truth instead of parallel ledgers.
	exec *obs.Histogram

	// bypass is the fast-path semaphore; bypassWG tracks in-flight
	// fast-path jobs for drain.
	bypass   chan struct{}
	bypassWG sync.WaitGroup
}

// newAdmitter builds the admission controller. exec is the executed-job
// histogram (nil is accepted for bare tests: observes no-op and the
// Retry-After estimate falls back to its floor).
func newAdmitter(concurrency, depth int, exec *obs.Histogram) *admitter {
	if depth < 0 {
		depth = 0 // explicit no-queue mode: shed whenever workers are busy
	}
	if concurrency < 1 {
		concurrency = 1
	}
	a := &admitter{
		jobs:    make(chan job, depth),
		depth:   depth,
		workers: concurrency,
		exec:    exec,
		bypass:  make(chan struct{}, concurrency),
	}
	for i := 0; i < concurrency; i++ {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			for j := range a.jobs {
				a.inFlight.Add(1)
				start := time.Now()
				runJob(j.run)
				a.exec.Observe(time.Since(start))
				a.inFlight.Add(-1)
				j.release()
			}
		}()
	}
	return a
}

// job is one pool submission. run is the work; release wakes whoever
// waits for it and runs after the worker has ledgered run's wall time,
// so a client answered through release never reads a /statz or
// /metricsz that is missing its own job. release runs even if run
// panics.
type job struct{ run, release func() }

// runJob is the pool's last-resort panic barrier: jobs produce their own
// error responses on panic (see execute), but if one ever escapes, a
// single poisoned request must cost its request, not the worker — a dead
// worker would silently shrink the pool for the daemon's lifetime.
func runJob(fn func()) {
	defer func() { _ = recover() }()
	fn()
}

// submit enqueues run for execution on a worker, followed by release
// (see job), without blocking: a full queue returns errQueueFull, a
// draining admitter errDraining. The read lock makes the draining check
// and the send atomic with respect to drain's close(jobs), so a submit
// can never race the channel close.
func (a *admitter) submit(run, release func()) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	a.received.Add(1)
	if a.draining {
		a.refused.Add(1)
		return errDraining
	}
	select {
	case a.jobs <- job{run: run, release: release}:
		a.accepted.Add(1)
		return nil
	default:
		a.rejected.Add(1)
		return errQueueFull
	}
}

// tryBypass claims a fast-path slot for a job the cost model priced as
// cheap. On success the caller MUST run the job inline and then call
// endBypass with its wall time; the attempt is counted received +
// accepted + fastPath. On failure nothing is counted — the caller falls
// back to submit, which does its own counting — so every admission
// attempt is ledgered exactly once.
func (a *admitter) tryBypass() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.draining {
		return false // fall through to submit, which counts the refusal
	}
	select {
	case a.bypass <- struct{}{}:
	default:
		return false // fast path saturated; queue normally
	}
	// The Add happens under the read lock, before stopIntake's write lock
	// can be taken, so drain's bypassWG.Wait observes every entry.
	a.bypassWG.Add(1)
	a.received.Add(1)
	a.accepted.Add(1)
	a.fastPath.Add(1)
	a.inFlight.Add(1)
	return true
}

// endBypass releases a fast-path slot and ledgers the executed job.
func (a *admitter) endBypass(wall time.Duration) {
	<-a.bypass
	a.exec.Observe(wall)
	a.inFlight.Add(-1)
	a.bypassWG.Done()
}

// retryAfterSeconds computes the honest Retry-After for a shed request:
// the estimated time to clear the current queue — (waiting jobs + 1) ×
// the executed-job histogram's exact mean ÷ workers — rounded up to
// integer seconds per RFC 9110, floored at 1 and capped at
// maxRetryAfterSec. With no observed jobs yet it falls back to the
// 1-second floor.
func (a *admitter) retryAfterSeconds() int {
	mean := a.exec.MeanNS()
	if mean <= 0 {
		return 1
	}
	est := (int64(len(a.jobs)) + 1) * mean / int64(a.workers)
	secs := (est + int64(time.Second) - 1) / int64(time.Second) // ceil
	if secs < 1 {
		return 1
	}
	if secs > maxRetryAfterSec {
		return maxRetryAfterSec
	}
	return int(secs)
}

// stopIntake flips the admitter into draining mode and closes the job
// channel; queued jobs keep running. Idempotent.
func (a *admitter) stopIntake() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.draining {
		a.draining = true
		close(a.jobs)
	}
}

// drain stops intake and blocks until every queued, in-flight, and
// fast-path job has finished and the workers have exited.
func (a *admitter) drain() {
	a.stopIntake()
	a.wg.Wait()
	a.bypassWG.Wait()
}

// queued reports the jobs waiting in the channel (excluding running ones).
func (a *admitter) queued() int { return len(a.jobs) }
