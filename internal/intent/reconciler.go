package intent

import (
	"sync"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/rpcconf"
)

// Sender delivers one configuration message and exposes the server epoch
// observed in acknowledgements. *rpcconf.Client implements it.
type Sender interface {
	Send(*rpcconf.Message) error
	Epoch() uint64
}

// The retry schedule. Every failed send is retried after DefaultBackoffBase,
// doubling up to DefaultBackoffMax; it is the only retry between the
// topology controller and the rf-server (rpcconf.Client.Send makes one
// attempt).
const (
	DefaultBackoffBase = 100 * time.Millisecond
	DefaultBackoffMax  = 5 * time.Second
	DefaultResyncProbe = 10 * time.Second
)

// nextBackoff steps the retry schedule from the previous delay d (zero for
// a first failure): DefaultBackoffBase, then doubling, capped at max.
func nextBackoff(d, max time.Duration) time.Duration {
	if d <= 0 {
		d = DefaultBackoffBase
	} else {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// Reconciler continuously drives acknowledged state toward desired state:
// it drains the store's diff, retries failures with exponential backoff,
// and probes the server while idle so a restart (epoch change) re-syncs the
// full desired state.
type Reconciler struct {
	clk    clock.Clock
	store  *Store
	sender Sender

	probe   time.Duration // idle re-sync probe period (0 disables)
	onError func(error)

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	mu      sync.Mutex
	started bool
}

// Option tweaks the reconciler.
type Option func(*Reconciler)

// WithResyncProbe sets how often an idle reconciler probes the server for
// epoch changes (restart detection). Zero disables probing.
func WithResyncProbe(d time.Duration) Option {
	return func(r *Reconciler) { r.probe = d }
}

// WithOnError installs a delivery-failure observer. Failures are expected
// and retried; the observer exists for logging and tests.
func WithOnError(f func(error)) Option {
	return func(r *Reconciler) { r.onError = f }
}

// NewReconciler builds a reconciler over store, delivering through sender.
func NewReconciler(clk clock.Clock, store *Store, sender Sender, opts ...Option) *Reconciler {
	if clk == nil {
		clk = clock.System()
	}
	r := &Reconciler{
		clk:    clk,
		store:  store,
		sender: sender,
		probe:  DefaultResyncProbe,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Store returns the desired-state store this reconciler drains.
func (r *Reconciler) Store() *Store { return r.store }

// Run starts the reconciliation loop (returns immediately).
func (r *Reconciler) Run() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return
	}
	r.started = true
	go r.loop()
}

// Stop halts the loop and waits for it to exit. Safe to call more than once
// and before Run.
func (r *Reconciler) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()
	if started {
		<-r.done
	}
}

func (r *Reconciler) loop() {
	defer close(r.done)
	// nextProbe is when an idle reconciler next probes the server: a probe
	// period after the last contact, or sooner after a failed probe.
	// probeBackoff paces failed probes on the item schedule, capped at the
	// probe period, so the stale connection a server restart leaves behind
	// costs one backoff step, not a whole period.
	nextProbe := r.clk.Now().Add(r.probe)
	var probeBackoff time.Duration
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		now := r.clk.Now()
		batch, wait := r.store.due(now)
		if len(batch) > 0 {
			for _, w := range batch {
				select {
				case <-r.stop:
					return
				default:
				}
				err := r.sender.Send(w.msg)
				now := r.clk.Now()
				r.store.complete(w, err, r.sender.Epoch(), now)
				if err == nil {
					nextProbe, probeBackoff = now.Add(r.probe), 0
				} else if r.onError != nil {
					r.onError(err)
				}
			}
			continue
		}
		// Idle: wake for the earliest backoff retry, the re-sync probe, or a
		// store signal — whichever comes first.
		sleep := wait
		if r.probe > 0 {
			probeIn := nextProbe.Sub(now)
			if probeIn <= 0 {
				err := r.sender.Send(rpcconf.Probe())
				now := r.clk.Now()
				if err == nil {
					r.store.observeEpoch(r.sender.Epoch())
					nextProbe, probeBackoff = now.Add(r.probe), 0
				} else {
					probeBackoff = nextBackoff(probeBackoff, r.probe)
					nextProbe = now.Add(probeBackoff)
				}
				continue
			}
			if sleep <= 0 || probeIn < sleep {
				sleep = probeIn
			}
		}
		var timer clock.Timer
		var timerC <-chan time.Time
		if sleep > 0 {
			timer = r.clk.NewTimer(sleep)
			timerC = timer.C()
		}
		select {
		case <-r.store.signal:
		case <-timerC:
		case <-r.stop:
			if timer != nil {
				timer.Stop()
			}
			return
		}
		if timer != nil {
			timer.Stop()
		}
	}
}
