package serve

import (
	"tianhe/internal/sim"
)

// batchKey identifies the jobs that may coalesce into one hybrid call:
// they must share the kind and the (N, K) dimensions so their row blocks
// stack into a single m x n x k operation.
type batchKey struct {
	kind Kind
	n, k int
}

// batch is one coalesced hybrid call in assembly or awaiting dispatch.
type batch struct {
	id   uint64
	key  batchKey
	jobs []*pending
	rows int
	// opened is the virtual time the first job entered; seq tags the
	// seal-window event so a stale timer cannot seal a successor batch
	// that reuses the key.
	opened sim.Time
	seq    uint64
	// drained counts device-outage drains of this sealed batch.
	drained int
}

// policy is the adaptive batching state for one batch key — the serving
// analog of one database_g bucket: where the partitioner learns the split
// that balances a shape across devices, the batcher learns the batch size
// and assembly window that balance queueing delay against call overhead
// for a shape's measured arrival and service rates.
type policy struct {
	// ewmaArrive is the learned arrival rate (jobs/s) and lastArrive the
	// previous arrival instant feeding it.
	ewmaArrive float64
	lastArrive sim.Time
	arrived    bool
	// ewmaService is the learned per-batch service time (virtual s).
	ewmaService float64
	served      bool
	// target is the occupancy at which a batch seals without waiting;
	// window bounds how long the first job of a batch may wait for
	// companions.
	target int
	window sim.Time
}

// batcherAlpha is the EWMA smoothing factor of both learned rates.
const batcherAlpha = 0.2

// Batcher coalesces admitted jobs into batches, adapting per-key batch
// size and assembly window to the measured service rate: the target
// occupancy covers the backlog that accrues during one batch service
// (target ≈ arrival rate × service time, the classic throughput-optimal
// batching point), and the window is half the expected fill time so a
// lull never holds a batch longer than batching can repay. Both learn
// from virtual-time measurements only, so replays are bit-identical.
type Batcher struct {
	maxBatch int
	maxRows  int
	minWin   sim.Time
	maxWin   sim.Time

	open     map[batchKey]*batch
	policies map[batchKey]*policy
	nextID   uint64
	nextSeq  uint64
}

// newBatcher builds a batcher with the given occupancy/row caps and window
// bounds (already defaulted by the server config).
func newBatcher(maxBatch, maxRows int, minWin, maxWin sim.Time) *Batcher {
	return &Batcher{
		maxBatch: maxBatch,
		maxRows:  maxRows,
		minWin:   minWin,
		maxWin:   maxWin,
		open:     make(map[batchKey]*batch),
		policies: make(map[batchKey]*policy),
	}
}

func (ba *Batcher) policyFor(key batchKey) *policy {
	p, ok := ba.policies[key]
	if !ok {
		p = &policy{target: 1, window: ba.minWin}
		ba.policies[key] = p
	}
	return p
}

// observeArrival feeds one arrival instant into the key's learned arrival
// rate.
func (ba *Batcher) observeArrival(key batchKey, t sim.Time) {
	p := ba.policyFor(key)
	if p.arrived && t > p.lastArrive {
		inst := 1 / (t - p.lastArrive)
		if p.ewmaArrive == 0 {
			p.ewmaArrive = inst
		} else {
			p.ewmaArrive += batcherAlpha * (inst - p.ewmaArrive)
		}
	}
	p.lastArrive = t
	p.arrived = true
	ba.retune(p)
}

// observeService feeds one completed batch's service time back into the
// key's policy — the serving counterpart of the partitioner's
// measured-rate feedback loop.
func (ba *Batcher) observeService(key batchKey, service sim.Time) {
	p := ba.policyFor(key)
	if service < 0 {
		service = 0
	}
	if !p.served {
		p.ewmaService = service
		p.served = true
	} else {
		p.ewmaService += batcherAlpha * (service - p.ewmaService)
	}
	ba.retune(p)
}

// retune recomputes the key's target occupancy and assembly window from
// the learned rates.
func (ba *Batcher) retune(p *policy) {
	if p.ewmaArrive <= 0 || p.ewmaService <= 0 {
		return
	}
	target := int(p.ewmaArrive*p.ewmaService + 0.999)
	if target < 1 {
		target = 1
	}
	if target > ba.maxBatch {
		target = ba.maxBatch
	}
	p.target = target
	window := sim.Time(float64(target) / p.ewmaArrive / 2)
	if window < ba.minWin {
		window = ba.minWin
	}
	if window > ba.maxWin {
		window = ba.maxWin
	}
	p.window = window
}

// sealTimer asks the server to schedule a seal-window event: if the batch
// identified by (key, seq) is still open at `at`, it seals then.
type sealTimer struct {
	key batchKey
	seq uint64
	at  sim.Time
}

// add places an admitted job into the open batch for its key, opening one
// if needed. It returns the batches that sealed as a consequence — the
// open batch the job could not stack into under the row cap, and/or the
// job's own batch once it reaches the occupancy target, the occupancy cap,
// or the row cap — and, when the job opened a fresh batch that is still
// assembling, the seal-window timer the server must schedule.
func (ba *Batcher) add(p *pending, now sim.Time) (sealed []*batch, timer *sealTimer) {
	key := p.key()
	ba.observeArrival(key, now)
	if b, ok := ba.open[key]; ok && b.rows+p.job.M > ba.maxRows {
		delete(ba.open, key)
		sealed = append(sealed, b)
	}
	b, ok := ba.open[key]
	if !ok {
		ba.nextID++
		ba.nextSeq++
		b = &batch{id: ba.nextID, key: key, opened: now, seq: ba.nextSeq}
		ba.open[key] = b
		timer = &sealTimer{key: key, seq: b.seq, at: now + ba.window(key)}
	}
	b.jobs = append(b.jobs, p)
	b.rows += p.job.M
	pol := ba.policyFor(key)
	if len(b.jobs) >= pol.target || len(b.jobs) >= ba.maxBatch || b.rows >= ba.maxRows {
		delete(ba.open, key)
		sealed = append(sealed, b)
		timer = nil
	}
	return sealed, timer
}

// sealIf closes the open batch identified by (key, seq) if it is still
// open — the seal-window timer path. A stale seq (the batch sealed full,
// or a successor reuses the key) seals nothing.
func (ba *Batcher) sealIf(key batchKey, seq uint64) *batch {
	b, ok := ba.open[key]
	if !ok || b.seq != seq {
		return nil
	}
	delete(ba.open, key)
	return b
}

// window returns the current assembly window for a key.
func (ba *Batcher) window(key batchKey) sim.Time {
	return ba.policyFor(key).window
}
