// Package bufferpool implements the database page buffer pool: a CLOCK
// cache of extents charged against the machine memory budget, with the
// shrink support the Memory Broker relies on and a simulated disk behind
// misses.
//
// The pool grows on demand (caching every extent it reads) until the
// budget or its broker target stops it; under pressure it both refuses to
// grow and releases frames. Disk reads contend on a channel semaphore so
// aggregate physical-I/O bandwidth is bounded like the paper's RAID
// array.
package bufferpool

import (
	"fmt"
	"slices"
	"time"

	"compilegate/internal/freelist"
	"compilegate/internal/mem"
	"compilegate/internal/storage"
	"compilegate/internal/vtime"
)

// The paper's testbed disks: a 2-channel Ultra3 SCSI array, one extent
// read in diskLatency per channel (I/O bandwidth = diskChannels x extent /
// diskLatency), memory hits at hitLatency; and the floor the pool never
// shrinks below.
const (
	diskLatency  = 200 * time.Millisecond
	diskChannels = 2
	hitLatency   = 200 * time.Microsecond
	minBytes     = 64 << 20
)

type frame struct {
	key storage.ExtentKey
	ref bool
	// Intrusive circular CLOCK ring links (insertion order), so evicting
	// a frame is an O(1) unlink instead of a slice scan-and-shift.
	cprev, cnext *frame
}

// Pool is the buffer pool.
type Pool struct {
	extentBytes int64 // the frame size: the catalog's extent size
	tracker     *mem.Tracker
	disk        *vtime.Semaphore

	// frames holds the cached extents' frames by table ID, then extent
	// (nil where the extent is not cached): an ExtentKey is that pair, so
	// finding a frame is two slice loads. Rows are sized once, from the
	// layout's extent counts. cached counts the non-nil slots.
	frames [][]*frame
	cached int
	// CLOCK ring state: clockFirst marks the ring's seam (new frames are
	// inserted just before it, matching the old slice's append-at-end);
	// clockHand is the next sweep candidate, nil meaning "at the seam" —
	// the state the old slice encoded as hand == len, where a frame
	// admitted before the next sweep is visited first.
	clockFirst *frame
	clockHand  *frame

	target int64 // broker target; 0 = unlimited (budget still binds)

	// dilation stretches every disk transfer (paging competes for the
	// same spindles); stolen counts page-steal evictions by the pager.
	dilation    func() float64
	stolenBytes int64

	hits, misses, evictions uint64
	passthrough             uint64 // reads served without caching

	// Recycled continuation ops and frames (one scheduler per pool, no
	// locking).
	reads     freelist.List[readManyOp]
	delays    freelist.List[diskDelayOp]
	frameFree freelist.List[frame]
	// frameArena is the current carve-from chunk backing newFrame: growth
	// costs one allocation per frameChunk frames instead of one each, and
	// evicted frames recycle through frameFree, so a pool that has reached
	// its working set allocates nothing per admission.
	frameArena []frame
}

// frameChunk sizes the frame arena's chunks (64 frames ≈ one pool-growth
// burst under the broker's default targets).
const frameChunk = 64

// New creates a pool of extentBytes frames (the catalog's extent size)
// charging tracker, over a database whose table with ID i has extents[i]
// extents (storage.Layout.ExtentCounts). Reading an extent outside it is a
// bug and panics.
func New(extentBytes int64, tracker *mem.Tracker, extents []int64) *Pool {
	if extentBytes <= 0 {
		panic("bufferpool: non-positive extent size")
	}
	var total int64
	for _, n := range extents {
		total += n
	}
	// One backing array, cut into the tables' rows.
	slots, frames := make([]*frame, total), make([][]*frame, len(extents))
	for id, n := range extents {
		frames[id], slots = slots[:n:n], slots[n:]
	}
	return &Pool{
		extentBytes: extentBytes,
		tracker:     tracker,
		disk:        vtime.NewSemaphore("disk", diskChannels),
		frames:      frames,
	}
}

// slot returns where key's frame is kept.
func (p *Pool) slot(key storage.ExtentKey) **frame {
	return &p.frames[key.TableID()][key.Extent()]
}

// Bytes returns the pool's current size.
func (p *Pool) Bytes() int64 { return p.tracker.Used() }

// Frames returns the number of cached extents.
func (p *Pool) Frames() int { return p.cached }

// Hits and Misses return the access counters.
func (p *Pool) Hits() uint64   { return p.hits }
func (p *Pool) Misses() uint64 { return p.misses }

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (p *Pool) HitRate() float64 {
	t := p.hits + p.misses
	if t == 0 {
		return 0
	}
	return float64(p.hits) / float64(t)
}

// SetDilation installs a disk time-dilation hook: every physical extent
// transfer takes diskLatency*fn(). The engine wires this to the paging
// slowdown — on a thrashing machine swap traffic contends with the
// database's own I/O on the same channels. nil restores undilated reads.
func (p *Pool) SetDilation(fn func() float64) { p.dilation = fn }

// transferTime returns the current per-extent transfer time, dilated.
func (p *Pool) transferTime() time.Duration {
	d := diskLatency
	if p.dilation != nil {
		if f := p.dilation(); f > 1 {
			d = time.Duration(float64(d) * f)
		}
	}
	return d
}

// StealPages evicts up to want bytes of frames on behalf of the pager —
// the page-steal path a thrashing OS applies to file-cache pages. It is
// Shrink with separate accounting so reports can distinguish broker
// shrinks from pager steals.
func (p *Pool) StealPages(want int64) int64 {
	stolen := p.Shrink(want)
	p.stolenBytes += stolen
	return stolen
}

// StolenBytes returns the total bytes taken by StealPages.
func (p *Pool) StolenBytes() int64 { return p.stolenBytes }

// SetTarget installs the broker's target; the pool evicts down to it and
// will not grow beyond it. Zero clears the target.
func (p *Pool) SetTarget(target int64) {
	p.target = target
	if target > 0 && p.Bytes() > target {
		p.Shrink(p.Bytes() - target)
	}
}

// Shrink releases up to want bytes of frames (oldest-clock first), never
// below minBytes, and returns the bytes actually freed. It is the pool's
// mem.Reclaimer and broker shrink handler.
func (p *Pool) Shrink(want int64) int64 {
	var freed int64
	for freed < want && p.Bytes()-freed > minBytes {
		f := p.victim()
		if f == nil {
			break
		}
		p.drop(f)
		freed += p.extentBytes
	}
	if freed > 0 {
		p.tracker.Release(freed)
	}
	return freed
}

// readManyOp is the continuation state machine behind ReadManyThen: one
// sleep covers all hits, then each miss claims a disk channel, pays the
// (dilation-adjusted) transfer time, and is admitted to the cache.
type readManyOp struct {
	p     *Pool
	miss  []storage.ExtentKey // scratch, grown once to a batch and retained across uses
	mi    int
	k     vtime.Step
	state int8
}

const (
	rmNextMiss int8 = iota // claim a disk channel for the next miss
	rmTransfer             // channel held: pay the transfer time
	rmAdmit                // transfer done: release and admit
)

func (op *readManyOp) Run(t *vtime.Task) {
	p := op.p
	for {
		switch op.state {
		case rmNextMiss:
			if op.mi >= len(op.miss) {
				k := op.k
				op.k = nil
				p.reads.Put(op)
				k.Run(t)
				return
			}
			op.state = rmTransfer
			p.disk.AcquireThen(t, op)
			return
		case rmTransfer:
			op.state = rmAdmit
			t.SleepThen(p.transferTime(), op)
			return
		case rmAdmit:
			p.disk.Release()
			p.admit(t, op.miss[op.mi])
			op.mi++
			op.state = rmNextMiss
		}
	}
}

// ReadManyThen fetches a batch of extents as continuation steps on the
// event loop, amortizing scheduler events, then runs k. All hits are
// charged as one sleep and misses go through the disk individually. keys
// is read only before ReadManyThen returns.
func (p *Pool) ReadManyThen(t *vtime.Task, keys []storage.ExtentKey, k vtime.Step) {
	op := p.reads.Get()
	if op == nil {
		op = &readManyOp{p: p}
	}
	op.miss, op.mi, op.k, op.state = slices.Grow(op.miss[:0], len(keys)), 0, k, rmNextMiss
	h := 0
	for _, key := range keys {
		if f := *p.slot(key); f != nil {
			p.hits++
			f.ref = true
			h++
		} else {
			p.misses++
			op.miss = append(op.miss, key)
		}
	}
	if h > 0 {
		t.SleepThen(time.Duration(h)*hitLatency, op)
		return
	}
	op.Run(t)
}

// admit tries to cache a just-read extent.
func (p *Pool) admit(t *vtime.Task, key storage.ExtentKey) {
	if *p.slot(key) != nil {
		return // racing reader cached it while we slept on disk
	}
	// Respect the broker target by evicting an old frame to make room.
	if p.target > 0 && p.Bytes()+p.extentBytes > p.target {
		if v := p.victim(); v != nil {
			p.drop(v)
			p.tracker.Release(p.extentBytes)
		} else {
			p.passthrough++
			return
		}
	}
	if err := p.tracker.Reserve(p.extentBytes); err != nil {
		// Budget exhausted even after global reclaim: try evicting our
		// own coldest frame; else serve uncached.
		if v := p.victim(); v != nil {
			p.drop(v)
			// Reuse the freed reservation for the new frame.
			p.insert(key)
			return
		}
		p.passthrough++
		return
	}
	p.insert(key)
}

// insert caches key in a new frame (whose memory the caller has reserved),
// referenced, at the CLOCK ring's seam.
func (p *Pool) insert(key storage.ExtentKey) *frame {
	f := p.newFrame(key)
	*p.slot(key) = f
	p.cached++
	p.clockInsert(f)
	return f
}

// victim runs the CLOCK sweep and returns an evictable frame (or nil).
func (p *Pool) victim() *frame {
	n := p.cached
	if n == 0 {
		return nil
	}
	for sweep := 0; sweep < 2*n; sweep++ {
		if p.clockHand == nil {
			p.clockHand = p.clockFirst // wrap at the seam
		}
		f := p.clockHand
		if f.cnext == p.clockFirst {
			p.clockHand = nil // advanced past the tail: back at the seam
		} else {
			p.clockHand = f.cnext
		}
		if f.ref {
			f.ref = false
			continue
		}
		return f
	}
	return nil
}

// clockInsert links f into the ring just before the seam — the position
// the old slice implementation's append-at-end gave a new frame. A hand
// resting at the seam moves onto f: the slice encoded that state as
// hand == len, where an append landed exactly at the hand's index and
// was therefore the next sweep candidate.
func (p *Pool) clockInsert(f *frame) {
	if p.clockFirst == nil {
		f.cprev, f.cnext = f, f
		p.clockFirst = f
		p.clockHand = f
		return
	}
	last := p.clockFirst.cprev
	f.cprev, f.cnext = last, p.clockFirst
	last.cnext = f
	p.clockFirst.cprev = f
	if p.clockHand == nil {
		p.clockHand = f
	}
}

// clockRemove unlinks f in O(1), keeping the hand on the element that
// followed f (or at the seam when f was the tail) — exactly where the
// slice implementation's index adjustment left it.
func (p *Pool) clockRemove(f *frame) {
	if p.clockHand == f {
		if f.cnext == p.clockFirst {
			p.clockHand = nil
		} else {
			p.clockHand = f.cnext
		}
	}
	if f.cnext == f {
		p.clockFirst, p.clockHand = nil, nil
	} else {
		f.cprev.cnext = f.cnext
		f.cnext.cprev = f.cprev
		if p.clockFirst == f {
			p.clockFirst = f.cnext
		}
	}
	f.cprev, f.cnext = nil, nil
}

// drop removes a frame from the pool structures (not the tracker) and
// recycles it.
func (p *Pool) drop(f *frame) {
	*p.slot(f.key) = nil
	p.cached--
	p.clockRemove(f)
	p.evictions++
	p.frameFree.Put(f)
}

// newFrame returns a recycled or fresh frame for key, referenced. Fresh
// frames are carved from the chunk arena.
func (p *Pool) newFrame(key storage.ExtentKey) *frame {
	if f := p.frameFree.Get(); f != nil {
		f.key, f.ref = key, true
		return f
	}
	if len(p.frameArena) == 0 {
		p.frameArena = make([]frame, frameChunk)
	}
	f := &p.frameArena[0]
	p.frameArena = p.frameArena[1:]
	f.key, f.ref = key, true
	return f
}

// ExtentBytes returns the frame size.
func (p *Pool) ExtentBytes() int64 { return p.extentBytes }

// diskDelayOp is the continuation state machine behind DiskDelayThen: claim
// a disk channel for one extent-sized chunk at a time.
type diskDelayOp struct {
	p      *Pool
	remain time.Duration
	chunk  time.Duration
	occupy time.Duration
	k      vtime.Step
	state  int8
}

const (
	ddClaim int8 = iota // size the next chunk and claim a channel
	ddHold              // channel held: occupy it
	ddDone              // chunk done: release
)

func (op *diskDelayOp) Run(t *vtime.Task) {
	p := op.p
	for {
		switch op.state {
		case ddClaim:
			chunk := diskLatency
			if chunk > op.remain {
				chunk = op.remain
			}
			occupy := chunk
			if p.dilation != nil {
				if f := p.dilation(); f > 1 {
					occupy = time.Duration(float64(chunk) * f)
				}
			}
			op.chunk, op.occupy = chunk, occupy
			op.state = ddHold
			p.disk.AcquireThen(t, op)
			return
		case ddHold:
			op.state = ddDone
			t.SleepThen(op.occupy, op)
			return
		case ddDone:
			p.disk.Release()
			op.remain -= op.chunk
			if op.remain <= 0 {
				k := op.k
				op.k = nil
				p.delays.Put(op)
				k.Run(t)
				return
			}
			op.state = ddClaim
		}
	}
}

// DiskDelayThen occupies a disk channel for d of virtual time as
// continuation steps on the event loop, then runs k: raw I/O that bypasses
// the cache (an execution's workspace refaults).
func (p *Pool) DiskDelayThen(t *vtime.Task, d time.Duration, k vtime.Step) {
	if d <= 0 {
		k.Run(t)
		return
	}
	op := p.delays.Get()
	if op == nil {
		op = &diskDelayOp{p: p}
	}
	op.remain, op.k, op.state = d, k, ddClaim
	op.Run(t)
}

// Contains reports whether the extent is cached (for tests).
func (p *Pool) Contains(key storage.ExtentKey) bool { return *p.slot(key) != nil }

// String summarizes the pool.
func (p *Pool) String() string {
	return fmt.Sprintf("bufferpool: %s (%d frames), hit-rate %.1f%%, evictions %d, passthrough %d",
		mem.FormatBytes(p.Bytes()), p.Frames(), p.HitRate()*100, p.evictions, p.passthrough)
}
