package sim

// Differential fuzzing of the kernel's one idleness mechanism: a rig of
// fake tickers and events, decoded from the input, must log the same work
// at the same cycles, end at the same cycle and trip the same watchdog
// error whether the engine sleeps and skips (SetIdleSkip(true)) or ticks
// every ticker on every cycle (SetIdleSkip(false)). The tickers keep the
// sleep contract the model's components keep: one with nothing ready
// sleeps until its earliest work item, or until woken, and whatever hands
// it work wakes it; per-cycle accounting is settled lazily through Wake's
// report, as the accelerator settles its busy cycles. The committed seed
// corpus (testdata/fuzz/FuzzSleepMatchesStepping) replays on every plain
// `go test`; make fuzz-smoke explores beyond it.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// fuzzMaxItems bounds the work items one rig creates, so work that hands
// out more work cannot grow without end.
const fuzzMaxItems = 300

// fuzzItem is a work item for a fuzzTicker: it is ready from cycle ready on.
type fuzzItem struct {
	id    int
	ready uint64
}

// fuzzRig is the state of one run: the tickers, the work log, and the input
// bytes, read cyclically, that choose what each processed item does.
type fuzzRig struct {
	e       *Engine
	src     []byte
	pos     int
	items   int
	tickers []*fuzzTicker
	log     []string
}

func (r *fuzzRig) next() int {
	b := r.src[r.pos%len(r.src)]
	r.pos++
	return int(b)
}

// hand gives ticker j an item ready at cycle at and wakes it, charging the
// cycles it slept through at the queue length they saw: up to now if its
// tick in this cycle is still to come, through now if it has passed.
func (r *fuzzRig) hand(j int, at uint64) {
	if r.items == fuzzMaxItems {
		return
	}
	r.items++
	t := r.tickers[j]
	end := r.e.Now()
	if !r.e.Wake(t.i) {
		end++
	}
	t.settle(end)
	t.queue = append(t.queue, fuzzItem{r.items, at})
}

// do runs the action the input chooses for an item ticker t processed.
func (r *fuzzRig) do(now uint64) {
	switch r.next() % 5 {
	case 1: // hand an item to any ticker, earlier, later or itself
		j, d := r.next()%len(r.tickers), uint64(r.next()%8)
		r.hand(j, now+d)
	case 2: // an event hands one later
		j, d := r.next()%len(r.tickers), uint64(r.next()%16)
		r.e.Schedule(d, func(at uint64) { r.hand(j, at) })
	case 3:
		r.e.Progress()
	case 4: // far work, which a fast-forward jumps to
		j, d := r.next()%len(r.tickers), uint64(r.next())*4
		r.hand(j, now+d)
	}
}

// fuzzTicker processes its ready items in queue order, then sleeps until
// its earliest pending item, or until woken if it holds none, unless it
// stays awake. charged sums its queue length over the cycles it was
// registered, settled lazily from chargeFrom on.
type fuzzTicker struct {
	r          *fuzzRig
	i          int
	stays      bool
	queue      []fuzzItem
	chargeFrom uint64
	charged    uint64
}

func (t *fuzzTicker) Name() string { return fmt.Sprintf("fuzz%d", t.i) }

func (t *fuzzTicker) settle(end uint64) {
	if end > t.chargeFrom {
		t.charged += (end - t.chargeFrom) * uint64(len(t.queue))
		t.chargeFrom = end
	}
}

func (t *fuzzTicker) Tick(now uint64) {
	t.settle(now + 1)
	for {
		k := slices.IndexFunc(t.queue, func(it fuzzItem) bool { return it.ready <= now })
		if k < 0 {
			break
		}
		it := t.queue[k]
		t.queue = slices.Delete(t.queue, k, k+1)
		t.r.log = append(t.r.log, fmt.Sprintf("%d %s item %d", now, t.Name(), it.id))
		t.r.do(now)
	}
	if !t.stays {
		at := uint64(math.MaxUint64)
		for _, it := range t.queue {
			at = min(at, it.ready)
		}
		t.r.e.Sleep(t.i, at)
	}
}

// dump lists every ticker's pending items for the watchdog.
func (r *fuzzRig) dump() string {
	var b strings.Builder
	for _, t := range r.tickers {
		fmt.Fprintf(&b, "%s %v\n", t.Name(), t.queue)
	}
	return b.String()
}

// fuzzOutcome is what one run of a rig shows.
type fuzzOutcome struct {
	log     []string
	end     uint64
	charged []uint64 // per ticker; nil after a watchdog trip
	err     *ProtocolError
}

// runFuzzRig decodes data into a rig and runs it. The first bytes choose
// the tickers (1-4, each staying awake or sleeping), the watchdog (none, a
// small window, a mid window or a saturated one) and its registration
// position, and the cycle budget; the next choose the initial work, handed
// directly or by events. Every later byte is read cyclically by do.
func runFuzzRig(data []byte, skip bool) fuzzOutcome {
	r := &fuzzRig{e: NewEngine(), src: data}
	r.e.SetIdleSkip(skip)
	n := 1 + r.next()%4
	stays := r.next()
	wd, window, wdAt := r.next()%4, uint64(1+r.next()%48), r.next()%(n+1)
	budget := uint64(1 + (r.next()<<8|r.next())%3000)
	for k := 0; k <= n; k++ {
		if k == wdAt && wd != 0 {
			switch wd {
			case 2:
				window *= 8
			case 3:
				window = math.MaxUint64
			}
			NewWatchdog(r.e, window).AddDump("fuzz", r.dump)
		}
		if k < n {
			t := &fuzzTicker{r: r, stays: stays>>k&1 != 0}
			t.i = r.e.Register(t)
			r.tickers = append(r.tickers, t)
		}
	}
	for k := r.next() % 8; k > 0; k-- {
		j, at := r.next()%n, uint64(r.next()*r.next()%2048)
		if r.next()%2 == 0 {
			r.hand(j, at)
		} else {
			r.e.ScheduleAt(at, func(now uint64) { r.hand(j, now) })
		}
	}
	_, _, err := r.e.RunE(budget, nil)
	out := fuzzOutcome{log: r.log, end: r.e.Now()}
	if err != nil {
		if !errors.As(err, &out.err) {
			panic(err)
		}
		return out
	}
	for _, t := range r.tickers {
		t.settle(r.e.Now())
		out.charged = append(out.charged, t.charged)
	}
	return out
}

func FuzzSleepMatchesStepping(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 0, 200, 5, 1, 2, 30, 0, 2, 1, 1, 4, 3, 1, 0, 2, 2, 7})
	f.Add([]byte{2, 1, 1, 3, 1, 1, 100, 3, 0, 5, 9, 1, 1, 60, 3, 2, 4, 1, 20})
	f.Add([]byte{4, 0, 2, 40, 4, 0, 255, 6, 3, 9, 9, 0, 1, 1, 0, 3, 3, 4, 0, 50, 2, 3, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		skip, step := runFuzzRig(data, true), runFuzzRig(data, false)
		if !slices.Equal(skip.log, step.log) {
			t.Fatalf("work logs differ:\nskip: %q\nstep: %q", skip.log, step.log)
		}
		if skip.end != step.end || !slices.Equal(skip.charged, step.charged) {
			t.Fatalf("ended at cycle %d with charges %v under skipping, %d with %v stepping",
				skip.end, skip.charged, step.end, step.charged)
		}
		if (skip.err == nil) != (step.err == nil) {
			t.Fatalf("watchdog error %v under skipping, %v stepping", skip.err, step.err)
		}
		if skip.err != nil && *skip.err != *step.err {
			t.Fatalf("watchdog errors differ:\nskip: %v\n%s\nstep: %v\n%s",
				skip.err, skip.err.State, step.err, step.err.State)
		}
	})
}
