package sim

// Dispatch-order pins and microbenchmarks for the scheduler hand-off: the
// ready queue, the blocking receive and the receive watchdog.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// handoffPerturber slows one proc and jitters every delivery from the
// engine's perturbation generator, as the fault plans do.
type handoffPerturber struct{}

func (handoffPerturber) ComputeScale(proc int) float64 {
	if proc == 2 {
		return 1.5
	}
	return 1
}

func (handoffPerturber) DeliveryDelay(src, dst int, at float64, rng *rand.Rand) float64 {
	return rng.Float64() * 2e-3
}

// handoffProgram runs one seeded program over every scheduling path —
// Sync, exact and wildcard Recv, RecvUntil (satisfied, expired, and woken
// by a message that lands past its deadline), After completions with
// cancels, and a Perturber — and returns a transcript of every resume's
// (proc, clock), every receive's result, every fired completion and the
// final Stats, plus how many RecvUntil calls ended each way.
func handoffProgram() (transcript string, inTime, expired, late int) {
	const n, rounds = 6, 30
	var log []byte
	logf := func(format string, args ...any) { log = fmt.Appendf(log, format, args...) }
	resumed := func(p *Proc, at string) { logf("R %d %s %x\n", p.ID(), at, math.Float64bits(p.Now())) }
	got := func(p *Proc, m Message, ok bool) {
		logf("M %d<-%d tag=%d %v %x %t\n", p.ID(), m.Src, m.Tag, m.Payload, math.Float64bits(m.Arrival), ok)
	}
	e := NewEngine(Config{Seed: 7, Perturber: handoffPerturber{}})
	end := e.Run(n, func(p *Proc) {
		id, r := p.ID(), p.Rand()
		for round := 0; round < rounds; round++ {
			p.Advance(r.Float64() * 1e-2)
			p.Sync()
			resumed(p, "sync")
			pd := p.After(p.Now()+r.Float64()*3e-2, func() {
				logf("F %d %d %x\n", id, round, math.Float64bits(p.Now()))
			})
			if round%3 == 0 {
				pd.Cancel()
			}
			p.Send((id+1)%n, round, round, p.Now()+r.Float64()*2e-2)
			p.Send((id+2)%n, 1000+round, -round, p.Now()+r.Float64()*2e-2)
			p.Send((id+3)%n, 2000+round, id, p.Now()+r.Float64()*2e-2)

			m := p.Recv((id+n-1)%n, round)
			resumed(p, "recv")
			got(p, m, true)
			m = p.Recv(AnySource, 1000+round)
			resumed(p, "anysrc")
			got(p, m, true)
			m = p.Recv((id+n-3)%n, AnyTag)
			resumed(p, "anytag")
			got(p, m, true)
			// The watchdog case, sent late in the round so the successor is
			// often already parked on it: most rounds the answer is in time,
			// every fourth it lands past the deadline, every fifth never comes.
			switch {
			case round%5 == 4:
			case round%4 == 3:
				p.Send((id+1)%n, 3000+round, "late", p.Now()+0.5)
			default:
				p.Send((id+1)%n, 3000+round, "ok", p.Now()+r.Float64()*1e-2)
			}
			m, ok := p.RecvUntil((id+n-1)%n, 3000+round, p.Now()+2e-2)
			resumed(p, "until")
			got(p, m, ok)
			switch {
			case ok:
				inTime++
			case round%5 == 4:
				expired++
			default:
				late++
			}
		}
	})
	st := e.Stats()
	logf("end %x resumes=%d sends=%d recvs=%d exact=%d wild=%d scanned=%d perturbed=%d timeouts=%d advances=%d depth=%d\n",
		math.Float64bits(end), st.Resumes.Value(), st.Sends.Value(), st.Recvs.Value(),
		st.ExactPops.Value(), st.WildcardPops.Value(), st.WildcardScanned.Value(),
		st.Perturbed.Value(), st.Timeouts.Value(), st.Advances.Value(), st.MaxReadyDepth)
	return string(log), inTime, expired, late
}

// handoffOrderDigest is the FNV-64a hash of handoffProgram's transcript. A
// change to the ready queue, the receive path or the watchdog that moves it
// has changed the engine's dispatch order, and with it every schedule.
const handoffOrderDigest = 0xddeda7c655ff5cb8

// TestHandoffOrderPinned pins the engine's dispatch order: who resumes at
// which clock, what every receive returns and which completions fire.
func TestHandoffOrderPinned(t *testing.T) {
	transcript, inTime, expired, late := handoffProgram()
	if inTime == 0 || expired == 0 || late == 0 {
		t.Fatalf("program must exercise every RecvUntil outcome: in time %d, expired %d, late %d", inTime, expired, late)
	}
	if again, _, _, _ := handoffProgram(); again != transcript {
		t.Fatal("two runs of the same seeded program differ")
	}
	h := fnv.New64a()
	h.Write([]byte(transcript))
	if got := h.Sum64(); got != handoffOrderDigest {
		t.Fatalf("dispatch order moved: digest %#x, want %#x", got, uint64(handoffOrderDigest))
	}
}

// TestSyncOvertakesArmedDeadline pins a known defect: Sync's fast path
// looks only at the ready queue, not at armed RecvUntil deadlines. Proc 1
// passes its Sync at t=2 while proc 0's watchdog for t=1 is still armed,
// so a booking made right after that Sync lands ahead of the watchdog's
// wake — against Sync's guarantee that no proc is later resumed at an
// earlier clock. The fix moves the crash-plan goldens; until it lands, this
// test holds today's order so the change is deliberate.
func TestSyncOvertakesArmedDeadline(t *testing.T) {
	var order []string
	NewEngine(Config{Seed: 1}).Run(2, func(p *Proc) {
		if p.ID() == 0 {
			if _, ok := p.RecvUntil(1, 9, 1.0); ok {
				t.Error("RecvUntil got a message nobody sent")
			}
		} else {
			p.Advance(2)
			p.Sync()
		}
		order = append(order, fmt.Sprintf("%d@%g", p.ID(), p.Now()))
	})
	if got := fmt.Sprint(order); got != "[1@2 0@1]" {
		t.Fatalf("order = %s, want [1@2 0@1] (Sync passes an armed deadline)", got)
	}
}

// BenchmarkHandoff is a Sync ring: every proc advances a little and syncs,
// so each Sync parks the caller behind an earlier clock. One op is one
// hand-off.
func BenchmarkHandoff(b *testing.B) {
	const procs = 64
	rounds := b.N/procs + 1
	b.ReportAllocs()
	b.ResetTimer()
	NewEngine(Config{Seed: 1}).Run(procs, func(p *Proc) {
		step := 1e-6 * (1 + float64(p.ID()%7)/7)
		for i := 0; i < rounds; i++ {
			p.Advance(step)
			p.Sync()
		}
	})
}

// BenchmarkMsgRing passes a message around a ring: each proc sends to its
// successor and receives from its predecessor. One op is one send plus one
// receive.
func BenchmarkMsgRing(b *testing.B) {
	const procs = 64
	for _, until := range []bool{false, true} {
		name := "Recv"
		if until {
			name = "RecvUntil"
		}
		b.Run(name, func(b *testing.B) {
			rounds := b.N/procs + 1
			b.ReportAllocs()
			b.ResetTimer()
			NewEngine(Config{Seed: 1}).Run(procs, func(p *Proc) {
				next, prev := (p.ID()+1)%procs, (p.ID()+procs-1)%procs
				for i := 0; i < rounds; i++ {
					p.Send(next, 1, nil, p.Now()+1e-6)
					if until {
						p.RecvUntil(prev, 1, p.Now()+1)
					} else {
						p.Recv(prev, 1)
					}
				}
			})
		})
	}
}

// BenchmarkSpawn runs an engine of procs with empty bodies. One op is one
// proc started and finished.
func BenchmarkSpawn(b *testing.B) {
	const procs = 256
	b.ReportAllocs()
	for i := 0; i < b.N; i += procs {
		NewEngine(Config{Seed: 1}).Run(procs, func(*Proc) {})
	}
}
