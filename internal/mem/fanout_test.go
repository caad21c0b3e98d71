package mem

import (
	"fmt"
	"reflect"
	"testing"

	"silcfm/internal/stats"
)

// fanObs records the plain Observer stream as strings.
type fanObs struct {
	events []string
}

func (r *fanObs) Demand(pa uint64, loc Location, write bool) {
	r.events = append(r.events, fmt.Sprintf("demand %x %v %v", pa, loc, write))
}
func (r *fanObs) Capture(loc Location) {
	r.events = append(r.events, fmt.Sprintf("capture %v", loc))
}
func (r *fanObs) Deliver(src, dst Location) {
	r.events = append(r.events, fmt.Sprintf("deliver %v %v", src, dst))
}
func (r *fanObs) Relocate(src, dst Location) {
	r.events = append(r.events, fmt.Sprintf("relocate %v %v", src, dst))
}

// fanSchemeObs additionally records the SchemeObserver extension.
type fanSchemeObs struct {
	fanObs
}

func (r *fanSchemeObs) Swap(a, b Location) {
	r.events = append(r.events, fmt.Sprintf("swap %v %v", a, b))
}
func (r *fanSchemeObs) Lock(frame, block uint64, home bool) {
	r.events = append(r.events, fmt.Sprintf("lock %d %d %v", frame, block, home))
}
func (r *fanSchemeObs) Unlock(frame, block uint64) {
	r.events = append(r.events, fmt.Sprintf("unlock %d %d", frame, block))
}

func emitAll(s *System) {
	nm := Location{Level: stats.NM, DevAddr: 0}
	fm := Location{Level: stats.FM, DevAddr: 64}
	s.NoteDemand(0x40, nm, false)
	s.NoteCapture(fm)
	s.NoteDeliver(fm, nm)
	s.NoteRelocate(nm, fm)
	s.NoteSwap(nm, fm)
	s.NoteLock(3, 7, true)
	s.NoteUnlock(3, 7)
}

// TestAttachObserverFiltersByInterface checks that optional SchemeObserver
// events reach only members implementing it, while every member sees the
// plain Observer stream.
func TestAttachObserverFiltersByInterface(t *testing.T) {
	_, s := newSys()
	plain := &fanObs{}
	scheme := &fanSchemeObs{}
	s.AttachObserver(plain)
	s.AttachObserver(scheme)

	emitAll(s)

	wantPlain := []string{
		"demand 40 {NM 0} false",
		"capture {FM 64}",
		"deliver {FM 64} {NM 0}",
		"relocate {NM 0} {FM 64}",
	}
	wantScheme := append(append([]string{}, wantPlain...),
		"swap {NM 0} {FM 64}",
		"lock 3 7 true",
		"unlock 3 7",
	)
	if !reflect.DeepEqual(plain.events, wantPlain) {
		t.Errorf("plain observer events:\n got %q\nwant %q", plain.events, wantPlain)
	}
	if !reflect.DeepEqual(scheme.events, wantScheme) {
		t.Errorf("scheme observer events:\n got %q\nwant %q", scheme.events, wantScheme)
	}
}

func TestAttachObserverIdenticalStreams(t *testing.T) {
	_, s := newSys()
	a := &fanSchemeObs{}
	b := &fanSchemeObs{}
	s.AttachObserver(a)
	s.AttachObserver(b)
	c := &fanSchemeObs{}
	s.AttachObserver(c)

	emitAll(s)
	emitAll(s)

	if len(a.events) == 0 {
		t.Fatal("no events recorded")
	}
	if !reflect.DeepEqual(a.events, b.events) || !reflect.DeepEqual(a.events, c.events) {
		t.Errorf("observers diverged:\n a %q\n b %q\n c %q", a.events, b.events, c.events)
	}
}

// taggedObs appends "<tag>:<event>" to a log shared across observers, so
// tests can assert the relative notification order between members.
type taggedObs struct {
	tag string
	log *[]string
}

func (o *taggedObs) note(ev string) { *o.log = append(*o.log, o.tag+":"+ev) }

func (o *taggedObs) Demand(pa uint64, loc Location, write bool) { o.note("demand") }
func (o *taggedObs) Capture(loc Location)                       { o.note("capture") }
func (o *taggedObs) Deliver(src, dst Location)                  { o.note("deliver") }
func (o *taggedObs) Relocate(src, dst Location)                 { o.note("relocate") }
func (o *taggedObs) Swap(a, b Location)                         { o.note("swap") }
func (o *taggedObs) Lock(frame, block uint64, home bool)        { o.note("lock") }
func (o *taggedObs) Unlock(frame, block uint64)                 { o.note("unlock") }
func (o *taggedObs) DemandComplete(a *Access, path stats.DemandPath, lat uint64) {
	o.note("complete")
}

// TestAttachObserverFirstAttachedFirstNotified pins the documented
// AttachObserver ordering guarantee: for every event, members are notified
// in attach order before the emitting operation continues.
func TestAttachObserverFirstAttachedFirstNotified(t *testing.T) {
	_, s := newSys()
	var log []string
	s.AttachObserver(&taggedObs{tag: "first", log: &log})
	s.AttachObserver(&taggedObs{tag: "second", log: &log})
	s.AttachObserver(&taggedObs{tag: "third", log: &log})

	emitAll(s)

	events := []string{"demand", "capture", "deliver", "relocate", "swap", "lock", "unlock"}
	var want []string
	for _, ev := range events {
		for _, tag := range []string{"first", "second", "third"} {
			want = append(want, tag+":"+ev)
		}
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("notification order:\n got %q\nwant %q", log, want)
	}
}

// TestDemandCompleteInAttachOrder checks that demand completions reach
// every DemandObserver member in attach order, with the span attribution
// already final (residual folded into SpanOther).
func TestDemandCompleteInAttachOrder(t *testing.T) {
	eng, s := newSys()
	var log []string
	s.AttachObserver(&taggedObs{tag: "first", log: &log})
	s.AttachObserver(&fanObs{}) // plain member: must be skipped, not crash
	s.AttachObserver(&taggedObs{tag: "second", log: &log})

	var spanSum, total uint64
	a := &Access{PAddr: 0x40, Start: eng.Now(), Done: func() {}}
	s.ServiceAccess(a, Location{Level: stats.NM, DevAddr: 0x40}, stats.PathNMHit)
	eng.Run()

	want := []string{"first:demand", "second:demand", "first:complete", "second:complete"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("demand completions:\n got %q\nwant %q", log, want)
	}
	total = eng.Now() - a.Start
	for _, v := range a.Spans() {
		spanSum += v
	}
	if spanSum != total {
		t.Errorf("span sum %d != end-to-end latency %d", spanSum, total)
	}
}

func TestCompoundOpsIdenticalStreams(t *testing.T) {
	eng, s := newSys()
	a := &fanSchemeObs{}
	b := &fanSchemeObs{}
	s.AttachObserver(a)
	s.AttachObserver(b)

	nm := Location{Level: stats.NM, DevAddr: 0}
	fm := Location{Level: stats.FM, DevAddr: 128}
	s.ExchangeSubblocks(nm, fm)
	s.SwapAccess(&Access{PAddr: 0x80, Start: eng.Now()}, nm, fm, stats.PathSwap)
	eng.Run()

	if len(a.events) == 0 {
		t.Fatal("compound ops emitted no events")
	}
	if !reflect.DeepEqual(a.events, b.events) {
		t.Errorf("observers diverged:\n a %q\n b %q", a.events, b.events)
	}
}

// nopObs ignores every plain Observer event.
type nopObs struct{}

func (*nopObs) Demand(pa uint64, loc Location, write bool) {}
func (*nopObs) Capture(loc Location)                       {}
func (*nopObs) Deliver(src, dst Location)                  {}
func (*nopObs) Relocate(src, dst Location)                 {}

// issueLog appends each DemandIssue notice to a log shared across
// observers, with the demand bytes the System had accounted when it
// arrived (those tick at device submission).
type issueLog struct {
	nopObs
	tag string
	s   *System
	log *[]string
}

func (o *issueLog) DemandIssue(a *Access, path stats.DemandPath, loc Location) {
	b := &o.s.Stats.Bytes
	*o.log = append(*o.log, fmt.Sprintf("%s:issue %x %v %v submitted=%d",
		o.tag, a.PAddr, path, loc, b[stats.NM][stats.Demand]+b[stats.FM][stats.Demand]))
}

// TestDemandIssueInAttachOrderBeforeSubmit checks that ServiceAccess and
// SwapAccess notify only DemandIssueObserver members, in attach order, and
// before the demand's device request is submitted.
func TestDemandIssueInAttachOrderBeforeSubmit(t *testing.T) {
	eng, s := newSys()
	var log []string
	s.AttachObserver(&issueLog{tag: "first", s: s, log: &log})
	s.AttachObserver(&fanSchemeObs{}) // no DemandIssue: must be skipped
	s.AttachObserver(&issueLog{tag: "second", s: s, log: &log})

	nm := Location{Level: stats.NM, DevAddr: 0x40}
	fm := Location{Level: stats.FM, DevAddr: 0x80}
	s.ServiceAccess(&Access{PAddr: 0x40, Start: eng.Now()}, nm, stats.PathNMHit)
	eng.Run()
	s.SwapAccess(&Access{PAddr: 0x80, Start: eng.Now()}, fm, nm, stats.PathSwap)
	eng.Run()

	want := []string{
		"first:issue 40 nm-hit {NM 64} submitted=0",
		"second:issue 40 nm-hit {NM 64} submitted=0",
		"first:issue 80 swap {FM 128} submitted=64",
		"second:issue 80 swap {FM 128} submitted=64",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("demand issues:\n got %q\nwant %q", log, want)
	}
	if got := s.Stats.Bytes[stats.NM][stats.Demand] + s.Stats.Bytes[stats.FM][stats.Demand]; got != 128 {
		t.Errorf("demand bytes after both accesses = %d, want 128", got)
	}
}

// BenchmarkNoteDeliver times one Deliver event through the System's
// observer list with 0, 1 and 3 attached no-op observers.
func BenchmarkNoteDeliver(b *testing.B) {
	for _, n := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("observers=%d", n), func(b *testing.B) {
			_, s := newSys()
			for i := 0; i < n; i++ {
				s.AttachObserver(&nopObs{})
			}
			src := Location{Level: stats.FM, DevAddr: 64}
			dst := Location{Level: stats.NM, DevAddr: 0}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.NoteDeliver(src, dst)
			}
		})
	}
}
