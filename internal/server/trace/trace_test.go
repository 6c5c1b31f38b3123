package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func mkSpan(fid int32, start, end int64, out Outcome) Span {
	s := Span{FuncID: fid, External: true, StartNS: start, EndNS: end, Outcome: out}
	s.Stages[StageExec] = end - start
	return s
}

func TestPublishAssignsIDAndRetains(t *testing.T) {
	r := NewRecorder(2)
	r.InitFuncs([]string{"echo"})

	s := mkSpan(0, 100, 200, OutcomeOK)
	r.Publish(0, &s)
	if s.ID == 0 {
		t.Fatal("publish did not assign an ID")
	}
	if s.ID&publishedBase == 0 {
		t.Fatalf("publish-assigned ID %#x missing the namespace bit", s.ID)
	}
	if s.Shard != 0 {
		t.Fatalf("shard = %d, want 0", s.Shard)
	}

	// An explicit (Async-assigned) ID survives publication.
	s2 := mkSpan(0, 300, 400, OutcomeOK)
	s2.ID = r.NextID()
	want := s2.ID
	r.Publish(1, &s2)
	if s2.ID != want {
		t.Fatalf("explicit ID rewritten: %d -> %d", want, s2.ID)
	}

	doc := r.Tracez("", 0)
	if len(doc.Recent) != 2 {
		t.Fatalf("recent = %d spans, want 2", len(doc.Recent))
	}
	// Newest first: s2 ended at 400.
	if doc.Recent[0].ID != want {
		t.Fatalf("recent[0] = %d, want the newest span %d", doc.Recent[0].ID, want)
	}
}

func TestPublishOutOfRangeShard(t *testing.T) {
	r := NewRecorder(4)
	r.InitFuncs([]string{"echo"})
	for _, idx := range []int{-1, 99} {
		s := mkSpan(0, 0, 10, OutcomeOK)
		r.Publish(idx, &s)
		if s.Shard < 0 || int(s.Shard) >= 4 {
			t.Fatalf("publish(%d) landed on shard %d", idx, s.Shard)
		}
	}
}

func TestSlowestRetention(t *testing.T) {
	r := NewRecorder(1)
	r.InitFuncs([]string{"echo", "other"})

	// Publish spans of increasing duration; only the slowK slowest stay.
	for i := int64(1); i <= 10; i++ {
		s := mkSpan(0, 0, i*100, OutcomeOK)
		r.Publish(0, &s)
	}
	doc := r.Tracez("echo", 0)
	if len(doc.Slow) != 1 {
		t.Fatalf("slow funcs = %d, want 1", len(doc.Slow))
	}
	spans := doc.Slow[0].Spans
	if len(spans) != slowK {
		t.Fatalf("retained %d slow spans, want %d", len(spans), slowK)
	}
	// The four slowest are 700..1000.
	for _, v := range spans {
		if v.DurNS < 700 {
			t.Fatalf("retained span of %dns; slowest-%d should all be >= 700", v.DurNS, slowK)
		}
	}

	// A fast span once the floor is set must not displace anything.
	fast := mkSpan(0, 0, 1, OutcomeOK)
	r.Publish(0, &fast)
	doc = r.Tracez("echo", 0)
	for _, v := range doc.Slow[0].Spans {
		if v.DurNS == 1 {
			t.Fatal("fast span displaced a slower retained one")
		}
	}

	// Filtering by the other (unused) function returns nothing.
	if doc := r.Tracez("other", 0); len(doc.Slow) != 0 {
		t.Fatalf("filter leak: %d slow funcs for an idle function", len(doc.Slow))
	}
}

func TestErrRingRetainsNonOK(t *testing.T) {
	r := NewRecorder(1)
	r.InitFuncs([]string{"echo"})

	ok := mkSpan(0, 0, 50, OutcomeOK)
	r.Publish(0, &ok)
	bad := mkSpan(0, 60, 100, OutcomeError)
	r.Publish(0, &bad)
	flagged := mkSpan(0, 110, 150, OutcomeOK)
	flagged.Flagged = true
	r.Publish(0, &flagged)

	doc := r.Tracez("", 0)
	if len(doc.Errors) != 2 {
		t.Fatalf("errors = %d, want 2 (errored + watchdog-flagged)", len(doc.Errors))
	}
	if doc.Errors[0].Watchdog != true {
		t.Fatalf("errors not newest-first: %+v", doc.Errors[0])
	}
}

func TestErrRingWraps(t *testing.T) {
	r := NewRecorder(1)
	r.InitFuncs([]string{"echo"})
	for i := int64(0); i < errCap+10; i++ {
		s := mkSpan(0, i, i+1, OutcomeError)
		r.Publish(0, &s)
	}
	doc := r.Tracez("", errCap*2)
	if len(doc.Errors) != errCap {
		t.Fatalf("errors = %d, want the ring cap %d", len(doc.Errors), errCap)
	}
}

func TestFlightRecorderTripAndRateLimit(t *testing.T) {
	r := NewRecorder(1)
	r.InitFuncs([]string{"echo"})
	r.SetFlightStats(func() FlightStats {
		return FlightStats{ExtQueue: 7, FreePDs: 3}
	})

	s := mkSpan(0, 0, 100, OutcomeOK)
	r.Publish(0, &s)

	r.TripBreaker("echo")
	r.TripBreaker("echo") // same class, inside the cooldown: dropped
	r.TripWatchdog("echo")

	incs := r.Incidents()
	if len(incs) != 2 {
		t.Fatalf("incidents = %d, want 2 (breaker + watchdog; duplicate rate-limited)", len(incs))
	}
	// Newest first: the watchdog trip.
	if incs[0].Reason != "watchdog:echo" {
		t.Fatalf("incidents[0].Reason = %q", incs[0].Reason)
	}
	if !incs[0].HasStats || incs[0].Stats.ExtQueue != 7 {
		t.Fatalf("stats not frozen: %+v", incs[0].Stats)
	}
	if len(incs[1].Traces) != 1 {
		t.Fatalf("breaker incident froze %d traces, want 1", len(incs[1].Traces))
	}
}

// fillRings publishes full rings on every shard with EndNS interleaved
// across shards (span i goes to shard i%shards and ends at i), so the
// newest spans are spread over all shards.
func fillRings(r *Recorder, shards int) {
	for i := 0; i < shards*ringCap; i++ {
		s := mkSpan(-1, int64(i)-10, int64(i), OutcomeOK)
		r.Publish(i%shards, &s)
	}
}

// TestFlightRecorderNewestAcrossFullRings: an incident over full rings on
// 32 shards freezes exactly the flightTraces newest spans, newest first.
func TestFlightRecorderNewestAcrossFullRings(t *testing.T) {
	const shards = 32
	r := NewRecorder(shards)
	fillRings(r, shards)
	r.Trip("test", "full")
	incs := r.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incs))
	}
	got := incs[0].Traces
	if len(got) != flightTraces {
		t.Fatalf("froze %d traces, want %d", len(got), flightTraces)
	}
	newest := int64(shards*ringCap - 1)
	for i, s := range got {
		if s.EndNS != newest-int64(i) {
			t.Fatalf("traces[%d].EndNS = %d, want %d", i, s.EndNS, newest-int64(i))
		}
	}
}

// BenchmarkRecentSpans times the flight recorder's capture over full rings,
// the work Trip does under flightMu.
func BenchmarkRecentSpans(b *testing.B) {
	for _, shards := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			r := NewRecorder(shards)
			fillRings(r, shards)
			for b.Loop() {
				r.recentSpans(flightTraces)
			}
		})
	}
}

func TestFlightRecorderBounded(t *testing.T) {
	r := NewRecorder(1)
	r.InitFuncs([]string{"echo"})
	for i := 0; i < flightCap+5; i++ {
		// Distinct classes bypass the per-class cooldown.
		r.Trip("class"+string(rune('a'+i)), "r")
	}
	if got := len(r.Incidents()); got != flightCap {
		t.Fatalf("incidents = %d, want the cap %d", got, flightCap)
	}
}

func TestNoteShedBurstTrips(t *testing.T) {
	r := NewRecorder(1)
	r.InitFuncs([]string{"echo"})
	for i := 0; i < shedBurst; i++ {
		r.NoteShed()
	}
	incs := r.Incidents()
	if len(incs) != 1 || incs[0].Reason != "shed_burst" {
		t.Fatalf("shed burst did not freeze exactly one incident: %+v", incs)
	}
	// The burst counter keeps counting past the threshold without
	// re-tripping (the class cooldown holds).
	for i := 0; i < shedBurst; i++ {
		r.NoteShed()
	}
	if got := len(r.Incidents()); got != 1 {
		t.Fatalf("incidents after second burst = %d, want 1 (cooldown)", got)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    int64
		want int
	}{{1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}, {1 << 45, nBuckets - 1}}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	for i := 0; i < nBuckets; i++ {
		if got := bucketOf(bucketUpperNS(i)); got != i {
			t.Errorf("bucketOf(bucketUpperNS(%d)) = %d", i, got)
		}
	}
}

func TestStageHistsAndQuantiles(t *testing.T) {
	r := NewRecorder(2)
	r.InitFuncs([]string{"echo"})
	// 100 spans, exec duration 1000ns each, split across both shards.
	for i := 0; i < 100; i++ {
		s := Span{FuncID: 0, StartNS: int64(i), EndNS: int64(i) + 1000}
		s.Stages[StageExec] = 1000
		s.Stages[StageQueue] = 100
		r.Publish(i%2, &s)
	}
	hists := r.StageHists()
	exec := hists[StageExec]
	if exec.Count != 100 || exec.SumNS != 100_000 {
		t.Fatalf("exec hist count=%d sum=%d", exec.Count, exec.SumNS)
	}
	// All samples sit in bucket log2(1000)=9, upper bound 1023.
	if p99 := exec.quantileNS(0.99); p99 != 1023 {
		t.Fatalf("exec p99 = %d, want 1023", p99)
	}
	if q := hists[StageQueue].quantileNS(0.5); q != 127 {
		t.Fatalf("queue p50 = %d, want 127", q)
	}
	if hists[StageParse].Count != 0 {
		t.Fatalf("parse hist picked up %d phantom samples", hists[StageParse].Count)
	}
}

func TestTracezFilterAndLimit(t *testing.T) {
	r := NewRecorder(1)
	r.InitFuncs([]string{"a", "b"})
	for i := int64(0); i < 10; i++ {
		s := mkSpan(int32(i%2), i*10, i*10+5, OutcomeOK)
		r.Publish(0, &s)
	}
	doc := r.Tracez("a", 3)
	if len(doc.Recent) != 3 {
		t.Fatalf("limit ignored: %d recent", len(doc.Recent))
	}
	for _, v := range doc.Recent {
		if v.Func != "a" {
			t.Fatalf("filter leak: got func %q", v.Func)
		}
	}
}

func TestViewOtherNSExcludesState(t *testing.T) {
	r := NewRecorder(1)
	r.InitFuncs([]string{"a"})
	s := Span{FuncID: 0, StartNS: 0, EndNS: 1000}
	s.Stages[StageExec] = 600
	s.Stages[StageState] = 500 // inside exec: must not count toward attribution
	s.Stages[StageQueue] = 300
	v := r.view(&s)
	if v.OtherNS != 100 {
		t.Fatalf("other_ns = %d, want 1000-600-300 = 100", v.OtherNS)
	}
}

func TestConcurrentPublishAndExport(t *testing.T) {
	r := NewRecorder(4)
	r.InitFuncs([]string{"a", "b"})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				out := OutcomeOK
				if i%7 == 0 {
					out = OutcomeError
				}
				s := mkSpan(int32(w%2), int64(i), int64(i+w+1), out)
				r.Publish(w%4, &s)
				if i%100 == 0 {
					r.NoteShed()
				}
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Tracez("", 16)
			_ = r.Flightz()
			_ = r.StageHists()
			r.TripBreaker("a")
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	hists := r.StageHists()
	if got := hists[StageExec].Count; got != 8*2000 {
		t.Fatalf("exec count = %d, want %d (no lost publishes)", got, 8*2000)
	}
}
