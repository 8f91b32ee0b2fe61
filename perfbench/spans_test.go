package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	parent := span{ID: 0, Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one nested child", []span{{Start: 120, End: 150}}, 70},
		{"disjoint children", []span{{Start: 110, End: 120}, {Start: 180, End: 190}}, 80},
		{"overlapping fan-out counts once", []span{{Start: 110, End: 160}, {Start: 130, End: 170}, {Start: 140, End: 150}}, 40},
		{"child past the parent's end is clipped", []span{{Start: 190, End: 260}}, 90},
		{"child outside the parent covers nothing", []span{{Start: 20, End: 90}, {Start: 210, End: 300}}, 100},
		{"child covering everything", []span{{Start: 50, End: 250}}, 0},
		{"unsorted children", []span{{Start: 170, End: 180}, {Start: 100, End: 110}}, 80},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerTreeAndSelf(t *testing.T) {
	tr := newTracer()
	tid := tr.newTrace()
	root := tr.begin(tid, -1, "servecache.get.miss")
	child := tr.begin(tid, root, "core.predict")
	time.Sleep(time.Millisecond)
	tr.end(child)
	tr.end(root)
	tr.set(child, func(s *span) { s.Probe = true })

	if id := tr.begin(0, -1, "untraced"); id != -1 {
		t.Errorf("untraced begin = %d, want -1", id)
	}
	tr.end(-1) // must be a no-op

	ix := indexSpans(tr.snapshot())
	if len(ix.spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(ix.spans))
	}
	if _, ok := ix.child(root, "core.predict"); ok {
		t.Error("child found a probe span")
	}
	self := ix.self("servecache.get.miss")
	if len(self) != 1 {
		t.Fatalf("self times = %v", self)
	}
	whole := ix.durations("servecache.get.miss")[0]
	inner := ix.durations("core.predict")[0]
	if inner < 1000 || self[0] < 0 || self[0] > whole-inner+0.001 {
		t.Errorf("self %vµs of %vµs with a %vµs child", self[0], whole, inner)
	}
}
