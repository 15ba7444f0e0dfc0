package main

import "testing"

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		// two tenants' jobs side by side under the round: covered once
		{ID: 2, Parent: 1, Name: "job", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "job", Start: 40, End: 90},
		// nested under the first job
		{ID: 4, Parent: 2, Name: "submit", Start: 10, End: 15},
		{ID: 5, Parent: 2, Name: "wait", Start: 15, End: 50},
		// a child that outlives its parent is clipped to it
		{ID: 6, Parent: 3, Name: "result", Start: 80, End: 120},
		// a child wholly inside a sibling adds nothing
		{ID: 7, Parent: 1, Name: "job", Start: 45, End: 55},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - 80, // children cover [10,90]
		2: 50 - 40,  // children cover [10,50]
		3: 50 - 10,  // child covers [80,90]
		4: 5, 5: 35, 6: 40, 7: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 0)
	r.count(id, "k", 1)
	r.end(id)
	if id != 0 || r.ms("x") != nil || r.sum("x", "k") != 0 {
		t.Errorf("nil recorder recorded: id %d", id)
	}
}

func TestRecorderGroupsByName(t *testing.T) {
	r := newRecorder()
	parent := r.begin("round", 0, 0)
	for i := 0; i < 3; i++ {
		id := r.begin("job", parent, i+1)
		r.count(id, "edges", 10)
		r.end(id)
	}
	r.end(parent)
	if got := len(r.ms("job")); got != 3 {
		t.Errorf("%d job spans, want 3", got)
	}
	if got := r.sum("job", "edges"); got != 30 {
		t.Errorf("edges sum %d, want 30", got)
	}
	for _, sp := range r.spans {
		if sp.Name == "job" && sp.Parent != parent {
			t.Errorf("job span %d has parent %d, want %d", sp.ID, sp.Parent, parent)
		}
	}
}
