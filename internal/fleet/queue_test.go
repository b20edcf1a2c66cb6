package fleet

import "testing"

func TestFairQueueFIFOWithinClass(t *testing.T) {
	q := NewFairQueue[int](0)
	for i := 0; i < 5; i++ {
		if err := q.PushAll([]int{i}, Batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestFairQueueWeightedShare(t *testing.T) {
	q := NewFairQueue[string](0)
	for i := 0; i < 30; i++ {
		q.PushAll([]string{"i"}, Interactive) //nolint:errcheck
		q.PushAll([]string{"b"}, Batch)       //nolint:errcheck
	}
	// Over the first 8 dequeues with both classes backlogged, the 3:1
	// weights guarantee batch is served but interactive dominates.
	counts := map[string]int{}
	for i := 0; i < 8; i++ {
		v, ok := q.TryPop()
		if !ok {
			t.Fatal("queue empty early")
		}
		counts[v]++
	}
	if counts["i"] != 6 || counts["b"] != 2 {
		t.Fatalf("want 6 interactive / 2 batch in first 8, got %v", counts)
	}
}

func TestFairQueueCapacityAllOrNothing(t *testing.T) {
	q := NewFairQueue[int](3)
	if err := q.PushAll([]int{1, 2}, Batch); err != nil {
		t.Fatal(err)
	}
	if err := q.PushAll([]int{3, 4}, Batch); err != ErrQueueFull {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if q.Len() != 2 {
		t.Fatalf("failed PushAll must not enqueue anything, len=%d", q.Len())
	}
	// forcePush ignores the bound.
	q.PushAll([]int{3}, Batch) //nolint:errcheck
	if !q.forcePush(4, Batch) {
		t.Fatal("forcePush on open queue")
	}
	if q.Len() != 4 {
		t.Fatalf("len=%d want 4", q.Len())
	}
}

func TestFairQueueRemove(t *testing.T) {
	q := NewFairQueue[int](0)
	for i := 0; i < 4; i++ {
		q.PushAll([]int{i}, Interactive) //nolint:errcheck
	}
	if !q.Remove(func(v int) bool { return v == 2 }) {
		t.Fatal("remove existing")
	}
	if q.Remove(func(v int) bool { return v == 2 }) {
		t.Fatal("remove twice")
	}
	var got []int
	for {
		v, ok := q.TryPop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// TestFairQueueDrainsAfterClose: a closed queue refuses pushes but still
// hands out what it holds.
func TestFairQueueDrainsAfterClose(t *testing.T) {
	q := NewFairQueue[int](0)
	q.PushAll([]int{7}, Batch) //nolint:errcheck
	q.Close()
	if err := q.PushAll([]int{1}, Batch); err != ErrQueueClosed {
		t.Fatalf("push after close: %v", err)
	}
	if q.forcePush(1, Batch) {
		t.Fatal("forcePush after close succeeded")
	}
	if v, ok := q.TryPop(); !ok || v != 7 {
		t.Fatalf("drain after close: %d %v", v, ok)
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop after drain found an item")
	}
}
