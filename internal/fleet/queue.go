package fleet

import (
	"errors"
	"sync"
)

// Queue-capacity and lifecycle errors.
var (
	ErrQueueFull   = errors.New("fleet: queue is full")
	ErrQueueClosed = errors.New("fleet: queue is closed")
)

// FairQueue is a two-class priority queue with weighted fair dequeue.
// Within a class items come out FIFO; across classes the dequeuer picks
// the non-empty class with the least service relative to its weight
// (deficit round-robin), so interactive work keeps flowing at a
// guaranteed share while a huge batch sweep drains.
type FairQueue[T any] struct {
	mu     sync.Mutex
	cap    int // total bound across classes; 0 = unbounded
	closed bool

	q      [numClasses][]T
	head   [numClasses]int // index of the next item; amortized compaction
	served [numClasses]int64
}

// NewFairQueue returns a queue bounded to capacity items in total
// (0 = unbounded).
func NewFairQueue[T any](capacity int) *FairQueue[T] {
	return &FairQueue[T]{cap: capacity}
}

func (fq *FairQueue[T]) lenLocked() int {
	n := 0
	for c := 0; c < numClasses; c++ {
		n += len(fq.q[c]) - fq.head[c]
	}
	return n
}

// PushAll enqueues all items atomically — either every item is accepted
// or none are — so a sharded job is never half-queued.
func (fq *FairQueue[T]) PushAll(items []T, class Class) error {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if fq.closed {
		return ErrQueueClosed
	}
	if fq.cap > 0 && fq.lenLocked()+len(items) > fq.cap {
		return ErrQueueFull
	}
	fq.q[class] = append(fq.q[class], items...)
	return nil
}

// forcePush enqueues ignoring the capacity bound — used to requeue units
// already admitted (an expired lease must never lose its unit to a
// momentarily full queue). Returns false only when the queue is closed.
func (fq *FairQueue[T]) forcePush(item T, class Class) bool {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if fq.closed {
		return false
	}
	fq.q[class] = append(fq.q[class], item)
	return true
}

// pickLocked chooses the next class to serve: the non-empty class with
// the least service per unit of weight.
func (fq *FairQueue[T]) pickLocked() (Class, bool) {
	best := Class(-1)
	var bestScore float64
	for c := Class(0); c < numClasses; c++ {
		if len(fq.q[c])-fq.head[c] == 0 {
			continue
		}
		score := float64(fq.served[c]) / float64(classWeights[c])
		if best < 0 || score < bestScore {
			best, bestScore = c, score
		}
	}
	return best, best >= 0
}

func (fq *FairQueue[T]) popLocked(c Class) T {
	item := fq.q[c][fq.head[c]]
	var zero T
	fq.q[c][fq.head[c]] = zero // release the reference
	fq.head[c]++
	if fq.head[c] > 64 && fq.head[c]*2 >= len(fq.q[c]) {
		fq.q[c] = append(fq.q[c][:0], fq.q[c][fq.head[c]:]...)
		fq.head[c] = 0
	}
	fq.served[c]++
	return item
}

// TryPop returns an item, or ok=false when the queue is empty. A closed
// queue still drains.
func (fq *FairQueue[T]) TryPop() (item T, ok bool) {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if c, any := fq.pickLocked(); any {
		return fq.popLocked(c), true
	}
	var zero T
	return zero, false
}

// Remove deletes the first queued item matching pred, preserving order,
// and reports whether one was found. Dequeue cost stays O(1); removal is
// O(n) and is only used for cancellation.
func (fq *FairQueue[T]) Remove(pred func(T) bool) bool {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	for c := Class(0); c < numClasses; c++ {
		for i := fq.head[c]; i < len(fq.q[c]); i++ {
			if pred(fq.q[c][i]) {
				fq.q[c] = append(fq.q[c][:i], fq.q[c][i+1:]...)
				return true
			}
		}
	}
	return false
}

// Len returns the number of queued items across classes.
func (fq *FairQueue[T]) Len() int {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	return fq.lenLocked()
}

// ClassLen returns the number of queued items in one class.
func (fq *FairQueue[T]) ClassLen(c Class) int {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	return len(fq.q[c]) - fq.head[c]
}

// Close stops accepting pushes.
func (fq *FairQueue[T]) Close() {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	fq.closed = true
}
